"""Exception types shared across the pipeline.

Everything derived from DataError describes a problem with input data and is
mapped to exit code 2 by the CLI; ConfigError covers usage and configuration
problems and maps to exit code 1. A bad input file raises MalformedFile,
whose message names the file and, where the file has rows, the row. A file
that cannot be read or written raises the OSError the system gave, which the
CLI also maps to exit code 2. EncodingError numbers an example in a list to
train on, which has no file; ``train`` names the corpus line instead.
"""

from __future__ import annotations


class DataError(Exception):
    """Malformed or inconsistent input data."""


class ConfigError(Exception):
    """Invalid configuration value or command usage."""


class MalformedFile(DataError):
    """A problem in the file at ``path``, on line or row ``row`` (1-based;
    None when no one row is at fault)."""

    def __init__(self, path, row: int | None, detail: str):
        where = f" row {row}:" if row is not None else ""
        super().__init__(f"{path}:{where} {detail}")
        self.path = path
        self.row = row


class EncodingError(DataError):
    def __init__(self, record: int, detail: str):
        super().__init__(f"example {record}: {detail}")
        self.record = record
        self.detail = detail
