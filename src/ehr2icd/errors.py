"""Exception types shared across the pipeline.

Everything derived from DataError describes a problem with input data and is
mapped to exit code 2 by the CLI; ConfigError covers usage and configuration
problems and maps to exit code 1.
"""

from __future__ import annotations


class DataError(Exception):
    """Malformed or inconsistent input data."""


class ConfigError(Exception):
    """Invalid configuration value or command usage."""


class MissingAttribute(DataError):
    def __init__(self, name: str):
        super().__init__(f"required column {name!r} is missing from the header")
        self.name = name


class MalformedFile(DataError):
    def __init__(self, path, row: int | None, detail: str):
        where = f" row {row}:" if row is not None else ""
        super().__init__(f"{path}:{where} {detail}")
        self.path = path
        self.row = row


class RecordError(DataError):
    """A problem within one record; ``path`` names its file when it came
    from one."""

    def __init__(self, record: int, detail: str, path=None):
        if path is not None:
            detail = f"{path}: row {record}: {detail}"
        else:
            detail = f"record {record}: {detail}"
        super().__init__(detail)
        self.record = record
        self.path = path


class OffsetOutOfRange(RecordError):
    """An entity's offsets fall outside its record's content."""


class OverlapError(RecordError):
    """Two spans of one record overlap."""


class EmptyCorpus(DataError):
    def __init__(self, detail: str = "corpus contains no examples"):
        super().__init__(detail)


class EncodingError(DataError):
    def __init__(self, record: int, detail: str):
        super().__init__(f"example {record}: {detail}")
        self.record = record
        self.detail = detail


class DuplicateCode(DataError):
    def __init__(self, code: str):
        super().__init__(f"duplicate code {code!r} in knowledge base")
        self.code = code


class InvalidCode(DataError):
    def __init__(self, code: str, line: int | None = None):
        where = f" at line {line}" if line is not None else ""
        super().__init__(f"invalid ICD-10 code {code!r}{where}")
        self.code = code
        self.line = line


class UnsupportedModelVersion(DataError):
    def __init__(self, version: str):
        super().__init__(f"model uses unknown feature-template version {version!r}")
        self.version = version


class UnwritablePath(DataError):
    def __init__(self, path, detail: str):
        super().__init__(f"cannot write {path}: {detail}")
        self.path = path
