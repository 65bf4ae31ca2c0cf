"""Open UTF-8 input files so that unreadable content names the file."""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path

from .errors import MalformedFile


@contextmanager
def open_input(path, newline=None):
    """Open ``path`` for reading as UTF-8 text.

    Bytes that do not decode as UTF-8, and CSV syntax errors, met while the
    file is read become MalformedFile naming the file. CSV readers pass
    ``newline=""``.
    """
    with Path(path).open(encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise MalformedFile(path, None, f"not valid UTF-8 ({exc.reason})") from exc
        except csv.Error as exc:
            raise MalformedFile(path, None, str(exc)) from exc


def read_text(path) -> str:
    """The whole of a UTF-8 file, with line endings translated to ``\\n``."""
    with open_input(path) as fh:
        return fh.read()
