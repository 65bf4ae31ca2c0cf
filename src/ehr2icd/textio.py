"""Open UTF-8 input files so that unreadable content names the file, and
write output files whole or not at all, alone or as a group. An input may
start with a byte order mark (U+FEFF), as Excel's "CSV UTF-8" writes; it is
dropped, without seeking (so a pipe reads the same) and without a codec."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from pathlib import Path

from .errors import MalformedFile

# (temporary, destination) of each file written inside the current
# atomic_group, in order; None outside any group.
_staged: ContextVar[list | None] = ContextVar("staged", default=None)


@contextmanager
def open_input(path):
    """The lines of the UTF-8 CSV file at ``path``, for ``csv.reader``, read
    once, front to back. Bytes that do not decode as UTF-8, and CSV syntax
    errors, met while the file is read become MalformedFile naming the file.
    """
    with Path(path).open(encoding="utf-8", newline="") as fh:
        try:
            first = fh.readline().removeprefix("\ufeff")
            yield chain((first,) if first else (), fh)
        except UnicodeDecodeError as exc:
            raise MalformedFile(path, None, f"not valid UTF-8 ({exc.reason})") from exc
        except csv.Error as exc:
            raise MalformedFile(path, None, str(exc)) from exc


def read_text(path) -> str:
    """The whole of a UTF-8 file, without one leading byte order mark, with
    line endings translated to ``\\n``."""
    return decode_text(path, Path(path).read_bytes())


def decode_text(path, data: bytes) -> str:
    """``data``, the content of the file at ``path``, as ``read_text`` reads it."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(path, None, f"not valid UTF-8 ({exc.reason})") from exc
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def csv_cell(value: str) -> str:
    """``value`` as one cell of an RFC 4180 CSV line.

    The cell is quoted, with each quote doubled, only if it holds a comma, a
    quote, CR or LF. ``csv.writer`` does the same except that, with
    ``lineterminator="\\n"``, it leaves a bare CR unquoted, and a reader then
    ends the row there.
    """
    if '"' in value:
        return '"' + value.replace('"', '""') + '"'
    if "," in value or "\n" in value or "\r" in value:
        return '"' + value + '"'
    return value


def csv_line(cells) -> str:
    """One CSV line of ``cells``, ending in ``\\n``; see ``csv_cell``.

    Every line written this way has several cells: a line of one empty cell
    would read back as a row of none.
    """
    return ",".join(map(csv_cell, cells)) + "\n"


@contextmanager
def atomic_write(path, newline=None):
    """Open ``path`` for writing as UTF-8 text, replacing it only on success.

    The text goes to a new temporary file in the destination's directory,
    which ``os.replace`` moves onto ``path`` once the block ends without an
    exception; otherwise the temporary file is removed and ``path`` is left
    as it was. Inside an ``atomic_group`` the replacement waits for the
    group to succeed. A destination that exists but is not a regular file (a
    device or a pipe) is written directly. CSV writers pass ``newline=""``.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with path.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        return
    temporary = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        # Mode "x" creates the file with the same permissions as "w" would.
        fh = temporary.open("x", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    try:
        with fh:
            yield fh
        staged = _staged.get()
        if staged is None:
            os.replace(temporary, path)
        else:
            staged.append((temporary, path))
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


@contextmanager
def atomic_group():
    """Replace the files that ``atomic_write`` writes inside the block only
    once the whole block succeeds, so that a failed run leaves every one of
    them as it was and no temporary file behind. A group inside another
    group joins it.
    """
    if _staged.get() is not None:
        yield
        return
    staged = []
    token = _staged.set(staged)
    try:
        yield
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        _staged.reset(token)
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
