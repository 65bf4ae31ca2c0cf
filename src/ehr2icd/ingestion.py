"""Load tabular EHR exports and drop rows with missing values.

The input is a UTF-8 CSV file (RFC 4180 quoting) whose header must contain
the four standard columns, matched exactly and case-sensitively; a header
that names a column twice is rejected, since its cells could not be told
apart. A record holds the row's four standard cells and its position.
``read_dataset`` also returns the rows as parsed, other columns included,
so that a writer can put each source row back with only its standard cells
replaced.

Records are named tuples, so later stages pass them on and share them
without copying.
"""

from __future__ import annotations

import csv
from typing import NamedTuple

from .errors import MalformedFile
from .textio import open_input

REQUIRED_COLUMNS = ("Gender", "Age", "Diagnosis", "Diagnosis Date")


class RawRecord(NamedTuple):
    """One EHR row exactly as found in the source file."""

    gender_raw: str
    age_raw: str
    diagnosis_text: str
    diagnosis_date_raw: str
    row_index: int  # 1-based position among data rows


def read_header(path) -> list[str]:
    """Return the header row of a CSV file."""
    with open_input(path) as lines:
        for row in csv.reader(lines):
            return row
    raise MalformedFile(path, 1, "empty file: header row required")


def load_dataset(path) -> list[RawRecord]:
    """The records of ``read_dataset(path)``."""
    return read_dataset(path)[1]


def read_dataset(path) -> tuple[list[list[str]], list[RawRecord]]:
    """Read the export at ``path`` once: its rows as ``csv.reader`` parses
    them, header first, so that data row n is ``rows[n]``; and a RawRecord
    per data row.

    Raises MalformedFile if any of the four standard headers is absent or
    named twice, and for rows whose cell count disagrees with the header.
    """
    with open_input(path) as lines:
        rows = list(csv.reader(lines))
    if not rows:
        raise MalformedFile(path, 1, "empty file: header row required")

    header = rows[0]
    width = len(header)
    seen = set()
    for name in header:
        if name in seen:
            raise MalformedFile(path, 1, f"column {name!r} is named more than once")
        seen.add(name)
    for name in REQUIRED_COLUMNS:
        if name not in header:
            detail = f"required column {name!r} is missing from the header"
            raise MalformedFile(path, 1, detail)
    g, a, d, t = map(header.index, REQUIRED_COLUMNS)

    records = []
    # The record RawRecord(...) would build, without a named tuple's
    # Python-level __new__.
    new = tuple.__new__
    for n, row in enumerate(rows[1:], start=1):
        if len(row) != width:
            raise MalformedFile(path, n + 1, f"expected {width} fields, got {len(row)}")
        records.append(new(RawRecord, (row[g], row[a], row[d], row[t], n)))
    return rows, records


def drop_missing(records: list[RawRecord]) -> list[RawRecord]:
    """Keep only records whose four standard fields are non-blank after trimming.

    A missing value in any one field invalidates the entire row; order is
    preserved and nothing else about surviving records changes.
    """
    return [
        r
        for r in records
        if r.gender_raw.strip()
        and r.age_raw.strip()
        and r.diagnosis_text.strip()
        and r.diagnosis_date_raw.strip()
    ]

