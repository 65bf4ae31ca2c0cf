"""Load tabular EHR exports and drop rows with missing values.

The input is a UTF-8 CSV file (RFC 4180 quoting) whose header must contain
the four standard columns, matched exactly and case-sensitively. Columns
beyond the four are preserved verbatim so a write-back of untouched records
reproduces the source rows; a header that names a column twice is rejected,
since its cells could not be told apart.

Records are named tuples, immutable like their read-only ``extras``
mappings, so later stages pass them on and share them without copying.
"""

from __future__ import annotations

import csv
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import MalformedFile, MissingAttribute
from .textio import open_input

REQUIRED_COLUMNS = ("Gender", "Age", "Diagnosis", "Diagnosis Date")

# The extras of every record from an export with only the four columns.
NO_EXTRAS: Mapping[str, str] = MappingProxyType({})


class RawRecord(NamedTuple):
    """One EHR row exactly as found in the source file."""

    gender_raw: str
    age_raw: str
    diagnosis_text: str
    diagnosis_date_raw: str
    row_index: int  # 1-based position among data rows
    extras: Mapping[str, str] = NO_EXTRAS  # read-only: column -> cell


def read_header(path) -> list[str]:
    """Return the header row of a CSV file."""
    with open_input(path) as lines:
        for row in csv.reader(lines):
            return row
    raise MalformedFile(path, 1, "empty file: header row required")


def load_dataset(path) -> list[RawRecord]:
    """The records of ``read_dataset(path)``."""
    return read_dataset(path)[1]


def read_dataset(path) -> tuple[list[str], list[RawRecord]]:
    """Read the export at ``path`` once: its header row, and a RawRecord per
    data row.

    Raises MissingAttribute if any of the four standard headers is absent
    and MalformedFile for a header that names a column twice and for rows
    whose cell count disagrees with the header.
    """
    with open_input(path) as lines:
        rows = list(csv.reader(lines))
    if not rows:
        raise MalformedFile(path, 1, "empty file: header row required")

    header = rows[0]
    width = len(header)
    for i, name in enumerate(header):
        if name in header[:i]:
            raise MalformedFile(path, 1, f"column {name!r} is named more than once")
    for name in REQUIRED_COLUMNS:
        if name not in header:
            raise MissingAttribute(name)
    g, a, d, t = map(header.index, REQUIRED_COLUMNS)
    extra_columns = [(i, name) for i, name in enumerate(header) if name not in REQUIRED_COLUMNS]

    records = []
    extras = NO_EXTRAS
    # The record RawRecord(...) would build, without a named tuple's
    # Python-level __new__; no default applies, so every field is given.
    new = tuple.__new__
    for n, row in enumerate(rows[1:], start=1):
        if len(row) != width:
            raise MalformedFile(path, n + 1, f"expected {width} fields, got {len(row)}")
        if extra_columns:
            extras = MappingProxyType({name: row[i] for i, name in extra_columns})
        records.append(new(RawRecord, (row[g], row[a], row[d], row[t], n, extras)))
    return header, records


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

