"""Load tabular EHR exports and drop rows with missing values.

The input is a UTF-8 CSV file (RFC 4180 quoting) whose header must contain
the four standard columns, matched exactly and case-sensitively. Columns
beyond the four are preserved verbatim so a write-back of untouched records
reproduces the source rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedFile, MissingAttribute
from .textio import open_input

REQUIRED_COLUMNS = ("Gender", "Age", "Diagnosis", "Diagnosis Date")


@dataclass(frozen=True)
class RawRecord:
    """One EHR row exactly as found in the source file."""

    gender_raw: str
    age_raw: str
    diagnosis_text: str
    diagnosis_date_raw: str
    row_index: int  # 1-based position among data rows
    extras: dict[str, str] = field(default_factory=dict)

    def cell(self, column: str) -> str:
        if column == "Gender":
            return self.gender_raw
        if column == "Age":
            return self.age_raw
        if column == "Diagnosis":
            return self.diagnosis_text
        if column == "Diagnosis Date":
            return self.diagnosis_date_raw
        return self.extras[column]


def read_header(path) -> list[str]:
    """Return the header row of a CSV file."""
    with open_input(path, newline="") as fh:
        for row in csv.reader(fh):
            return row
    raise MalformedFile(path, 1, "empty file: header row required")


def load_dataset(path) -> list[RawRecord]:
    """Read the export at ``path`` into RawRecords, one per data row.

    Raises MissingAttribute if any of the four standard headers is absent
    and MalformedFile for rows whose cell count disagrees with the header.
    """
    with open_input(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise MalformedFile(path, 1, "empty file: header row required")

    header = rows[0]
    for name in REQUIRED_COLUMNS:
        if name not in header:
            raise MissingAttribute(name)
    standard = {name: header.index(name) for name in REQUIRED_COLUMNS}
    extra_columns = [
        (i, name) for i, name in enumerate(header) if i not in standard.values()
    ]

    records = []
    for n, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise MalformedFile(
                path, n + 1, f"expected {len(header)} fields, got {len(row)}"
            )
        records.append(
            RawRecord(
                gender_raw=row[standard["Gender"]],
                age_raw=row[standard["Age"]],
                diagnosis_text=row[standard["Diagnosis"]],
                diagnosis_date_raw=row[standard["Diagnosis Date"]],
                row_index=n,
                extras={name: row[i] for i, name in extra_columns},
            )
        )
    return records


def drop_missing(records: list[RawRecord]) -> list[RawRecord]:
    """Keep only records whose four standard fields are non-blank after trimming.

    A missing value in any one field invalidates the entire row; order is
    preserved and nothing else about surviving records changes.
    """
    return [
        r
        for r in records
        if all(
            cell.strip()
            for cell in (r.gender_raw, r.age_raw, r.diagnosis_text, r.diagnosis_date_raw)
        )
    ]


def write_dataset(path, records: list[RawRecord], header: list[str]) -> None:
    """Write records back to CSV under the given header order."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for record in records:
            writer.writerow([record.cell(name) for name in header])
