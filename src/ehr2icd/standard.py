"""Standard records: assembly from linked spans, and the standard CSV file.

Assignment takes the top-ranked candidate per recognized disease, from the
KnowledgeBase's per-text cache (``KnowledgeBase.top``); rows whose lookup
comes up empty, or scores below the threshold, keep NA in all three ICD
fields so they stay available for manual coding.

The standard file is RFC 4180 CSV with minimal quoting: a cell is quoted,
with its quotes doubled, only if it holds a comma, a quote, CR or LF
(``textio.csv_cell``). Rows repeat a few genders, ages, dates, diagnosis
texts and ICD triples many times, so the writer renders and quotes each
distinct one once and writes every row as one string of those cells.

Only type annotations name the KnowledgeBase and the spans, so reading a
standard file (``report``) loads neither the linker nor the tagger.
"""

from __future__ import annotations

import csv
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .errors import MalformedFile
from .ingestion import REQUIRED_COLUMNS
from .normalization import DateTriple, NormalizedRecord, normalize_date
from .textio import atomic_write, csv_cell, csv_line, open_input

if TYPE_CHECKING:
    from .linker import KnowledgeBase
    from .ner.spans import EntitySpan

STANDARD_HEADER = (*REQUIRED_COLUMNS, "ICD_10 Code", "ICD_10 Name", "ICD_10 Category")


class StandardRecord(NamedTuple):
    """One row of the 7-attribute standard output."""

    gender: str
    age_years: int
    diagnosis_date: DateTriple
    diagnosis_text: str
    icd10_code: Optional[str] = None
    icd10_name: Optional[str] = None
    icd10_category: Optional[str] = None


# The three ICD fields of a row that is left for manual coding.
_NA = (None, None, None)


def assign(
    record: NormalizedRecord,
    spans: list[EntitySpan],
    kb: KnowledgeBase,
    score_threshold: float = 0.0,
) -> list[StandardRecord]:
    """Build one StandardRecord per recognized disease (or one NA row for none).

    Demographics are duplicated across the rows of a multi-disease text. The
    three ICD fields are populated together from the top-ranked candidate, or
    left NA together when lookup misses or scores below the threshold.
    """
    # StandardRecord's first four fields are NormalizedRecord's, in order.
    # Each row is the record StandardRecord(...) would build, without a named
    # tuple's Python-level __new__; no default applies, so every field is given.
    head = record[:4]
    new = tuple.__new__
    if not spans:
        return [new(StandardRecord, head + _NA)]
    rows = []
    for span in spans:
        top = kb.top(span.text)
        if top is not None and top[0] >= score_threshold:
            rows.append(new(StandardRecord, head + top[1]))
        else:
            rows.append(new(StandardRecord, head + _NA))
    return rows


class _Memo(dict):
    """``function``'s result per distinct key, computed on first use."""

    __slots__ = ("function",)

    def __init__(self, function):
        self.function = function

    def __missing__(self, key):
        value = self[key] = self.function(key)
        return value


def _icd_cells(icd: tuple[Optional[str], Optional[str], Optional[str]]) -> str:
    """The last three cells of a row, NA as empty, and the line end."""
    return csv_line(value or "" for value in icd)


def write_standard_csv(path, rows: Iterable[StandardRecord]) -> None:
    """Write the 7-attribute output; NA fields become empty cells.

    Each distinct cell, and each distinct (code, name, category), is
    rendered once; a row is then one f-string of those cells.
    """
    cell = _Memo(csv_cell)
    age_cell = _Memo(str)
    date_cell = _Memo(DateTriple.render)
    icd_cells = _Memo(_icd_cells)
    with atomic_write(path, newline="") as fh:
        write = fh.write
        write(csv_line(STANDARD_HEADER))
        for gender, age, date, text, code, name, category in rows:
            write(
                f"{cell[gender]},{age_cell[age]},{cell[text]},{date_cell[date]},"
                f"{icd_cells[code, name, category]}"
            )


def read_standard_csv(path) -> list[StandardRecord]:
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != STANDARD_HEADER:
            raise MalformedFile(path, 1, "unexpected header for a standard file")
        rows = []
        for n, cells in enumerate(reader, start=2):
            if len(cells) != len(STANDARD_HEADER):
                raise MalformedFile(path, n, "wrong number of cells")
            try:
                age = int(cells[1])
            except ValueError:
                age = 0
            if age < 1:
                raise MalformedFile(path, n, f"age {cells[1]!r} is not a whole number >= 1")
            date = normalize_date(cells[3])
            if date is None:
                raise MalformedFile(path, n, f"unparseable date {cells[3]!r}")
            rows.append(
                StandardRecord(
                    gender=cells[0],
                    age_years=age,
                    diagnosis_date=date,
                    diagnosis_text=cells[2],
                    icd10_code=cells[4] or None,
                    icd10_name=cells[5] or None,
                    icd10_category=cells[6] or None,
                )
            )
    return rows
