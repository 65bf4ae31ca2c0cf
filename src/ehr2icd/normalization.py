"""Rule-based canonicalization of gender, age, and diagnosis-date cells.

Each normalizer returns None (NA) when a value matches none of its known
patterns; a record is dropped as soon as any of its three demographic values
normalizes to NA. Diagnosis text always passes through untouched.

Records are built as ``tuple.__new__(Record, fields)``, which skips a named
tuple's Python-level ``__new__``. A record keeps the source row's position,
not its other cells: ``normalize`` writes those back from the rows that
``ingestion.read_dataset`` returns.

Exports repeat the same few genders, ages and dates across many rows, so
each normalizer memoizes its result per distinct cell (``functools.cache``,
which evicts nothing). A result depends only on the cell, and is None, a
string, an int or a DateTriple, all immutable, so a memoized result is the
one a fresh call would return. ``clear_memos`` empties the three memos; the
CLI calls it when each command ends, so that they last one command, not the
process.
"""

from __future__ import annotations

import re
from functools import cache
from typing import NamedTuple, Optional

from .ingestion import RawRecord

FEMALE = "Female"
MALE = "Male"

# Exact-match vocabularies; substring matching would let "foo" hit "f".
_FEMALE_FORMS = frozenset({"F", "f", "female", "Female"})
_MALE_FORMS = frozenset({"M", "m", "male", "Male"})

_INTEGER_RE = re.compile(r"^\d+$")
_YEARS_RE = re.compile(r"^(\d+)\s*(?:y|yr|yrs|year|years)$", re.IGNORECASE)
_MONTHS_RE = re.compile(r"^(\d+)\s*(?:m|month|months)$", re.IGNORECASE)
_FRACTION_RE = re.compile(r"^(\d+)\s+\d+/\d+$")
_DATE_RE = re.compile(r"^(\d+)[/-](\d+)[/-](\d+)$")


class DateTriple(NamedTuple):
    """A day/month/year triple kept in its source calendar."""

    day: int
    month: int
    year: int

    def render(self) -> str:
        # Canonical form uses "/" and no zero padding.
        return f"{self.day}/{self.month}/{self.year}"


class NormalizedRecord(NamedTuple):
    gender: str
    age_years: int
    diagnosis_date: DateTriple
    diagnosis_text: str
    row_index: int


@cache
def normalize_gender(raw: str) -> Optional[str]:
    """Map one of the eight known gender formats to Female/Male, else NA."""
    value = raw.strip()
    if value in _FEMALE_FORMS:
        return FEMALE
    if value in _MALE_FORMS:
        return MALE
    return None


@cache
def normalize_age(raw: str) -> Optional[int]:
    """Extract whole years from an age cell, else NA.

    Handles plain integers, integers with a year marker (y/yr/yrs/year/years),
    and mixed fractions ("2 1/2" keeps the whole part). Month-valued ages and
    results of zero map to NA: ages under one year are filtered out.
    """
    value = raw.strip()
    match = _INTEGER_RE.match(value)
    if match:
        return _whole_years(value)
    match = _YEARS_RE.match(value)
    if match:
        return _whole_years(match.group(1))
    if _MONTHS_RE.match(value):
        return None
    match = _FRACTION_RE.match(value)
    if match:
        return _whole_years(match.group(1))
    return None


def _whole_years(digits: str) -> Optional[int]:
    try:
        age = int(digits)
    except ValueError:  # past int()'s limit on digits (4300 by default)
        return None
    return age if age >= 1 else None


@cache
def normalize_date(raw: str) -> Optional[DateTriple]:
    """Parse a day/month/year cell separated by "/" or "-", else NA.

    Textual values ("5 years ago") are NA, and so is a day outside 1-31, a
    month outside 1-12 or a year below 1. Dates stay in their source
    calendar (Gregorian or Hijri, both of twelve months of at most 31 days),
    so no check against a month's own length is made.
    """
    match = _DATE_RE.match(raw.strip())
    if not match:
        return None
    try:
        day, month, year = map(int, match.groups())
    except ValueError:  # past int()'s limit on digits (4300 by default)
        return None
    if not (1 <= day <= 31 and 1 <= month <= 12 and year >= 1):
        return None
    return tuple.__new__(DateTriple, (day, month, year))


# The memos as defined here, whatever later replaces the module's names.
_MEMOS = (normalize_gender, normalize_age, normalize_date)


def clear_memos() -> None:
    """Empty the three normalizers' memos."""
    for memo in _MEMOS:
        memo.cache_clear()


def normalize_with_reason(
    record: RawRecord,
) -> tuple[Optional[NormalizedRecord], Optional[str]]:
    """Normalize all three demographics, or name the first field that is NA.

    Returns (record, None) on success and (None, "gender" | "age" | "date")
    when a record is dropped.
    """
    gender = normalize_gender(record.gender_raw)
    if gender is None:
        return None, "gender"
    age = normalize_age(record.age_raw)
    if age is None:
        return None, "age"
    date = normalize_date(record.diagnosis_date_raw)
    if date is None:
        return None, "date"
    fields = (gender, age, date, record.diagnosis_text, record.row_index)
    return tuple.__new__(NormalizedRecord, fields), None
