"""Aggregate standard records into disease statistics and emit report files.

Counts are grouped by ICD category, by (category, gender), by (category,
age bin), and by diagnosis (year, month). Rows with NA ICD fields count
toward the totals and the month map but are excluded from the category maps.
Emission is deterministic: maps are serialized in sorted key order, so the
same report always produces byte-identical files.

Rows are ``standard.StandardRecord``s; ``standard`` reads and writes the
standard file without the KB code, so ``report`` loads none of it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .errors import UnwritablePath
from .frozen import Memo
from .standard import StandardRecord
from .textio import atomic_group, atomic_write, csv_line

CSV_FILES = (
    "by_category.csv",
    "by_category_gender.csv",
    "by_category_agebin.csv",
    "by_month.csv",
    "summary.csv",
)


class StatsReport:
    """The report's count maps and totals; each report has its own maps."""

    __slots__ = (
        "by_category",
        "by_category_gender",
        "by_category_agebin",
        "by_month",
        "total_rows",
        "na_rows",
    )

    def __init__(
        self,
        by_category: dict[str, int] | None = None,
        by_category_gender: dict[tuple[str, str], int] | None = None,
        by_category_agebin: dict[tuple[str, str], int] | None = None,
        by_month: dict[tuple[int, int], int] | None = None,
        total_rows: int = 0,
        na_rows: int = 0,
    ):
        self.by_category = {} if by_category is None else by_category
        self.by_category_gender = {} if by_category_gender is None else by_category_gender
        self.by_category_agebin = {} if by_category_agebin is None else by_category_agebin
        self.by_month = {} if by_month is None else by_month
        self.total_rows = total_rows
        self.na_rows = na_rows

    def __eq__(self, other):
        if type(other) is not StatsReport:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def validate(self) -> None:
        if sum(self.by_category.values()) + self.na_rows != self.total_rows:
            raise ValueError("category counts plus NA rows must equal the total")
        for (category, _), count in self.by_category_gender.items():
            if count > self.by_category.get(category, 0):
                raise ValueError(f"gender count exceeds category count for {category}")
        for (category, _), count in self.by_category_agebin.items():
            if count > self.by_category.get(category, 0):
                raise ValueError(f"age-bin count exceeds category count for {category}")


def bin_age(age_years: int) -> str:
    """Bins of width 20 anchored at 10 ("10-29", "30-49", ...), "1-9" for children."""
    if age_years < 1:
        raise ValueError(f"age must be >= 1, got {age_years}")
    if age_years <= 9:
        return "1-9"
    if age_years >= 90:
        return "90+"
    low = 10 + 20 * ((age_years - 10) // 20)
    return f"{low}-{low + 19}"


def aggregate(rows: Iterable[StandardRecord]) -> StatsReport:
    """Count rows into the report maps; permutation-invariant over the input."""
    by_category: dict[str, int] = {}
    by_category_gender: dict[tuple[str, str], int] = {}
    by_category_agebin: dict[tuple[str, str], int] = {}
    by_month: dict[tuple[int, int], int] = {}
    bins = Memo(bin_age)
    total_rows = na_rows = 0
    for row in rows:
        total_rows += 1
        date = row.diagnosis_date
        month_key = (date.year, date.month)
        by_month[month_key] = by_month.get(month_key, 0) + 1
        category = row.icd10_category
        if category is None:
            na_rows += 1
            continue
        by_category[category] = by_category.get(category, 0) + 1
        gender_key = (category, row.gender)
        by_category_gender[gender_key] = by_category_gender.get(gender_key, 0) + 1
        bin_key = (category, bins[row.age_years])
        by_category_agebin[bin_key] = by_category_agebin.get(bin_key, 0) + 1
    report = StatsReport(
        by_category, by_category_gender, by_category_agebin, by_month, total_rows, na_rows
    )
    report.validate()
    return report


def emit_report(report: StatsReport, out_dir, fmt: str = "csv") -> list[Path]:
    """Write the report as CSV files or a single structured JSON document."""
    report.validate()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            with atomic_group():
                return _emit_csv(report, out_dir)
        if fmt == "json":
            return _emit_json(report, out_dir)
    except OSError as exc:
        raise UnwritablePath(out_dir, str(exc)) from exc
    raise ValueError(f"unknown report format {fmt!r}")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with atomic_write(path, newline="") as fh:
        fh.write(csv_line(header))
        fh.writelines(map(csv_line, rows))


def _emit_csv(report: StatsReport, out_dir: Path) -> list[Path]:
    paths = [out_dir / name for name in CSV_FILES]
    _write_csv(
        paths[0],
        ["Category", "Count"],
        [[c, str(n)] for c, n in sorted(report.by_category.items())],
    )
    _write_csv(
        paths[1],
        ["Category", "Gender", "Count"],
        [[c, g, str(n)] for (c, g), n in sorted(report.by_category_gender.items())],
    )
    _write_csv(
        paths[2],
        ["Category", "AgeBin", "Count"],
        [[c, b, str(n)] for (c, b), n in sorted(report.by_category_agebin.items())],
    )
    _write_csv(
        paths[3],
        ["Year", "Month", "Count"],
        [[str(y), str(m), str(n)] for (y, m), n in sorted(report.by_month.items())],
    )
    _write_csv(
        paths[4],
        ["Key", "Value"],
        [["na_rows", str(report.na_rows)], ["total_rows", str(report.total_rows)]],
    )
    return paths


def _emit_json(report: StatsReport, out_dir: Path) -> list[Path]:
    document = {
        "by_category": dict(sorted(report.by_category.items())),
        "by_category_gender": _nest(report.by_category_gender),
        "by_category_agebin": _nest(report.by_category_agebin),
        "by_month": _nest(
            {(str(y), str(m)): n for (y, m), n in report.by_month.items()}
        ),
        "total_rows": report.total_rows,
        "na_rows": report.na_rows,
    }
    path = out_dir / "report.json"
    with atomic_write(path) as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    return [path]


def _nest(pairs: dict[tuple[str, str], int]) -> dict[str, dict[str, int]]:
    nested: dict[str, dict[str, int]] = {}
    for (outer, inner), count in sorted(pairs.items()):
        nested.setdefault(outer, {})[inner] = count
    return nested
