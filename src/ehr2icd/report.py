"""Aggregate standard records into disease statistics and emit report files.

Counts are grouped by ICD category, by (category, gender), by (category,
age bin), and by diagnosis (year, month). Rows with NA ICD fields count
toward the totals and the month map but are excluded from the category maps.

``COUNT_MAPS`` lays out the report: each map's CSV file and JSON section
come from its row there. A CSV file holds one row per key, the key's cells
and then the count; a JSON section maps a one-column key to its count, and
nests a two-column key's second cell under its first. ``summary.csv`` and
the document's top level hold the two totals. Emission is deterministic:
keys are written in sorted order, so the same report always produces
byte-identical files.

Rows are ``standard.StandardRecord``s; ``standard`` reads and writes the
standard file without the KB code, so ``report`` loads none of it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .frozen import Memo
from .standard import StandardRecord
from .textio import atomic_group, atomic_write, csv_line

# Each count map: the StatsReport attribute, which names its CSV file and
# JSON section, and the header of its key columns.
COUNT_MAPS = (
    ("by_category", ("Category",)),
    ("by_category_gender", ("Category", "Gender")),
    ("by_category_agebin", ("Category", "AgeBin")),
    ("by_month", ("Year", "Month")),
)
TOTALS = ("na_rows", "total_rows")
CSV_FILES = (*(f"{name}.csv" for name, _ in COUNT_MAPS), "summary.csv")


class StatsReport:
    """The report's count maps and totals; each report has its own maps."""

    __slots__ = (*(name for name, _ in COUNT_MAPS), *TOTALS)

    def __init__(self, total_rows: int = 0, na_rows: int = 0, **maps: dict):
        for name, _ in COUNT_MAPS:
            counts = maps.pop(name, None)
            setattr(self, name, {} if counts is None else counts)
        if maps:
            raise TypeError(f"not a count map: {', '.join(sorted(maps))}")
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
        total_rows,
        na_rows,
        by_category=by_category,
        by_category_gender=by_category_gender,
        by_category_agebin=by_category_agebin,
        by_month=by_month,
    )
    report.validate()
    return report


def emit_report(report: StatsReport, out_dir, fmt: str = "csv") -> list[Path]:
    """Write the report as CSV files or a single structured JSON document."""
    report.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with atomic_group():
            return _emit_csv(report, out_dir)
    if fmt == "json":
        return _emit_json(report, out_dir)
    raise ValueError(f"unknown report format {fmt!r}")


def _key_cells(key, columns: tuple[str, ...]) -> list[str]:
    """The cells of a count map's key, one per key column."""
    return [str(key)] if len(columns) == 1 else list(map(str, key))


def _emit_csv(report: StatsReport, out_dir: Path) -> list[Path]:
    tables = [
        (
            [*columns, "Count"],
            [
                [*_key_cells(key, columns), str(count)]
                for key, count in sorted(getattr(report, name).items())
            ],
        )
        for name, columns in COUNT_MAPS
    ]
    tables.append((["Key", "Value"], [[key, str(getattr(report, key))] for key in TOTALS]))
    paths = [out_dir / name for name in CSV_FILES]
    for path, (header, rows) in zip(paths, tables, strict=True):
        with atomic_write(path, newline="") as fh:
            fh.write(csv_line(header))
            fh.writelines(map(csv_line, rows))
    return paths


def _emit_json(report: StatsReport, out_dir: Path) -> list[Path]:
    import json

    document = {key: getattr(report, key) for key in TOTALS}
    for name, columns in COUNT_MAPS:
        section = document[name] = {}
        for key, count in getattr(report, name).items():
            cells = _key_cells(key, columns)
            node = section if len(cells) == 1 else section.setdefault(cells[0], {})
            node[cells[-1]] = count
    path = out_dir / "report.json"
    with atomic_write(path) as fh:
        fh.write(json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n")
    return [path]
