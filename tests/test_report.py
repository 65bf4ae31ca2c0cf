import csv
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import DATA_DIR

from ehr2icd.errors import MalformedFile
from ehr2icd.normalization import DateTriple
from ehr2icd.report import (
    StatsReport,
    aggregate,
    bin_age,
    emit_report,
)
from ehr2icd.standard import StandardRecord, read_standard_csv
from ehr2icd.textio import open_input

# Independent statement of the intended bin edges.
BIN_ORACLE = [
    (1, 9, "1-9"),
    (10, 29, "10-29"),
    (30, 49, "30-49"),
    (50, 69, "50-69"),
    (70, 89, "70-89"),
    (90, 120, "90+"),
]


@pytest.mark.parametrize("age,label", [(56, "50-69"), (34, "30-49"), (6, "1-9")])
def test_named_bins(age, label):
    assert bin_age(age) == label


def test_bins_match_oracle_for_every_age():
    for low, high, label in BIN_ORACLE:
        for age in range(low, high + 1):
            assert bin_age(age) == label


def test_bin_age_rejects_infants():
    with pytest.raises(ValueError):
        bin_age(0)


def _row(category, gender="Female", age=20, month=4, code=None):
    code = code or (f"{category}.1" if category else None)
    return StandardRecord(
        gender=gender,
        age_years=age,
        diagnosis_date=DateTriple(9, month, 1439),
        diagnosis_text="text",
        icd10_code=code if category else None,
        icd10_name="name" if category else None,
        icd10_category=category,
    )


def test_direct_counting():
    report = aggregate([_row("E10", "Female"), _row("E10", "Male")])
    assert report.by_category == {"E10": 2}
    assert report.by_category_gender[("E10", "Female")] == 1
    assert report.by_category_gender[("E10", "Male")] == 1
    assert report.total_rows == 2
    assert report.na_rows == 0


def test_empty_input():
    report = aggregate([])
    assert report.total_rows == 0
    assert report.na_rows == 0
    assert report.by_category == {}
    assert report.by_month == {}


def test_hand_counted_20_row_fixture():
    rows = read_standard_csv(DATA_DIR / "standard_20.csv")
    assert len(rows) == 20
    # Oracle: scan for rows with an empty code cell.
    na_scan = sum(1 for row in rows if row.icd10_code is None)
    assert na_scan == 3
    report = aggregate(rows)
    assert report.na_rows == 3
    assert sum(report.by_category.values()) == 17
    assert report.total_rows == 20


def test_na_rows_counted_in_months_but_not_categories():
    report = aggregate([_row(None, month=2), _row("E10", month=2)])
    assert report.by_month[(1439, 2)] == 2
    assert report.by_category == {"E10": 1}
    assert report.na_rows == 1


def test_aggregate_is_permutation_invariant():
    rows = [
        _row("E10", "Female", 20),
        _row("I15", "Male", 60),
        _row(None, "Female", 30),
        _row("E10", "Male", 91, month=5),
    ]
    shuffled = rows[:]
    random.Random(5).shuffle(shuffled)
    assert aggregate(rows) == aggregate(shuffled)


def test_bin_counts_sum_to_category_counts():
    rows = read_standard_csv(DATA_DIR / "standard_20.csv")
    report = aggregate(rows)
    for category, count in report.by_category.items():
        by_bins = sum(
            n for (c, _), n in report.by_category_agebin.items() if c == category
        )
        by_gender = sum(
            n for (c, _), n in report.by_category_gender.items() if c == category
        )
        assert by_bins == count
        assert by_gender == count


def test_emission_is_deterministic(tmp_path):
    rows = read_standard_csv(DATA_DIR / "standard_20.csv")
    report = aggregate(rows)
    first = tmp_path / "a"
    second = tmp_path / "b"
    paths_a = emit_report(report, first)
    paths_b = emit_report(report, second)
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes()


def read_report(out_dir) -> StatsReport:
    """Round-trip oracle: parse back a CSV report directory, rejecting a
    file with a wrong cell count, a count that is not an integer or a
    missing summary row."""
    out_dir = Path(out_dir)
    report = StatsReport()
    report.by_category = {
        row[0]: row[1] for row in _read_csv(out_dir / "by_category.csv", 2, (1,))
    }
    report.by_category_gender = {
        (row[0], row[1]): row[2]
        for row in _read_csv(out_dir / "by_category_gender.csv", 3, (2,))
    }
    report.by_category_agebin = {
        (row[0], row[1]): row[2]
        for row in _read_csv(out_dir / "by_category_agebin.csv", 3, (2,))
    }
    report.by_month = {
        (row[0], row[1]): row[2]
        for row in _read_csv(out_dir / "by_month.csv", 3, (0, 1, 2))
    }
    summary_path = out_dir / "summary.csv"
    summary = {row[0]: row[1] for row in _read_csv(summary_path, 2, (1,))}
    for key in ("total_rows", "na_rows"):
        if key not in summary:
            raise MalformedFile(summary_path, None, f"no {key} row")
    report.total_rows = summary["total_rows"]
    report.na_rows = summary["na_rows"]
    report.validate()
    return report


def _read_csv(path: Path, width: int, int_columns: tuple[int, ...]) -> list[list]:
    """The data rows of a report CSV, with the cells in ``int_columns`` as ints."""
    with open_input(path) as lines:
        rows = list(csv.reader(lines))
    if not rows:
        raise MalformedFile(path, 1, "missing header row")
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise MalformedFile(path, n, f"expected {width} cells")
        for i in int_columns:
            try:
                row[i] = int(row[i])
            except ValueError:
                detail = f"cell {row[i]!r} is not an integer"
                raise MalformedFile(path, n, detail) from None
    return rows[1:]


@pytest.mark.parametrize(
    "icd",
    ["A06.81,Amebic cystitis,", ",,A06", "A06.81,,A06", ",Amebic cystitis,"],
)
def test_a_half_coded_row_is_rejected_naming_its_line(tmp_path, icd):
    # A row whose three ICD cells are neither all filled nor all empty would
    # count as NA, or under a category with no code.
    path = tmp_path / "standard.csv"
    path.write_text(
        "Gender,Age,Diagnosis,Diagnosis Date,ICD_10 Code,ICD_10 Name,ICD_10 Category\n"
        "Female,20,Cystitis,9/4/1439,A06.81,Amebic cystitis,A06\n"
        f"Female,20,Cystitis,9/4/1439,{icd}\n"
        "Female,20,Tonsillitis,9/4/1439,,,\n"
    )
    with pytest.raises(MalformedFile) as err:
        read_standard_csv(path)
    assert err.value.row == 3
    assert "all filled or all empty" in str(err.value)


def test_csv_roundtrip(tmp_path):
    rows = read_standard_csv(DATA_DIR / "standard_20.csv")
    report = aggregate(rows)
    emit_report(report, tmp_path)
    assert read_report(tmp_path) == report


@pytest.mark.parametrize(
    "name,contents,detail",
    [
        ("by_category.csv", b"Category,Count\nA06,\xff\n", "not valid UTF-8"),
        ("by_category.csv", b"Category,Count\nA06,x\n", "row 2: cell 'x' is not an integer"),
        ("by_month.csv", b"Year,Month,Count\n1439,4,3\n1439,May,1\n", "row 3:"),
        ("summary.csv", b"Key,Value\nna_rows,0\n", "no total_rows row"),
    ],
    ids=["not-utf8", "count-not-integer", "month-not-integer", "no-total-rows"],
)
def test_read_report_rejects_malformed_file_naming_it(tmp_path, name, contents, detail):
    emit_report(aggregate(read_standard_csv(DATA_DIR / "standard_20.csv")), tmp_path)
    (tmp_path / name).write_bytes(contents)
    with pytest.raises(MalformedFile) as err:
        read_report(tmp_path)
    assert str(tmp_path / name) in str(err.value)
    assert detail in str(err.value)


def test_json_document_has_all_sections(tmp_path):
    [path] = emit_report(aggregate([]), tmp_path, fmt="json")
    text = path.read_text()
    for key in (
        "by_category",
        "by_category_gender",
        "by_category_agebin",
        "by_month",
        "total_rows",
        "na_rows",
    ):
        assert key in text


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_report(aggregate([]), tmp_path, fmt="xml")


def test_validate_catches_inconsistent_totals():
    broken = StatsReport(by_category={"E10": 2}, total_rows=1, na_rows=0)
    with pytest.raises(ValueError):
        broken.validate()


def _oracle_aggregate(rows):
    """aggregate as it counted before: straight into the report, bin_age per row."""
    report = StatsReport()
    for row in rows:
        report.total_rows += 1
        month_key = (row.diagnosis_date.year, row.diagnosis_date.month)
        report.by_month[month_key] = report.by_month.get(month_key, 0) + 1
        if row.icd10_category is None:
            report.na_rows += 1
            continue
        category = row.icd10_category
        report.by_category[category] = report.by_category.get(category, 0) + 1
        gender_key = (category, row.gender)
        report.by_category_gender[gender_key] = (
            report.by_category_gender.get(gender_key, 0) + 1
        )
        bin_key = (category, bin_age(row.age_years))
        report.by_category_agebin[bin_key] = (
            report.by_category_agebin.get(bin_key, 0) + 1
        )
    report.validate()
    return report


_rows = st.lists(
    st.builds(
        _row,
        category=st.sampled_from([None, "E10", "I15", "A06"]),
        gender=st.sampled_from(["Female", "Male"]),
        age=st.integers(min_value=1, max_value=120),
        month=st.integers(min_value=1, max_value=12),
    ),
    max_size=60,
)


@given(_rows)
def test_aggregate_matches_counting_loop_oracle(rows):
    report, expected = aggregate(rows), _oracle_aggregate(rows)
    assert report == expected
    # Same keys met in the same order, so the maps iterate alike too.
    for name in ("by_category", "by_category_gender", "by_category_agebin", "by_month"):
        assert list(getattr(report, name).items()) == list(getattr(expected, name).items())


def test_aggregate_matches_oracle_on_fixture_and_rejects_infants():
    rows = read_standard_csv(DATA_DIR / "standard_20.csv")
    assert aggregate(rows) == _oracle_aggregate(rows)
    with pytest.raises(ValueError):
        aggregate([_row("E10", age=0)])
