import csv

import pytest
from hypothesis import given, strategies as st

from ehr2icd.errors import MalformedFile, MissingAttribute
from ehr2icd.ingestion import (
    NO_EXTRAS,
    REQUIRED_COLUMNS,
    RawRecord,
    drop_missing,
    load_dataset,
    read_dataset,
    read_header,
)

BOM = b"\xef\xbb\xbf"


def _write_dataset(path, records, header):
    """Write records back to CSV under the given header order: the inverse of
    ``load_dataset`` for the round-trip tests below."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for record in records:
            cells = dict(zip(REQUIRED_COLUMNS, record[:4]), **record.extras)
            writer.writerow([cells[name] for name in header])


def test_load_300_row_fixture(sample_ehr_300_path):
    records = load_dataset(sample_ehr_300_path)
    assert len(records) == 300
    assert [r.row_index for r in records] == list(range(1, 301))


def test_drop_missing_on_300_row_fixture(sample_ehr_300_path):
    # Independent oracle: scan the file for rows with any blank standard cell.
    with sample_ehr_300_path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    idx = [header.index(c) for c in ("Gender", "Age", "Diagnosis", "Diagnosis Date")]
    blank = sum(1 for row in data if any(not row[i].strip() for i in idx))
    assert blank == 59

    records = load_dataset(sample_ehr_300_path)
    kept = drop_missing(records)
    assert len(kept) == 241
    assert len(kept) == 300 - blank


def test_missing_gender_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("Sex,Age,Diagnosis,Diagnosis Date\nF,20,Cystitis,9/4/1439\n")
    with pytest.raises(MissingAttribute) as err:
        load_dataset(path)
    assert err.value.name == "Gender"


def test_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("Gender,Age,Diagnosis,Diagnosis Date\n")
    assert load_dataset(path) == []


def test_empty_file(tmp_path):
    path = tmp_path / "nothing.csv"
    path.write_text("")
    with pytest.raises(MalformedFile):
        load_dataset(path)


@pytest.mark.parametrize("data", [b"", BOM], ids=["empty", "bom-only"])
def test_empty_file_needs_a_header_row(tmp_path, data):
    path = tmp_path / "nothing.csv"
    path.write_bytes(data)
    for read in (read_dataset, read_header):
        with pytest.raises(MalformedFile, match="empty file: header row required"):
            read(path)


def test_one_leading_byte_order_mark_is_dropped(tmp_path, sample_ehr_path):
    data = sample_ehr_path.read_bytes()
    path = tmp_path / "bom.csv"
    path.write_bytes(BOM + data)
    assert read_dataset(path) == read_dataset(sample_ehr_path)
    assert read_header(path) == read_header(sample_ehr_path)
    # Only one, and only at the start of the file.
    path.write_bytes(BOM + BOM + data)
    with pytest.raises(MissingAttribute):
        read_dataset(path)
    header, rest = data.split(b"\n", 1)
    path.write_bytes(header + b"\n" + BOM + rest)
    [first, *_] = read_dataset(sample_ehr_path)[1]
    assert read_dataset(path)[1][0].gender_raw == "\ufeff" + first.gender_raw


def test_ragged_row_reports_row_number(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("Gender,Age,Diagnosis,Diagnosis Date\nF,20,Cystitis\n")
    with pytest.raises(MalformedFile) as err:
        load_dataset(path)
    assert err.value.row == 2


def test_fully_populated_row_retained_unchanged():
    record = RawRecord("F", "20", "Cystitis", "9/4/1439", 1)
    assert drop_missing([record]) == [record]


def test_whitespace_only_cell_counts_as_missing():
    record = RawRecord("F", "   ", "Cystitis", "9/4/1439", 1)
    assert drop_missing([record]) == []


def test_drop_missing_idempotent(sample_ehr_300_path):
    records = load_dataset(sample_ehr_300_path)
    once = drop_missing(records)
    assert drop_missing(once) == once


_cell = st.sampled_from(["F", "20", "x", "", " "])


@given(
    st.lists(
        st.tuples(_cell, _cell, _cell, _cell),
        max_size=30,
    )
)
def test_drop_missing_is_a_subsequence(cells):
    records = [
        RawRecord(g, a, d, t, row_index=i + 1)
        for i, (g, a, d, t) in enumerate(cells)
    ]
    kept = drop_missing(records)
    assert len(kept) <= len(records)
    indices = [r.row_index for r in kept]
    assert indices == sorted(indices)
    for record in kept:
        assert record in records


def test_write_back_reproduces_bytes(sample_ehr_path, tmp_path):
    records = load_dataset(sample_ehr_path)
    header = read_header(sample_ehr_path)
    out = tmp_path / "copy.csv"
    _write_dataset(out, records, header)
    assert out.read_bytes() == sample_ehr_path.read_bytes()


def test_extra_columns_preserved(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text(
        "Gender,Age,Clinic,Diagnosis,Diagnosis Date\n"
        "F,20,General,Cystitis,9/4/1439\n"
    )
    records = load_dataset(path)
    assert records[0].extras == {"Clinic": "General"}
    out = tmp_path / "copy.csv"
    _write_dataset(out, records, read_header(path))
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize(
    "header",
    [
        "Gender,Age,Diagnosis,Diagnosis Date,Note,Note",
        "Gender,Age,Diagnosis,Diagnosis Date,Gender",
        "Gender,,Age,Diagnosis,Diagnosis Date,",
    ],
)
def test_column_named_twice_is_rejected_on_line_1(tmp_path, header):
    path = tmp_path / "twice.csv"
    cells = ["M", "30", "Asthma", "1/2/1440", "a", "b"][: header.count(",") + 1]
    path.write_text(f"{header}\n{','.join(cells)}\n")
    with pytest.raises(MalformedFile, match="is named more than once") as err:
        load_dataset(path)
    assert err.value.row == 1


def test_records_are_immutable(tmp_path):
    path = tmp_path / "extra.csv"
    path.write_text("Gender,Age,Clinic,Diagnosis,Diagnosis Date\nF,20,General,Cystitis,9/4/1439\n")
    [record] = load_dataset(path)
    with pytest.raises(AttributeError):
        record.gender_raw = "M"
    with pytest.raises(TypeError):
        record.extras["Clinic"] = "Other"
    with pytest.raises(TypeError):
        record.extras["Ward"] = "3"
    assert record.extras == {"Clinic": "General"}


def test_records_without_extra_columns_share_one_empty_mapping(sample_ehr_300_path):
    records = load_dataset(sample_ehr_300_path)
    assert all(record.extras is NO_EXTRAS for record in records)
    assert RawRecord("F", "20", "Cystitis", "9/4/1439", 1).extras is NO_EXTRAS
    assert dict(NO_EXTRAS) == {}
