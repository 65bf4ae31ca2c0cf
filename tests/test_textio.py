import csv
import io
import os
import stat
import threading

import pytest
from hypothesis import given, settings, strategies as st

from ehr2icd.errors import MalformedFile, UnwritablePath
from ehr2icd.normalization import DateTriple
from ehr2icd.report import CSV_FILES, StatsReport, emit_report
from ehr2icd.standard import StandardRecord, write_standard_csv
from ehr2icd.textio import atomic_group, atomic_write, csv_line, read_text


class Boom(Exception):
    pass


def test_atomic_write_replaces_destination_on_success(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with atomic_write(path, newline="") as fh:
        fh.write("new\r\n")
    assert path.read_bytes() == b"new\r\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_failed_write_leaves_neither_destination_nor_temporary(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(Boom):
        with atomic_write(path) as fh:
            fh.write("half a file")
            fh.flush()
            # The partial text is in a temporary file, not at the destination.
            assert not path.exists() and len(os.listdir(tmp_path)) == 1
            raise Boom()
    assert os.listdir(tmp_path) == []


def test_failed_write_keeps_previous_destination(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("previous run\n")
    with pytest.raises(Boom):
        with atomic_write(path) as fh:
            fh.write("half a file")
            raise Boom()
    assert path.read_text() == "previous run\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_writer_failing_mid_rows_leaves_no_file(tmp_path):
    def rows():
        yield StandardRecord("Female", 20, DateTriple(9, 4, 1439), "Cystitis")
        raise Boom()

    path = tmp_path / "standard.csv"
    with pytest.raises(Boom):
        write_standard_csv(path, rows())
    assert os.listdir(tmp_path) == []


# NUL is left out: csv.reader rejects it before Python 3.11.
_ANY_CELL = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))


@given(st.lists(_ANY_CELL, min_size=2, max_size=5))
def test_csv_line_reads_back_and_matches_csv_writer_without_cr(cells):
    line = csv_line(cells)
    assert next(csv.reader(io.StringIO(line, newline=""))) == cells
    if not any("\r" in cell for cell in cells):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerow(cells)
        assert line == expected.getvalue()


def test_missing_directory_error_names_destination(tmp_path):
    path = tmp_path / "no_such_dir" / "out.csv"
    with pytest.raises(FileNotFoundError) as err:
        with atomic_write(path):
            pass
    assert err.value.filename == str(path)


def test_non_regular_destination_is_written_directly(tmp_path):
    # A pipe cannot be replaced by a file; its reader must get the text.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    with atomic_write(fifo) as fh:
        fh.write("through the pipe\n")
    reader.join(timeout=10)
    assert received == ["through the pipe\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert os.listdir(tmp_path) == ["pipe"]


def test_group_replaces_every_file_only_at_its_end(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("old a\n")
    with atomic_group():
        with atomic_write(first) as fh:
            fh.write("new a\n")
        with atomic_write(second) as fh:
            fh.write("new b\n")
        assert first.read_text() == "old a\n" and not second.exists()
    assert (first.read_text(), second.read_text()) == ("new a\n", "new b\n")
    assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]


def test_failed_group_keeps_every_previous_file(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("old a\n")
    with pytest.raises(Boom):
        with atomic_group():
            with atomic_write(first) as fh:
                fh.write("new a\n")
            # An inner group joins the outer one: its success commits nothing.
            with atomic_group():
                with atomic_write(second) as fh:
                    fh.write("new b\n")
            raise Boom()
    assert first.read_text() == "old a\n"
    assert os.listdir(tmp_path) == ["a.csv"]
    # Outside any group, writes are replaced at once again.
    with atomic_write(second) as fh:
        fh.write("b\n")
    assert second.read_text() == "b\n"


def test_report_csvs_are_replaced_as_a_set(tmp_path):
    report = StatsReport(by_category={"Circulatory": 1}, total_rows=1)
    emit_report(StatsReport(), tmp_path)
    previous = {name: (tmp_path / name).read_bytes() for name in CSV_FILES}
    # The last file cannot be written; the four before it must not change.
    (tmp_path / CSV_FILES[-1]).unlink()
    (tmp_path / CSV_FILES[-1]).mkdir()
    with pytest.raises(UnwritablePath):
        emit_report(report, tmp_path)
    for name in CSV_FILES[:-1]:
        assert (tmp_path / name).read_bytes() == previous[name]
    assert sorted(os.listdir(tmp_path)) == sorted(CSV_FILES)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="ab\r\n\u2028\u0085é€😀\ufeff", max_size=30).map(str.encode),
        st.binary(max_size=30),
    )
)
def test_read_text_reads_as_a_text_file_does(tmp_path_factory, data):
    # Universal newlines, one leading byte order mark dropped, and
    # undecodable bytes named as the file's fault.
    path = tmp_path_factory.mktemp("read_text") / "input.txt"
    path.write_bytes(data)
    try:
        with open(path, encoding="utf-8") as fh:
            expected = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        with pytest.raises(MalformedFile) as err:
            read_text(path)
        assert str(path) in str(err.value)
        assert f"not valid UTF-8 ({exc.reason})" in str(err.value)
    else:
        assert read_text(path) == expected
