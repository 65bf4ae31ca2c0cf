"""Whole-CLI oracles: properties of ``normalize``, ``annotate``, ``link``,
``evaluate`` and ``pipeline`` output that hold whatever the memos and the
input row order.

Each runs the commands in-process on the bundled samples and on a seed-13
export from the benchmark's generator (``perfbench/gen.py``), whose mixed
case, misspellings and few-hundred-entry KB miss and hit every memo.
"""

import csv
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import bypass_memos

from ehr2icd import linker, normalization
from ehr2icd.cli import main
from ehr2icd.ner import tagger
from ehr2icd.samples import sample_path

ROOT = Path(__file__).resolve().parent.parent
MODEL = sample_path("sample_model.txt")
NORMALIZERS = ("normalize_gender", "normalize_age", "normalize_date")


@pytest.fixture(scope="module", params=["bundled", "generated"])
def export(request, tmp_path_factory):
    """(raw export, KB, gold corpus) of the bundled samples or of a generated
    workload."""
    if request.param == "bundled":
        return (
            sample_path("sample_ehr.csv"),
            sample_path("sample_kb.tsv"),
            sample_path("sample_corpus.jsonl"),
        )
    with pytest.MonkeyPatch.context() as patch:
        # Leave no bytecode behind in the benchmark's directory.
        patch.setattr(sys, "dont_write_bytecode", True)
        patch.syspath_prepend(str(ROOT / "scripts"))
        patch.syspath_prepend(str(ROOT / "perfbench"))
        import gen

        inputs = gen.generate(
            tmp_path_factory.mktemp("generated"),
            13,
            rows=400,
            distinct_fraction=0.3,
            blank_rate=0.03,
            kb_size=300,
            variation=0.5,
        )
    return inputs["raw"], inputs["kb"], inputs["heldout"]


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def _run_all(out_dir: Path, raw: Path, kb: Path, capsys) -> dict[str, bytes]:
    """Run normalize, link and pipeline; every output file's bytes, and stderr."""
    common = ["--kb", str(kb), "--model", str(MODEL)]
    out_dir.mkdir()
    normalized = out_dir / "normalized.csv"
    assert main(["normalize", "--input", str(raw), "--output", str(normalized)]) == 0
    link = ["link", "--input", str(normalized), "--output", str(out_dir / "linked.csv")]
    assert main(link + common) == 0
    pipeline = ["pipeline", "--input", str(raw), "--out-dir", str(out_dir / "pipeline")]
    assert main(pipeline + common) == 0
    return {**_outputs(out_dir), "stderr": capsys.readouterr().err.encode()}


def _bypass_normalizers(monkeypatch) -> Counter:
    """Make each normalizer run its body on every call; counts the calls."""
    calls = Counter()
    for name in NORMALIZERS:

        def counted(cell, name=name, body=getattr(normalization, name).__wrapped__):
            calls[name] += 1
            return body(cell)

        monkeypatch.setattr(normalization, name, counted)
    return calls


def _assert_bypassed(memos: list) -> None:
    """Each memo was asked more than once and stored nothing."""
    for memo in memos:
        assert memo.asked > 1 and not memo, memo.function


def test_every_cache_at_one_entry_gives_the_same_bytes(export, tmp_path, monkeypatch, capsys):
    # Every memo bypassed, so that each lookup computes its value again,
    # against every memo on.
    raw, kb, _ = export
    memoized = _run_all(tmp_path / "memoized", raw, kb, capsys)

    memos = bypass_memos(monkeypatch)
    calls = _bypass_normalizers(monkeypatch)
    bypassed = _run_all(tmp_path / "bypassed", raw, kb, capsys)

    assert bypassed == memoized
    # link and pipeline each build a model's three memos, a KB's and the
    # standard writer's four; pipeline also the report's.
    assert len(memos) == 2 * (3 + 1 + 4) + 1
    _assert_bypassed(memos)
    assert all(calls[name] > 1 for name in NORMALIZERS), calls


def _run_tagger_commands(out_dir: Path, raw: Path, kb: Path, corpus: Path, capsys) -> dict:
    """Run annotate and evaluate; every output file's bytes, stdout and stderr."""
    out_dir.mkdir()
    normalized = out_dir / "normalized.csv"
    assert main(["normalize", "--input", str(raw), "--output", str(normalized)]) == 0
    annotate = ["annotate", "--input", str(normalized), "--output", str(out_dir / "spans.jsonl")]
    assert main(annotate + ["--model", str(MODEL)]) == 0
    evaluate = ["evaluate", "--corpus", str(corpus), "--out-dir", str(out_dir / "eval")]
    assert main(evaluate + ["--kb", str(kb), "--model", str(MODEL)]) == 0
    out, err = capsys.readouterr()
    return {**_outputs(out_dir), "stdout": out.encode(), "stderr": err.encode()}


def test_tagger_caches_at_one_entry_give_the_same_annotate_and_evaluate_bytes(
    export, tmp_path, monkeypatch, capsys
):
    # The tagger's memos bypassed against the tagger's memos on.
    raw, kb, corpus = export
    memoized = _run_tagger_commands(tmp_path / "memoized", raw, kb, corpus, capsys)

    memos = bypass_memos(monkeypatch)
    bypassed = _run_tagger_commands(tmp_path / "bypassed", raw, kb, corpus, capsys)

    assert bypassed == memoized
    assert b"tagger," in memoized["stdout"]
    assert len(memos) == 2 * 3  # annotate's and evaluate's models
    _assert_bypassed(memos)


def _counting(counts: Counter, function):
    """``function``, counting its calls by their last argument."""

    def counted(*args):
        counts[args[-1]] += 1
        return function(*args)

    return counted


def test_each_distinct_text_span_and_date_is_worked_out_once_per_command(
    tmp_path, monkeypatch, capsys
):
    # More distinct diagnosis texts than 1,024, and more distinct span texts
    # and date cells than 4,096, each on two rows in shuffled order.
    n = 4200
    texts = [f"Diabetes mellitus type {i}" for i in range(n)]
    dates = [f"{1 + i % 28}/{1 + i % 12}/{1000 + i}" for i in range(n)]
    rows = [["F", "40", text, date] for text, date in zip(texts, dates)] * 2
    random.Random(13).shuffle(rows)
    header = ["Gender", "Age", "Diagnosis", "Diagnosis Date"]
    raw = _write_rows(tmp_path / "raw.csv", [header, *rows])
    tagged, linked = Counter(), Counter()
    monkeypatch.setattr(tagger, "_tag_text", _counting(tagged, tagger._tag_text))
    monkeypatch.setattr(linker, "_top_candidate", _counting(linked, linker._top_candidate))
    normalization.normalize_date.cache_clear()

    outputs, err = _pipeline(tmp_path / "out", raw, sample_path("sample_kb.tsv"), capsys)

    assert "standard_rows=8400 na_rows=0" in err
    assert tagged == Counter(texts)
    assert len(linked) > 4096 and set(linked.values()) == {1}
    assert normalization.normalize_date.cache_info().misses == n


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write_rows(path: Path, rows: list[list[str]]) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _pipeline(out_dir: Path, raw: Path, kb: Path, capsys) -> tuple[dict[str, bytes], str]:
    argv = ["pipeline", "--input", str(raw), "--out-dir", str(out_dir)]
    assert main(argv + ["--kb", str(kb), "--model", str(MODEL)]) == 0
    return _outputs(out_dir), capsys.readouterr().err


def _dated_export(raw: Path) -> tuple[list[str], list[list[str]]]:
    """The export's header and rows, each valid date made unique to its row.

    A standard row's date cell then names the input row it came from.
    """
    header, *rows = _read_rows(raw)
    column = header.index("Diagnosis Date")
    for i, row in enumerate(rows):
        if normalization.normalize_date.__wrapped__(row[column]) is not None:
            row[column] = f"{1 + i % 28}/{1 + i % 12}/{1000 + i}"
    return header, rows


def test_shuffled_rows_permute_the_standard_row_groups(export, tmp_path, capsys):
    raw, kb, _ = export
    header, rows = _dated_export(raw)
    column = header.index("Diagnosis Date")
    shuffled = rows[:]
    random.Random(13).shuffle(shuffled)
    assert shuffled != rows
    before, before_err = _pipeline(
        tmp_path / "before", _write_rows(tmp_path / "raw.csv", [header, *rows]), kb, capsys
    )
    after, after_err = _pipeline(
        tmp_path / "after", _write_rows(tmp_path / "shuffled.csv", [header, *shuffled]), kb, capsys
    )

    standard_header, *standard = _read_rows(tmp_path / "before" / "standard.csv")
    date_cell = standard_header.index("Diagnosis Date")
    groups: dict[str, list[list[str]]] = {}
    for row in standard:
        groups.setdefault(row[date_cell], []).append(row)
    assert sum(len(group) > 1 for group in groups.values()) > 0  # multi-disease texts
    expected = [row for raw_row in shuffled for row in groups.pop(raw_row[column], [])]
    assert not groups
    assert _read_rows(tmp_path / "after" / "standard.csv") == [standard_header, *expected]
    del before["standard.csv"], after["standard.csv"]
    assert after == before  # every report file
    assert after_err == before_err


def _summary(stderr: str) -> dict[str, int]:
    return {key: int(value) for key, value in re.findall(r"(\w+)=(\d+)", stderr)}


def test_a_blank_diagnosis_row_changes_only_the_missing_count(export, tmp_path, capsys):
    raw, kb, _ = export
    before, before_err = _pipeline(tmp_path / "before", raw, kb, capsys)
    header, *rows = _read_rows(raw)
    blank = list(rows[0])
    blank[header.index("Diagnosis")] = ""
    rows.insert(len(rows) // 2, blank)
    after, after_err = _pipeline(
        tmp_path / "after", _write_rows(tmp_path / "raw.csv", [header, *rows]), kb, capsys
    )
    assert after == before
    counts = _summary(before_err)
    # dropped= is the sum of the histogram, so it moves with missing=.
    for key in ("input_rows", "dropped", "missing"):
        counts[key] += 1
    assert _summary(after_err) == counts
