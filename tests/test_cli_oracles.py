"""Whole-CLI oracles: properties of ``normalize``, ``train``, ``annotate``,
``link``, ``evaluate`` and ``pipeline`` output that hold whatever the memos
and the input row order.

Each runs the commands in-process on the bundled samples and on a seed-13
export from the benchmark's generator (``perfbench/gen.py``), whose mixed
case, misspellings and few-hundred-entry KB miss and hit every memo.
"""

import contextlib
import csv
import io
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from conftest import bypass_memos
from hypothesis import HealthCheck, given, settings, strategies as st

from ehr2icd import linker, normalization, standard
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
    """Make each normalizer run its body on every call, also where the
    standard reader imported it; counts the calls."""
    calls = Counter()
    for name in NORMALIZERS:

        def counted(cell, name=name, body=getattr(normalization, name).__wrapped__):
            calls[name] += 1
            return body(cell)

        for module in (normalization, standard):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
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


@pytest.mark.parametrize("form", ["csv", "json"])
def test_report_with_its_memos_bypassed_gives_the_same_bytes(
    export, form, tmp_path, monkeypatch, capsys
):
    # Every memo report uses bypassed (the age bins' and the date
    # normalizer's), against every memo on.
    raw, kb, _ = export
    _pipeline(tmp_path / "pipeline", raw, kb, capsys)
    argv = ["report", "--input", str(tmp_path / "pipeline" / "standard.csv"), "--format", form]

    def report(out_dir: Path) -> dict[str, bytes]:
        assert main(argv + ["--out-dir", str(out_dir)]) == 0
        err = capsys.readouterr().err.replace(str(out_dir), "<out>")
        return {**_outputs(out_dir), "stderr": err.encode()}

    memoized = report(tmp_path / "memoized")
    memos = bypass_memos(monkeypatch)
    calls = _bypass_normalizers(monkeypatch)
    bypassed = report(tmp_path / "bypassed")

    assert bypassed == memoized
    assert any(name.endswith(f".{form}") for name in memoized)
    assert len(memos) == 1  # the report's age bins
    _assert_bypassed(memos)
    assert calls["normalize_date"] > 1, calls


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


def _evaluate(out_dir: Path, corpus: Path, kb: Path, capsys) -> tuple[dict, list[list[str]]]:
    """Run evaluate; each outcome file's rows, and stdout's rows."""
    argv = ["evaluate", "--corpus", str(corpus), "--out-dir", str(out_dir)]
    assert main(argv + ["--kb", str(kb), "--model", str(MODEL)]) == 0
    outcomes = {
        name: _read_rows(out_dir / f"outcomes_{name}.csv")[1:] for name in ("tagger", "dictionary")
    }
    stdout = list(csv.reader(capsys.readouterr().out.splitlines()))
    return outcomes, stdout


def test_evaluate_on_each_half_of_the_corpus_adds_up_to_the_whole(export, tmp_path, capsys):
    # A metamorphic relation: each text is classified on its own, so
    # evaluating the two halves of a corpus gives the whole run's outcomes,
    # and counts that add up to its counts.
    _, kb, corpus = export
    lines = [line for line in corpus.read_text(encoding="utf-8").split("\n") if line.strip()]
    middle = len(lines) // 2
    halves = []
    for name, part in (("first", lines[:middle]), ("second", lines[middle:])):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("\n".join(part) + "\n", encoding="utf-8")
        halves.append(_evaluate(tmp_path / name, path, kb, capsys))
    (first, first_out), (second, second_out) = halves
    whole, whole_out = _evaluate(tmp_path / "whole", corpus, kb, capsys)

    shift = len(first["tagger"])
    assert 0 < shift < len(whole["tagger"])
    for name in ("tagger", "dictionary"):
        shifted = [[str(int(row[0]) + shift), *row[1:]] for row in second[name]]
        assert first[name] + shifted == whole[name], name
    # Annotator,True result,False result,Accuracy: the counts add up.
    assert first_out[0] == second_out[0] == whole_out[0]
    for a, b, w in zip(first_out[1:], second_out[1:], whole_out[1:]):
        assert a[0] == b[0] == w[0]
        assert [int(a[1]) + int(b[1]), int(a[2]) + int(b[2])] == [int(w[1]), int(w[2])]
    assert [row[0] for row in whole_out[1:]] == ["tagger", "dictionary"]


def _train(model: Path, corpus: Path, capsys) -> tuple[bytes, str]:
    """Train on the corpus; the model's bytes and stderr."""
    assert main(["train", "--corpus", str(corpus), "--model-out", str(model)]) == 0
    return model.read_bytes(), capsys.readouterr().err


def test_train_with_its_memos_bypassed_gives_the_same_model_and_report(
    export, tmp_path, monkeypatch, capsys
):
    # The trained model's memos (the held-out check asks them) bypassed,
    # against them on. Both runs write one path, so that stderr can match.
    _, _, corpus = export
    model = tmp_path / "model.txt"
    memoized = _train(model, corpus, capsys)

    memos = bypass_memos(monkeypatch)
    bypassed = _train(model, corpus, capsys)

    assert bypassed == memoized
    assert "train: held-out accuracy" in memoized[1]
    assert len(memos) == 3  # the trained model's
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
    memo, misses = normalization.normalize_date, []

    def observed(cell):
        date = memo(cell)
        misses.append(memo.cache_info().misses)
        return date

    monkeypatch.setattr(normalization, "normalize_date", observed)

    outputs, err = _pipeline(tmp_path / "out", raw, sample_path("sample_kb.tsv"), capsys)

    assert "standard_rows=8400 na_rows=0" in err
    assert tagged == Counter(texts)
    assert len(linked) > 4096 and set(linked.values()) == {1}
    assert len(misses) == 2 * n and misses[-1] == n
    assert memo.cache_info().currsize == 0  # emptied as the command ended


def test_the_normalizer_memos_last_one_command(tmp_path, monkeypatch, capsys):
    # normalize, pipeline and report each use the memos and leave them empty;
    # a second round of the three writes what the first did.
    memos = [getattr(normalization, name) for name in NORMALIZERS]
    used = []

    def observed(memo):
        def call(cell):
            used.append(cell)
            return memo(cell)

        return call

    for name, memo in zip(NORMALIZERS, memos):
        monkeypatch.setattr(normalization, name, observed(memo))
    monkeypatch.setattr(standard, "normalize_date", observed(standard.normalize_date))
    raw, kb = sample_path("sample_ehr_300.csv"), sample_path("sample_kb.tsv")
    runs = []
    for run in ("first", "second"):
        out = tmp_path / run
        out.mkdir()
        for argv in (
            ["normalize", "--input", str(raw), "--output", str(out / "normalized.csv")],
            ["pipeline", "--input", str(raw), "--out-dir", str(out / "pipeline"),
             "--kb", str(kb), "--model", str(MODEL)],
            ["report", "--input", str(out / "pipeline" / "standard.csv"),
             "--out-dir", str(out / "report")],
        ):
            used.clear()
            assert main(argv) == 0
            assert used and not any(memo.cache_info().currsize for memo in memos), argv[0]
        stderr = capsys.readouterr().err.replace(str(out), "<out>")
        runs.append({**_outputs(out), "stderr": stderr.encode()})
    assert runs[0] == runs[1]


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


# Cells for generated exports: valid and invalid forms of each standard
# column, ages at each bound, and blank cells, which drop the row as missing.
GENDERS = ["F", "female", "M", "Male", "x", ""]
AGES = ["1", "9", "10", "29", "89", "90", "0", "2 1/2", "30 yrs", "6 months", "abc", ""]
DATES = [
    "9/4/1439", "14-5-1439", "31-12-2020", "1/2/2020", "1/1/1", "0/1/2020", "1/13/2020",
    "5 years ago", "",
]
TEXTS = [
    "Cystitis",
    "Tonsillitis",
    "The disease is Diabetes Mellitus 2",
    "New discovered hypertension + stroke",
    "Follow up Diabetes mellitus type I /Primary hypothyroidism",
    "Routine medical checkup",
    "Siuisitis",
    "",
]
EXPORT_ROWS = st.lists(
    st.tuples(*map(st.sampled_from, (GENDERS, AGES, TEXTS, DATES))), min_size=2, max_size=24
)


def _write_export(path: Path, rows, bom: bool, crlf: bool) -> Path:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r\n" if crlf else "\n")
    writer.writerows([("Gender", "Age", "Diagnosis", "Diagnosis Date"), *rows])
    path.write_bytes(("\ufeff" if bom else "").encode() + text.getvalue().encode())
    return path


def _report_counts(report_dir: Path) -> Counter:
    """Every count of a CSV report, keyed by its file and key cells."""
    counts = Counter()
    for path in report_dir.iterdir():
        for *key, count in _read_rows(path)[1:]:
            counts[(path.name, *key)] += int(count)
    return counts


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=EXPORT_ROWS, data=st.data(), bom=st.booleans(), crlf=st.booleans())
def test_pipeline_on_two_halves_of_an_export_adds_up_to_the_whole(rows, data, bom, crlf):
    # A metamorphic relation (Chen et al., ACM CSUR 2018): each row is
    # worked out on its own, so the standard rows of the export's two halves,
    # one after the other, are the whole run's, and every count adds up.
    cut = data.draw(st.integers(1, len(rows) - 1), label="cut")
    kb = sample_path("sample_kb.tsv")
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for name, part in (("first", rows[:cut]), ("second", rows[cut:]), ("whole", rows)):
            raw = _write_export(Path(tmp, f"{name}.csv"), part, bom, crlf)
            out_dir = Path(tmp, name)
            argv = ["pipeline", "--input", str(raw), "--out-dir", str(out_dir)]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(argv + ["--kb", str(kb), "--model", str(MODEL)]) == 0
            header, *standard_rows = _read_rows(out_dir / "standard.csv")
            counts = _report_counts(out_dir / "report")
            runs.append((header, standard_rows, counts, _summary(err.getvalue())))
    (head_a, rows_a, report_a, summary_a), (head_b, rows_b, report_b, summary_b) = runs[:2]
    head, whole_rows, report, summary = runs[2]
    assert head_a == head_b == head
    assert rows_a + rows_b == whole_rows
    assert report_a + report_b == report
    assert {key: summary_a[key] + summary_b[key] for key in summary} == summary
    assert summary["input_rows"] == len(rows)
    assert summary["standard_rows"] == len(whole_rows)
