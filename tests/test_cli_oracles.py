"""Whole-CLI oracles: properties of ``normalize``, ``annotate``, ``link``,
``evaluate`` and ``pipeline`` output that hold whatever the caches and the
input row order.

Each runs the commands in-process on the bundled samples and on a seed-13
export from the benchmark's generator (``perfbench/gen.py``), whose mixed
case, misspellings and few-hundred-entry KB miss and hit every cache.
"""

import csv
import random
import re
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from ehr2icd import cli, linker, normalization
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


def _keep(loaded: list, load):
    """``load``, keeping what each call returns in ``loaded``."""

    def wrapper(path):
        loaded.append(load(path))
        return loaded[-1]

    return wrapper


def test_every_cache_at_one_entry_gives_the_same_bytes(export, tmp_path, monkeypatch, capsys):
    raw, kb, _ = export
    cached = _run_all(tmp_path / "cached", raw, kb, capsys)

    for module, name in (
        (tagger, "PREDICT_CACHE_SIZE"),
        (tagger, "PREFIX_CACHE_SIZE"),
        (tagger, "CONTEXT_CACHE_SIZE"),
        (linker, "TOP_CACHE_SIZE"),
    ):
        monkeypatch.setattr(module, name, 1)
    for name in NORMALIZERS:
        body = getattr(normalization, name).__wrapped__
        monkeypatch.setattr(normalization, name, lru_cache(1)(body))
    loaded = []
    monkeypatch.setattr(cli, "load_kb", _keep(loaded, cli.load_kb))
    monkeypatch.setattr(cli, "load_model", _keep(loaded, cli.load_model))
    uncached = _run_all(tmp_path / "uncached", raw, kb, capsys)

    assert uncached == cached
    # Each cache the runs went through held one entry and was missed.
    caches = [getattr(normalization, name) for name in NORMALIZERS]
    for thing in loaded:
        slots = ("_top",) if isinstance(thing, linker.KnowledgeBase) else (
            "_prefix", "_context", "_spans"
        )
        caches += [getattr(thing, slot) for slot in slots]
    assert len(caches) == 3 + 2 * 1 + 2 * 3  # link and pipeline each load both
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == 1 and info.misses > 1, cache


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
    raw, kb, corpus = export
    cached = _run_tagger_commands(tmp_path / "cached", raw, kb, corpus, capsys)

    for name in ("PREDICT_CACHE_SIZE", "PREFIX_CACHE_SIZE", "CONTEXT_CACHE_SIZE"):
        monkeypatch.setattr(tagger, name, 1)
    models = []
    monkeypatch.setattr(cli, "load_model", _keep(models, cli.load_model))
    uncached = _run_tagger_commands(tmp_path / "uncached", raw, kb, corpus, capsys)

    assert uncached == cached
    assert b"tagger," in cached["stdout"]
    assert len(models) == 2  # annotate's and evaluate's
    for model in models:
        for slot in ("_prefix", "_context", "_spans"):
            info = getattr(model, slot).cache_info()
            assert info.maxsize == 1 and info.misses > 1, slot


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
