"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, use_checkout_sources  # noqa: E402

use_checkout_sources()

import bench  # noqa: E402
import gen  # noqa: E402
from spans import (  # noqa: E402
    Span,
    Tracer,
    module_self_s,
    read_jsonl,
    self_times_ns,
    write_jsonl,
)

SMALL = dict(rows=300, distinct_fraction=0.1, blank_rate=0.05, kb_size=200, variation=0.5,
             corpus_size=40, heldout_size=30)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_byte_identical_per_seed(tmp_path):
    gen.generate(tmp_path / "a", seed=5, **SMALL)
    gen.generate(tmp_path / "b", seed=5, **SMALL)
    gen.generate(tmp_path / "c", seed=6, **SMALL)
    a, b, c = (_files(tmp_path / name) for name in "abc")
    assert sorted(a) == ["corpus.jsonl", "heldout.jsonl", "kb.tsv", "raw.csv"]
    assert a == b
    assert all(a[name] != c[name] for name in a)


def test_distinct_fraction_one_gives_all_distinct_texts():
    texts = gen.diagnosis_texts(random.Random(1), 3000, 1.0, variation=0.7)
    assert len(texts) == len(set(texts)) == 3000


def test_distinct_fraction_sets_the_number_of_distinct_texts():
    texts = gen.diagnosis_texts(random.Random(1), 5000, 0.02, variation=0.0)
    assert len(texts) == 5000
    assert len(set(texts)) == 100


def test_generated_kb_keeps_bundled_entries_and_unique_codes():
    lines = gen.kb_lines(random.Random(2), 2000)
    codes = [line.split("\t")[0] for line in lines]
    assert len(lines) == 2000 and len(set(codes)) == 2000
    assert lines[: len(gen._bundled_kb_lines())] == gen._bundled_kb_lines()


def test_self_time_subtracts_the_interval_children_cover():
    # root [0, 100) has children [10, 30) and [20, 50) (overlapping) and
    # [90, 120) (running past the root's end); the second child has its own
    # child [25, 35).
    spans = [
        Span("cli.pipeline", 0, 100, None, 0),
        Span("ner.predict", 10, 30, 0, 0),
        Span("linker.assign", 20, 50, 0, 0),
        Span("ner.tokenize", 25, 35, 2, 0),
        Span("report.emit", 90, 120, 0, 0),
    ]
    # root covered by [10, 50) and [90, 100): 40 + 10.
    assert self_times_ns(spans) == [50, 20, 20, 10, 30]
    assert module_self_s(spans) == pytest.approx(
        {"cli": 50e-9, "ner": 30e-9, "linker": 20e-9, "report": 30e-9}
    )


def test_tracer_records_parents_run_id_and_wrapped_calls(tmp_path):
    tracer = Tracer(run_id=7)
    double = tracer.wrap("ner.train", lambda x: 2 * x)
    with tracer.span("cli.train"):
        with tracer.span("ner.read_corpus"):
            pass
        assert double(21) == 42
    names = [(s.name, s.parent, s.run_id) for s in tracer.spans]
    assert names == [("cli.train", None, 7), ("ner.read_corpus", 0, 7), ("ner.train", 0, 7)]
    assert all(s.end_ns >= s.start_ns for s in tracer.spans)
    assert [(name, args, result) for name, _, args, _, result in tracer.calls] == [
        ("ner.train", (21,), 42)
    ]
    write_jsonl(tmp_path / "t.jsonl", tracer.spans)
    assert read_jsonl(tmp_path / "t.jsonl") == tracer.spans


def test_printed_metrics_and_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == bench.E2E_METRICS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == bench.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_span_metrics_cover_every_timed_layer_metric():
    tracer = Tracer()
    with tracer.span("cli.pipeline"):
        with tracer.span("ner.predict"):
            pass
        with tracer.span("linker.assign"):
            pass
    metrics, predicts, assigns = bench._span_metrics(tracer.spans)
    assert len(predicts) == len(assigns) == 1
    derived = {"trace.overhead_s", "ner.predict_us_p50", "ner.predict_us_p99",
               "linker.assign_us_p50", "linker.assign_us_p99"}
    timed = {name for name, unit in bench.LAYER_METRICS.items() if unit in ("s", "us")}
    assert set(metrics) == timed - derived


def test_traced_job_matches_the_cli_and_passes_the_invariants(tmp_path):
    inputs = gen.generate(tmp_path / "inputs", seed=3, **SMALL)
    traced = bench.cli_job(inputs, tmp_path / "traced", trace_run_id=1)
    plain = bench.cli_job(inputs, tmp_path / "plain")
    assert all(step.ok for step in traced.steps.values()) and len(traced.steps) == 3
    assert bench.digests(traced.out) == bench.digests(plain.out)
    spans, counts = bench.read_trace(traced)
    ops = bench.Ops()
    bench.check_invariants(ops, inputs, traced, counts)
    assert ops.attempted > 0 and ops.failed == 0
    assert {s.name for s in spans if s.parent is None} == {"cli.train", "cli.evaluate", "cli.pipeline"}
    assert counts["ingestion.rows_in"] == SMALL["rows"]


def test_yardstick_scales_by_the_mean_of_the_runs_around_a_process(monkeypatch, tmp_path):
    walls = iter([0.2, 0.3, 0.5])
    monkeypatch.setattr(
        bench, "run_process", lambda argv, stem: bench.Step(next(walls), 0, 0, b"", b"")
    )
    yardstick = bench.Yardstick(tmp_path / "yardstick")
    assert yardstick.scale(1.0) == pytest.approx(bench.YARDSTICK_NOMINAL_S / 0.25)
    assert yardstick.scale(2.0) == pytest.approx(2 * bench.YARDSTICK_NOMINAL_S / 0.4)
    assert yardstick.walls == [0.2, 0.3, 0.5]


def test_yardstick_job_runs(tmp_path):
    yardstick = bench.Yardstick(tmp_path / "yardstick")
    assert len(yardstick.walls) == 1 and yardstick.walls[0] > 0
