"""The benchmark's modules still import, and every function it traces exists.

``perfbench/tracecli.py`` wraps functions by name on ``ehr2icd.cli`` and
other modules, and ``perfbench/gen.py`` imports from ``ehr2icd``; a rename
there breaks the benchmark without failing any other test. Each command the
benchmark traces also runs under the tracer here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from ehr2icd.samples import sample_path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_functions_resolve(monkeypatch):
    # Leave no bytecode behind in the benchmark's directory.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gen
    import tracecli

    assert callable(gen.query_tokens)
    for name, (module, attribute) in tracecli.TRACED.items():
        assert callable(getattr(module, attribute, None)), name


def _traced(stem: Path, *argv) -> dict:
    """Run one command under ``perfbench/tracecli.py``; the counts it wrote."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracecli.py"), str(stem), "1",
         *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(f"{stem}.spans.jsonl").is_file()
    return json.loads(Path(f"{stem}.counts.json").read_text())


def test_tracecli_counts_train_evaluate_and_pipeline(tmp_path):
    # The tracer wraps attributes of ehr2icd.cli before the command runs, so
    # each command must still call every callee through those attributes.
    model = tmp_path / "m.model"
    kb = sample_path("sample_kb.tsv")
    counts = _traced(
        tmp_path / "train", "train", "--corpus", sample_path("sample_corpus.jsonl"),
        "--model-out", model,
    )
    assert counts["train_examples"] > 0
    counts = _traced(
        tmp_path / "evaluate", "evaluate", "--corpus", sample_path("sample_corpus.jsonl"),
        "--kb", kb, "--model", model, "--out-dir", tmp_path / "eval",
    )
    assert counts["evaluate_texts"] > 0
    counts = _traced(
        tmp_path / "pipeline", "pipeline", "--input", sample_path("sample_ehr.csv"),
        "--kb", kb, "--model", model, "--out-dir", tmp_path / "pipeline",
    )
    assert counts["linker.standard_rows"] == counts["rows_from_spans"] > 0
