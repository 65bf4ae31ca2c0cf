"""What callers rely on of the record types: pickling, equality, hashing,
immutability, per-instance state, and checks that hold under ``python -O``;
and that importing the CLI loads no dataclass machinery."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import make_kb

from ehr2icd import linker
from ehr2icd.config import PipelineConfig, apply_overrides
from ehr2icd.evaluation import EvalSummary
from ehr2icd.linker import KBEntry, KnowledgeBase, build_index, lookup
from ehr2icd.ner import TagSequence, load_model, predict, tokenize
from ehr2icd.report import StatsReport

SRC = str(Path(linker.__file__).resolve().parents[1])
QUERIES = ("diabetic cataract", "Diabetes mellitus type 1", "mononeuropathy", "Zebra")
TEXTS = ("New discovered hypertension + stroke", "Cystitis", "Type 1 diabetes mellitus", "")


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("k", [1, 4])
def test_a_pickled_knowledge_base_ranks_as_the_original(table9_kb, k):
    copy = pickle.loads(pickle.dumps(table9_kb))
    assert copy == table9_kb
    for query in QUERIES:
        assert lookup(query, copy, k) == lookup(query, table9_kb, k)


def test_a_pickled_model_predicts_as_the_original(sample_model_path):
    model = load_model(sample_model_path)
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model
    for text in TEXTS:
        assert predict(copy, text) == predict(model, text)


def test_knowledge_base_equality_and_hash_are_by_entries_only(table9_kb):
    for query in QUERIES:  # fill the caches of one of them
        lookup(query, table9_kb, 4)
    other_index = build_index((KBEntry("A00", "Cholera"),))
    same = KnowledgeBase(table9_kb.entries, other_index)
    assert same == table9_kb
    assert hash(same) == hash(table9_kb)
    assert same in {table9_kb}
    # Unlike a named tuple, it equals no tuple of its fields.
    assert table9_kb != table9_kb.entries and table9_kb != (table9_kb.entries,)
    assert make_kb(*table9_kb.entries[:3]) != table9_kb


def test_model_equality_ignores_its_caches(sample_model_path):
    warm = load_model(sample_model_path)
    for text in TEXTS:
        predict(warm, text)
    assert warm == load_model(sample_model_path)
    assert warm != type(warm)(warm.weights, warm.epochs + 1, warm.seed)


def test_compiled_records_are_immutable(table9_kb, sample_model_path):
    # The caches of a KnowledgeBase and a TaggerModel are derived from their
    # fields when built, and the checks of the others run only then.
    model = load_model(sample_model_path)
    summary = EvalSummary.from_counts(1, 1, 2)
    sequence = TagSequence(tuple(tokenize("Cystitis")), ("U-Disease",))
    for record, name, value in (
        (table9_kb, "entries", ()),
        (model, "weights", {}),
        (summary, "n_false", 5),
        (sequence, "tags", ()),
        (PipelineConfig(), "epochs", 3),
    ):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert summary == EvalSummary(1, 1, 2, 4, 0.5)
    assert summary != (1, 1, 2, 4, 0.5)


def test_each_stats_report_has_its_own_maps():
    first, second = StatsReport(), StatsReport()
    for name in ("by_category", "by_category_gender", "by_category_agebin", "by_month"):
        assert getattr(first, name) is not getattr(second, name)
    first.by_category["A06"] = 1
    assert second.by_category == {}
    assert first != second
    assert StatsReport() == StatsReport()


def test_apply_overrides_leaves_its_input_unchanged():
    config = PipelineConfig(epochs=7)
    changed = apply_overrides(config, epochs=3, seed=None, kb_path="kb.tsv")
    assert (changed.epochs, changed.seed, changed.kb_path) == (3, 13, "kb.tsv")
    assert config == PipelineConfig(epochs=7)
    assert (config.epochs, config.kb_path) == (7, None)


CHECKS_UNDER_O = """
from ehr2icd.evaluation import EvalSummary
from ehr2icd.ner import TagSequence, tokenize
for build in (
    lambda: EvalSummary(1, 1, 1, 4, 0.75),
    lambda: TagSequence(tuple(tokenize("Cystitis")), ()),
):
    try:
        build()
    except ValueError:
        print("raised")
"""


def test_record_checks_hold_under_python_O():
    proc = _python("-O", "-c", CHECKS_UNDER_O)
    assert (proc.returncode, proc.stdout) == (0, "raised\nraised\n"), proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_importing_the_cli_loads_no_dataclass_machinery(flags):
    modules = ("dataclasses", "inspect", "ast", "dis")
    code = f"import sys, ehr2icd.cli; print([m for m in {modules!r} if m in sys.modules])"
    proc = _python(*flags, "-c", code)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
