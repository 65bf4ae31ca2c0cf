"""What a fresh interpreter loads: ``import ehr2icd`` loads no submodule, and
each command loads only the modules it runs (PEP 562 names in the packages,
and the callee table in ``ehr2icd.cli``). Every package-level name still
imports, as the same object as in its module.

Each check runs in a new interpreter, plain and under ``-O``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehr2icd.samples import sample_path

SRC = str(Path(__file__).resolve().parent.parent / "src")
FLAGS = pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
# Prints the ehr2icd modules loaded so far, without the package prefix.
PRINT_LOADED = (
    "\nimport json, sys\n"
    "print(json.dumps([m[8:] for m in sys.modules if m.startswith('ehr2icd.')]))\n"
)

# Every name the packages export, with the module it was imported from
# before the packages became lazy.
PACKAGE_EXPORTS = {
    "ehr2icd": {
        "config": ["PipelineConfig", "load_config"],
        "dictionary": ["Lexicon", "build_lexicon", "dict_annotate", "load_lexicon"],
        "evaluation": [
            "EvalSummary", "classify_text", "compare_annotators", "evaluate_annotator",
            "render_percent",
        ],
        "ingestion": ["RawRecord", "drop_missing", "load_dataset"],
        "linker": [
            "KBEntry", "KnowledgeBase", "LinkCandidate", "StandardRecord", "assign",
            "code_to_category", "load_kb", "lookup",
        ],
        "ner": [
            "AnnotatedExample", "EntitySpan", "TaggerModel", "decode_biluo", "encode_biluo",
            "predict", "split_corpus", "tokenize", "train_tagger",
        ],
        "normalization": [
            "DateTriple", "NormalizedRecord", "normalize_age", "normalize_date",
            "normalize_gender", "normalize_with_reason",
        ],
        "report": ["StatsReport", "aggregate", "bin_age", "emit_report"],
        "samples": ["sample_path"],
    },
    "ehr2icd.ner": {
        "biluo": ["TAGS", "TagSequence", "decode_biluo", "encode_biluo"],
        "corpus": ["read_corpus", "split_corpus", "write_internal"],
        "spans": ["DISEASE_LABEL", "AnnotatedExample", "EntitySpan", "make_span"],
        "tagger": [
            "FEATURE_TEMPLATE", "TaggerModel", "load_model", "predict", "save_model",
            "train_tagger",
        ],
        "tokenizer": ["Token", "tokenize"],
    },
}


def _python(flags: list[str], code: str, *args: str) -> str:
    """Standard output of ``code`` run with ``args`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(flags: list[str], code: str) -> set[str]:
    return set(json.loads(_python(flags, code + PRINT_LOADED).splitlines()[-1]))


def _main(argv: list) -> str:
    """Code that runs the CLI on ``argv`` and exits unless it succeeds."""
    argv = [str(a) for a in argv]
    return f"from ehr2icd.cli import main\nif main({argv!r}):\n    raise SystemExit(1)\n"


@FLAGS
def test_importing_the_package_loads_no_submodule(flags):
    assert _loaded(flags, "import ehr2icd") == set()


@FLAGS
def test_the_train_set_up_loads_only_the_corpus_reader(flags):
    code = "import ehr2icd, ehr2icd.cli\nfrom ehr2icd.ner import read_corpus"
    loaded = _loaded(flags, code)
    assert "ner.corpus" in loaded
    unused = {
        "linker", "kbimage", "normalization", "ingestion", "report", "dictionary",
        "evaluation", "ner.tagger",
    }
    assert not loaded & unused


@FLAGS
def test_train_loads_nothing_of_linking_or_reporting(flags, tmp_path):
    argv = [
        "train", "--corpus", sample_path("sample_corpus.jsonl"),
        "--model-out", tmp_path / "m.model",
    ]
    loaded = _loaded(flags, _main(argv))
    assert {"ner.tagger", "evaluation"} <= loaded  # the held-out report ran
    unused = {"linker", "kbimage", "normalization", "ingestion", "report", "dictionary"}
    assert not loaded & unused


@FLAGS
def test_pipeline_loads_neither_evaluation_nor_the_corpus_reader(flags, tmp_path):
    argv = [
        "pipeline", "--input", sample_path("sample_ehr.csv"),
        "--kb", sample_path("sample_kb.tsv"), "--model", sample_path("sample_model.txt"),
        "--out-dir", tmp_path / "out",
    ]
    loaded = _loaded(flags, _main(argv))
    assert {"linker", "report", "ner.tagger"} <= loaded
    assert not loaded & {"evaluation", "ner.corpus"}


@FLAGS
def test_link_and_pipeline_load_no_dictionary(flags, tmp_path):
    raw, kb = sample_path("sample_ehr.csv"), sample_path("sample_kb.tsv")
    model = ["--kb", kb, "--model", sample_path("sample_model.txt")]
    normalized = tmp_path / "normalized.csv"
    _python(flags, _main(["normalize", "--input", raw, "--output", normalized]))
    link = ["link", "--input", normalized, "--output", tmp_path / "linked.csv", *model]
    pipeline = ["pipeline", "--input", raw, "--out-dir", tmp_path / "out", *model]
    for argv in (link, pipeline):
        # Twice: an image miss, then a hit.
        loaded = _loaded(flags, _main(argv) * 2)
        assert {"linker", "kbimage"} <= loaded
        assert "dictionary" not in loaded


@FLAGS
def test_evaluate_on_an_image_hit_loads_no_linker(flags, tmp_path):
    argv = [
        "evaluate", "--corpus", sample_path("sample_corpus.jsonl"),
        "--kb", sample_path("sample_kb.tsv"), "--model", sample_path("sample_model.txt"),
        "--out-dir", tmp_path / "eval",
    ]
    _python(flags, _main(argv))  # writes the lexicon's image
    loaded = _loaded(flags, _main(argv))
    assert {"dictionary", "kbimage", "evaluation", "ner.tagger"} <= loaded
    assert not loaded & {"linker", "normalization", "ingestion"}


@FLAGS
def test_the_image_module_loads_no_other_module(flags):
    assert _loaded(flags, "import ehr2icd.kbimage") == {"kbimage"}


@FLAGS
def test_report_loads_no_image_code(flags, tmp_path):
    standard = Path(__file__).parent / "golden" / "standard.csv"
    loaded = _loaded(flags, _main(["report", "--input", standard, "--out-dir", tmp_path]))
    assert "report" in loaded
    assert not loaded & {"kbimage", "dictionary", "ner.tagger"}


CHECK_EXPORTS = """
import importlib, json, sys
exports = json.loads(sys.argv[1])
wrong = []
for package, by_module in exports.items():
    namespace = importlib.import_module(package)
    for module, names in by_module.items():
        for name in names:
            got = getattr(importlib.import_module(f"{package}.{module}"), name)
            if getattr(namespace, name) is not got or name not in dir(namespace):
                wrong.append(f"{package}.{name}")
namespace = {}
exec("from ehr2icd import *; from ehr2icd.ner import *", namespace)
wrong += sorted(
    {name for by_module in exports.values() for names in by_module.values() for name in names}
    - set(namespace)
)
print(json.dumps(wrong))
"""


@FLAGS
def test_every_package_name_imports_as_the_object_of_its_module(flags):
    assert _python(flags, CHECK_EXPORTS, json.dumps(PACKAGE_EXPORTS)) == "[]\n"


def test_each_cli_callee_is_the_attribute_its_table_names():
    from ehr2icd import cli

    assert cli._CALLEES["build_lexicon"] == ("dictionary", "load_lexicon")
    for name, (module, attribute) in cli._CALLEES.items():
        expected = getattr(importlib.import_module(f"ehr2icd.{module}"), attribute)
        assert getattr(cli, name) is expected, name
        assert name in dir(cli)


@FLAGS
def test_a_missing_name_is_an_attribute_error(flags):
    code = (
        "import ehr2icd, ehr2icd.cli, ehr2icd.ner\n"
        "for module in (ehr2icd, ehr2icd.cli, ehr2icd.ner):\n"
        "    try:\n"
        "        module.no_such_name\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
    )
    assert _python(flags, code) == "".join(
        f"module {name!r} has no attribute 'no_such_name'\n"
        for name in ("ehr2icd", "ehr2icd.cli", "ehr2icd.ner")
    )
