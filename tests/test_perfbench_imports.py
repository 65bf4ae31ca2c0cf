"""The benchmark's modules still import, and every function it traces exists.

``perfbench/tracecli.py`` wraps functions by name on ``ehr2icd.cli`` and
other modules, and ``perfbench/gen.py`` imports from ``ehr2icd``; a rename
there breaks the benchmark without failing any other test.
"""

import sys
from pathlib import Path

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
