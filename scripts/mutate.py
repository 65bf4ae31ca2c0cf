#!/usr/bin/env python3
"""Mutation testing of one module: which small faults do its tests miss?

    python3 scripts/mutate.py src/ehr2icd/linker.py tests/test_linker.py tests/test_records.py

Each mutant changes one place in the module:

* a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``in`` and ``not in``, ``is`` and ``is not``, each way;
* an integer constant plus one;
* a binary ``+`` and ``-`` swapped, each way;
* a ``raise`` or a ``continue`` statement dropped (replaced by ``pass``).

The change is spliced into the source text, so every other byte, comments
included, stays as it is. The repository is copied into a temporary
directory; each mutant in turn is written into that copy, and the test files
named on the command line run against it under pytest, which stops at the
first failure. A mutant is killed if they fail, or run past a time limit
(five times the unmutated run, and at least 60 s); it survives if they pass.
The checkout itself is never written.

The unmutated copy must pass first. At the end the survivors are listed:
each is a fault these tests do not see, or a mutant that changes no
behaviour (an equivalent mutant). It is run by hand and is no part of the
test suite. See Jia and Harman, "An Analysis and Survey of the Development
of Mutation Testing", IEEE TSE 37(5), 2011.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".bench_work"
)

# An operator's spelling, the pattern that finds it between its operands,
# and the spelling it is swapped for.
SWAPS = {
    ast.Lt: ("<", r"<(?!=)", "<="),
    ast.LtE: ("<=", r"<=", "<"),
    ast.Gt: (">", r">(?!=)", ">="),
    ast.GtE: (">=", r">=", ">"),
    ast.Eq: ("==", r"==", "!="),
    ast.NotEq: ("!=", r"!=", "=="),
    ast.In: ("in", r"(?<!not )\bin\b", "not in"),
    ast.NotIn: ("not in", r"\bnot\s+in\b", "in"),
    ast.Is: ("is", r"\bis\b(?!\s+not\b)", "is not"),
    ast.IsNot: ("is not", r"\bis\s+not\b", "is"),
    ast.Add: ("+", r"\+", "-"),
    ast.Sub: ("-", r"-", "+"),
}


class Mutant(NamedTuple):
    start: int  # the byte offsets of the replaced text in the source
    end: int
    text: bytes  # what replaces it
    line: int
    what: str  # for example "> -> >="


def mutants(source: bytes) -> list[Mutant]:
    """Every mutant of a module's source, in source order."""
    starts = [0, 0]  # the byte offset of each line, numbered from 1
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(lineno, col_offset):
        return starts[lineno] + col_offset

    def swap(op, before, after):
        # The operator lies between its operands, among brackets, blanks and
        # comments; comments are blanked out, keeping every offset.
        spelling, pattern, swapped = SWAPS[type(op)]
        start = offset(before.end_lineno, before.end_col_offset)
        between = source[start : offset(after.lineno, after.col_offset)].decode()
        between = re.sub(r"#[^\n]*", lambda comment: " " * len(comment.group()), between)
        at = start + len(between[: re.search(pattern, between).start()].encode())
        what = f"{spelling} -> {swapped}"
        return Mutant(at, at + len(spelling), swapped.encode(), before.end_lineno, what)

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                found.append(swap(op, operands[i], operands[i + 1]))
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append(swap(node.op, node.left, node.right))
        elif isinstance(node, (ast.Raise, ast.Continue)):
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            what = f"{type(node).__name__.lower()} -> pass"
            found.append(Mutant(start, end, b"pass", node.lineno, what))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            what = f"{node.value} -> {node.value + 1}"
            found.append(Mutant(start, end, str(node.value + 1).encode(), node.lineno, what))
    return sorted(found)


def run_tests(tree: Path, tests: list[str], timeout: float) -> bool:
    """Whether the test files pass in the copy at ``tree``; False if they
    run past ``timeout`` seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(
            command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the repository")
    parser.add_argument("tests", nargs="+", help="the test files to run against each mutant")
    args = parser.parse_args(argv)
    source = (ROOT / args.module).read_bytes()
    lines = source.decode().splitlines()
    with tempfile.TemporaryDirectory(prefix="mutate-") as work:
        tree = Path(work) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIPPED)
        target = tree / args.module
        started = time.perf_counter()
        if not run_tests(tree, args.tests, timeout=3600):
            print("error: the tests fail on the unmutated code", file=sys.stderr)
            return 1
        timeout = max(60.0, 5 * (time.perf_counter() - started))
        survivors = []
        found = mutants(source)
        for n, mutant in enumerate(found, 1):
            target.write_bytes(source[: mutant.start] + mutant.text + source[mutant.end :])
            killed = not run_tests(tree, args.tests, timeout)
            label = f"{args.module}:{mutant.line}: {mutant.what}"
            print(f"[{n}/{len(found)}] {'killed' if killed else 'SURVIVED'} {label}", flush=True)
            if not killed:
                survivors.append(f"{label}    {lines[mutant.line - 1].strip()}")
    print(f"\n{len(survivors)} of {len(found)} mutants survived")
    for survivor in survivors:
        print(survivor)
    return 0


if __name__ == "__main__":
    sys.exit(main())
