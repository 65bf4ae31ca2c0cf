#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload repeated_text --seed 13 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run (see perfbench/README.md). A table goes to
standard error; the last line of standard output is the JSON result. The
program under test is the checkout's ``src/`` tree; without it, or without
``scripts/make_fixtures.py``, the benchmark exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ["src/ehr2icd/cli.py", "scripts/make_fixtures.py"]


def use_checkout_sources() -> None:
    """Put the checkout's package and fixture script first on the import path."""
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        raise SystemExit(f"error: {', '.join(missing)} not found under {ROOT}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]


def main(argv=None) -> int:
    use_checkout_sources()
    import bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-digests",
        action="store_true",
        help="record the output digests of the workload's golden job and exit",
    )
    args = parser.parse_args(argv)
    try:
        if args.write_digests:
            bench.record_digests(args.workload)
            return 0
        result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
