"""Measure the ehr2icd CLI end to end, and trace its calls into each module.

Every workload runs the same job, the way a user would: ``train`` a tagger on
a corpus, ``evaluate`` it against the dictionary baseline on a held-out
corpus, then code a raw export with ``pipeline``. The workloads differ in
their inputs, so that a different layer does most of the work in each.

Each CLI command runs in a fresh process, one at a time (a closed loop with
one client), and the whole job repeats until the run's time is up. The host
this runs on is shared, and its speed swings by tens of percent from one
second or minute to the next. So each timed process is bracketed by runs of
a fixed job (``yardstick.py``), and its time is scaled to the yardstick's
nominal speed; the raw times are printed beside the scaled ones. The traced
run starts the same commands through ``tracecli.py``, which wraps the
functions ``ehr2icd.cli`` calls in spans; it alternates traced and untraced
jobs. The modules are imported from the checkout's ``src/`` tree, never from
an installed copy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from spans import module_self_s, read_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 13
MIN_REPS = 3
STEP_TIMEOUT_S = 120

# Layout of one job's outputs.
MODEL_FILE = "tagger.model"
EVAL_DIR = "eval"
EVALUATE_STDOUT = "evaluate.stdout"
PIPELINE_DIR = "pipeline"

WORKLOADS = {
    # Tens of thousands of rows would be more realistic, but 6k rows keep a
    # pipeline run near 1.5 seconds, so a run holds enough repetitions for
    # a steady median. 240 distinct texts, each repeated 25 times: the
    # tagger does most of the work and only here can a text-keyed cache pay.
    "repeated_text": dict(
        setup="pipeline",
        inputs=dict(rows=6000, distinct_fraction=0.04, blank_rate=0.03, kb_size=24),
    ),
    # All texts distinct and misspelled, linked against a 10k-entry KB whose
    # common title words have long posting lists: the linker does most of the
    # work, no cache can hit, and loading the KB shows in setup_s.
    "distinct_text_large_kb": dict(
        setup="pipeline",
        inputs=dict(rows=240, distinct_fraction=1.0, blank_rate=0.03, kb_size=10000, variation=0.7),
    ),
    # Training on 700 distinct examples for the default 10 epochs writes the
    # tagger's weights; evaluation runs the tagger and the dictionary on 900
    # held-out texts.
    "train_eval": dict(
        setup="train",
        inputs=dict(
            rows=2000,
            distinct_fraction=1.0,
            blank_rate=0.03,
            kb_size=24,
            variation=0.3,
            corpus_size=1000,
            heldout_size=900,
        ),
    ),
}

E2E_METRICS = {
    "rows_per_s": "1/s",
    "train_examples_per_s": "1/s",
    "evaluate_texts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Inclusive span time summed over the job, by span name.
_SPAN_TIMES = [
    "ingestion.load_dataset",
    "ingestion.drop_missing",
    "normalization.normalize",
    "ner.load_model",
    "ner.read_corpus",
    "ner.train",
    "ner.save_model",
    "linker.load_kb",
    "linker.write_standard",
    "report.aggregate",
    "report.emit",
    "dictionary.build_lexicon",
    "dictionary.annotate",
    "evaluation.compare",
]
MODULES = ["ingestion", "normalization", "ner", "linker", "report", "dictionary", "evaluation"]
_COUNTS = [
    "ingestion.rows_in",
    "ingestion.rows_missing",
    "normalization.rows_out",
    "normalization.dropped_gender",
    "normalization.dropped_age",
    "normalization.dropped_date",
    "ner.texts",
    "ner.tokens",
    "ner.spans",
    "ner.model_features",
    "ner.train_token_updates",
    "linker.lookups",
    "linker.na_rows",
    "linker.kb_entries",
    "linker.standard_rows",
    "evaluation.tagger_true",
    "evaluation.dictionary_true",
]
LAYER_METRICS = {
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
    **{f"{module}.self_s": "s" for module in MODULES},
    **{f"{name}_s": "s" for name in _SPAN_TIMES},
    "ner.predict_s": "s",
    "ner.predict_us_p50": "us",
    "ner.predict_us_p99": "us",
    "linker.assign_s": "s",
    "linker.assign_us_p50": "us",
    "linker.assign_us_p99": "us",
    **{name: "count" for name in _COUNTS},
    "ner.distinct_text_ratio": "ratio",
    "linker.distinct_span_ratio": "ratio",
    "linker.linked_ratio": "ratio",
}

CLI = [sys.executable, "-c", "import sys; from ehr2icd.cli import main; sys.exit(main())"]
TRACE_CLI = [sys.executable, str(HERE / "tracecli.py")]
YARDSTICK = [sys.executable, str(HERE / "yardstick.py")]
# About the yardstick's wall time on the machine the baseline was taken on
# (2-vCPU Xeon VM, Python 3.11) when its host was quiet. Scaled times are in seconds
# at that speed.
YARDSTICK_NOMINAL_S = 0.2
# A fresh process that imports the CLI and loads what the workload's main
# command loads (``pipeline`` or ``train``); it prints where ehr2icd was
# imported from.
_PROBE_HEAD = "import sys, ehr2icd\nfrom ehr2icd.cli import main\n"
SETUP_PROBES = {
    "pipeline": _PROBE_HEAD
    + "from ehr2icd.linker import load_kb\nfrom ehr2icd.ner import load_model\n"
    + "load_model(sys.argv[1]); load_kb(sys.argv[2])\nprint(ehr2icd.__file__)\n",
    "train": _PROBE_HEAD
    + "from ehr2icd.ner import read_corpus\n"
    + "read_corpus(sys.argv[1])\nprint(ehr2icd.__file__)\n",
}
_PIPELINE_LINE = re.compile(
    r"input_rows=(\d+) normalized=(\d+) dropped=(\d+) \(missing=(\d+), gender=(\d+), "
    r"age=(\d+), date=(\d+)\) standard_rows=(\d+) na_rows=(\d+)"
)


class Ops:
    """Operations attempted and failed; each failure is explained on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Step:
    wall_s: float
    maxrss_kb: int
    returncode: int
    stdout: bytes
    stderr: bytes
    scaled_s: float | None = None

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and b"Traceback (most recent call last)" not in self.stderr


@dataclass
class CliJob:
    out: Path
    steps: dict[str, Step] = field(default_factory=dict)
    trace_stems: dict[str, Path] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(step.wall_s for step in self.steps.values())


def _tail(output: bytes) -> str:
    return output.decode(errors="replace")[-800:]


def run_process(argv: list[str], log_stem: Path) -> Step:
    """Run one process to completion; time it and read its rusage via wait4."""
    out_path, err_path = log_stem.with_suffix(".stdout"), log_stem.with_suffix(".stderr")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    return Step(wall, usage.ru_maxrss, proc.returncode, stdout, stderr)


class Yardstick:
    """The host's current speed, from a fixed job run between timed processes.

    The host's speed changes little within the second or so around one
    process, so the mean of the yardstick runs just before and just after a
    process tells how fast the host ran it. ``scale`` converts the process's wall time to seconds at
    the yardstick's nominal speed.
    """

    def __init__(self, log_stem: Path):
        self.log_stem = log_stem
        self.walls: list[float] = []
        self._run()

    def _run(self) -> None:
        step = run_process(YARDSTICK, self.log_stem)
        if not step.ok:
            raise RuntimeError(f"the yardstick failed: {_tail(step.stderr)}")
        self.walls.append(step.wall_s)

    def scale(self, wall_s: float) -> float:
        """Run the yardstick again; ``wall_s`` at nominal speed, from the last two runs."""
        self._run()
        return wall_s * YARDSTICK_NOMINAL_S / statistics.mean(self.walls[-2:])


def cli_job(
    inputs: dict,
    job_dir: Path,
    trace_run_id: int | None = None,
    yardstick: Yardstick | None = None,
) -> CliJob:
    """Run ``train``, ``evaluate`` and ``pipeline``, traced when given a run id.

    With a yardstick, each command's wall time is also scaled by it.
    """
    shutil.rmtree(job_dir, ignore_errors=True)
    out = job_dir / "out"
    out.mkdir(parents=True)
    model = out / MODEL_FILE
    commands = {
        "train": ["train", "--corpus", inputs["corpus"], "--model-out", model],
        "evaluate": [
            "evaluate", "--corpus", inputs["heldout"], "--kb", inputs["kb"],
            "--model", model, "--out-dir", out / EVAL_DIR,
        ],
        "pipeline": [
            "pipeline", "--input", inputs["raw"], "--kb", inputs["kb"],
            "--model", model, "--out-dir", out / PIPELINE_DIR,
        ],
    }
    job = CliJob(out)
    for name, args in commands.items():
        launcher = CLI
        if trace_run_id is not None:
            job.trace_stems[name] = job_dir / name
            launcher = TRACE_CLI + [str(job_dir / name), str(trace_run_id)]
        step = run_process(launcher + [str(a) for a in args], job_dir / name)
        if yardstick is not None:
            step.scaled_s = yardstick.scale(step.wall_s)
        job.steps[name] = step
        if not step.ok:
            break
    if "evaluate" in job.steps:
        (out / EVALUATE_STDOUT).write_bytes(job.steps["evaluate"].stdout)
    return job


def read_trace(job: CliJob) -> tuple[list, dict]:
    """A traced job's spans, as one list, and its counts, merged over commands."""
    spans, counts = [], {}
    for stem in job.trace_stems.values():
        offset = len(spans)
        for span in read_jsonl(f"{stem}.spans.jsonl"):
            parent = None if span.parent is None else span.parent + offset
            spans.append(span._replace(parent=parent))
        counts.update(json.loads(Path(f"{stem}.counts.json").read_text(encoding="utf-8")))
    return spans, counts


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under a job's output directory, by relative path."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def _step_of(relpath: str) -> str:
    if relpath == MODEL_FILE:
        return "train"
    if relpath.startswith(PIPELINE_DIR + "/"):
        return "pipeline"
    return "evaluate"


def record_steps(ops: Ops, job: CliJob, expected: dict[str, str]) -> bool:
    """One operation per command: exit 0, no traceback, outputs as expected."""
    got = digests(job.out)
    all_ok = True
    for name in ("train", "evaluate", "pipeline"):
        step = job.steps.get(name)
        files = sorted(p for p in set(got) | set(expected) if _step_of(p) == name)
        if step is None:
            ok, why = False, "not run after an earlier command failed"
        elif not step.ok:
            ok, why = False, f"exit {step.returncode}: {_tail(step.stderr)}"
        else:
            ok = bool(files) and all(got.get(p) == expected.get(p) for p in files)
            why = f"outputs differ from the reference: {files}"
        all_ok &= ops.record(ok, f"{name}: {why}")
    return all_ok


def _csv_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_invariants(ops: Ops, inputs: dict, ref: CliJob, counts: dict) -> None:
    """Row accounting of the reference job, from its files, stderr and traced calls."""
    match = _PIPELINE_LINE.search(ref.steps["pipeline"].stderr.decode(errors="replace"))
    if not ops.record(match is not None, "pipeline printed no row accounting"):
        return
    rows_in, kept, dropped, missing, gender, age, date, standard, na = map(int, match.groups())
    out = ref.out / PIPELINE_DIR
    file_rows = len(_csv_rows(out / "standard.csv"))
    summary = {k: int(v) for k, v in _csv_rows(out / "report" / "summary.csv")}
    evaluated = _csv_rows(ref.out / EVALUATE_STDOUT)
    heldout = len(inputs["heldout"].read_text(encoding="utf-8").splitlines())
    reasons = (counts["ingestion.rows_missing"], counts["normalization.dropped_gender"],
               counts["normalization.dropped_age"], counts["normalization.dropped_date"])
    invariants = {
        "rows_in equals the rows generated": (
            rows_in == len(_csv_rows(inputs["raw"])) == counts["ingestion.rows_in"]
        ),
        "rows_in = rows_missing + normalization drops + rows_out": (
            rows_in == sum(reasons) + counts["normalization.rows_out"]
            and reasons == (missing, gender, age, date)
            and kept == counts["normalization.rows_out"]
            and dropped == rows_in - kept
        ),
        "standard rows = sum of max(1, spans)": (
            file_rows == standard == counts["rows_from_spans"] == counts["linker.standard_rows"]
        ),
        "report total_rows = standard rows": summary.get("total_rows") == standard,
        "report na_rows = pipeline na_rows": (
            summary.get("na_rows") == na == counts["linker.na_rows"]
        ),
        "evaluate scored every held-out text with both annotators": (
            counts["evaluate_texts"] == heldout
            and [int(t) + int(f) for _, t, f, _ in evaluated] == [heldout, heldout]
        ),
    }
    for what, ok in invariants.items():
        ops.record(ok, f"invariant: {what}")


@dataclass
class Prepared:
    inputs: dict
    ref: CliJob
    expected: dict[str, str]
    counts: dict


def _recorded_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def _run_ok(ops: Ops, job: CliJob, label: str) -> bool:
    ok = len(job.steps) == 3
    for name, step in job.steps.items():
        ok &= ops.record(step.ok, f"{label} {name}: exit {step.returncode}: {_tail(step.stderr)}")
    return ok


def golden_job(name: str) -> CliJob:
    """The job on the default seed's inputs, at a tenth of the workload's size.

    Its outputs are compared with ``digests.json`` on every run, whatever the
    run's seed. The KB keeps its full size, so that the large-KB workload's
    linker is checked on the KB it is timed with.
    """
    spec = dict(WORKLOADS[name]["inputs"])
    for key in ("rows", "corpus_size", "heldout_size"):
        if key in spec:
            spec[key] //= 10
    work = WORK / name / "golden"
    return cli_job(gen.generate(work / "inputs", DEFAULT_SEED, **spec), work / "job")


def prepare(ops: Ops, name: str, seed: int) -> Prepared:
    """Generate inputs, run the traced reference job and check its outputs."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    inputs = gen.generate(work / "inputs", seed, **WORKLOADS[name]["inputs"])
    ref = cli_job(inputs, work / "ref", trace_run_id=0)  # also warms the bytecode cache
    if not _run_ok(ops, ref, "reference"):
        raise RuntimeError("the reference job failed")
    counts = read_trace(ref)[1]
    expected = digests(ref.out)
    check_invariants(ops, inputs, ref, counts)
    golden = golden_job(name)
    if _run_ok(ops, golden, "golden"):
        recorded = _recorded_digests().get(name)
        ops.record(digests(golden.out) == recorded, "golden outputs differ from digests.json")
    return Prepared(inputs, ref, expected, counts)


def _setup_probe(
    ops: Ops, name: str, prep: Prepared, log_stem: Path, yardstick: Yardstick
) -> Step | None:
    kind = WORKLOADS[name]["setup"]
    if kind == "pipeline":
        args = [prep.ref.out / MODEL_FILE, prep.inputs["kb"]]
    else:
        args = [prep.inputs["corpus"]]
    argv = [sys.executable, "-c", SETUP_PROBES[kind], *map(str, args)]
    step = run_process(argv, log_stem)
    step.scaled_s = yardstick.scale(step.wall_s)
    imported = step.stdout.decode(errors="replace").strip()
    ok = step.ok and imported.startswith(str(SRC) + os.sep)
    ops.record(ok, f"setup probe (imported {imported!r}): {_tail(step.stderr)}")
    return step if ok else None


def measure(name: str, seed: int, seconds: float) -> tuple[Ops, dict, dict]:
    """Untraced run: end-to-end metrics as medians over repeated CLI jobs.

    Times are yardstick-scaled; the raw medians go to standard error only.
    """
    ops = Ops()
    prep = prepare(ops, name, seed)
    counts = prep.counts
    work = WORK / name
    work_per_step = {
        "rows_per_s": ("pipeline", counts["ingestion.rows_in"]),
        "train_examples_per_s": ("train", counts["train_examples"] * counts["epochs"]),
        "evaluate_texts_per_s": ("evaluate", 2 * counts["evaluate_texts"]),
    }
    samples: dict[str, list[float]] = {metric: [] for metric in E2E_METRICS}
    raw: dict[str, list[float]] = {f"raw {metric}": [] for metric in E2E_METRICS}
    yardstick = Yardstick(work / "yardstick")
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or time.perf_counter() < deadline:
        step = _setup_probe(ops, name, prep, work / "setup", yardstick)
        if step is not None:
            samples["setup_s"].append(step.scaled_s)
            raw["raw setup_s"].append(step.wall_s)
        job = cli_job(prep.inputs, work / "timed", yardstick=yardstick)
        if record_steps(ops, job, prep.expected):
            for metric, (step_name, done) in work_per_step.items():
                step = job.steps[step_name]
                samples[metric].append(done / step.scaled_s)
                raw[f"raw {metric}"].append(done / step.wall_s)
            rss = max(s.maxrss_kb for s in job.steps.values()) / 1024
            samples["peak_rss_mb"].append(rss)
        reps += 1
    del raw["raw peak_rss_mb"]
    if not all(samples.values()):
        raise RuntimeError("no successful repetition to report")
    metrics = {m: statistics.median(v) for m, v in samples.items()}
    shown = {**samples, **raw, "yardstick s": yardstick.walls}
    return ops, metrics, shown


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _span_metrics(spans) -> tuple[dict[str, float], list[float], list[float]]:
    """Timing metrics of one traced job, plus per-call pipeline predict/assign times."""
    root = next(i for i, s in enumerate(spans) if s.name == "cli.pipeline")
    totals: dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + span.duration_ns / 1e9
    per_call = {"ner.predict": [], "linker.assign": []}
    for span in spans:
        if span.parent == root and span.name in per_call:
            per_call[span.name].append(span.duration_ns / 1e3)
    selfs = module_self_s(spans)
    metrics = {
        "cli.unattributed_s": selfs["cli"],
        **{f"{module}.self_s": selfs.get(module, 0.0) for module in MODULES},
        **{f"{name}_s": totals.get(name, 0.0) for name in _SPAN_TIMES},
        "ner.predict_s": sum(per_call["ner.predict"]) / 1e6,
        "linker.assign_s": sum(per_call["linker.assign"]) / 1e6,
    }
    return metrics, per_call["ner.predict"], per_call["linker.assign"]


def measure_traced(name: str, seed: int, seconds: float) -> tuple[Ops, dict, dict]:
    """Traced run: per-layer metrics from spans around the CLI's calls."""
    ops = Ops()
    prep = prepare(ops, name, seed)
    work = WORK / name
    per_rep: dict[str, list[float]] = {}
    predict_us: list[float] = []
    assign_us: list[float] = []
    walls = {"traced": [], "untraced": []}
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or time.perf_counter() < deadline:
        order = ("traced", "untraced") if reps % 2 == 0 else ("untraced", "traced")
        for mode in order:
            run_id = reps + 1 if mode == "traced" else None
            job = cli_job(prep.inputs, work / mode, trace_run_id=run_id)
            if not record_steps(ops, job, prep.expected):
                continue
            walls[mode].append(job.wall_s)
            if mode == "traced":
                metrics, predicts, assigns = _span_metrics(read_trace(job)[0])
                for metric, value in metrics.items():
                    per_rep.setdefault(metric, []).append(value)
                predict_us += predicts
                assign_us += assigns
        reps += 1
    if not per_rep or not walls["untraced"]:
        raise RuntimeError("no traced or untraced repetition succeeded")
    metrics = {metric: statistics.median(values) for metric, values in per_rep.items()}
    # Each traced job runs next to an untraced one, so pairing them cancels
    # the machine's slow drifts in speed.
    metrics["trace.overhead_s"] = statistics.median(
        traced - untraced for traced, untraced in zip(walls["traced"], walls["untraced"])
    )
    metrics["ner.predict_us_p50"] = statistics.median(predict_us)
    metrics["ner.predict_us_p99"] = _percentile(predict_us, 99)
    metrics["linker.assign_us_p50"] = statistics.median(assign_us)
    metrics["linker.assign_us_p99"] = _percentile(assign_us, 99)
    metrics.update({name: prep.counts[name] for name in LAYER_METRICS if name in prep.counts})
    samples = {"traced job": walls["traced"], "untraced job": walls["untraced"]}
    return ops, metrics, samples


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object the benchmark prints."""
    ops, metrics, samples = (measure_traced if trace else measure)(name, seed, seconds)
    units = LAYER_METRICS if trace else E2E_METRICS
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    print(f"workload {name}, seed {seed}, trace {int(trace)}:", file=sys.stderr)
    for label, values in samples.items():
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(
            f"  {label}: {len(values)} samples, median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g}",
            file=sys.stderr,
        )
    for metric in units:
        print(f"  {metric:32s} {metrics[metric]:>14.6g} {units[metric]}", file=sys.stderr)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def record_digests(name: str) -> None:
    """Store the golden job's output digests for one workload."""
    job = golden_job(name)
    if not _run_ok(Ops(), job, "golden"):
        raise RuntimeError("the golden job failed; digests not recorded")
    recorded = _recorded_digests()
    recorded[name] = digests(job.out)
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
