"""Command-line interface wiring the pipeline phases together.

One subcommand per phase (normalize, train, annotate, link, evaluate,
report) plus the composite ``pipeline``. Diagnostics go to standard error;
data goes to files or standard output. Exit codes: 0 success, 1 usage or
configuration error, 2 data error. A malformed input file, a piped corpus
included, is reported as ``error: <path>: [row N: ]<detail>``.

Each command is its own process, so start-up is paid once per step, and a
command loads only the modules it runs. ``_CALLEES`` names every function
(or class) a command calls from another module of the package, as
``callee name -> (module, attribute)``; the module-level ``__getattr__``
(PEP 562) imports that module on the callee's first use and keeps the
callee on this module. ``train`` thus loads the corpus reader, the tagger
and its learner (``ner.training``) but not the linker, the KB image code or
the report writer, and the commands that only tag text load no learner.
``json`` is imported only where JSON is read or written (the corpus reader,
``evaluate``'s summary and the JSON report), so ``pipeline`` and ``report``
with CSV output, ``link`` and ``normalize`` load none of it.

``_COMMANDS`` declares each command once: the function that runs it, its
help and its options (flag, help, type, required, choices, default), which
both parse paths read. ``_parse`` takes the plain form that scripts and the
docs use, a command name and then exact ``--flag value`` pairs, and gives
the namespace argparse would give, defaults included. It declines anything
else (a flag it does not know or given twice, a missing value or required
option, a value that starts with ``-``, fails its type or is not among its
choices), and ``argv`` then goes to argparse unchanged: help, ``--version``,
abbreviations, ``--flag=value``, negative numbers and every usage error.
``argparse`` (with the ``gettext`` and ``locale`` its messages load) is
imported only then, and its parser lists every command but builds the
arguments only of the one ``argv`` names: each argument costs a help
formatter.

Commands look each callee up on this module when they call it
(``_cli.predict(model, text)``), never through a name bound at import.
Replacing the attribute (``setattr(ehr2icd.cli, "predict", wrapper)``, as
the benchmark's tracer and the tests do) therefore catches every call a
command makes, whether or not the callee was loaded before.

Run as the program (``main()`` with no arguments: the console script,
``python -m ehr2icd.cli``, or ``runpy.run_module`` as ``__main__``), a
command runs with the cyclic garbage collector off, and before it returns
``main`` freezes every object still alive and turns the collector back on.
No collection runs during the command, and the collections at interpreter
exit skip what the command built; each object is freed or kept exactly as it
would be otherwise. This is safe because a command makes no reference cycle
per row, example or text: the cyclic garbage one command leaves is bounded
whatever the input's size. Called as a library (``main([...])``), the
collector is left as the caller set it.

A command works out each distinct text, span text and cell once, in memos
that last the command: the model's and the KB's (``frozen.Memo``) go with
them, and ``main`` empties the normalizers' when the command ends. They sit
beneath ``predict``, ``assign`` and ``normalize_with_reason``, never around
those calls here.

Standard output is flushed before ``main`` returns, so a closed pipe or a
full disk there is a data error (exit 2, one ``error:`` line) like any other
failed write, not an error the interpreter reports at exit.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import __version__, _lazy_attributes
from .config import PipelineConfig, apply_overrides, load_config
from .errors import ConfigError, DataError, EncodingError, MalformedFile
from .textio import atomic_group, atomic_write, csv_line

if TYPE_CHECKING:
    from collections.abc import Callable

    from .ingestion import RawRecord
    from .normalization import NormalizedRecord
    from .standard import StandardRecord

# Callee name -> (module under the package, attribute) it is imported from.
_CALLEES = {
    # No command reads a header alone; the benchmark's tracer still wraps it.
    "read_header": ("ingestion", "read_header"),
    "read_dataset": ("ingestion", "read_dataset"),
    "load_dataset": ("ingestion", "load_dataset"),
    "drop_missing": ("ingestion", "drop_missing"),
    "normalize_with_reason": ("normalization", "normalize_with_reason"),
    "AnnotatedExample": ("ner.spans", "AnnotatedExample"),
    "read_corpus": ("ner.corpus", "read_corpus"),
    "split_corpus": ("ner.corpus", "split_corpus"),
    "numbered_corpus": ("ner.corpus", "numbered_corpus"),
    "read_annotations": ("ner.corpus", "read_annotations"),
    "write_annotations": ("ner.corpus", "write_annotations"),
    "train_tagger": ("ner.training", "train_tagger"),
    "save_model": ("ner.tagger", "save_model"),
    "load_model": ("ner.tagger", "load_model"),
    "predict": ("ner.tagger", "predict"),
    "load_kb": ("linker", "load_kb"),
    "assign": ("standard", "assign"),
    "read_standard_csv": ("standard", "read_standard_csv"),
    "write_standard_csv": ("standard", "write_standard_csv"),
    "aggregate": ("report", "aggregate"),
    "emit_report": ("report", "emit_report"),
    "read_terms": ("dictionary", "read_terms"),
    # The benchmark's tracer times the lexicon step under this name.
    "build_lexicon": ("dictionary", "load_lexicon"),
    "dict_annotate": ("dictionary", "dict_annotate"),
    "compare_annotators": ("evaluation", "compare_annotators"),
    "render_percent": ("evaluation", "render_percent"),
    "summary_to_dict": ("evaluation", "summary_to_dict"),
    "write_outcomes_csv": ("evaluation", "write_outcomes_csv"),
}

_cli = sys.modules.get(__name__)
if getattr(_cli, "__dict__", None) is not globals():
    # ``runpy.run_module(..., run_name="__main__")`` runs this code in a
    # namespace that no module owns, with the caller's module as __main__.
    # The commands then run from this module as the package imports it.
    from importlib import import_module

    _cli = import_module(__spec__.name)
__getattr__, __dir__ = _lazy_attributes(globals(), _CALLEES)


class _Option(NamedTuple):
    """One ``--flag VALUE`` option of a command. Both parse paths read it;
    every field after ``flag`` is the ``add_argument`` keyword of its name."""

    flag: str
    help: str | None = None
    type: Callable[[str], object] | None = None  # int or float; None keeps the text
    required: bool = False
    choices: tuple[str, ...] | None = None
    default: str | None = None


class _Command(NamedTuple):
    run: Callable[..., int]
    help: str
    options: tuple[_Option, ...]  # in the order help lists them


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The arguments argparse gives for ``argv``, when ``argv`` is a command
    and exact ``--flag value`` pairs of its options: no flag twice, every
    required one present, and no value that starts with ``-``, fails its
    option's type or is not among its choices. None for anything else."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    # Fewer flags than half of argv: one is given twice, or the last has no value.
    if len(given) != len(argv) // 2:
        return None
    args = {"command": argv[0]}
    for option in command.options:
        value = given.pop(option.flag, None)
        if value is None:
            if option.required:
                return None
            value = option.default
        elif value.startswith("-"):
            return None
        else:
            if option.type is not None:
                try:
                    value = option.type(value)
                except ValueError:
                    return None
            if option.choices is not None and value not in option.choices:
                return None
        args[option.flag[2:].replace("-", "_")] = value
    if given:  # a flag the command does not have
        return None
    return SimpleNamespace(**args)


def _build_parser(argv: list[str]):
    """argparse's parser of every command, with arguments only for the one
    ``argv`` names: its first item that is not an option."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with code 2 on usage errors; our contract reserves 2
        # for data errors, so route usage problems through ConfigError instead.
        def error(self, message):
            raise ConfigError(message)

        def exit(self, status=0, message=None):
            # --help and --version print their text, then exit here.
            _flush_stdout()
            super().exit(status, message)

    parser = _Parser(
        prog="ehr2icd",
        description=(
            "Convert raw EHR exports into standardized records carrying "
            "ICD-10 code, name, and category."
        ),
    )
    parser.add_argument("--version", action="version", version=f"ehr2icd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command is listed, so help, usage and errors name them all, but
    # each argument costs a help formatter, so only the named one gets its.
    named = next((item for item in argv if not item.startswith("-")), None)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name == named:
            for option in command.options:
                keywords = option._asdict()
                p.add_argument(keywords.pop("flag"), **keywords)
    return parser


def _effective_config(args, **overrides) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "stoplist", None):
        terms = _cli.read_terms(args.stoplist)
        overrides["stoplist"] = frozenset(term.lower() for term in terms)
    return apply_overrides(config, **overrides)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _normalize(records: list[RawRecord]) -> tuple[list[NormalizedRecord], dict[str, int]]:
    """Front half of the pipeline, after loading: drop missing, normalize.

    Returns the normalized records and the number of dropped rows by reason.
    """
    kept = _cli.drop_missing(records)
    reasons = {"missing": len(records) - len(kept), "gender": 0, "age": 0, "date": 0}
    normalized: list[NormalizedRecord] = []
    for record in kept:
        result, reason = _cli.normalize_with_reason(record)
        if result is None:
            reasons[reason] += 1
        else:
            normalized.append(result)
    return normalized, reasons


def _histogram(reasons: dict[str, int]) -> str:
    return ", ".join(f"{k}={v}" for k, v in reasons.items())


def _tagger_spans(model):
    """Span source that tags each record's diagnosis text with ``model``."""
    return lambda record: _cli.predict(model, record.diagnosis_text)


def _standard_rows(normalized, spans_of, kb, config) -> list[StandardRecord]:
    """Link every record: one standard row per span, one NA row for none."""
    rows: list[StandardRecord] = []
    expected = 0
    for record in normalized:
        spans = spans_of(record)
        expected += max(1, len(spans))
        rows.extend(_cli.assign(record, spans, kb, config.score_threshold))
    if len(rows) != expected:
        raise RuntimeError(
            f"row accounting violated: {len(rows)} standard rows, expected {expected}"
        )
    return rows


def cmd_normalize(args) -> int:
    from .ingestion import REQUIRED_COLUMNS

    rows, records = _cli.read_dataset(args.input)
    g, a, d, t = map(rows[0].index, REQUIRED_COLUMNS)
    normalized, reasons = _normalize(records)
    with atomic_write(args.output, newline="") as fh:
        fh.write(csv_line(rows[0]))
        for record in normalized:
            # The source row, with its four standard cells replaced.
            row = rows[record.row_index]
            row[g], row[a], row[d], row[t] = (
                record.gender,
                str(record.age_years),
                record.diagnosis_text,
                record.diagnosis_date.render(),
            )
            fh.write(csv_line(row))
    _diag(
        f"normalize: kept {len(normalized)} rows, "
        f"dropped {sum(reasons.values())} ({_histogram(reasons)})"
    )
    return 0


def cmd_train(args) -> int:
    config = _effective_config(
        args,
        seed=args.seed,
        epochs=args.epochs,
        train_fraction=args.train_fraction,
    )
    numbered = _cli.numbered_corpus(args.corpus)
    try:
        train, test = _cli.split_corpus(numbered, config.train_fraction, config.seed)
    except ValueError as exc:  # a split that leaves nothing to train on
        raise MalformedFile(args.corpus, None, str(exc)) from exc
    examples = [example for _, example in train]
    try:
        model = _cli.train_tagger(examples, epochs=config.epochs, seed=config.seed)
    except EncodingError as exc:
        # exc.record counts within the shuffled training split.
        raise MalformedFile(args.corpus, train[exc.record - 1][0], exc.detail) from exc
    _cli.save_model(model, args.model_out)
    _diag(f"train: split {len(train)}/{len(test)} of {len(numbered)} examples")
    if test:
        from .evaluation import evaluate_annotator

        held_out = [example for _, example in test]
        summary, _ = evaluate_annotator(
            held_out, lambda text: _cli.predict(model, text), config.stoplist
        )
        _diag(
            "train: held-out accuracy "
            f"{_cli.render_percent(summary.n_true, summary.total)} "
            f"(exact={summary.n_exact} partial={summary.n_partial} "
            f"false={summary.n_false})"
        )
    _diag(f"train: model written to {args.model_out}")
    return 0


def cmd_annotate(args) -> int:
    spans_of = _tagger_spans(_cli.load_model(args.model))
    normalized, _ = _normalize(_cli.load_dataset(args.input))
    _cli.write_annotations(
        args.output,
        {
            record.row_index: _cli.AnnotatedExample(record.diagnosis_text, tuple(spans_of(record)))
            for record in normalized
        },
    )
    _diag(f"annotate: wrote annotations for {len(normalized)} rows")
    return 0


def cmd_link(args) -> int:
    config = _effective_config(
        args,
        kb_path=args.kb,
        model_path=args.model,
        score_threshold=args.score_threshold,
    )
    if not config.kb_path:
        raise ConfigError("link requires --kb (or kb_path in the config)")
    kb = _cli.load_kb(config.kb_path)
    normalized, _ = _normalize(_cli.load_dataset(args.input))

    if args.annotations:
        by_row = _cli.read_annotations(args.annotations)
        content = {row: example.content for row, example in by_row.items()}
        unmatched = [
            r.row_index for r in normalized if content.get(r.row_index) != r.diagnosis_text
        ]
        if unmatched:
            raise MalformedFile(
                args.annotations,
                None,
                f"no annotations of the input's Diagnosis for rows {unmatched[:5]} "
                "(and possibly more)",
            )
        spans_of = lambda record: by_row[record.row_index].spans
    elif config.model_path:
        spans_of = _tagger_spans(_cli.load_model(config.model_path))
    else:
        raise ConfigError("link requires --annotations or --model")

    rows = _standard_rows(normalized, spans_of, kb, config)
    _cli.write_standard_csv(args.output, rows)
    _diag(f"link: wrote {len(rows)} standard rows for {len(normalized)} records")
    return 0


def cmd_evaluate(args) -> int:
    import json

    config = _effective_config(
        args,
        kb_path=args.kb,
        model_path=args.model,
        extra_terms_path=args.extra_terms,
    )
    if not config.kb_path:
        raise ConfigError("evaluate requires --kb (or kb_path in the config)")
    if not config.model_path:
        raise ConfigError("evaluate requires --model (or model_path in the config)")
    corpus = _cli.read_corpus(args.corpus)
    model = _cli.load_model(config.model_path)
    extras = _cli.read_terms(config.extra_terms_path) if config.extra_terms_path else ()
    lexicon = _cli.build_lexicon(config.kb_path, extras)

    result = _cli.compare_annotators(
        corpus,
        lambda text: _cli.predict(model, text),
        lambda text: _cli.dict_annotate(text, lexicon),
        config.stoplist,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_doc = {
        "tagger": _cli.summary_to_dict(result.summary_a),
        "dictionary": _cli.summary_to_dict(result.summary_b),
    }
    with atomic_group():
        _cli.write_outcomes_csv(out_dir / "outcomes_tagger.csv", result.outcomes_a)
        _cli.write_outcomes_csv(out_dir / "outcomes_dictionary.csv", result.outcomes_b)
        with atomic_write(out_dir / "summary.json") as fh:
            fh.write(json.dumps(summary_doc, indent=2, sort_keys=True) + "\n")

    print("Annotator,True result,False result,Accuracy")
    for name, summary in (("tagger", result.summary_a), ("dictionary", result.summary_b)):
        print(
            f"{name},{summary.n_true},{summary.n_false},"
            f"{_cli.render_percent(summary.n_true, summary.total)}"
        )
    return 0


def cmd_report(args) -> int:
    rows = _cli.read_standard_csv(args.input)
    report = _cli.aggregate(rows)
    paths = _cli.emit_report(report, args.out_dir, args.format)
    _diag(f"report: wrote {len(paths)} files to {args.out_dir}")
    return 0


def cmd_pipeline(args) -> int:
    config = _effective_config(
        args,
        kb_path=args.kb,
        model_path=args.model,
        score_threshold=args.score_threshold,
    )
    if not config.kb_path or not config.model_path:
        raise ConfigError("pipeline requires --kb and --model (or config values)")
    kb = _cli.load_kb(config.kb_path)
    model = _cli.load_model(config.model_path)

    normalized, reasons = _normalize(_cli.load_dataset(args.input))
    rows = _standard_rows(normalized, _tagger_spans(model), kb, config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_group():
        _cli.write_standard_csv(out_dir / "standard.csv", rows)
        report = _cli.aggregate(rows)
        _cli.emit_report(report, out_dir / "report", args.format)

    dropped = sum(reasons.values())
    _diag(
        f"pipeline: input_rows={len(normalized) + dropped} normalized={len(normalized)} "
        f"dropped={dropped} ({_histogram(reasons)}) standard_rows={len(rows)} "
        f"na_rows={report.na_rows}"
    )
    return 0


_CONFIG = _Option("--config", "key=value config file; flags override it")
_FORMAT = _Option("--format", choices=("csv", "json"), default="csv")
_DEFAULTS = PipelineConfig()

# Each command, its help and its options, in the order help lists them.
_COMMANDS = {
    "normalize": _Command(cmd_normalize, "normalize gender, age, and diagnosis date", (
        _Option("--input", "raw CSV export", required=True),
        _Option("--output", "normalized CSV to write", required=True),
    )),
    "train": _Command(cmd_train, "train the disease tagger on an annotated corpus", (
        _Option("--corpus", "annotation export or internal corpus", required=True),
        _Option("--model-out", "model file to write", required=True),
        _CONFIG,
        _Option("--seed", f"shuffle seed (default {_DEFAULTS.seed})", int),
        _Option("--epochs", f"training epochs (default {_DEFAULTS.epochs})", int),
        _Option(
            "--train-fraction",
            f"train split fraction (default {_DEFAULTS.train_fraction})",
            float,
        ),
        _Option("--stoplist", "file of vague terms for the held-out report"),
    )),
    "annotate": _Command(cmd_annotate, "recognize diseases in normalized records", (
        _Option("--input", "normalized CSV", required=True),
        _Option("--model", "trained tagger model", required=True),
        _Option("--output", "annotations JSONL to write", required=True),
    )),
    "link": _Command(cmd_link, "assign ICD-10 code/name/category to records", (
        _Option("--input", "normalized CSV", required=True),
        _Option("--output", "standard CSV to write", required=True),
        _Option("--kb", "knowledge base TSV"),
        _Option("--model", "tagger model (when no --annotations)"),
        _Option("--annotations", "annotations JSONL from the annotate step"),
        _CONFIG,
        _Option("--score-threshold", "minimum link score (default 0)", float),
    )),
    "evaluate": _Command(cmd_evaluate, "compare the tagger against the dictionary baseline", (
        _Option("--corpus", "gold corpus", required=True),
        _Option("--kb", "knowledge base TSV (builds the baseline lexicon)"),
        _Option("--model", "trained tagger model"),
        _Option("--out-dir", "directory for outcome files", required=True),
        _CONFIG,
        _Option("--stoplist", "file of vague terms (one per line)"),
        _Option("--extra-terms", "extra lexicon terms file"),
    )),
    "report": _Command(cmd_report, "aggregate a standard file into statistics", (
        _Option("--input", "standard CSV", required=True),
        _Option("--out-dir", "directory for report files", required=True),
        _FORMAT,
    )),
    "pipeline": _Command(cmd_pipeline, "run normalize, annotate, link, and report", (
        _Option("--input", "raw CSV export", required=True),
        _Option("--out-dir", "directory for all outputs", required=True),
        _Option("--kb", "knowledge base TSV"),
        _Option("--model", "trained tagger model"),
        _CONFIG,
        _Option("--score-threshold", type=float),
        _FORMAT,
    )),
}


def main(argv=None) -> int:
    """Run one command and return its exit code. With no ``argv`` it runs as
    the program, with the collector off (see the module docstring)."""
    if argv is not None:
        return _run(argv)
    gc.disable()
    try:
        return _run(None)
    finally:
        gc.freeze()
        gc.enable()


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        if args is None:
            args = _build_parser(argv).parse_args(argv)
        code = _COMMANDS[args.command].run(args)
        _flush_stdout()
        return code
    except ConfigError as exc:
        _diag(f"error: {exc}")
        return 1
    except DataError as exc:
        _diag(f"error: {exc}")
        return 2
    except OSError as exc:
        _diag(f"error: {exc}")
        return 2
    finally:
        # The normalizers' memos last one command, as the model's and the
        # KB's do. A command that never loaded them has none to empty.
        normalization = sys.modules.get(f"{__package__}.normalization")
        if normalization is not None:
            normalization.clear_memos()


def _flush_stdout() -> None:
    """Write out buffered standard output while a failure can still be
    reported as a data error (exit 2), not by the interpreter at exit."""
    if sys.stdout is None:  # started with fd 1 closed
        return
    try:
        sys.stdout.flush()
    except OSError:
        # The buffered text can never be written (a closed pipe, a full
        # disk). Point fd 1 at the null device, so the interpreter's own
        # flush at exit succeeds instead of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


if __name__ == "__main__":
    sys.exit(_cli.main())
