"""Command-line interface wiring the pipeline phases together.

One subcommand per phase (normalize, train, annotate, link, evaluate,
report) plus the composite ``pipeline``. Diagnostics go to standard error;
data goes to files or standard output. Exit codes: 0 success, 1 usage or
configuration error, 2 data error.

Each command is its own process, so start-up is paid once per step, and a
command loads only the modules it runs. ``_CALLEES`` names every function
(or class) a command calls from another module of the package, as
``callee name -> (module, attribute)``; the module-level ``__getattr__``
(PEP 562) imports that module on the callee's first use and keeps the
callee on this module. ``train`` thus loads the corpus reader and the
tagger but not the linker, the KB image code or the report writer.

Commands look each callee up on this module when they call it
(``_cli.predict(model, text)``), never through a name bound at import.
Replacing the attribute (``setattr(ehr2icd.cli, "predict", wrapper)``, as
the benchmark's tracer and the tests do) therefore catches every call a
command makes, whether or not the callee was loaded before.

Run as the program (``main()`` with no arguments: the console script,
``python -m ehr2icd.cli``), a command runs with the cyclic garbage collector
off, and before it returns ``main`` freezes every object still alive and
turns the collector back on. No collection runs during the command, and the
collections at interpreter exit skip what the command built; each object is
freed or kept exactly as it would be otherwise. This is safe because a
command makes no reference cycle per row, example or text: the cyclic
garbage one command leaves is bounded whatever the input's size (the
argument parser's). Called as a library (``main([...])``), the collector is
left as the caller set it.

A command works out each distinct text, span text and cell once, in memos
(``frozen.Memo``) that last the command. They sit beneath ``predict``,
``assign`` and ``normalize_with_reason``, never around those calls here.

Standard output is flushed before ``main`` returns, so a closed pipe or a
full disk there is a data error (exit 2, one ``error:`` line) like any other
failed write, not an error the interpreter reports at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, _lazy_attributes
from .config import PipelineConfig, apply_overrides, load_config
from .errors import ConfigError, DataError, EncodingError, RecordError
from .textio import atomic_group, atomic_write, csv_line

if TYPE_CHECKING:
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
    "corpus_lines": ("ner.corpus", "corpus_lines"),
    "read_annotations": ("ner.corpus", "read_annotations"),
    "write_annotations": ("ner.corpus", "write_annotations"),
    "train_tagger": ("ner.tagger", "train_tagger"),
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

_cli = sys.modules[__name__]
__getattr__, __dir__ = _lazy_attributes(globals(), _CALLEES)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; our contract reserves 2 for
    # data errors, so route usage problems through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)

    def exit(self, status=0, message=None):
        # --help and --version print their text, then exit here.
        _flush_stdout()
        super().exit(status, message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ehr2icd",
        description=(
            "Convert raw EHR exports into standardized records carrying "
            "ICD-10 code, name, and category."
        ),
    )
    parser.add_argument("--version", action="version", version=f"ehr2icd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normalize gender, age, and diagnosis date")
    p.add_argument("--input", required=True, help="raw CSV export")
    p.add_argument("--output", required=True, help="normalized CSV to write")

    p = sub.add_parser("train", help="train the disease tagger on an annotated corpus")
    p.add_argument("--corpus", required=True, help="annotation export or internal corpus")
    p.add_argument("--model-out", required=True, help="model file to write")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, help="shuffle seed (default 13)")
    p.add_argument("--epochs", type=int, help="training epochs (default 10)")
    p.add_argument("--train-fraction", type=float, help="train split fraction (default 0.7)")
    p.add_argument("--stoplist", help="file of vague terms for the held-out report")

    p = sub.add_parser("annotate", help="recognize diseases in normalized records")
    p.add_argument("--input", required=True, help="normalized CSV")
    p.add_argument("--model", required=True, help="trained tagger model")
    p.add_argument("--output", required=True, help="annotations JSONL to write")

    p = sub.add_parser("link", help="assign ICD-10 code/name/category to records")
    p.add_argument("--input", required=True, help="normalized CSV")
    p.add_argument("--output", required=True, help="standard CSV to write")
    p.add_argument("--kb", help="knowledge base TSV")
    p.add_argument("--model", help="tagger model (when no --annotations)")
    p.add_argument("--annotations", help="annotations JSONL from the annotate step")
    _add_config_flags(p)
    p.add_argument("--score-threshold", type=float, help="minimum link score (default 0)")

    p = sub.add_parser("evaluate", help="compare the tagger against the dictionary baseline")
    p.add_argument("--corpus", required=True, help="gold corpus")
    p.add_argument("--kb", help="knowledge base TSV (builds the baseline lexicon)")
    p.add_argument("--model", help="trained tagger model")
    p.add_argument("--out-dir", required=True, help="directory for outcome files")
    _add_config_flags(p)
    p.add_argument("--stoplist", help="file of vague terms (one per line)")
    p.add_argument("--extra-terms", help="extra lexicon terms file")

    p = sub.add_parser("report", help="aggregate a standard file into statistics")
    p.add_argument("--input", required=True, help="standard CSV")
    p.add_argument("--out-dir", required=True, help="directory for report files")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("pipeline", help="run normalize, annotate, link, and report")
    p.add_argument("--input", required=True, help="raw CSV export")
    p.add_argument("--out-dir", required=True, help="directory for all outputs")
    p.add_argument("--kb", help="knowledge base TSV")
    p.add_argument("--model", help="trained tagger model")
    _add_config_flags(p)
    p.add_argument("--score-threshold", type=float)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _add_config_flags(p) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")


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

    header, records = _cli.read_dataset(args.input)
    normalized, reasons = _normalize(records)
    with atomic_write(args.output, newline="") as fh:
        fh.write(csv_line(header))
        for record in normalized:
            standard = (
                record.gender,
                str(record.age_years),
                record.diagnosis_text,
                record.diagnosis_date.render(),
            )
            cells = {**record.extras, **dict(zip(REQUIRED_COLUMNS, standard))}
            fh.write(csv_line([cells[name] for name in header]))
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
    corpus = _cli.read_corpus(args.corpus)
    train, test = _cli.split_corpus(corpus, config.train_fraction, config.seed)
    try:
        model = _cli.train_tagger(train, epochs=config.epochs, seed=config.seed)
    except EncodingError as exc:
        # exc.record counts within the shuffled training split; name the
        # file line the example came from instead. That takes a second read,
        # which a pipe cannot give: then name its position in the corpus.
        example = train[exc.record - 1]
        position = next(n for n, item in enumerate(corpus) if item is example)
        try:
            lines = _cli.corpus_lines(args.corpus)
        except (DataError, OSError):
            lines = []
        if len(lines) != len(corpus):
            raise DataError(f"{args.corpus}: example {position + 1}: {exc.detail}") from exc
        raise RecordError(lines[position], exc.detail, args.corpus) from exc
    _cli.save_model(model, args.model_out)
    _diag(f"train: split {len(train)}/{len(test)} of {len(corpus)} examples")
    if test:
        from .evaluation import evaluate_annotator

        summary, _ = evaluate_annotator(
            test, lambda text: _cli.predict(model, text), config.stoplist
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
            raise DataError(
                f"{args.annotations}: no annotations of the input's Diagnosis for "
                f"rows {unmatched[:5]} (and possibly more)"
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


_COMMANDS = {
    "normalize": cmd_normalize,
    "train": cmd_train,
    "annotate": cmd_annotate,
    "link": cmd_link,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
    "pipeline": cmd_pipeline,
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
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
    sys.exit(main())
