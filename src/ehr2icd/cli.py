"""Command-line interface wiring the pipeline phases together.

One subcommand per phase (normalize, train, annotate, link, evaluate,
report) plus the composite ``pipeline``. Diagnostics go to standard error;
data goes to files or standard output. Exit codes: 0 success, 1 usage or
configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .config import PipelineConfig, apply_overrides, load_config
from .dictionary import build_lexicon, dict_annotate, read_terms
from .errors import ConfigError, DataError
from .evaluation import (
    compare_annotators,
    render_percent,
    summary_to_dict,
    write_outcomes_csv,
)
from .ingestion import drop_missing, load_dataset, read_header
from .linker import (
    StandardRecord,
    assign,
    load_kb,
    read_standard_csv,
    write_standard_csv,
)
from .ner import (
    load_model,
    predict,
    read_corpus,
    save_model,
    split_corpus,
    train_tagger,
)
from .ner.corpus import read_annotations
from .normalization import NormalizedRecord, normalize_with_reason
from .report import aggregate, emit_report


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; our contract reserves 2 for
    # data errors, so route usage problems through ConfigError instead.
    def error(self, message):
        raise ConfigError(message)


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
    p.add_argument("--lookup-k", type=int, help="candidates per lookup (default 4)")
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
    p.add_argument("--lookup-k", type=int)
    p.add_argument("--score-threshold", type=float)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _add_config_flags(p) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")


def _effective_config(args, **overrides) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "stoplist", None):
        terms = read_terms(args.stoplist)
        overrides["stoplist"] = frozenset(term.lower() for term in terms)
    return apply_overrides(config, **overrides)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _normalize_file(path) -> tuple[list[NormalizedRecord], dict[str, int]]:
    """Front half of the pipeline: load, drop missing, normalize.

    Returns the normalized records and the number of dropped rows by reason.
    """
    records = load_dataset(path)
    kept = drop_missing(records)
    reasons = {"missing": len(records) - len(kept), "gender": 0, "age": 0, "date": 0}
    normalized: list[NormalizedRecord] = []
    for record in kept:
        result, reason = normalize_with_reason(record)
        if result is None:
            reasons[reason] += 1
        else:
            normalized.append(result)
    return normalized, reasons


def _histogram(reasons: dict[str, int]) -> str:
    return ", ".join(f"{k}={v}" for k, v in reasons.items())


def _tagger_spans(model):
    """Span source that tags each record's diagnosis text with ``model``."""
    return lambda record: predict(model, record.diagnosis_text)


def _standard_rows(normalized, spans_of, kb, config) -> list[StandardRecord]:
    """Link every record: one standard row per span, one NA row for none."""
    rows: list[StandardRecord] = []
    expected = 0
    for record in normalized:
        spans = spans_of(record)
        expected += max(1, len(spans))
        rows.extend(assign(record, spans, kb, config.lookup_k, config.score_threshold))
    if len(rows) != expected:
        raise RuntimeError(
            f"row accounting violated: {len(rows)} standard rows, expected {expected}"
        )
    return rows


def _normalized_row(record: NormalizedRecord, header: list[str]) -> list[str]:
    cells = []
    for name in header:
        if name == "Gender":
            cells.append(record.gender)
        elif name == "Age":
            cells.append(str(record.age_years))
        elif name == "Diagnosis":
            cells.append(record.diagnosis_text)
        elif name == "Diagnosis Date":
            cells.append(record.diagnosis_date.render())
        else:
            cells.append(record.extras.get(name, ""))
    return cells


def cmd_normalize(args) -> int:
    normalized, reasons = _normalize_file(args.input)
    header = read_header(args.input)
    with Path(args.output).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for record in normalized:
            writer.writerow(_normalized_row(record, header))
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
    corpus = read_corpus(args.corpus)
    train, test = split_corpus(corpus, config.train_fraction, config.seed)
    model = train_tagger(train, epochs=config.epochs, seed=config.seed)
    save_model(model, args.model_out)
    _diag(f"train: split {len(train)}/{len(test)} of {len(corpus)} examples")
    if test:
        from .evaluation import evaluate_annotator

        summary, _ = evaluate_annotator(
            test, lambda text: predict(model, text), config.stoplist
        )
        _diag(
            "train: held-out accuracy "
            f"{render_percent(summary.n_true, summary.total)} "
            f"(exact={summary.n_exact} partial={summary.n_partial} "
            f"false={summary.n_false})"
        )
    _diag(f"train: model written to {args.model_out}")
    return 0


def cmd_annotate(args) -> int:
    spans_of = _tagger_spans(load_model(args.model))
    normalized, _ = _normalize_file(args.input)
    with Path(args.output).open("w", encoding="utf-8") as fh:
        for record in normalized:
            spans = spans_of(record)
            fh.write(
                json.dumps(
                    {
                        "row_index": record.row_index,
                        "content": record.diagnosis_text,
                        "entities": [[s.start, s.end, s.label] for s in spans],
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )
    _diag(f"annotate: wrote annotations for {len(normalized)} rows")
    return 0


def cmd_link(args) -> int:
    config = _effective_config(
        args,
        kb_path=args.kb,
        model_path=args.model,
        lookup_k=args.lookup_k,
        score_threshold=args.score_threshold,
    )
    if not config.kb_path:
        raise ConfigError("link requires --kb (or kb_path in the config)")
    kb = load_kb(config.kb_path)
    normalized, _ = _normalize_file(args.input)

    if args.annotations:
        spans_by_row = read_annotations(args.annotations)
        missing = [r.row_index for r in normalized if r.row_index not in spans_by_row]
        if missing:
            raise DataError(
                f"{args.annotations}: no annotations for rows {missing[:5]} "
                "(and possibly more)"
            )
        spans_of = lambda record: spans_by_row[record.row_index]
    elif config.model_path:
        spans_of = _tagger_spans(load_model(config.model_path))
    else:
        raise ConfigError("link requires --annotations or --model")

    rows = _standard_rows(normalized, spans_of, kb, config)
    write_standard_csv(args.output, rows)
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
    corpus = read_corpus(args.corpus)
    model = load_model(config.model_path)
    kb = load_kb(config.kb_path)
    extras = read_terms(config.extra_terms_path) if config.extra_terms_path else ()
    lexicon = build_lexicon(kb, extras)

    result = compare_annotators(
        corpus,
        lambda text: predict(model, text),
        lambda text: dict_annotate(text, lexicon),
        config.stoplist,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_outcomes_csv(out_dir / "outcomes_tagger.csv", result.outcomes_a)
    write_outcomes_csv(out_dir / "outcomes_dictionary.csv", result.outcomes_b)
    summary_doc = {
        "tagger": summary_to_dict(result.summary_a),
        "dictionary": summary_to_dict(result.summary_b),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print("Annotator,True result,False result,Accuracy")
    for name, summary in (("tagger", result.summary_a), ("dictionary", result.summary_b)):
        print(
            f"{name},{summary.n_true},{summary.n_false},"
            f"{render_percent(summary.n_true, summary.total)}"
        )
    return 0


def cmd_report(args) -> int:
    rows = read_standard_csv(args.input)
    report = aggregate(rows)
    paths = emit_report(report, args.out_dir, args.format)
    _diag(f"report: wrote {len(paths)} files to {args.out_dir}")
    return 0


def cmd_pipeline(args) -> int:
    config = _effective_config(
        args,
        kb_path=args.kb,
        model_path=args.model,
        lookup_k=args.lookup_k,
        score_threshold=args.score_threshold,
    )
    if not config.kb_path or not config.model_path:
        raise ConfigError("pipeline requires --kb and --model (or config values)")
    kb = load_kb(config.kb_path)
    model = load_model(config.model_path)

    normalized, reasons = _normalize_file(args.input)
    rows = _standard_rows(normalized, _tagger_spans(model), kb, config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_standard_csv(out_dir / "standard.csv", rows)
    report = aggregate(rows)
    emit_report(report, out_dir / "report", args.format)

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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        _diag(f"error: {exc}")
        return 1
    except DataError as exc:
        _diag(f"error: {exc}")
        return 2
    except OSError as exc:
        _diag(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
