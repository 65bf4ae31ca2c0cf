#!/usr/bin/env python3
"""Run one ``ehr2icd`` command with a span around each call it makes into a module.

    PYTHONPATH=src python3 perfbench/tracecli.py STEM RUN_ID <ehr2icd arguments>

Before it calls ``ehr2icd.cli.main``, it replaces the functions ``cli`` calls
(and ``evaluation.evaluate_annotator``, which ``cmd_train`` imports when it
runs) with wrappers that record a span and keep the call's arguments and
result. The command itself runs unchanged. Afterwards it writes the spans to
``STEM.spans.jsonl`` and counts taken from the kept calls to
``STEM.counts.json``, and exits with ``main``'s code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter

import ehr2icd.cli as cli
import ehr2icd.evaluation as evaluation
from ehr2icd.ner import tokenize
from spans import Tracer, write_jsonl

# Span name -> (module, attribute) of each function wrapped.
TRACED = {
    "ingestion.read_header": (cli, "read_header"),
    "ingestion.load_dataset": (cli, "load_dataset"),
    "ingestion.drop_missing": (cli, "drop_missing"),
    "normalization.normalize": (cli, "normalize_with_reason"),
    "ner.read_corpus": (cli, "read_corpus"),
    "ner.split_corpus": (cli, "split_corpus"),
    "ner.train": (cli, "train_tagger"),
    "ner.save_model": (cli, "save_model"),
    "ner.load_model": (cli, "load_model"),
    "ner.predict": (cli, "predict"),
    "linker.load_kb": (cli, "load_kb"),
    "linker.assign": (cli, "assign"),
    "linker.write_standard": (cli, "write_standard_csv"),
    "report.aggregate": (cli, "aggregate"),
    "report.emit": (cli, "emit_report"),
    "dictionary.build_lexicon": (cli, "build_lexicon"),
    "dictionary.annotate": (cli, "dict_annotate"),
    "evaluation.compare": (cli, "compare_annotators"),
    "evaluation.evaluate_annotator": (evaluation, "evaluate_annotator"),
    "evaluation.write_outcomes": (cli, "write_outcomes_csv"),
}


@functools.cache
def _signature(function) -> inspect.Signature:
    return inspect.signature(function)


def _bind(function, args, kwargs) -> dict:
    bound = _signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _calls(tracer: Tracer, name: str) -> list[tuple[dict, object]]:
    """(arguments by parameter name, result) of each call to ``name``."""
    return [
        (_bind(function, args, kwargs), result)
        for span, function, args, kwargs, result in tracer.calls
        if span == name
    ]


def _train_counts(tracer: Tracer) -> dict:
    (arguments, _), = _calls(tracer, "ner.train")
    examples = arguments["train"]
    epochs = arguments["epochs"]
    return {
        "ner.train_token_updates": epochs * sum(len(tokenize(e.content)) for e in examples),
        "train_examples": len(examples),
        "epochs": epochs,
    }


def _evaluate_counts(tracer: Tracer) -> dict:
    (arguments, result), = _calls(tracer, "evaluation.compare")
    return {
        "evaluation.tagger_true": result.summary_a.n_true,
        "evaluation.dictionary_true": result.summary_b.n_true,
        "evaluate_texts": len(arguments["corpus"]),
    }


def _pipeline_counts(tracer: Tracer) -> dict:
    (_, records), = _calls(tracer, "ingestion.load_dataset")
    (_, kept), = _calls(tracer, "ingestion.drop_missing")
    (_, kb), = _calls(tracer, "linker.load_kb")
    (_, model), = _calls(tracer, "ner.load_model")
    reasons = Counter(reason for _, (_, reason) in _calls(tracer, "normalization.normalize"))
    texts, spans = [], []
    for arguments, result in _calls(tracer, "ner.predict"):
        texts.append(arguments["text"])
        spans.append(result)
    assigned = _calls(tracer, "linker.assign")
    looked_up = [span for arguments, _ in assigned for span in arguments["spans"]]
    rows = [row for _, result in assigned for row in result]
    na_rows = sum(1 for row in rows if row.icd10_code is None)
    return {
        "ingestion.rows_in": len(records),
        "ingestion.rows_missing": len(records) - len(kept),
        "normalization.rows_out": reasons[None],
        "normalization.dropped_gender": reasons["gender"],
        "normalization.dropped_age": reasons["age"],
        "normalization.dropped_date": reasons["date"],
        "ner.texts": len(texts),
        "ner.tokens": sum(len(tokenize(text)) for text in texts),
        "ner.spans": sum(len(s) for s in spans),
        "ner.model_features": len(model.weights),
        "ner.distinct_text_ratio": len(set(texts)) / len(texts),
        "linker.lookups": len(looked_up),
        "linker.na_rows": na_rows,
        "linker.kb_entries": len(kb.entries),
        "linker.standard_rows": len(rows),
        "linker.distinct_span_ratio": len({s.text for s in looked_up}) / len(looked_up),
        "linker.linked_ratio": (len(rows) - na_rows) / len(looked_up),
        "rows_from_spans": sum(max(1, len(s)) for s in spans),
    }


COUNTS = {"train": _train_counts, "evaluate": _evaluate_counts, "pipeline": _pipeline_counts}


def main(argv: list[str]) -> int:
    stem, run_id, args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer(run_id)
    for name, (module, attribute) in TRACED.items():
        setattr(module, attribute, tracer.wrap(name, getattr(module, attribute)))
    with tracer.span(f"cli.{args[0]}"):
        code = cli.main(args)
    write_jsonl(f"{stem}.spans.jsonl", tracer.spans)
    if code == 0:
        counts = COUNTS[args[0]](tracer)
        with open(f"{stem}.counts.json", "w", encoding="utf-8") as fh:
            json.dump(counts, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
