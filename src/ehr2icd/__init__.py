"""ehr2icd: standardize raw EHR exports into ICD-10-coded records.

The pipeline loads a CSV export, normalizes demographics with fixed rules,
recognizes disease names in free-text diagnoses with a trainable sequence
tagger, links each recognized name to an ICD-10 knowledge base, and
aggregates the standardized rows into statistics. A dictionary-based
annotator and an exact/partial/false scoring protocol support side-by-side
evaluation of recognizers.

Importing the package loads none of its modules. Each name below is
imported from its module on first access (PEP 562) and kept here after
that, so ``from ehr2icd import predict`` loads only the tagger and what it
imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the module, under this package, that defines it.
_EXPORTS = {
    "PipelineConfig": "config",
    "load_config": "config",
    "Lexicon": "dictionary",
    "build_lexicon": "dictionary",
    "dict_annotate": "dictionary",
    "load_lexicon": "dictionary",
    "EvalSummary": "evaluation",
    "classify_text": "evaluation",
    "compare_annotators": "evaluation",
    "evaluate_annotator": "evaluation",
    "render_percent": "evaluation",
    "RawRecord": "ingestion",
    "drop_missing": "ingestion",
    "load_dataset": "ingestion",
    "KBEntry": "linker",
    "KnowledgeBase": "linker",
    "LinkCandidate": "linker",
    "code_to_category": "linker",
    "load_kb": "linker",
    "lookup": "linker",
    "AnnotatedExample": "ner.spans",
    "EntitySpan": "ner.spans",
    "split_corpus": "ner.corpus",
    "TaggerModel": "ner.tagger",
    "predict": "ner.tagger",
    "train_tagger": "ner.training",
    "tokenize": "ner.tokenizer",
    "DateTriple": "normalization",
    "NormalizedRecord": "normalization",
    "normalize_age": "normalization",
    "normalize_date": "normalization",
    "normalize_gender": "normalization",
    "normalize_with_reason": "normalization",
    "StatsReport": "report",
    "aggregate": "report",
    "bin_age": "report",
    "emit_report": "report",
    "sample_path": "samples",
    "StandardRecord": "standard",
    "assign": "standard",
}

__all__ = list(_EXPORTS)


def _lazy_attributes(namespace: dict, table: dict[str, tuple[str, str]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for the module whose globals
    are ``namespace``.

    ``table`` maps a name to the (module under this package, attribute) it
    stands for. The module is imported on the name's first access, and the
    attribute is then kept in ``namespace``, where later lookups find it
    without a call.
    """
    owner = namespace["__name__"]

    def __getattr__(name):
        try:
            module, attribute = table[name]
        except KeyError:
            # Also how ``from ehr2icd import linker`` finds a submodule not
            # yet imported: the import system then imports it.
            raise AttributeError(f"module {owner!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{__name__}.{module}"), attribute)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *table})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_attributes(
    globals(), {name: (module, name) for name, module in _EXPORTS.items()}
)
