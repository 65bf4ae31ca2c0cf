"""Disease recognition: spans, tokenization, BILUO tags, corpora, tagger,
training.

As in the ``ehr2icd`` package, each name below is imported from its module
on first access, so ``from ehr2icd.ner import read_corpus`` loads the corpus
reader without the tagger, and ``from ehr2icd.ner import predict`` loads the
tagger without its learner.
"""

from .. import _lazy_attributes

# Exported name -> the module, under this package, that defines it.
_EXPORTS = {
    "TAGS": "biluo",
    "read_corpus": "corpus",
    "split_corpus": "corpus",
    "write_internal": "corpus",
    "DISEASE_LABEL": "spans",
    "AnnotatedExample": "spans",
    "EntitySpan": "spans",
    "FEATURE_TEMPLATE": "tagger",
    "TaggerModel": "tagger",
    "load_model": "tagger",
    "predict": "tagger",
    "save_model": "tagger",
    "train_tagger": "training",
    "Token": "tokenizer",
    "tokenize": "tokenizer",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = _lazy_attributes(
    globals(), {name: (f"ner.{module}", name) for name, module in _EXPORTS.items()}
)
