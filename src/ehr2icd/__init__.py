"""ehr2icd: standardize raw EHR exports into ICD-10-coded records.

The pipeline loads a CSV export, normalizes demographics with fixed rules,
recognizes disease names in free-text diagnoses with a trainable sequence
tagger, links each recognized name to an ICD-10 knowledge base, and
aggregates the standardized rows into statistics. A dictionary-based
annotator and an exact/partial/false scoring protocol support side-by-side
evaluation of recognizers.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, load_config
from .dictionary import Lexicon, build_lexicon, dict_annotate, load_lexicon
from .evaluation import (
    EvalSummary,
    classify_text,
    compare_annotators,
    evaluate_annotator,
    render_percent,
)
from .ingestion import RawRecord, drop_missing, load_dataset
from .linker import (
    KBEntry,
    KnowledgeBase,
    LinkCandidate,
    StandardRecord,
    assign,
    code_to_category,
    load_kb,
    lookup,
)
from .ner import (
    AnnotatedExample,
    EntitySpan,
    TaggerModel,
    decode_biluo,
    encode_biluo,
    predict,
    split_corpus,
    tokenize,
    train_tagger,
)
from .normalization import (
    DateTriple,
    NormalizedRecord,
    normalize_age,
    normalize_date,
    normalize_gender,
    normalize_with_reason,
)
from .report import StatsReport, aggregate, bin_age, emit_report
from .samples import sample_path
