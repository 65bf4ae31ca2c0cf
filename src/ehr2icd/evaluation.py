"""Per-text scoring of annotators against gold spans.

Each text receives exactly one classification:

* Exact - every gold span has an identical predicted span and the counts
  match;
* Partial - otherwise, some predicted span overlaps a gold span and that
  span's trimmed, case-folded text is not on the vague-term stoplist;
* False - everything else, covering null predictions, stoplist-only
  overlaps, and predictions that touch no gold span.

Accuracy is (exact + partial) / total. Integer percentages are rendered by
truncation, which reproduces the published accuracy table from its own raw
counts (197 and 162 true results out of 241).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .config import DEFAULT_STOPLIST
from .frozen import Frozen
from .ner.spans import AnnotatedExample, EntitySpan
from .textio import atomic_write, csv_line

EXACT = "Exact"
PARTIAL = "Partial"
FALSE = "False"

Annotator = Callable[[str], list[EntitySpan]]


class EvalSummary(Frozen):
    """One annotator's outcome counts, with the total and the accuracy
    derived from them when built."""

    __slots__ = ("n_exact", "n_partial", "n_false", "total", "accuracy")

    def __init__(self, n_exact: int, n_partial: int, n_false: int):
        if min(n_exact, n_partial, n_false) < 0:
            raise ValueError(f"negative outcome count in {(n_exact, n_partial, n_false)}")
        total = n_exact + n_partial + n_false
        # Raises ZeroDivisionError on an empty evaluation rather than
        # producing a NaN.
        accuracy = (n_exact + n_partial) / total
        for name, value in zip(self.__slots__, (n_exact, n_partial, n_false, total, accuracy)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return self.n_exact, self.n_partial, self.n_false

    @property
    def n_true(self) -> int:
        return self.n_exact + self.n_partial


class OutcomeRow(NamedTuple):
    record_id: int
    gold_text: str
    predicted: tuple[EntitySpan, ...]
    classification: str


class ComparisonResult(NamedTuple):
    summary_a: EvalSummary
    summary_b: EvalSummary
    outcomes_a: tuple[OutcomeRow, ...]
    outcomes_b: tuple[OutcomeRow, ...]


def classify_text(
    gold: Iterable[EntitySpan],
    predicted: Iterable[EntitySpan],
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
) -> str:
    """Classify one text; invariant under permutation of the predicted spans."""
    # A list or tuple is read as it is; any other iterable is read once.
    if not isinstance(gold, (list, tuple)):
        gold = list(gold)
    if not isinstance(predicted, (list, tuple)):
        predicted = list(predicted)
    # Equal sequences of spans have equal offsets: the sets need not be built.
    if gold == predicted or (
        len(gold) == len(predicted)
        and {(s.start, s.end) for s in gold} == {(s.start, s.end) for s in predicted}
    ):
        return EXACT
    for span in predicted:
        if span.text.strip().lower() in stoplist:
            continue
        if any(span.overlaps(g) for g in gold):
            return PARTIAL
    return FALSE


def render_percent(true_count: int, total: int) -> str:
    """Integer percent of true results, truncated (matches the published table)."""
    return f"{100 * true_count // total}%"


def evaluate_annotator(
    corpus: list[AnnotatedExample],
    annotate: Annotator,
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
) -> tuple[EvalSummary, tuple[OutcomeRow, ...]]:
    """Run one annotator over every gold text; record ids are 1-based."""
    counts = {EXACT: 0, PARTIAL: 0, FALSE: 0}
    outcomes = []
    for record_id, (content, spans) in enumerate(corpus, start=1):
        predicted = tuple(annotate(content))
        outcome = classify_text(spans, predicted, stoplist)
        counts[outcome] += 1
        # tuple.__new__ skips the named tuple's Python-level __new__; the
        # fields are record_id, gold_text, predicted and classification.
        outcomes.append(tuple.__new__(OutcomeRow, (record_id, content, predicted, outcome)))
    summary = EvalSummary(counts[EXACT], counts[PARTIAL], counts[FALSE])
    return summary, tuple(outcomes)


def compare_annotators(
    corpus: list[AnnotatedExample],
    annotator_a: Annotator,
    annotator_b: Annotator,
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
) -> ComparisonResult:
    """Evaluate two annotators on identical texts."""
    summary_a, outcomes_a = evaluate_annotator(corpus, annotator_a, stoplist)
    summary_b, outcomes_b = evaluate_annotator(corpus, annotator_b, stoplist)
    return ComparisonResult(summary_a, summary_b, outcomes_a, outcomes_b)


def write_outcomes_csv(path, rows: Iterable[OutcomeRow]) -> None:
    with atomic_write(path, newline="") as fh:
        fh.write(csv_line(("record_id", "gold_text", "predicted", "classification")))
        for row in rows:
            predicted = "|".join(span.text for span in row.predicted)
            fh.write(csv_line((str(row.record_id), row.gold_text, predicted, row.classification)))


def summary_to_dict(summary: EvalSummary) -> dict:
    """Fixed-key document form of a summary."""
    return {
        "exact": summary.n_exact,
        "partial": summary.n_partial,
        "false": summary.n_false,
        "true": summary.n_true,
        "total": summary.total,
        "accuracy_percent": render_percent(summary.n_true, summary.total),
    }
