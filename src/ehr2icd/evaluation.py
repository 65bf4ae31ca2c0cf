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
    """One annotator's outcome counts and accuracy; checked when built."""

    __slots__ = ("n_exact", "n_partial", "n_false", "total", "accuracy")

    def __init__(self, n_exact: int, n_partial: int, n_false: int, total: int, accuracy: float):
        if n_exact + n_partial + n_false != total:
            raise ValueError("outcome counts do not sum to the total")
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 1]")
        for name, value in zip(self.__slots__, (n_exact, n_partial, n_false, total, accuracy)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return self.n_exact, self.n_partial, self.n_false, self.total, self.accuracy

    @property
    def n_true(self) -> int:
        return self.n_exact + self.n_partial

    @classmethod
    def from_counts(cls, n_exact: int, n_partial: int, n_false: int) -> "EvalSummary":
        total = n_exact + n_partial + n_false
        # Raises ZeroDivisionError on an empty evaluation rather than
        # producing a NaN.
        accuracy = (n_exact + n_partial) / total
        return cls(n_exact, n_partial, n_false, total, accuracy)


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
    gold = list(gold)
    predicted = list(predicted)
    gold_offsets = {(s.start, s.end) for s in gold}
    predicted_offsets = {(s.start, s.end) for s in predicted}
    if gold_offsets == predicted_offsets and len(gold) == len(predicted):
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
    for record_id, example in enumerate(corpus, start=1):
        predicted = tuple(annotate(example.content))
        outcome = classify_text(example.spans, predicted, stoplist)
        counts[outcome] += 1
        outcomes.append(
            OutcomeRow(
                record_id=record_id,
                gold_text=example.content,
                predicted=predicted,
                classification=outcome,
            )
        )
    summary = EvalSummary.from_counts(counts[EXACT], counts[PARTIAL], counts[FALSE])
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
