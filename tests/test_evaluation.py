import pytest
from conftest import make_span

from ehr2icd.evaluation import (
    DEFAULT_STOPLIST,
    EXACT,
    FALSE,
    PARTIAL,
    EvalSummary,
    classify_text,
    compare_annotators,
    evaluate_annotator,
    render_percent,
    summary_to_dict,
    write_outcomes_csv,
)
from ehr2icd.ner.spans import AnnotatedExample


def _spans(text, *offsets):
    return [make_span(text, a, b) for a, b in offsets]


def test_overlapping_prediction_is_partial():
    text = "Patient has Diabetes Mellitus 2"
    gold = _spans(text, (12, 31))  # "Diabetes Mellitus 2"
    predicted = _spans(text, (12, 29))  # "Diabetes Mellitus"
    assert classify_text(gold, predicted, DEFAULT_STOPLIST) == PARTIAL


def test_stoplist_only_overlap_is_false():
    text = "Gastroesophaged Reflux Disease"
    gold = _spans(text, (0, 30))
    predicted = _spans(text, (23, 30))  # "Disease"
    assert predicted[0].text == "Disease"
    assert classify_text(gold, predicted, DEFAULT_STOPLIST) == FALSE


def test_identical_spans_are_exact():
    text = "Cystitis"
    gold = _spans(text, (0, 8))
    assert classify_text(gold, _spans(text, (0, 8)), DEFAULT_STOPLIST) == EXACT


def test_null_prediction_is_false():
    text = "Siuisitis"
    assert classify_text(_spans(text, (0, 9)), [], DEFAULT_STOPLIST) == FALSE


def test_disjoint_prediction_is_false():
    text = "Cystitis again today"
    gold = _spans(text, (0, 8))
    predicted = _spans(text, (15, 20))
    assert classify_text(gold, predicted, DEFAULT_STOPLIST) == FALSE


def test_multi_entity_all_matched_is_exact():
    text = "phobic anxiety with major depressive disorder."
    gold = _spans(text, (0, 14), (20, 45))
    predicted = _spans(text, (20, 45), (0, 14))  # order must not matter
    assert classify_text(gold, predicted, DEFAULT_STOPLIST) == EXACT


def test_multi_entity_partially_matched_is_partial():
    text = "phobic anxiety with major depressive disorder."
    gold = _spans(text, (0, 14), (20, 45))
    predicted = _spans(text, (0, 14))
    assert classify_text(gold, predicted, DEFAULT_STOPLIST) == PARTIAL


def test_extra_prediction_blocks_exact_but_stays_true():
    text = "The disease is Gastroenteritis"
    gold = _spans(text, (15, 30))
    predicted = _spans(text, (15, 30), (4, 11))  # extra "disease" span
    assert classify_text(gold, predicted, DEFAULT_STOPLIST) == PARTIAL


def test_empty_gold_empty_prediction_is_exact():
    assert classify_text([], [], DEFAULT_STOPLIST) == EXACT


def test_empty_gold_with_prediction_is_false():
    text = "nothing here"
    assert classify_text([], _spans(text, (0, 7)), DEFAULT_STOPLIST) == FALSE


def test_summary_arithmetic():
    summary = EvalSummary(3, 1, 1)
    assert summary.total == 5
    assert summary.n_true == 4
    assert summary.accuracy == pytest.approx(0.8)


def test_summary_zero_total_raises():
    with pytest.raises(ZeroDivisionError):
        EvalSummary(0, 0, 0)


@pytest.mark.parametrize(
    "true,total,rendered",
    [(197, 241, "81%"), (162, 241, "67%"), (0, 241, "0%"), (1, 1, "100%")],
)
def test_percent_rendering(true, total, rendered):
    assert render_percent(true, total) == rendered


def _corpus():
    texts = ["Cystitis", "Siuisitis", "migraine"]
    return [
        AnnotatedExample(text, tuple(_spans(text, (0, len(text)))))
        for text in texts
    ]


def _gold_annotator(corpus):
    answers = {ex.content: list(ex.spans) for ex in corpus}
    return lambda text: answers[text]


def test_annotator_compared_with_itself():
    corpus = _corpus()
    annotate = _gold_annotator(corpus)
    result = compare_annotators(corpus, annotate, annotate)
    assert result.summary_a == result.summary_b
    assert result.outcomes_a == result.outcomes_b
    assert result.summary_a.n_exact == 3


def test_compare_on_empty_corpus_raises_division_error():
    with pytest.raises(ZeroDivisionError):
        compare_annotators([], lambda t: [], lambda t: [])


def test_single_record_both_correct_gives_100_percent():
    corpus = _corpus()[:1]
    annotate = _gold_annotator(corpus)
    result = compare_annotators(corpus, annotate, annotate)
    for summary in (result.summary_a, result.summary_b):
        assert render_percent(summary.n_true, summary.total) == "100%"


def test_evaluate_annotator_outcome_rows():
    corpus = _corpus()
    summary, outcomes = evaluate_annotator(corpus, lambda text: [])
    assert summary.n_false == summary.total == 3
    assert [row.record_id for row in outcomes] == [1, 2, 3]
    assert all(row.classification == FALSE for row in outcomes)


def test_outcomes_csv_shape(tmp_path):
    corpus = _corpus()
    _, outcomes = evaluate_annotator(corpus, _gold_annotator(corpus))
    path = tmp_path / "outcomes.csv"
    write_outcomes_csv(path, outcomes)
    lines = path.read_text().splitlines()
    assert lines[0] == "record_id,gold_text,predicted,classification"
    assert lines[1] == "1,Cystitis,Cystitis,Exact"


def test_summary_document_keys():
    doc = summary_to_dict(EvalSummary(2, 1, 1))
    assert doc == {
        "exact": 2,
        "partial": 1,
        "false": 1,
        "true": 3,
        "total": 4,
        "accuracy_percent": "75%",
    }
