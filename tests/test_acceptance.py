"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines as they happen).
"""

import random
import time

from conftest import GOLDEN_DIR

from ehr2icd.cli import main
from ehr2icd.dictionary import build_lexicon, dict_annotate, read_terms
from ehr2icd.evaluation import evaluate_annotator, render_percent
from ehr2icd.ingestion import RawRecord, drop_missing, load_dataset
from ehr2icd.linker import code_to_category, lookup, read_kb, read_standard_csv
from ehr2icd.ner import (
    load_model,
    predict,
    read_corpus,
    split_corpus,
    train_tagger,
)
from ehr2icd.ner.biluo import decode_biluo, encode_biluo
from ehr2icd.ner.spans import make_span
from ehr2icd.ner.tokenizer import Token
from ehr2icd.normalization import (
    normalize_age,
    normalize_date,
    normalize_gender,
    normalize_with_reason,
)
from ehr2icd.report import aggregate
from ehr2icd.samples import sample_path

FIG4_INPUT = [
    ("F", "21", "The patient's condition results in Diabetes Mellitus", "10 years ago"),
    ("F", "56", "Tonsillitis", "8/4/1439"),
    ("F", "56", "Coryza", "8/4/1439"),
    ("F", "18", "Cystitis", "8/4/1439"),
    ("F", "23", "migraine", "8/4/1439"),
    ("f", "19 years", "Arthritis", "6/4/1439"),
    ("f", "42 years", "Siuisitis", "6/4/1439"),
    ("f", "34 years", "Upper Respiratory Tract", "6/4/1439"),
    ("F", "20 years", "Upper Respiratory Tract", "6/4/1439"),
    ("f", "26 years", "Anxiety", "8/4/1439"),
    ("f", "26 years", "The disease is Gastroenteritis", "8/4/1439"),
    ("f", "39 years", "Siuisitis", "9/4/1439"),
    ("M", "22", "Hypertension", "14/5/1439"),
    ("F", "52", "The disease is Diabetes Mellitus 2", "6/4/1439"),
    ("F", "52", "osteoarthritis", "6/4/1439"),
    ("F", "40", "Hyperthyroidism", "6/4/1439"),
]
# The first row drops (textual date); dates render unpadded.
FIG5_EXPECTED = [
    ("Female", "56", "Tonsillitis", "8/4/1439"),
    ("Female", "56", "Coryza", "8/4/1439"),
    ("Female", "18", "Cystitis", "8/4/1439"),
    ("Female", "23", "migraine", "8/4/1439"),
    ("Female", "19", "Arthritis", "6/4/1439"),
    ("Female", "42", "Siuisitis", "6/4/1439"),
    ("Female", "34", "Upper Respiratory Tract", "6/4/1439"),
    ("Female", "20", "Upper Respiratory Tract", "6/4/1439"),
    ("Female", "26", "Anxiety", "8/4/1439"),
    ("Female", "26", "The disease is Gastroenteritis", "8/4/1439"),
    ("Female", "39", "Siuisitis", "9/4/1439"),
    ("Male", "22", "Hypertension", "14/5/1439"),
    ("Female", "52", "The disease is Diabetes Mellitus 2", "6/4/1439"),
    ("Female", "52", "osteoarthritis", "6/4/1439"),
    ("Female", "40", "Hyperthyroidism", "6/4/1439"),
]


def test_normalization_golden_suite():
    started = time.monotonic()
    assert normalize_gender("m") == "Male"
    assert normalize_gender("f") == "Female"
    assert normalize_gender("F") == "Female"

    assert normalize_age("16") == 16
    assert normalize_age("16 y") == 16
    assert normalize_age("16 years") == 16
    assert normalize_age("4 m") is None
    assert normalize_age("4 months") is None
    assert normalize_age("2 1/2") == 2

    assert normalize_date("08-7-1439").render() == "8/7/1439"
    assert normalize_date("11/8/1439").render() == "11/8/1439"
    assert normalize_date("more than 10 years") is None

    records = [
        RawRecord(g, a, d, t, row_index=i + 1)
        for i, (g, a, d, t) in enumerate(FIG4_INPUT)
    ]
    normalized = [
        result for r in drop_missing(records) if (result := normalize_with_reason(r)[0])
    ]
    produced = [
        (n.gender, str(n.age_years), n.diagnosis_text, n.diagnosis_date.render())
        for n in normalized
    ]
    assert produced == FIG5_EXPECTED
    assert time.monotonic() - started < 1.0
    print("PASS: normalization golden suite")


def test_accuracy_arithmetic():
    assert render_percent(197, 241) == "81%"
    assert render_percent(162, 241) == "67%"
    print("PASS: accuracy arithmetic (197/241 -> 81%, 162/241 -> 67%)")


def test_ranking_fidelity(table9_kb):
    candidates = lookup("Diabetes mellitus type 1", table9_kb, k=4)
    assert candidates[0].entry.code == "E10.9"
    print("PASS: ranking fidelity (rank 1 = E10.9)")


def test_category_rule():
    pairs = [
        ("A06.81", "A06"),
        ("G43.B1", "G43"),
        ("J39.9", "J39"),
        ("F41.1", "F41"),
        ("I15.0", "I15"),
        ("M15.4", "M15"),
        ("P72.1", "P72"),
        ("Q30.0", "Q30"),
        ("Y95", "Y95"),
        ("P70.2", "P70"),
    ]
    for code, category in pairs:
        assert code_to_category(code) == category
    print(f"PASS: category rule ({len(pairs)} code/category pairs)")


def _reconstruct_spans(tags, tokens, text):
    """Brute-force reconstruction of spans from a valid BILUO sequence."""
    spans = []
    i = 0
    while i < len(tags):
        if tags[i] == "U-Disease":
            spans.append(make_span(text, tokens[i].start, tokens[i].end))
            i += 1
        elif tags[i] == "B-Disease":
            j = i
            while tags[j] != "L-Disease":
                j += 1
            spans.append(make_span(text, tokens[i].start, tokens[j].end))
            i = j + 1
        else:
            i += 1
    return spans


def _random_case(rng):
    n = rng.randint(1, 12)
    text = ""
    tokens = []
    for _ in range(n):
        word = "".join(rng.choice("abcdefXYZ09") for _ in range(rng.randint(1, 5)))
        if text:
            text += " " * rng.randint(1, 2)
        start = len(text)
        text += word
        tokens.append(Token(word, start, len(text)))
    spans = []
    i = 0
    while i < n:
        if rng.random() < 0.4:
            length = rng.randint(1, min(3, n - i))
            spans.append(make_span(text, tokens[i].start, tokens[i + length - 1].end))
            i += length
        else:
            i += 1
    return text, tokens, spans


def test_biluo_round_trip():
    started = time.monotonic()
    rng = random.Random(42)
    for _ in range(1000):
        text, tokens, spans = _random_case(rng)
        sequence = encode_biluo(tokens, spans)
        decoded = decode_biluo(sequence, text)
        assert decoded == spans
        assert decoded == _reconstruct_spans(sequence.tags, tokens, text)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"PASS: BILUO round trip (1000 cases, {elapsed:.2f}s)")


def test_multi_entity_extraction():
    model = load_model(sample_path("sample_model.txt"))
    spans = predict(model, "phobic anxiety with major depressive disorder.")
    assert [s.text for s in spans] == ["phobic anxiety", "major depressive disorder"]
    spans = predict(model, "Colon cancer for liver evaluation")
    assert [s.text for s in spans] == ["Colon cancer"]
    print("PASS: multi-entity extraction on the two reference texts")


def test_comparative_direction():
    started = time.monotonic()
    corpus = read_corpus(sample_path("sample_corpus.jsonl"))
    assert len(corpus) >= 150
    train, held_out = split_corpus(corpus, 0.7, seed=13)
    model = train_tagger(train, epochs=10, seed=13)

    extras = read_terms(sample_path("extra_terms.txt"))
    lexicon = build_lexicon(read_kb(sample_path("sample_kb.tsv")), extras)

    tagger_summary, _ = evaluate_annotator(
        held_out, lambda text: predict(model, text)
    )
    baseline_summary, _ = evaluate_annotator(
        held_out, lambda text: dict_annotate(text, lexicon)
    )
    assert tagger_summary.accuracy >= baseline_summary.accuracy
    assert tagger_summary.accuracy >= 0.70
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        "PASS: comparative direction (tagger "
        f"{render_percent(tagger_summary.n_true, tagger_summary.total)} >= "
        f"baseline {render_percent(baseline_summary.n_true, baseline_summary.total)}, "
        f"{elapsed:.1f}s)"
    )


def test_end_to_end_golden_run(tmp_path):
    started = time.monotonic()
    out_dir = tmp_path / "run"
    rc = main(
        [
            "pipeline",
            "--input", str(sample_path("sample_ehr.csv")),
            "--kb", str(sample_path("sample_kb.tsv")),
            "--model", str(sample_path("sample_model.txt")),
            "--out-dir", str(out_dir),
        ]
    )
    assert rc == 0
    assert (out_dir / "standard.csv").read_bytes() == (
        GOLDEN_DIR / "standard.csv"
    ).read_bytes()
    for name in (
        "by_category.csv",
        "by_category_gender.csv",
        "by_category_agebin.csv",
        "by_month.csv",
        "summary.csv",
    ):
        assert (out_dir / "report" / name).read_bytes() == (
            GOLDEN_DIR / "report" / name
        ).read_bytes()

    # Row accounting, recomputed independently of the pipeline command.
    model = load_model(sample_path("sample_model.txt"))
    records = load_dataset(sample_path("sample_ehr.csv"))
    normalized = [
        n for r in drop_missing(records) if (n := normalize_with_reason(r)[0]) is not None
    ]
    expected_rows = sum(
        max(1, len(predict(model, n.diagnosis_text))) for n in normalized
    )
    produced = read_standard_csv(out_dir / "standard.csv")
    assert len(produced) == expected_rows
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"PASS: end-to-end golden run ({len(produced)} rows, {elapsed:.2f}s)")


def test_report_consistency_on_golden_output():
    rows = read_standard_csv(GOLDEN_DIR / "standard.csv")
    report = aggregate(rows)
    report.validate()
    assert sum(report.by_category.values()) + report.na_rows == report.total_rows
    for category, count in report.by_category.items():
        assert (
            sum(n for (c, _), n in report.by_category_gender.items() if c == category)
            == count
        )
        assert (
            sum(n for (c, _), n in report.by_category_agebin.items() if c == category)
            == count
        )
    print("PASS: report consistency on the golden output")


def test_table9_kb_available(table9_kb):
    # Guard: the shared fixture stays exactly the four reference entries.
    assert [e.code for e in table9_kb.entries] == [
        "E10.9",
        "E10.21",
        "E10.36",
        "E10.41",
    ]
