#!/usr/bin/env python3
"""Regenerate the bundled generated fixtures deterministically.

Produces, under src/ehr2icd/data/:

* sample_corpus.jsonl - template-synthesized annotated diagnosis texts;
* sample_model.txt    - tagger trained on the default split of that corpus
                        (what `ehr2icd train` writes with defaults);
* sample_ehr_300.csv  - a 300-row raw export in which exactly 59 rows carry
                        a blank cell in one of the four standard columns.

Run from the repository root after an editable install:

    python scripts/make_fixtures.py
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

from ehr2icd.config import PipelineConfig
from ehr2icd.ner import AnnotatedExample, EntitySpan, split_corpus, train_tagger
from ehr2icd.ner.corpus import write_internal
from ehr2icd.ner.tagger import save_model

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "ehr2icd" / "data"

CORPUS_SEED = 20240712
EHR_SEED = 31415

# Disease surfaces; the first group also appears in the sample knowledge
# base (or extra-terms file), the second group deliberately does not, so the
# dictionary annotator can find the former and must miss the latter.
LEXICON_DISEASES = [
    "Gastroenteritis",
    "Anxiety",
    "Hypertension",
    "Migraine",
    "Osteoarthritis",
    "Hyperthyroidism",
    "Asthma",
    "Stroke",
    "Colon cancer",
    "Gastric Cancer",
    "Stomach Cancer",
    "Phobic anxiety",
    "Major depressive disorder",
    "Pulmonary embolism",
    "Insulin-dependent diabetes mellitus",
    "Diabetes mellitus type I",
    "Primary hypothyroidism",
    "Chronic Kidney Disease",
    "shortness of breath",
    "Sickle-Cell Anaemia",
]
UNLISTED_DISEASES = [
    "Cystitis",
    "Tonsillitis",
    "Coryza",
    "Siuisitis",
    "Autism",
    "Arthritis",
    "Ischemic Heart Disease",
    "Diabetes Mellitus 2",
    "hepatitis B",
    "Biliary Atresia",
    "Iron deficiency anaemia",
    "Upper Respiratory Tract",
    "Gastroesophageal Reflux Disease",
    "Acute lower dysphagia",
]
ALL_DISEASES = LEXICON_DISEASES + UNLISTED_DISEASES

# Templates as part sequences; diseases slot between consecutive parts.
SINGLE_TEMPLATES = [
    ("", ""),
    ("The disease is ", ""),
    ("The result of the analysis is ", ""),
    ("Old known ", ""),
    ("New discovered ", ""),
    ("uncontrol ", ""),
    ("Patient has ", ""),
    ("Patient diagnosed with ", ""),
    ("", " for liver evaluation"),
    ("", " for kidney evaluation"),
    ("Stage 3 of ", ""),
    ("Stage 5 of ", ""),
    ("Chronic inactive ", ""),
    ("", " since yesterday evening"),
    ("The patient's condition results in ", ""),
    ("Follow up ", ""),
]
PAIR_TEMPLATES = [
    ("", " with ", "."),
    ("New discovered ", " + ", ""),
    ("Follow up ", " /", ""),
    ("Referred from ", "/ ", " /accepted by medical."),
]


def build_example(parts, diseases) -> AnnotatedExample:
    text = ""
    spans = []
    for i, part in enumerate(parts):
        text += part
        if i < len(diseases):
            start = len(text)
            text += diseases[i]
            spans.append(EntitySpan(start, len(text), diseases[i]))
    return AnnotatedExample(content=text, spans=tuple(spans))


def make_corpus() -> list[AnnotatedExample]:
    rng = random.Random(CORPUS_SEED)
    examples = [
        build_example(
            ("", " with ", "."), ["phobic anxiety", "major depressive disorder"]
        ),
        build_example(("", " for liver evaluation"), ["Colon cancer"]),
        build_example(
            ("Referred from ", "/ ", " /accepted by medical."),
            ["shortness of breath", "pulmonary embolism"],
        ),
    ]
    for round_no in range(5):
        for disease in ALL_DISEASES:
            surface = disease
            if " " not in surface and rng.random() < 0.25:
                surface = surface.lower()
            if rng.random() < 0.2:
                partner = rng.choice([d for d in ALL_DISEASES if d != disease])
                parts = rng.choice(PAIR_TEMPLATES)
                examples.append(build_example(parts, [surface, partner]))
            else:
                parts = rng.choice(SINGLE_TEMPLATES)
                examples.append(build_example(parts, [surface]))
    return examples


GENDER_POOL = ["F", "f", "M", "m", "Female", "female", "Male", "male"]
AGE_POOL = [
    "20", "56", "21", "34", "18", "40", "60 yrs", "22 yr", "6 yr",
    "19 years", "16 y", "2 1/2", "45", "63", "7",
]
DATE_POOL = [
    "9/4/1439", "10/4/1439", "8/5/1439", "29/1/1439", "08-7-1439",
    "11/8/1439", "14/5/1439", "6/4/1439", "13/4/1439",
]


def make_ehr_300() -> list[list[str]]:
    rng = random.Random(EHR_SEED)
    rows = []
    for _ in range(300):
        disease = rng.choice(ALL_DISEASES)
        parts = rng.choice(SINGLE_TEMPLATES)
        diagnosis = parts[0] + disease + parts[1]
        rows.append(
            [
                rng.choice(GENDER_POOL),
                rng.choice(AGE_POOL),
                diagnosis,
                rng.choice(DATE_POOL),
            ]
        )
    # Blank one of the four cells in exactly 59 distinct rows.
    for i in rng.sample(range(300), 59):
        column = rng.randrange(4)
        rows[i][column] = rng.choice(["", " ", "  "])
    return rows


def main() -> None:
    corpus = make_corpus()
    write_internal(DATA_DIR / "sample_corpus.jsonl", corpus)
    print(f"corpus: {len(corpus)} examples")

    defaults = PipelineConfig()
    train, test = split_corpus(corpus, defaults.train_fraction, defaults.seed)
    model = train_tagger(train, epochs=defaults.epochs, seed=defaults.seed)
    save_model(model, DATA_DIR / "sample_model.txt")
    print(f"model: trained on {len(train)}, held out {len(test)}")

    rows = make_ehr_300()
    with (DATA_DIR / "sample_ehr_300.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Gender", "Age", "Diagnosis", "Diagnosis Date"])
        writer.writerows(rows)
    blank = sum(1 for row in rows if any(not cell.strip() for cell in row))
    print(f"ehr-300: {len(rows)} rows, {blank} with a blank cell")


if __name__ == "__main__":
    main()
