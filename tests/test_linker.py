import csv
import gc
import marshal
import os
import pickle
import subprocess
import sys
import weakref
from array import array
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_parses, feeding_fifo, make_kb, make_span

from ehr2icd import dictionary, kbimage, linker, textio
from ehr2icd.dictionary import Lexicon, build_lexicon, load_lexicon
from ehr2icd.errors import DuplicateCode, InvalidCode
from ehr2icd.linker import (
    KBEntry,
    KnowledgeBase,
    build_index,
    code_to_category,
    load_kb,
    lookup,
    query_tokens,
    read_kb,
)
from ehr2icd.cli import main
from ehr2icd.samples import sample_path
from ehr2icd.ner import tokenizer
from ehr2icd.ner.tokenizer import tokenize
from ehr2icd.normalization import DateTriple, NormalizedRecord
from ehr2icd.standard import (
    STANDARD_HEADER,
    StandardRecord,
    assign,
    read_standard_csv,
    write_standard_csv,
)

TABLE9_FILE = (
    "E10.9\tType 1 diabetes mellitus without complications\n"
    "E10.21\tType 1 diabetes mellitus with diabetic nephropathy\n"
    "E10.36\tType 1 diabetes mellitus with diabetic cataract\n"
    "E10.41\tType 1 diabetes mellitus with diabetic mononeuropathy\n"
)


def _record(text="Cystitis", gender="Female", age=20):
    return NormalizedRecord(
        gender=gender,
        age_years=age,
        diagnosis_date=DateTriple(9, 4, 1439),
        diagnosis_text=text,
        row_index=1,
    )


def test_load_kb_four_entries(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    kb = load_kb(path)
    assert [e.code for e in kb.entries] == ["E10.9", "E10.21", "E10.36", "E10.41"]


def test_load_kb_duplicate_code(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("I15.0\tRenovascular hypertension\nI15.0\tAgain\n")
    with pytest.raises(DuplicateCode):
        load_kb(path)


def test_load_kb_invalid_code(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("NOPE\tBad code\n")
    with pytest.raises(InvalidCode) as err:
        load_kb(path)
    assert err.value.line == 1


def test_load_kb_empty_file(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("")
    kb = load_kb(path)
    assert kb.entries == ()
    assert lookup("Cystitis", kb) == []


def test_load_kb_comments_and_synonyms(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("# curated\nC16\tMalignant neoplasm of stomach\tStomach Cancer|Gastric Cancer\n")
    kb = load_kb(path)
    assert kb.entries[0].synonyms == ("Stomach Cancer", "Gastric Cancer")


def test_index_is_rebuildable(sample_kb_path):
    kb = load_kb(sample_kb_path)
    assert build_index(kb.entries) == kb.index


def test_table9_rank_one(table9_kb):
    candidates = lookup("Diabetes mellitus type 1", table9_kb, k=4)
    assert candidates[0].entry.code == "E10.9"
    # Token-set Jaccard oracle: 4 shared of 6 union vs 4 of 7.
    assert candidates[0].score == pytest.approx(4 / 6)
    assert all(c.score == pytest.approx(4 / 7) for c in candidates[1:])
    # Equal scores fall back to code order.
    assert [c.entry.code for c in candidates[1:]] == ["E10.21", "E10.36", "E10.41"]


def test_lookup_k_truncates(table9_kb):
    assert len(lookup("Diabetes mellitus type 1", table9_kb, k=2)) == 2


def test_lookup_rejects_bad_k(table9_kb):
    with pytest.raises(ValueError):
        lookup("Diabetes", table9_kb, k=0)


def test_cystitis_scores_one_half():
    kb = make_kb(KBEntry("A06.81", "Amebic cystitis"))
    [candidate] = lookup("Cystitis", kb)
    assert candidate.entry.code == "A06.81"
    assert candidate.score == pytest.approx(0.5)
    assert candidate.matched_via == "name"


def test_no_shared_tokens_gives_empty(table9_kb):
    assert lookup("Zebra", table9_kb) == []


def test_lookup_deterministic(table9_kb):
    first = lookup("Diabetes mellitus type 1", table9_kb)
    second = lookup("Diabetes mellitus type 1", table9_kb)
    assert first == second


def test_scores_within_unit_interval(sample_kb_path):
    kb = load_kb(sample_kb_path)
    for term in ("Hypertension", "diabetes", "Upper Respiratory Tract", "Anxiety"):
        for candidate in lookup(term, kb, k=10):
            assert 0.0 < candidate.score <= 1.0


def test_synonym_match_reported():
    kb = make_kb(KBEntry("I15.0", "Renovascular hypertension", ("Hypertension",)))
    [candidate] = lookup("Hypertension", kb)
    assert candidate.matched_via == "synonym"
    assert candidate.score == pytest.approx(1.0)


def test_name_wins_a_tie_with_a_synonym_sharing_other_tokens():
    # Name and synonym each share one of the two query tokens (score 1/3).
    # Across 20 word pairs, set iteration meets the synonym's token first
    # for some of them; the name must win every tie all the same.
    for i in range(20):
        kb = make_kb(KBEntry("A00", f"common n{i}", (f"common s{i}",)))
        [candidate] = lookup(f"n{i} s{i}", kb)
        assert (candidate.score, candidate.matched_via) == (1 / 3, "name")


def test_rank_monotone_under_helpful_token():
    # Adding a query token present in A's name must not push A below an
    # entry that gains nothing from it.
    kb = make_kb(KBEntry("A00", "alpha beta"), KBEntry("B00", "alpha"))
    before = [c.entry.code for c in lookup("alpha", kb)]
    after = [c.entry.code for c in lookup("alpha beta", kb)]
    assert before.index("A00") >= before.index("B00")
    assert after.index("A00") <= after.index("B00")


def _oracle_tokens(text):
    return {t.text.lower() for t in tokenize(text) if t.text[0].isalnum()}


def _oracle_lookup(term, entries):
    """Reference ranking: re-tokenize and score every surface of every entry."""
    query = _oracle_tokens(term)
    candidates = []
    for entry in entries:
        best_score, best_via = 0.0, "name"
        for via, surface in (("name", entry.name), *(("synonym", s) for s in entry.synonyms)):
            surface_tokens = _oracle_tokens(surface)
            shared = len(query & surface_tokens)
            if shared == 0:
                continue
            score = shared / len(query | surface_tokens)
            if score > best_score:
                best_score, best_via = score, via
        if best_score > 0.0:
            candidates.append((entry, best_score, best_via))
    candidates.sort(key=lambda c: (-c[1], c[0].code))
    return candidates


# Repeated, non-ASCII, digit-only and stop-like words, plus punctuation that
# the tokenizer splits off (the underscore included).
WORDS = ["alpha", "Beta", "gamma", "Straße", "δέλτα", "ünï", "x2", "10", "٣", "of", "with"]
PUNCTUATION = ["-", ",", "/", "+", "(", ")", "_"]
SURFACES = st.builds(
    lambda parts, sep: sep.join(parts),
    st.lists(st.sampled_from(WORDS + PUNCTUATION), min_size=1, max_size=5),
    st.sampled_from([" ", "", "-"]),
)
CODES = [f"{letter}{n:02d}" for letter in "ABJ" for n in (0, 9, 15, 41)] + ["A00.1", "J15.9"]


@st.composite
def kbs_and_terms(draw):
    # Codes drawn in random order, so entries are out of code order.
    codes = draw(st.lists(st.sampled_from(CODES), min_size=1, max_size=8, unique=True))
    entries = []
    for code in codes:
        # Reusing an earlier name makes whole entries tie.
        name = draw(st.one_of(SURFACES, *(st.just(e.name) for e in entries[-2:])))
        words = name.split()
        # Same tokens in another order, or one word swapped: both can tie
        # with the name on the score.
        reordered = " ".join(reversed(words))
        swapped = " ".join(words[:-1] + [draw(st.sampled_from(WORDS))])
        synonym = st.one_of(
            SURFACES, st.sampled_from([name, name.upper(), reordered, swapped]),
            st.sampled_from(PUNCTUATION),
        )
        entries.append(KBEntry(code, name, tuple(draw(st.lists(synonym, max_size=3)))))
    # A term made of the KB's own words shares tokens with many surfaces.
    kb_words = sorted({w for e in entries for s in (e.name, *e.synonyms) for w in s.split()})
    mixed = st.lists(st.sampled_from(kb_words), min_size=1, max_size=3).map(" ".join)
    return entries, draw(st.one_of(SURFACES, mixed))


# Most surfaces hold a word from COMMON, whose long postings the search
# should prune, and chains such as "x", "x y", "x y z" nest surfaces of
# consecutive sizes, so that many entries tie on a score.
COMMON = ["of", "unspecified", "disease"]
RARE = ["x", "y", "z", "kidney", "heart", "acute", "type", "2"]
MANY_CODES = [f"{letter}{n:02d}" for letter in "ABCDEFGHIJ" for n in range(7)]


@st.composite
def crowded_kbs_and_terms(draw):
    # One seeded generator per example keeps 20-60 entries cheap to draw.
    rng = draw(st.randoms(use_true_random=True))
    words = COMMON + RARE

    def surface():
        rest = [rng.choice(words) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.8:
            rest.insert(rng.randint(0, len(rest)), rng.choice(COMMON))
        return " ".join(rest) or rng.choice(COMMON)

    entries = []
    for code in rng.sample(MANY_CODES, rng.randint(20, 60)):
        chain = [rng.choice(words) for _ in range(3)]
        nested = [" ".join(chain[:n]) for n in (1, 2, 3)]

        def pick():
            return rng.choice(nested) if rng.random() < 0.4 else surface()

        name = pick()
        entries.append(KBEntry(code, name, tuple(pick() for _ in range(rng.randint(0, 3)))))
    term = " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
    return entries, term


@settings(max_examples=250, deadline=None)
@given(st.one_of(kbs_and_terms(), crowded_kbs_and_terms()))
def test_lookup_matches_per_candidate_oracle(kb_and_term):
    entries, term = kb_and_term
    kb = make_kb(*entries)
    expected = _oracle_lookup(term, entries)
    for k in range(1, max(len(expected) + 3, 7)):
        got = [(c.entry, c.score, c.matched_via) for c in lookup(term, kb, k=k)]
        assert got == expected[:k]


def test_name_wins_a_tie_with_a_shorter_synonym():
    # Query "a b": the synonym "a" scores 1/2, and so does the longer name
    # "a b c d" (2 of 4); a smaller surface is met first, yet the name wins.
    kb = make_kb(KBEntry("A00", "a b c d", ("a",)), KBEntry("B00", "a b e f g h"))
    candidates = lookup("a b", kb, k=2)
    assert [(c.entry.code, c.score, c.matched_via) for c in candidates] == [
        ("A00", 0.5, "name"),
        ("B00", 2 / 6, "name"),
    ]


def test_size_window_is_exactly_the_sizes_that_can_reach_t():
    # Keys 1..40 with stride 1 stand for one surface of each size. A surface
    # of size s sharing at most m of q query tokens scores at most
    # min(m, s) / (q + s - min(m, s)); the window must be exactly the sizes
    # whose bound is >= t, also where a float estimate lands just below an
    # exact integer (t = 9/14, q = m = 9 gives m / t = 13.999...).
    keys = array("I", range(1, 41))
    for u in range(1, 17):
        for c in range(1, u + 1):
            for q in range(1, 13):
                for m in range(1, q + 1):
                    if Fraction(m, q) < Fraction(c, u):
                        continue
                    pos, end = linker._window(keys, 1, 0, len(keys), c / u, q, m)
                    expected = [
                        s for s in keys
                        if Fraction(min(m, s), q + s - min(m, s)) >= Fraction(c, u)
                    ]
                    assert list(keys[pos:end]) == expected, (c, u, q, m)


def _postings(kb, token):
    """The keys filed under ``token``: its slice of the flat key array."""
    n = kb.index.tokens[token]
    return kb.index.keys[kb.index.offsets[n] : kb.index.offsets[n + 1]]


def test_keys_past_32_bits_fall_back_to_64_bit_postings():
    # 65536 surfaces and one of 65536 tokens: the largest key is 2**32.
    long_name = " ".join(f"w{i}" for i in range(65536))
    entries = [KBEntry("A00", long_name)]
    entries += [KBEntry(f"B{i % 100:02d}.{i // 100}", f"w{i % 7} v{i}") for i in range(65535)]
    kb = make_kb(*entries)
    assert kb.index.keys.typecode == "Q"
    assert max(_postings(kb, "w0")) == 2**32
    [candidate] = lookup(long_name, kb, k=1)
    assert (candidate.entry.code, candidate.score) == ("A00", 1.0)
    assert [c.entry.code for c in lookup("w3 v3", kb, k=1)] == ["B03.0"]


# ASCII text takes a faster path: one lowercasing, then an ASCII pattern.
@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=st.characters(max_codepoint=127), max_size=30)))
def test_query_tokens_are_the_alphanumeric_tokens(text):
    assert query_tokens(text) == _oracle_tokens(text)


# Lowercasing 'İ' adds a combining mark, which is not a letter: a whole-string
# fold before matching would split the token.
@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="İıßẞΣσςǅǄ\u0301\u0327\u2028\u00a0٠١٩-/_ aA0", max_size=20))
def test_query_tokens_fold_each_token_as_matched(text):
    assert query_tokens(text) == _oracle_tokens(text)


@pytest.mark.parametrize("size", [50, 500])
def test_lookup_tokenizes_only_the_query(size, monkeypatch):
    kb = make_kb(
        *(
            KBEntry(f"A{i // 10:02d}.{i % 10}", f"shared disease {i}", ("shared",))
            for i in range(size)
        )
    )
    calls = {"query_tokens": 0, "tokenize": 0}

    def counted(name, real):
        def wrapper(text):
            calls[name] += 1
            return real(text)

        return wrapper

    monkeypatch.setattr(linker, "query_tokens", counted("query_tokens", linker.query_tokens))
    monkeypatch.setattr(linker, "tokenize", counted("tokenize", tokenize), raising=False)
    assert len(lookup("shared", kb, k=4)) == 4
    # Only the query is tokenized (query_tokens may do so through tokenize).
    assert calls["query_tokens"] == 1 and calls["tokenize"] <= 1


@pytest.mark.parametrize(
    "code,category",
    [
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
        ("E10.9", "E10"),
    ],
)
def test_code_to_category(code, category):
    assert code_to_category(code) == category


def test_code_to_category_rejects_invalid():
    with pytest.raises(InvalidCode):
        code_to_category("bogus")


def test_assign_two_diseases_share_demographics():
    kb = make_kb(
        KBEntry("I15.0", "Renovascular hypertension", ("Hypertension",)),
        KBEntry("I63.9", "Cerebral infarction, unspecified", ("Stroke",)),
    )
    text = "New discovered hypertension + stroke"
    record = _record(text, gender="Male", age=60)
    spans = [make_span(text, 15, 27), make_span(text, 30, 36)]
    rows = assign(record, spans, kb)
    assert len(rows) == 2
    assert {r.icd10_code for r in rows} == {"I15.0", "I63.9"}
    assert all((r.gender, r.age_years) == ("Male", 60) for r in rows)
    assert all(r.diagnosis_text == text for r in rows)


def test_assign_asks_lookup_for_the_top_candidate_only(monkeypatch):
    ks = []
    rank = linker._rank

    def spy(index, lists, k):
        ks.append(k)
        return rank(index, lists, k)

    monkeypatch.setattr(linker, "_rank", spy)
    kb = make_kb(KBEntry("A06.81", "Amebic cystitis"), KBEntry("N30.9", "Cystitis"))
    text = "Cystitis"
    [row] = assign(_record(text), [make_span(text, 0, 8)], kb)
    assert (row.icd10_code, ks) == ("N30.9", [1])


def test_assign_miss_keeps_row_with_na():
    kb = make_kb(KBEntry("A06.81", "Amebic cystitis"))
    text = "Tonsillitis"
    rows = assign(_record(text), [make_span(text, 0, 11)], kb)
    assert len(rows) == 1
    assert (rows[0].icd10_code, rows[0].icd10_name, rows[0].icd10_category) == (
        None,
        None,
        None,
    )


def test_assign_zero_spans_gives_single_na_row():
    kb = make_kb(KBEntry("A06.81", "Amebic cystitis"))
    rows = assign(_record("routine check"), [], kb)
    assert len(rows) == 1
    assert rows[0].icd10_code is None


def test_assign_category_consistency(sample_kb_path):
    kb = load_kb(sample_kb_path)
    text = "Cystitis"
    rows = assign(_record(text), [make_span(text, 0, 8)], kb)
    for row in rows:
        if row.icd10_code is not None:
            assert row.icd10_category == row.icd10_code.split(".", 1)[0]
            assert row.icd10_name is not None


def test_assign_row_accounting(sample_kb_path):
    kb = load_kb(sample_kb_path)
    cases = []
    for text, span_offsets in [
        ("Cystitis", [(0, 8)]),
        ("routine check", []),
        ("New discovered hypertension + stroke", [(15, 27), (30, 36)]),
    ]:
        spans = [make_span(text, a, b) for a, b in span_offsets]
        cases.append((_record(text), spans))
    total = sum(len(assign(record, spans, kb)) for record, spans in cases)
    assert total == sum(max(1, len(spans)) for _, spans in cases)


def test_threshold_above_one_forces_na(table9_kb):
    text = "Diabetes mellitus type 1"
    rows = assign(
        _record(text), [make_span(text, 0, len(text))], table9_kb, score_threshold=1.01
    )
    assert rows[0].icd10_code is None


def test_standard_csv_roundtrip(tmp_path, table9_kb):
    text = "Diabetes mellitus type 1"
    rows = assign(_record(text), [make_span(text, 0, len(text))], table9_kb)
    rows += assign(_record("Tonsillitis"), [], table9_kb)
    path = tmp_path / "standard.csv"
    write_standard_csv(path, rows)
    first_line = path.read_text().splitlines()[0]
    assert first_line == ",".join(STANDARD_HEADER)
    assert read_standard_csv(path) == rows


def _csv_writer_bytes(path, rows):
    """The standard file as ``csv.writer`` writes it: the writer before memoized cells."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STANDARD_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.gender,
                    str(row.age_years),
                    row.diagnosis_text,
                    row.diagnosis_date.render(),
                    row.icd10_code or "",
                    row.icd10_name or "",
                    row.icd10_category or "",
                ]
            )
    return path.read_bytes()


# Characters that need quoting or look as if they might, plus any other
# character. NUL is left out: csv.reader rejects it before Python 3.11.
_CELL_CHARS = st.sampled_from([",", '"', "\n", "\u2028", "\xa0", " ", "é", "漢"]) | (
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00")
)


@st.composite
def standard_rows(draw, chars, all_or_none=False):
    """Rows drawn from small pools of cells, so that cells and whole ICD triples
    repeat. With ``all_or_none``, each ICD triple is NA or wholly filled, as
    ``assign`` makes them and as ``read_standard_csv`` accepts them."""
    cells = st.text(chars, max_size=8)
    filled = st.text(chars, min_size=1, max_size=8)
    if all_or_none:
        icd = st.just((None, None, None)) | st.tuples(filled, filled, filled)
    else:
        known = st.none() | filled
        icd = st.tuples(known, known, known)
    genders = draw(st.lists(cells, min_size=1, max_size=3))
    texts = draw(st.lists(cells, min_size=1, max_size=4))
    icds = draw(st.lists(icd, min_size=1, max_size=4))
    row = st.builds(
        lambda gender, age, date, text, icd: StandardRecord(gender, age, date, text, *icd),
        st.sampled_from(genders),
        st.integers(1, 130),
        st.builds(DateTriple, st.integers(1, 31), st.integers(1, 12), st.integers(1, 3000)),
        st.sampled_from(texts),
        st.sampled_from(icds),
    )
    return draw(st.lists(row, max_size=25))


@settings(max_examples=150, deadline=None)
@given(rows=standard_rows(_CELL_CHARS))
def test_standard_csv_bytes_match_csv_writer(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("writer")
    write_standard_csv(tmp / "memoized.csv", iter(rows))
    assert (tmp / "memoized.csv").read_bytes() == _csv_writer_bytes(tmp / "csv.csv", rows)


@settings(max_examples=150, deadline=None)
@given(rows=standard_rows(_CELL_CHARS | st.just("\r"), all_or_none=True))
def test_standard_csv_reads_back_the_rows_written(tmp_path_factory, rows):
    # Unlike csv.writer with lineterminator="\n", a cell holding a bare CR
    # is quoted, so the reader does not end the row there.
    path = tmp_path_factory.mktemp("writer") / "standard.csv"
    write_standard_csv(path, rows)
    assert read_standard_csv(path) == rows


def test_long_diagnosis_over_hundreds_of_spans_matches_csv_writer(tmp_path, sample_kb_path):
    # One ~20 KB text naming KB entries hundreds of times: every row repeats
    # it, quoted, since the names hold commas.
    kb = load_kb(sample_kb_path)
    names = [entry.name for entry in kb.entries]
    parts, spans, start = [], [], 0
    while start < 20_000:
        name = names[len(parts) % len(names)]
        parts.append(name)
        spans.append((start, start + len(name)))
        start += len(name) + 2
    text = "; ".join(parts)
    rows = assign(_record(text), [make_span(text, a, b) for a, b in spans], kb)
    assert len(rows) > 500 and any(row.icd10_code for row in rows)
    write_standard_csv(tmp_path / "memoized.csv", rows)
    expected = _csv_writer_bytes(tmp_path / "csv.csv", rows)
    assert (tmp_path / "memoized.csv").read_bytes() == expected


def test_assign_builds_standard_records():
    # assign copies NormalizedRecord's leading fields into each row.
    assert StandardRecord._fields[:4] == NormalizedRecord._fields[:4]
    kb = make_kb(KBEntry("J45.9", "Asthma, unspecified"))
    text = "Asthma and gout"
    rows = assign(_record(text), [make_span(text, 0, 6), make_span(text, 11, 15)], kb)
    assert [type(row) for row in rows] == [StandardRecord, StandardRecord]
    demographics = ("Female", 20, DateTriple(9, 4, 1439), text)
    assert rows == [
        StandardRecord(*demographics, "J45.9", "Asthma, unspecified", "J45"),
        StandardRecord(*demographics),
    ]


def test_lookup_cache_keys_on_k(table9_kb):
    assert len(lookup("Diabetes", table9_kb, 1)) == 1
    assert len(lookup("diabetes", table9_kb, 4)) == 4


def test_mutating_lookup_result_leaves_cache_intact(table9_kb):
    candidates = lookup("diabetic nephropathy", table9_kb, 4)
    expected = list(candidates)
    candidates.clear()
    assert lookup("Diabetic  Nephropathy", table9_kb, 4) == expected
    assert lookup("diabetic nephropathy", table9_kb, 4) is not expected


def test_repeated_lookups_are_exact():
    entries = tuple(
        KBEntry(f"A{i // 10:02d}.{i % 10}", f"shared disease w{i}") for i in range(200)
    )
    kb = make_kb(*entries)
    terms = [f"shared w{i} w{i + 1}" for i in range(300)]
    first = [lookup(term, kb, k=3) for term in terms]
    fresh = make_kb(*entries)
    assert [lookup(term, kb, k=3) for term in terms] == first
    assert [lookup(term, fresh, k=3) for term in terms] == first


def test_lookup_caches_are_per_knowledge_base():
    first = make_kb(KBEntry("A00", "Cholera"), KBEntry("B00", "Herpes"))
    second = make_kb(KBEntry("J00", "Cholera infection"))
    assert [c.entry.code for c in lookup("cholera", first)] == ["A00"]
    assert [(c.entry.code, c.score) for c in lookup("cholera", second)] == [("J00", 0.5)]
    assert [c.entry.code for c in lookup("cholera", first)] == ["A00"]


def test_knowledge_base_pickles_without_its_cache(table9_kb):
    expected = lookup("diabetic cataract", table9_kb)
    copy = pickle.loads(pickle.dumps(table9_kb))
    assert copy == table9_kb
    assert lookup("diabetic cataract", copy) == expected


def test_a_kb_with_a_filled_top_memo_is_freed_by_del_alone(sample_kb_path):
    # The memo holds the entries and the index, not the KB: no cycle.
    kb = load_kb(sample_kb_path)
    assert kb.top["Cystitis"] is not None and kb.top["Tonsillitis"] is None
    assert len(kb.top) == 2
    alive = weakref.ref(kb)
    gc.disable()
    try:
        del kb
        assert alive() is None
    finally:
        gc.enable()


def test_standard_record_is_immutable(sample_kb_path):
    kb = load_kb(sample_kb_path)
    text = "Cystitis"
    [row] = assign(_record(text), [make_span(text, 0, 8)], kb)
    with pytest.raises(AttributeError):
        row.icd10_code = "N30.9"
    assert row == StandardRecord(
        "Female", 20, DateTriple(9, 4, 1439), text, "A06.81", "Amebic cystitis", "A06"
    )


def _oracle_assign(record, spans, kb, score_threshold):
    """assign before the per-text memo: one k=1 lookup per span, every call."""
    base = (record.gender, record.age_years, record.diagnosis_date, record.diagnosis_text)
    if not spans:
        return [StandardRecord(*base)]
    rows = []
    for span in spans:
        candidates = lookup(span.text, kb, k=1)
        if candidates and candidates[0].score >= score_threshold:
            entry = candidates[0].entry
            rows.append(StandardRecord(*base, entry.code, entry.name, entry.code.split(".")[0]))
        else:
            rows.append(StandardRecord(*base))
    return rows


# Case variants of KB words and names, a word no entry has, and a word that
# is not a token at all.
_LINK_WORDS = [
    "Cystitis", "cystitis", "CYSTITIS", "amebic", "Anxiety", "anxiety disorder",
    "Chronic Kidney", "kidney DISEASE", "diabetes mellitus", "Type 1", "of",
    "unspecified", "Tonsillitis", "+",
]
_SPAN_TEXTS = st.lists(st.sampled_from(_LINK_WORDS), min_size=1, max_size=3).map(" ".join)
_THRESHOLDS = [0.0, 0.2, 1 / 3, 0.5, 2 / 3, 1.0, 1.01]


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(st.lists(_SPAN_TEXTS, max_size=3), min_size=1, max_size=12),
    thresholds=st.lists(st.sampled_from(_THRESHOLDS), min_size=1, max_size=3),
)
def test_assign_matches_per_span_lookup_oracle(records, thresholds):
    # The threshold is compared per call, never memoized.
    kb = KnowledgeBase(read_kb(sample_path("sample_kb.tsv")))
    cases = []
    for parts in records:
        text = " , ".join(parts)
        spans, start = [], 0
        for part in parts:
            spans.append(make_span(text, start, start + len(part)))
            start += len(part) + 3
        cases.append((_record(text), spans))
    for threshold in thresholds:
        for record, spans in cases + cases[::-1]:
            expected = _oracle_assign(record, spans, kb, threshold)
            assert assign(record, spans, kb, threshold) == expected


# The compiled KB images. Every test has its own empty XDG_CACHE_HOME
# (conftest.private_cache_home).


def _kb_text(entries):
    return "".join(f"{e.code}\t{e.name}\t{'|'.join(e.synonyms)}\n" for e in entries)


def _assert_same_kb(loaded, fresh):
    assert type(loaded) is KnowledgeBase
    assert loaded.entries == fresh.entries
    assert all(type(entry) is KBEntry for entry in loaded.entries)
    assert loaded.index == fresh.index
    assert loaded.index.keys.typecode == fresh.index.keys.typecode
    assert lookup("diabetic cataract", loaded) == lookup("diabetic cataract", fresh)


def _assert_same_lexicon(loaded, fresh):
    # A named tuple equals any tuple of the same items, so check the type too.
    assert type(loaded) is Lexicon and type(fresh) is Lexicon
    assert type(loaded.terms) is frozenset and loaded.terms == fresh.terms
    # The first-word index: the same words, each with the same lengths.
    assert type(loaded.first_words) is dict and loaded.first_words == fresh.first_words
    assert all(type(lengths) is tuple for lengths in loaded.first_words.values())


class ImageForm(NamedTuple):
    """A compiled form of a KB, as the image tests below drive it."""

    suffix: str  # of its images' file names
    load: Callable  # the KB path -> the form, through its image
    fresh: Callable  # the KB path -> the form, compiled without an image
    assert_same: Callable  # (loaded, fresh) -> None

    def image_of(self, path) -> Path:
        image, _ = kbimage.image_slot(Path(path), Path(path).read_bytes(), self.suffix)
        return image


KB_FORM = ImageForm(
    ".kbimage", load_kb, lambda path: KnowledgeBase(read_kb(path)), _assert_same_kb
)
LEXICON_FORM = ImageForm(
    ".lexicon", load_lexicon, lambda path: build_lexicon(read_kb(path)), _assert_same_lexicon
)


@pytest.fixture
def form() -> ImageForm:
    """The form the image tests run on here; test_lexicon_image.py collects
    the same tests again with the lexicon."""
    return KB_FORM


@settings(max_examples=60, deadline=None)
@given(st.one_of(kbs_and_terms(), crowded_kbs_and_terms(), st.tuples(st.just([]), SURFACES)))
def test_lookups_through_a_loaded_image_equal_a_fresh_compile(tmp_path_factory, kb_and_term):
    entries, term = kb_and_term
    # One path for every example: each rewrite leaves a stale image behind.
    path = tmp_path_factory.getbasetemp() / "image_property" / "kb.tsv"
    path.parent.mkdir(exist_ok=True)
    path.write_text(_kb_text(entries), encoding="utf-8")
    fresh = KnowledgeBase(read_kb(path))
    _assert_same_kb(load_kb(path), fresh)
    with mock.patch.object(linker, "read_kb", side_effect=AssertionError("parsed")):
        loaded = load_kb(path)
    _assert_same_kb(loaded, fresh)
    for k in (1, 2, 4, len(fresh.entries) + 1):
        assert lookup(term, loaded, k=k) == lookup(term, fresh, k=k)


# Words and marks of the round-trip KBs: non-ASCII letters and digits, and
# punctuation. Only a name may hold "|": in a KB file it separates synonyms.
_TRIP_WORDS = ["cyst", "Cyst", "Straße", "δέλτα", "日本", "ünï", "x2", "٣", "of"]
_TRIP_MARKS = ["-", ",", "/", "(", ")", "'", "&", "+", ".", "_", ";", "#"]


def _trip_surface(marks):
    parts = st.lists(st.sampled_from(_TRIP_WORDS + marks), min_size=1, max_size=6)
    return st.builds(lambda parts, sep: sep.join(parts), parts, st.sampled_from([" ", "", "-"]))


_TRIP_NAME = _trip_surface(_TRIP_MARKS + ["|"])
_TRIP_SYNONYM = _trip_surface(_TRIP_MARKS)


@st.composite
def round_trip_kbs(draw):
    """Entries with no synonym or many, names and synonyms repeating earlier
    surfaces (a name may be another entry's synonym), and queries."""
    entries = []
    for code in draw(st.lists(st.sampled_from(MANY_CODES), min_size=1, max_size=12, unique=True)):
        earlier = [s for e in entries for s in (e.name, *e.synonyms)]
        name = draw(st.one_of(_TRIP_NAME, *([st.sampled_from(earlier)] if earlier else [])))
        reused = [s for s in (*earlier, name) if "|" not in s]
        synonym = st.one_of(_TRIP_SYNONYM, *([st.sampled_from(reused)] if reused else []))
        count = draw(st.sampled_from([0, 0, 1, 2, 8]))
        entries.append(KBEntry(code, name, tuple(draw(synonym) for _ in range(count))))
    words = sorted({w for e in entries for s in (e.name, *e.synonyms) for w in query_tokens(s)})
    mixed = st.lists(st.sampled_from(words or ["cyst"]), min_size=1, max_size=4).map(" ".join)
    return entries, draw(st.lists(st.one_of(_TRIP_NAME, mixed), min_size=1, max_size=4))


@settings(max_examples=80, deadline=None)
@given(round_trip_kbs())
def test_a_kb_image_round_trips(tmp_path_factory, kb_and_queries):
    entries, queries = kb_and_queries
    path = tmp_path_factory.getbasetemp() / "round_trip" / "kb.tsv"
    path.parent.mkdir(exist_ok=True)
    path.write_text(_kb_text(entries), encoding="utf-8")
    missed = load_kb(path)
    with mock.patch.object(linker, "read_kb", side_effect=AssertionError("parsed")):
        hit = load_kb(path)
    for query in queries:  # before the entries are first read
        assert hit.top[query] == missed.top[query]
    assert hit.index == missed.index == build_index(tuple(entries))
    assert hit.entries == missed.entries == tuple(entries)
    assert all(type(entry) is KBEntry for kb in (hit, missed) for entry in kb.entries)
    for query in queries:
        for k in range(1, 6):
            assert lookup(query, hit, k) == lookup(query, missed, k)


class _Counted:
    """Stands in for a class in the linker's namespace, and notes each value
    built through it, by a call or by ``_make``."""

    def __init__(self, cls, built: list):
        self.cls, self.built = cls, built

    def __call__(self, *args, **kwargs):
        self.built.append(self.cls)
        return self.cls(*args, **kwargs)

    def _make(self, iterable):
        self.built.append(self.cls)
        return self.cls._make(iterable)


def test_an_image_hit_builds_nothing_per_entry(tmp_path, monkeypatch, sample_kb_path):
    # The entries are made from the index's columns when first read, and a
    # lookup bisects views of the one flat key array.
    export = sample_path("sample_ehr_300.csv")
    texts = {row["Diagnosis"] for row in csv.DictReader(export.open(encoding="utf-8"))}
    expected = read_kb(sample_kb_path)
    load_kb(sample_kb_path)  # a miss writes the image
    parses = count_parses(monkeypatch)
    entries, arrays = [], []
    monkeypatch.setattr(linker, "KBEntry", _Counted(KBEntry, entries))
    monkeypatch.setattr(linker, "array", _Counted(array, arrays))
    kb = load_kb(sample_kb_path)
    assert len(arrays) == 3  # the image's offsets, keys and surface entries
    for text in texts:
        kb.top[text]
    argv = ["pipeline", "--input", str(export), "--kb", str(sample_kb_path)]
    argv += ["--model", str(sample_path("sample_model.txt")), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert (parses, entries, len(arrays)) == ([], [], 6)
    assert len(kb.entries) == len(expected) == len(entries)
    assert kb.entries == expected


def test_an_image_is_written_once_and_then_read(
    tmp_path, monkeypatch, private_cache_home, form
):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    parses = count_parses(monkeypatch)
    first = form.load(path)
    second = form.load(path)
    assert parses == [path]
    form.assert_same(second, first)
    form.assert_same(second, form.fresh(path))
    cache = private_cache_home / "ehr2icd"
    assert [p.name for p in cache.iterdir()] == [form.image_of(path).name]
    assert form.image_of(path).suffix == form.suffix
    assert cache.stat().st_mode & 0o777 == 0o700


def test_load_kb_reads_the_kb_file_once(tmp_path, monkeypatch, form):
    # The parse and the image's key use the same bytes, read once.
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    reads = []
    read_bytes = Path.read_bytes

    def counting(self):
        if self == path:
            reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    parses = count_parses(monkeypatch)
    for expected in (1, 2):  # a miss, then a hit
        form.load(path)
        assert len(reads) == expected
    assert len(parses) == 1


def test_an_empty_kb_round_trips_through_its_image(tmp_path, monkeypatch):
    path = tmp_path / "kb.tsv"
    path.write_text("# no entries\n")
    parses = count_parses(monkeypatch)
    assert load_kb(path).entries == ()
    kb = load_kb(path)
    assert len(parses) == 1
    assert kb.entries == () and kb.index.tokens == {} and len(kb.index.entry_of) == 0
    assert list(kb.index.offsets) == [0] and len(kb.index.keys) == 0
    assert lookup("Cystitis", kb) == []


def test_an_image_keeps_64_bit_postings(tmp_path, monkeypatch):
    # 65536 surfaces and one of 65536 tokens: the largest key is 2**32.
    digits = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    long_name = " ".join(f"w{i}" for i in range(65536))
    lines = [f"A00\t{long_name}"] + [
        f"B{i % 100:02d}.{digits[i // 100 // 62]}{digits[i // 100 % 62]}\tw{i % 7} v{i}"
        for i in range(65535)
    ]
    path = tmp_path / "kb.tsv"
    path.write_text("\n".join(lines) + "\n")
    parses = count_parses(monkeypatch)
    compiled = load_kb(path)
    loaded = load_kb(path)
    assert len(parses) == 1
    assert loaded.index.keys.typecode == "Q"
    assert max(_postings(loaded, "w0")) == 2**32
    _assert_same_kb(loaded, compiled)
    assert lookup(long_name, loaded, k=1) == lookup(long_name, compiled, k=1)
    for term in ("w3 v3", "w0 v7"):
        assert lookup(term, loaded, k=2) == lookup(term, compiled, k=2)


def _flip(offset):
    def damage(image):
        blob = bytearray(image.read_bytes())
        blob[offset] ^= 0x01
        image.write_bytes(bytes(blob))

    return damage


def _truncate(size):
    def damage(image):
        image.write_bytes(image.read_bytes()[:size])

    return damage


def _replace_with_directory(image):
    image.unlink()
    image.mkdir()


def _replace_with_pipe(image):
    image.unlink()
    os.mkfifo(image)


KEY_END, HEAD_END = kbimage._KEY_END, kbimage._HEAD_END
DAMAGED_IMAGES = {
    "empty": _truncate(0),
    "truncated-key": _truncate(KEY_END - 1),
    "truncated-checksum": _truncate(HEAD_END - 1),
    "truncated-payload": _truncate(HEAD_END + 100),
    "last-byte-missing": _truncate(-1),
    "flipped-key-byte": _flip(0),
    "flipped-checksum-byte": _flip(KEY_END),
    "flipped-first-payload-byte": _flip(HEAD_END),
    "flipped-last-byte": _flip(-1),
    "foreign-file": lambda image: image.write_bytes(b"\x00" * HEAD_END + b"not marshal data"),
    "directory": _replace_with_directory,
    "named-pipe": _replace_with_pipe,
}


@pytest.mark.parametrize("damage", DAMAGED_IMAGES.values(), ids=DAMAGED_IMAGES.keys())
def test_a_damaged_image_is_parsed_around_and_replaced(tmp_path, monkeypatch, damage, form):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE + "C16\tMalignant neoplasm of stomach\tGastric Cancer\n")
    fresh = form.load(path)
    damage(form.image_of(path))
    parses = count_parses(monkeypatch)
    form.assert_same(form.load(path), fresh)
    assert len(parses) == 1
    # The parse wrote a sound image in place of the damaged one, where it could.
    form.assert_same(form.load(path), fresh)
    assert len(parses) == (2 if damage is _replace_with_directory else 1)


def test_an_image_of_an_older_format_is_not_read(tmp_path, monkeypatch, form):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    current = kbimage.IMAGE_FORMAT
    monkeypatch.setattr(kbimage, "IMAGE_FORMAT", current - 1)
    old = form.load(path)
    monkeypatch.setattr(kbimage, "IMAGE_FORMAT", current)
    parses = count_parses(monkeypatch)
    form.assert_same(form.load(path), old)
    assert len(parses) == 1
    form.assert_same(form.load(path), old)
    assert len(parses) == 1


@pytest.mark.parametrize(
    "module",
    [linker, tokenizer, textio, kbimage, dictionary],
    ids=lambda module: module.__name__,
)
def test_edited_code_never_reads_an_old_image(tmp_path, monkeypatch, module, form):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    fresh = form.load(path)
    source = Path(module.__file__)
    assert source in kbimage.CODE_FILES
    edited = tmp_path / "edited.py"
    edited.write_bytes(source.read_bytes() + b"# edited\n")
    parses = count_parses(monkeypatch)
    code_files = [edited if code_file == source else code_file for code_file in kbimage.CODE_FILES]
    monkeypatch.setattr(kbimage, "CODE_FILES", tuple(code_files))
    form.assert_same(form.load(path), fresh)
    assert len(parses) == 1
    form.assert_same(form.load(path), fresh)
    assert len(parses) == 1


def _nine_fields(kb):
    """The image payload of a KB before names were found from ``entry_of``:
    today's fields, then each entry's name surface."""
    name_surface, surfaces = array("I"), 0
    for entry in kb.entries:
        name_surface.append(surfaces)
        surfaces += 1 + len(entry.synonyms)
    return [*_EIGHT_FIELDS(kb), name_surface.tobytes()]


_EIGHT_FIELDS = linker._kb_fields


@pytest.mark.parametrize("older_code", [True, False], ids=["older-code", "this-code"])
def test_an_image_with_each_names_surface_is_not_read(
    tmp_path, monkeypatch, sample_kb_path, older_code
):
    # Written by the code that stored the name surfaces, the image has
    # another key; under this code's key, its nine fields do not unpack.
    # Either way it is parsed around and replaced.
    path = tmp_path / "kb.tsv"
    path.write_bytes(sample_kb_path.read_bytes())
    with monkeypatch.context() as patch:
        if older_code:
            source = Path(linker.__file__)
            older = tmp_path / "older_linker.py"
            older.write_bytes(source.read_bytes().replace(b"entry_of[surface - 1]", b"name_of"))
            code_files = [older if f == source else f for f in kbimage.CODE_FILES]
            patch.setattr(kbimage, "CODE_FILES", tuple(code_files))
        patch.setattr(linker, "_kb_fields", _nine_fields)
        load_kb(path)
    image = KB_FORM.image_of(path)
    assert len(marshal.loads(image.read_bytes()[kbimage._HEAD_END :])) == 9
    fresh = KnowledgeBase(read_kb(path))
    parses = count_parses(monkeypatch)
    _assert_same_kb(load_kb(path), fresh)
    assert len(parses) == 1
    assert len(marshal.loads(image.read_bytes()[kbimage._HEAD_END :])) == 8
    _assert_same_kb(load_kb(path), fresh)
    assert len(parses) == 1


def test_a_rewritten_kb_replaces_its_image(tmp_path, monkeypatch, private_cache_home, form):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    form.load(path)
    path.write_text("A06.81\tAmebic cystitis\nN30.9\tCystitis\n")
    parses = count_parses(monkeypatch)
    form.assert_same(form.load(path), form.fresh(path))
    assert len(parses) == 1
    form.assert_same(form.load(path), form.fresh(path))
    assert len(parses) == 1
    # One image per KB path, whatever its content has been.
    assert len(list((private_cache_home / "ehr2icd").iterdir())) == 1


def test_only_the_newest_images_of_a_form_are_kept(tmp_path, private_cache_home, form):
    kept = kbimage.IMAGES_KEPT
    other = LEXICON_FORM if form is KB_FORM else KB_FORM
    paths = [tmp_path / f"kb{i}.tsv" for i in range(kept + 1)]
    for path in paths:
        path.write_text(TABLE9_FILE)
    other.load(paths[0])
    cache = private_cache_home / "ehr2icd"
    temporary = cache / f".{form.image_of(paths[0]).name}.0123456789ab.tmp"
    temporary.write_bytes(b"a save in progress")
    for age, path in enumerate(paths):
        form.load(path)
        os.utime(form.image_of(path), ns=(age * 10**9, age * 10**9))
    images = set(cache.glob(f"*{form.suffix}"))
    assert images == {form.image_of(path) for path in paths[1:]}
    # Other forms' images, and temporary files, are left alone.
    assert other.image_of(paths[0]).is_file()
    assert temporary.read_bytes() == b"a save in progress"


@pytest.mark.parametrize(
    "rewrite,error",
    [
        ("E10.9\tOne\nE10.9\tTwo\n", DuplicateCode),
        ("E10.9\tOne\nNOPE\tBad code\n", InvalidCode),
    ],
    ids=["duplicate-code", "invalid-code"],
)
def test_a_warm_image_never_masks_an_invalid_kb(tmp_path, rewrite, error, form):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    form.load(path)
    form.load(path)
    path.write_text(rewrite)
    for _ in range(2):
        with pytest.raises(error):
            form.load(path)


def test_an_unwritable_cache_is_ignored(tmp_path, monkeypatch, form):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("a regular file\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_directory))
    parses = count_parses(monkeypatch)
    fresh = form.fresh(path)
    for _ in range(2):
        form.assert_same(form.load(path), fresh)
    assert len(parses) == 2
    assert not_a_directory.read_text() == "a regular file\n"


def test_no_home_directory_means_no_image(tmp_path, monkeypatch, form):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    monkeypatch.delenv("XDG_CACHE_HOME")

    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(Path, "home", no_home)
    parses = count_parses(monkeypatch)
    fresh = form.fresh(path)
    for _ in range(2):
        form.assert_same(form.load(path), fresh)
    assert len(parses) == 2


@pytest.mark.parametrize("value", ["", "relative/cache"])
def test_an_empty_or_relative_cache_home_means_the_default(tmp_path, monkeypatch, value, form):
    # The XDG base directory spec ignores both; the default is ~/.cache.
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", value)
    monkeypatch.chdir(tmp_path)
    form.load(path)
    assert form.image_of(path).parent == tmp_path / "home" / ".cache" / "ehr2icd"
    assert form.image_of(path).is_file()
    assert not (tmp_path / "relative").exists()


def test_a_kb_read_from_a_pipe_is_never_cached(tmp_path, monkeypatch, private_cache_home, form):
    # A pipe's resolved name may be new on every run, so its image would
    # never be read again.
    regular = tmp_path / "kb.tsv"
    regular.write_text(TABLE9_FILE)
    fresh = form.fresh(regular)
    path = tmp_path / "kb.fifo"
    os.mkfifo(path)
    parses = count_parses(monkeypatch)
    for _ in range(2):
        with feeding_fifo(path, regular.read_bytes()):
            form.assert_same(form.load(path), fresh)
    assert len(parses) == 2
    assert not (private_cache_home / "ehr2icd").exists()


def test_each_form_of_a_kb_has_its_own_image(tmp_path, monkeypatch, private_cache_home):
    path = tmp_path / "kb.tsv"
    path.write_text(TABLE9_FILE)
    parses = count_parses(monkeypatch)
    for _ in range(2):
        for image_form in (KB_FORM, LEXICON_FORM):
            image_form.assert_same(image_form.load(path), image_form.fresh(path))
    assert len(parses) == 2
    images = sorted(p.name for p in (private_cache_home / "ehr2icd").iterdir())
    assert images == sorted(f.image_of(path).name for f in (KB_FORM, LEXICON_FORM))
    assert {Path(name).suffix for name in images} == {".kbimage", ".lexicon"}


def test_importing_the_cli_leaves_the_image_module_unloaded():
    # Commands that read no KB do not compile it.
    code = "import sys, ehr2icd.cli; print('ehr2icd.kbimage' in sys.modules)"
    src = str(Path(linker.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
