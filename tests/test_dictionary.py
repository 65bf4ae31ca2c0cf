from unittest import mock

from conftest import oracle_dict_annotate
from hypothesis import given, settings, strategies as st

from ehr2icd import linker
from ehr2icd.dictionary import (
    Lexicon,
    build_lexicon,
    dict_annotate,
    load_lexicon,
    read_terms,
)
from ehr2icd.linker import KBEntry
from ehr2icd.ner.tokenizer import tokenize


def _lexicon(*terms):
    return build_lexicon((), extra_terms=terms)


def test_kb_names_enter_the_lexicon():
    entries = (KBEntry("E10.9", "Type 1 diabetes mellitus without complications"),)
    lexicon = build_lexicon(entries)
    assert "type 1 diabetes mellitus without complications" in lexicon.terms


def test_empty_kb_gives_empty_lexicon():
    lexicon = build_lexicon(())
    assert lexicon.terms == frozenset()
    assert lexicon.first_words == {}
    assert dict_annotate("anything at all", lexicon) == []


def test_synonyms_enter_the_lexicon():
    entries = (KBEntry("C16", "Malignant neoplasm of stomach", ("gastric cancer",)),)
    lexicon = build_lexicon(entries)
    assert "malignant neoplasm of stomach" in lexicon.terms
    assert "gastric cancer" in lexicon.terms


def test_max_term_tokens_tracks_longest_term():
    # The longest term's token count is the index's longest length.
    lexicon = _lexicon("anemia", "iron deficiency anemia", "iron", "Anemia of pregnancy")
    assert lexicon.first_words == {"anemia": (3, 1), "iron": (3, 1)}
    assert max(max(lengths) for lengths in lexicon.first_words.values()) == 3


def test_whole_term_match():
    lexicon = _lexicon("gastroenteritis")
    [span] = dict_annotate("Gastroenteritis", lexicon)
    assert (span.start, span.end, span.text) == (0, 15, "Gastroenteritis")


def test_misspelled_term_yields_nothing():
    lexicon = _lexicon("sinusitis")
    assert dict_annotate("Siuisitis", lexicon) == []


def test_compound_name_splits_into_known_pieces():
    lexicon = _lexicon("iron", "anemia")
    spans = dict_annotate("Iron anemia", lexicon)
    assert [s.text for s in spans] == ["Iron", "anemia"]


def test_longest_match_wins_over_prefix():
    lexicon = _lexicon("iron", "anemia", "iron anemia")
    spans = dict_annotate("Iron anemia", lexicon)
    assert [s.text for s in spans] == ["Iron anemia"]


def test_whole_text_term_gives_one_full_span():
    lexicon = _lexicon("major depressive disorder")
    [span] = dict_annotate("MAJOR DEPRESSIVE DISORDER", lexicon)
    assert (span.start, span.end) == (0, 25)


def test_spans_ordered_and_non_overlapping():
    lexicon = _lexicon("anxiety", "migraine")
    spans = dict_annotate("Follow up Anxiety /Migraine", lexicon)
    assert [s.text for s in spans] == ["Anxiety", "Migraine"]
    for left, right in zip(spans, spans[1:]):
        assert left.end <= right.start


def test_matching_is_punctuation_sensitive():
    lexicon = _lexicon("sickle cell")
    assert dict_annotate("sickle-cell", lexicon) == []
    [span] = dict_annotate("sickle cell", lexicon)
    assert span.text == "sickle cell"


def test_normalize_term_single_spaces():
    text = "  Sickle-Cell   Anaemia "
    assert normalize_term(text) == "sickle - cell anaemia"
    assert _lexicon(text).terms == {"sickle - cell anaemia"}


def test_empty_terms_are_skipped():
    lexicon = _lexicon("", "   ", "asthma")
    assert list(lexicon.terms) == ["asthma"]


def test_extra_terms_file(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("# comment\n\nshortness of breath\n  asthma  \n")
    assert read_terms(path) == ["shortness of breath", "asthma"]


def test_lexicon_is_frozen():
    lexicon = Lexicon(terms=frozenset({"asthma"}), first_words={"asthma": (1,)})
    try:
        lexicon.first_words = {}
        raised = False
    except AttributeError:
        raised = True
    assert raised


def normalize_term(text):
    """Oracle for the lexicon key: the text's Token objects, each lowercased,
    joined by single spaces."""
    return " ".join(token.text.lower() for token in tokenize(text))


def _oracle_lexicon(entries, extra_terms):
    """The lexicon's terms, and its first-word index as a dict of lists."""
    keys = set()
    first_words = {}
    surfaces = [s for e in entries for s in (e.name, *e.synonyms)] + list(extra_terms)
    for surface in surfaces:
        key = normalize_term(surface)
        if key:
            keys.add(key)
            words = key.split(" ")
            lengths = first_words.setdefault(words[0], [])
            if len(words) not in lengths:
                lengths.append(len(words))
    return keys, {word: sorted(lengths, reverse=True) for word, lengths in first_words.items()}


# Characters whose lowercase is longer or special ('İ' becomes two code
# points; 'ẞ', 'Σ', 'ǅ'), combining marks, line and paragraph separators,
# Arabic-Indic digits, and punctuation and whitespace of several kinds.
_TRICKY = "İıßẞΣσς\u0301\u0327\u2028\u2029\u00a0\u200b٠١٢٣٩ǅǄﬁ-/+.,()_ aA0"
SURFACES = st.one_of(
    st.text(alphabet=_TRICKY, max_size=20),
    st.text(alphabet="-/+.,;:()_*#  ", max_size=8),
    st.text(max_size=20),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(SURFACES, st.lists(SURFACES, max_size=3)), max_size=5),
    st.lists(SURFACES, max_size=4),
)
def test_lexicon_matches_token_object_oracle(kb_surfaces, extra_terms):
    entries = [
        KBEntry(f"A{i:02d}", name, tuple(synonyms))
        for i, (name, synonyms) in enumerate(kb_surfaces)
    ]
    lexicon = build_lexicon(entries, extra_terms)
    first_words = {word: list(lengths) for word, lengths in lexicon.first_words.items()}
    assert (set(lexicon.terms), first_words) == _oracle_lexicon(entries, extra_terms)
    assert all(type(lengths) is tuple for lengths in lexicon.first_words.values())


# Separators between the words of a drawn text: nothing, spaces, other
# whitespace, and a line separator.
_GAPS = ["", " ", "  ", "\u00a0", "\n", "\u2028"]


def _kb_can_hold(term: str) -> bool:
    """Whether a KB file can hold ``term`` as an entry's name."""
    return bool(term.strip()) and len(term.splitlines()) == 1 and not {"\t", "|"} & set(term)


@st.composite
def texts_and_lexicon_terms(draw):
    """A text over a few words of the tricky alphabet, and (KB terms, extra
    terms): runs of the text's tokens, so that many terms share a first word
    at different lengths, some running past the text's end, one longer than
    the whole text, and a few other surfaces."""
    words = draw(st.lists(st.text(_TRICKY, min_size=1, max_size=3), min_size=1, max_size=4))
    pieces = draw(st.lists(st.sampled_from(words), max_size=12))
    gaps = draw(st.lists(st.sampled_from(_GAPS), min_size=len(pieces), max_size=len(pieces)))
    text = "".join(gap + piece for gap, piece in zip(gaps, pieces))
    tokens = [token.text for token in tokenize(text)] or ["x"]
    starts = draw(st.lists(st.integers(0, len(tokens) - 1), max_size=4))
    terms = []
    for start in starts:
        for length in draw(st.sets(st.integers(1, len(tokens) + 2), max_size=4)):
            run = tokens[start : start + length]
            terms.append(" ".join(run + ["x"] * (start + length - len(tokens))))
    terms.append(" ".join(tokens) + " x")
    terms.extend(draw(st.lists(SURFACES, max_size=3)))
    extra = draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
    kb_terms = [t for t, e in zip(terms, extra) if not e and _kb_can_hold(t)]
    extra_terms = [t for t in terms if t not in kb_terms]
    return text, kb_terms, extra_terms


@settings(max_examples=200, deadline=None)
@given(texts_and_lexicon_terms())
def test_dict_annotate_matches_the_scan_oracle(tmp_path_factory, drawn):
    text, kb_terms, extra_terms = drawn
    entries = [KBEntry(f"A{i:02d}", term) for i, term in enumerate(kb_terms)]
    fresh = build_lexicon(entries, extra_terms)
    expected = oracle_dict_annotate(text, fresh)
    assert dict_annotate(text, fresh) == expected
    # The same through the lexicon's image: written on the first load, read
    # on the second. One path for every example: each rewrite leaves a stale
    # image behind.
    path = tmp_path_factory.getbasetemp() / "dict_annotate_property" / "kb.tsv"
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(f"{e.code}\t{e.name}\n" for e in entries), encoding="utf-8")
    assert dict_annotate(text, load_lexicon(path, extra_terms)) == expected
    with mock.patch.object(linker, "read_kb", side_effect=AssertionError("parsed")):
        loaded = load_lexicon(path, extra_terms)
    assert loaded == fresh
    assert dict_annotate(text, loaded) == expected
