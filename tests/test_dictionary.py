from conftest import make_kb

from ehr2icd.dictionary import (
    Lexicon,
    build_lexicon,
    dict_annotate,
    normalize_term,
    read_terms,
)
from ehr2icd.linker import KBEntry


def _lexicon(*terms):
    return build_lexicon(make_kb(), extra_terms=terms)


def test_kb_names_enter_the_lexicon():
    kb = make_kb(KBEntry("E10.9", "Type 1 diabetes mellitus without complications"))
    lexicon = build_lexicon(kb)
    assert "type 1 diabetes mellitus without complications" in lexicon.terms


def test_empty_kb_gives_empty_lexicon():
    lexicon = build_lexicon(make_kb())
    assert lexicon.terms == {}
    assert lexicon.max_term_tokens == 0
    assert dict_annotate("anything at all", lexicon) == []


def test_synonyms_enter_the_lexicon():
    kb = make_kb(KBEntry("C16", "Malignant neoplasm of stomach", ("gastric cancer",)))
    lexicon = build_lexicon(kb)
    assert "malignant neoplasm of stomach" in lexicon.terms
    assert "gastric cancer" in lexicon.terms


def test_max_term_tokens_tracks_longest_term():
    lexicon = _lexicon("anemia", "iron deficiency anemia")
    assert lexicon.max_term_tokens == 3


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
    assert normalize_term("  Sickle-Cell   Anaemia ") == "sickle - cell anaemia"


def test_empty_terms_are_skipped():
    lexicon = _lexicon("", "   ", "asthma")
    assert list(lexicon.terms) == ["asthma"]


def test_extra_terms_file(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("# comment\n\nshortness of breath\n  asthma  \n")
    assert read_terms(path) == ["shortness of breath", "asthma"]


def test_lexicon_is_frozen():
    lexicon = Lexicon(terms={"asthma": "Asthma"}, max_term_tokens=1)
    try:
        lexicon.max_term_tokens = 2
        raised = False
    except AttributeError:
        raised = True
    assert raised
