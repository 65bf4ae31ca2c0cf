"""The image tests of test_linker.py, collected again here with the lexicon,
the compiled form of a KB that ``evaluate`` reads, in place of the
KnowledgeBase that ``link`` and ``pipeline`` read."""

import marshal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_linker import (  # noqa: F401 - collected here with the fixture below
    LEXICON_FORM,
    test_a_damaged_image_is_parsed_around_and_replaced,
    test_a_kb_read_from_a_pipe_is_never_cached,
    test_a_rewritten_kb_replaces_its_image,
    test_a_warm_image_never_masks_an_invalid_kb,
    test_an_empty_or_relative_cache_home_means_the_default,
    test_an_image_is_written_once_and_then_read,
    test_an_unwritable_cache_is_ignored,
    test_edited_code_never_reads_an_old_image,
    test_load_kb_reads_the_kb_file_once,
    test_no_home_directory_means_no_image,
    test_only_the_newest_images_of_a_form_are_kept,
)

from conftest import count_parses

from ehr2icd import dictionary, kbimage, linker
from ehr2icd.dictionary import build_lexicon, dict_annotate, load_lexicon
from ehr2icd.linker import read_kb


@pytest.fixture
def form():
    return LEXICON_FORM


# Surfaces a KB file can hold: no tab, no '|' and no line break of any kind
# ('İ' lowercases to two code points, NBSP is stripped as whitespace).
_ALPHABET = "İıßẞΣσς\u00a0\u0301é-/.,()_ aAbB0"
_PUNCTUATION = "-/.,()_"
_NAMES = st.text(_ALPHABET, min_size=1, max_size=20).filter(str.strip)
_SYNONYMS = st.one_of(
    st.text(_ALPHABET, max_size=15), st.text(_PUNCTUATION, min_size=1, max_size=5)
)


@st.composite
def kbs_and_extras(draw):
    kb = draw(st.lists(st.tuples(_NAMES, st.lists(_SYNONYMS, max_size=3)), max_size=6))
    surfaces = [surface for name, synonyms in kb for surface in (name, *synonyms)]
    longer = " ".join(surfaces) + " x"  # more tokens than any KB term
    extra = st.one_of(st.sampled_from(surfaces or [""]), st.just(longer), _SYNONYMS)
    return kb, draw(st.lists(extra, max_size=4))


@settings(max_examples=100, deadline=None)
@given(kbs_and_extras())
def test_a_lexicon_through_its_image_equals_a_fresh_build(tmp_path_factory, kb_and_extras):
    kb, extras = kb_and_extras
    # One path for every example: each rewrite leaves a stale image behind.
    path = tmp_path_factory.getbasetemp() / "lexicon_property" / "kb.tsv"
    path.parent.mkdir(exist_ok=True)
    lines = (f"A{i:02d}\t{name}\t{'|'.join(synonyms)}\n" for i, (name, synonyms) in enumerate(kb))
    path.write_text("".join(lines), encoding="utf-8")
    expected = build_lexicon(read_kb(path), extras)
    assert_same = LEXICON_FORM.assert_same
    assert_same(load_lexicon(path, extras), expected)
    with mock.patch.object(linker, "read_kb", side_effect=AssertionError("parsed")):
        loaded = load_lexicon(path, extras)
        assert_same(loaded, expected)
        assert_same(load_lexicon(path), build_lexicon(read_kb(path)))
    # The extra terms' index merged into the image's is the fresh build's.
    assert loaded.first_words == expected.first_words


def _older_fields(path, data):
    """The lexicon image's payload before the first-word index: the terms and
    the token count of the longest."""
    lexicon = build_lexicon(read_kb(path, data))
    longest = max((len(term.split(" ")) for term in lexicon.terms), default=0)
    return [list(lexicon.terms), longest]


def test_an_image_of_the_layout_before_the_index_is_not_read(
    tmp_path, monkeypatch, sample_kb_path
):
    # Code that wrote the older payload differs from this code, so the image
    # it left has another key: it is parsed around and replaced.
    path = tmp_path / "kb.tsv"
    path.write_bytes(sample_kb_path.read_bytes())
    source = Path(dictionary.__file__)
    older = tmp_path / "older_dictionary.py"
    older.write_bytes(source.read_bytes().replace(b"first_words", b"max_term_tokens"))
    with monkeypatch.context() as patch:
        code_files = [older if f == source else f for f in kbimage.CODE_FILES]
        patch.setattr(kbimage, "CODE_FILES", tuple(code_files))
        patch.setattr(dictionary, "_lexicon_fields", _older_fields)
        # The build of the code that wrote the older payload, which read it.
        patch.setattr(dictionary, "_lexicon_from_fields", lambda fields: fields)
        load_lexicon(path)
    image = LEXICON_FORM.image_of(path)
    assert isinstance(marshal.loads(image.read_bytes()[kbimage._HEAD_END :])[1], int)
    fresh = build_lexicon(read_kb(path))
    parses = count_parses(monkeypatch)
    LEXICON_FORM.assert_same(load_lexicon(path), fresh)
    assert len(parses) == 1
    LEXICON_FORM.assert_same(load_lexicon(path), fresh)
    assert len(parses) == 1
    assert dict_annotate("Acute cystitis", load_lexicon(path)) == dict_annotate(
        "Acute cystitis", fresh
    )
