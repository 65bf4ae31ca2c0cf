from hypothesis import given, settings, strategies as st

from ehr2icd.ner.tokenizer import folded_tokens, tokenize


def test_two_words():
    assert tokenize("Colon cancer") == [("Colon", 0, 5), ("cancer", 6, 12)]


def test_punctuation_is_its_own_token():
    assert tokenize("hypertension + stroke") == [
        ("hypertension", 0, 12),
        ("+", 13, 14),
        ("stroke", 15, 21),
    ]


def test_empty_input():
    assert tokenize("") == []


def test_slash_splits_adjacent_words():
    tokens = tokenize("shortness of breath/ pulmonary embolism")
    assert [t.text for t in tokens] == [
        "shortness", "of", "breath", "/", "pulmonary", "embolism",
    ]


def test_hyphenated_disease_name():
    assert [t.text for t in tokenize("Sickle-Cell Anaemia")] == [
        "Sickle", "-", "Cell", "Anaemia",
    ]


@given(st.text(max_size=80))
def test_tokens_reconstruct_the_input(text):
    tokens = tokenize(text)
    previous_end = 0
    for token in tokens:
        assert token.text == text[token.start : token.end]
        assert token.text and not token.text.isspace()
        # Everything skipped between tokens must be whitespace.
        assert text[previous_end : token.start].strip() == ""
        previous_end = token.end
    assert text[previous_end:].strip() == ""


# ASCII text is lowercased whole before matching; other text token by token,
# since lowercasing 'İ' adds a combining mark that would split its token.
@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.text(alphabet=st.characters(max_codepoint=127), max_size=30),
        st.text(alphabet="İıßẞΣσςǅǄ\u0301\u0327\u00a0٠١-/_ aA0", max_size=20),
    )
)
def test_folded_tokens_are_each_token_lowercased(text):
    assert folded_tokens(text) == [token.text.lower() for token in tokenize(text)]
