import pytest
from hypothesis import example, given, strategies as st

from ehr2icd.errors import MisalignedSpan, OverlapError
from ehr2icd.ner.biluo import TAGS, TagSequence, decode_biluo, encode_biluo
from ehr2icd.ner.spans import EntitySpan, make_span
from ehr2icd.ner.tokenizer import Token, tokenize


def test_tag_order_is_fixed():
    assert TAGS == ("B-Disease", "I-Disease", "L-Disease", "U-Disease", "O")


def test_single_token_entity_is_u():
    text = "ANXIETY"
    seq = encode_biluo(tokenize(text), [make_span(text, 0, 7)])
    assert seq.tags == ("U-Disease",)


def test_multi_token_entity_is_b_l():
    text = "Colon cancer for liver evaluation"
    seq = encode_biluo(tokenize(text), [make_span(text, 0, 12)])
    assert seq.tags == ("B-Disease", "L-Disease", "O", "O", "O")


def test_three_token_entity_has_inside_tag():
    text = "major depressive disorder"
    seq = encode_biluo(tokenize(text), [make_span(text, 0, len(text))])
    assert seq.tags == ("B-Disease", "I-Disease", "L-Disease")


def test_no_spans_is_all_o():
    text = "for liver evaluation"
    seq = encode_biluo(tokenize(text), [])
    assert seq.tags == ("O", "O", "O")


def test_misaligned_span_rejected():
    text = "Colon cancer"
    with pytest.raises(MisalignedSpan):
        encode_biluo(tokenize(text), [make_span(text, 0, 3)])  # cuts "Colon"


def test_overlapping_spans_rejected():
    text = "Colon cancer here"
    spans = [make_span(text, 0, 12), make_span(text, 6, 17)]
    with pytest.raises(OverlapError):
        encode_biluo(tokenize(text), spans)


def test_decode_u():
    text = "ANXIETY"
    seq = TagSequence(tuple(tokenize(text)), ("U-Disease",))
    assert [(s.start, s.end, s.text) for s in decode_biluo(seq, text)] == [
        (0, 7, "ANXIETY")
    ]


def test_decode_b_l():
    text = "Colon cancer for liver evaluation"
    seq = TagSequence(tuple(tokenize(text)), ("B-Disease", "L-Disease", "O", "O", "O"))
    assert [(s.start, s.end, s.text) for s in decode_biluo(seq, text)] == [
        (0, 12, "Colon cancer")
    ]


def test_decode_all_o():
    text = "for liver evaluation"
    seq = TagSequence(tuple(tokenize(text)), ("O", "O", "O"))
    assert decode_biluo(seq, text) == []


@pytest.mark.parametrize(
    "tags,expected",
    [
        # I without an open B starts a new entity at that token.
        (("I-Disease", "I-Disease", "O"), [(0, 1)]),
        # A lone L is a single-token entity.
        (("O", "L-Disease", "O"), [(1, 1)]),
        # A B never closed by L ends at its last consecutive I.
        (("B-Disease", "I-Disease", "O"), [(0, 1)]),
        (("B-Disease", "B-Disease", "O"), [(0, 0), (1, 1)]),
        (("B-Disease", "U-Disease", "O"), [(0, 0), (1, 1)]),
        (("O", "O", "B-Disease"), [(2, 2)]),
    ],
)
def test_decode_repairs_invalid_sequences(tags, expected):
    text = "aa bb cc"
    tokens = tokenize(text)
    seq = TagSequence(tuple(tokens), tags)
    spans = decode_biluo(seq, text)
    offsets = [
        (tokens.index(next(t for t in tokens if t.start == s.start)),
         tokens.index(next(t for t in tokens if t.end == s.end)))
        for s in spans
    ]
    assert offsets == expected


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        TagSequence((Token("a", 0, 1),), ("O", "O"))


@st.composite
def _tokens_and_spans(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    words = draw(
        st.lists(st.text(alphabet="abcXYZ09", min_size=1, max_size=5), min_size=n, max_size=n)
    )
    text = ""
    tokens = []
    for word in words:
        if text:
            text += " " * draw(st.integers(min_value=1, max_value=2))
        start = len(text)
        text += word
        tokens.append(Token(word, start, len(text)))
    spans = []
    i = 0
    while i < n:
        if draw(st.booleans()):
            length = draw(st.integers(min_value=1, max_value=min(3, n - i)))
            spans.append(make_span(text, tokens[i].start, tokens[i + length - 1].end))
            i += length
        else:
            i += 1
    return text, tokens, spans


@given(_tokens_and_spans())
def test_roundtrip_property(case):
    text, tokens, spans = case
    seq = encode_biluo(tokens, spans)
    assert decode_biluo(seq, text) == spans


def _oracle_encode(tokens, spans):
    """``encode_biluo`` as first written: every token is scanned twice per
    span, to find the tokens it covers and the tokens it touches."""
    tags = ["O"] * len(tokens)
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        covered = [
            k for k, tok in enumerate(tokens) if tok.start >= span.start and tok.end <= span.end
        ]
        touching = [tok for tok in tokens if tok.start < span.end and tok.end > span.start]
        if (
            not covered
            or len(touching) != len(covered)
            or tokens[covered[0]].start != span.start
            or tokens[covered[-1]].end != span.end
        ):
            raise MisalignedSpan(
                f"span ({span.start}, {span.end}) {span.text!r} does not align "
                f"with token boundaries"
            )
        if any(tags[k] != "O" for k in covered):
            raise OverlapError(None, f"span ({span.start}, {span.end}) overlaps another span")
        if len(covered) == 1:
            tags[covered[0]] = "U-Disease"
        else:
            tags[covered[0]] = "B-Disease"
            for k in covered[1:-1]:
                tags[k] = "I-Disease"
            tags[covered[-1]] = "L-Disease"
    return TagSequence(tokens=tuple(tokens), tags=tuple(tags))


def _outcome(encode, tokens, spans):
    try:
        return encode(tokens, spans)
    except (MisalignedSpan, OverlapError) as exc:
        return type(exc), str(exc)


@st.composite
def _text_and_offsets(draw):
    """A text and span offsets: each span runs from a token's start to a
    token's end, each end moved by one character a third of the time, so
    that aligned, adjacent, overlapping and misaligned spans are all common.
    The first token may come after the last: an ``EntitySpan`` built
    directly may be empty or reversed."""
    text = draw(st.text(alphabet="ab1 -,.", max_size=24))
    tokens = tokenize(text)
    if not tokens:
        offset = st.integers(min_value=0, max_value=len(text))
        return text, draw(st.lists(st.tuples(offset, offset), max_size=2))
    index = st.integers(min_value=0, max_value=len(tokens) - 1)
    nudge = st.sampled_from([0, 0, 0, 0, -1, 1])
    spans = draw(st.lists(st.tuples(index, index, nudge, nudge), max_size=4))
    return text, [
        (max(0, tokens[i].start + a), min(len(text), tokens[j].end + b)) for i, j, a, b in spans
    ]


@given(_text_and_offsets())
@example(("", []))
@example(("aa bb", []))
@example(("aa bb cc", [(0, 2), (3, 5)]))  # adjacent single tokens
@example(("aa,bb cc", [(0, 2), (2, 3), (3, 8)]))  # adjacent, no space between
@example(("aa bb cc", [(3, 8), (0, 5)]))  # overlapping, out of order
@example(("aa bb cc", [(0, 8), (3, 5)]))  # one inside another
@example(("aa bb cc", [(1, 5)]))  # starts inside a token
@example(("aa bb cc", [(0, 4)]))  # ends in the gap after a token
@example(("aa bb cc", [(2, 3)]))  # only whitespace
@example(("aa,bb", [(2, 3), (2, 3)]))  # the same span twice
@example(("aa,bb", [(2, 2)]))  # empty, between two tokens that touch
@example(("aa,bb", [(3, 2)]))  # ends before it starts
def test_encode_matches_token_scan_oracle(case):
    text, offsets = case
    tokens = tokenize(text)
    spans = [EntitySpan(start, end, text[start:end]) for start, end in offsets]
    assert _outcome(encode_biluo, tokens, spans) == _outcome(_oracle_encode, tokens, spans)
