import csv
import gc
import itertools
import operator
import pickle
import random
import sys
import weakref
from collections import defaultdict

import conftest
import pytest
from conftest import SpanError, bypass_memos, decode_biluo, encode_biluo
from hypothesis import example, given, settings, strategies as st

from ehr2icd.errors import EncodingError, MalformedFile
from ehr2icd.evaluation import evaluate_annotator
from ehr2icd.frozen import Memo
from ehr2icd.ner import read_corpus, split_corpus, tagger, tokenizer, training
from ehr2icd.ner.biluo import TAGS
from ehr2icd.ner.spans import AnnotatedExample, EntitySpan
from ehr2icd.ner.tagger import TaggerModel, _shape, load_model, predict, save_model
from ehr2icd.ner.tokenizer import tokenize
from ehr2icd.ner.training import train_tagger

ANXIETY = AnnotatedExample("ANXIETY", (EntitySpan(0, 7, "ANXIETY"),))


def test_trained_model_reproduces_its_sole_example():
    model = train_tagger([ANXIETY], epochs=10, seed=13)
    spans = predict(model, "ANXIETY")
    assert [(s.start, s.end) for s in spans] == [(0, 7)]


def test_zero_epochs_predicts_nothing():
    model = train_tagger([ANXIETY], epochs=0, seed=13)
    assert model.weights == {}
    for text in ("ANXIETY", "Colon cancer for liver evaluation", ""):
        assert predict(model, text) == []


def test_same_seed_gives_identical_serialized_models(tmp_path, sample_corpus_path):
    corpus = read_corpus(sample_corpus_path)[:40]
    a, b = tmp_path / "a.model", tmp_path / "b.model"
    save_model(train_tagger(corpus, epochs=3, seed=7), a)
    save_model(train_tagger(corpus, epochs=3, seed=7), b)
    assert a.read_bytes() == b.read_bytes()


def test_save_load_roundtrip(tmp_path):
    model = train_tagger([ANXIETY], epochs=5, seed=3)
    path = tmp_path / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model


def test_unknown_feature_template_rejected(tmp_path):
    model = train_tagger([ANXIETY], epochs=1, seed=1)
    path = tmp_path / "m.model"
    save_model(model, path)
    text = path.read_text().replace("features\tv1", "features\tv999")
    path.write_text(text)
    with pytest.raises(MalformedFile) as err:
        load_model(path)
    assert err.value.row == 2
    assert str(err.value) == (
        f"{path}: row 2: model uses unknown feature-template version 'v999'"
    )
    # With no features line there is no row to name.
    path.write_text(text.replace("features\tv999\n", ""))
    with pytest.raises(MalformedFile) as err:
        load_model(path)
    assert err.value.row is None
    assert str(err.value) == (
        f"{path}: model uses unknown feature-template version '<missing>'"
    )


def test_garbage_model_file_rejected(tmp_path):
    path = tmp_path / "m.model"
    path.write_text("not a model\n")
    with pytest.raises(MalformedFile):
        load_model(path)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="no examples to train on"):
        train_tagger([], epochs=1, seed=1)


def test_encoding_error_names_example():
    bad = AnnotatedExample("Colon cancer", (EntitySpan(0, 3, "Col"),))
    with pytest.raises(EncodingError) as err:
        train_tagger([ANXIETY, bad], epochs=1, seed=1)
    assert err.value.record == 2


def test_tie_break_follows_tag_order():
    # "a" scores B and U alike (or all five tags alike); only after B does
    # "b" score L, so choosing B makes one span of both tokens, while U would
    # end the span at "a" and O would give none.
    after_b = {"prev=B-Disease": {"L-Disease": 1.0}}
    b_u_tie = {"w=a": {"B-Disease": 1.0, "U-Disease": 1.0}, **after_b}
    all_tie = {"w=a": dict.fromkeys(TAGS, 2.5), **after_b}
    for weights in (b_u_tie, all_tie):
        model = TaggerModel(weights=weights, epochs=1, seed=1)
        assert predict(model, "a b") == [EntitySpan(0, 3, "a b")]


def test_all_zero_scores_stay_outside():
    # Weights fire for "a" but cancel out: without the all-zero rule the first
    # tag in TAGS order, B, would open a span.
    weights = {
        "w=a": {"B-Disease": 1.0, "U-Disease": -1.0},
        "shape=x": {"B-Disease": -1.0, "U-Disease": 1.0},
    }
    model = TaggerModel(weights=weights, epochs=1, seed=1)
    assert predict(model, "a") == []


def test_predictions_satisfy_span_invariants(sample_model_path):
    model = load_model(sample_model_path)
    texts = [
        "Follow up Diabetes mellitus type I /Primary hypothyroidism",
        "New discovered hypertension + stroke",
        "The disease is Gastroenteritis",
        "nothing to see",
    ]
    for text in texts:
        spans = predict(model, text)
        previous_end = -1
        for span in spans:
            assert 0 <= span.start < span.end <= len(text)
            assert span.text == text[span.start : span.end]
            assert span.start >= previous_end
            previous_end = span.end


def test_repeated_predictions_identical(sample_model_path):
    model = load_model(sample_model_path)
    text = "New discovered hypertension + stroke"
    assert predict(model, text) == predict(model, text)


def test_training_set_fit_is_high(sample_corpus_path):
    corpus = read_corpus(sample_corpus_path)
    assert len(corpus) <= 200
    model = train_tagger(corpus, epochs=10, seed=13)
    summary, _ = evaluate_annotator(corpus, lambda text: predict(model, text))
    assert summary.accuracy >= 0.95


def test_bundled_model_matches_default_training(
    tmp_path, sample_corpus_path, sample_model_path
):
    # The bundled model is exactly what default training on the bundled
    # corpus split produces; regenerating it must be byte-identical.
    corpus = read_corpus(sample_corpus_path)
    train, _ = split_corpus(corpus, 0.7, 13)
    model = train_tagger(train, epochs=10, seed=13)
    regenerated = tmp_path / "m.model"
    save_model(model, regenerated)
    assert regenerated.read_bytes() == sample_model_path.read_bytes()


def test_model_metadata_recorded(tmp_path):
    model = train_tagger([ANXIETY], epochs=4, seed=9)
    assert (model.epochs, model.seed) == (4, 9)
    assert isinstance(model, TaggerModel)
    path = tmp_path / "m.model"
    save_model(model, path)
    assert path.read_text().split("\n")[1:4] == ["features\tv1", "epochs\t4", "seed\t9"]


def test_overlap_error_names_example_and_span():
    overlapping = AnnotatedExample(
        "Colon cancer",
        (EntitySpan(0, 12, "Colon cancer"), EntitySpan(6, 12, "cancer")),
    )
    with pytest.raises(EncodingError) as err:
        train_tagger([overlapping], epochs=1, seed=1)
    assert str(err.value) == "example 1: span (6, 12) overlaps another span"


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_non_finite_weight_rejected(tmp_path, value):
    path = tmp_path / "m.model"
    path.write_text(
        "ehr2icd-tagger\t1\nfeatures\tv1\nepochs\t1\nseed\t1\n"
        f"bias\tB-Disease\t1.0\nbias\tO\t{value}\n"
    )
    with pytest.raises(MalformedFile, match=f"row 6: weight '{value}' is not finite"):
        load_model(path)


def test_repeated_weight_line_rejected(tmp_path):
    # save_model never writes a repeat; a later line must not silently win.
    path = tmp_path / "m.model"
    path.write_text(
        "ehr2icd-tagger\t1\nfeatures\tv1\nepochs\t1\nseed\t1\n"
        "bias\tO\t1.0\nw=a\tO\t0.5\nbias\tU-Disease\t0.5\nbias\tO\t2.0\n"
    )
    with pytest.raises(
        MalformedFile, match="row 8: weight for 'bias', 'O' repeats an earlier line"
    ):
        load_model(path)


@pytest.mark.parametrize(
    "header,line",
    [
        ("features\tv1\nepochs\t10\nepochs\t-3\nseed\t1\n", 4),
        ("features\tv1\nepochs\t1\nseed\t1\nseed\t2\n", 5),
        ("features\tv1\nepochs\t1\nfeatures\tv1\nseed\t1\n", 4),
    ],
    ids=["epochs", "seed", "features"],
)
def test_repeated_header_key_rejected(tmp_path, header, line):
    # A later header line must not silently override an earlier one.
    path = tmp_path / "m.model"
    key = header.splitlines()[line - 2].partition("\t")[0]
    path.write_text("ehr2icd-tagger\t1\n" + header + "bias\tO\t1.0\n")
    with pytest.raises(MalformedFile, match=f"row {line}: header key '{key}' repeats"):
        load_model(path)


def test_negative_epochs_rejected(tmp_path):
    path = tmp_path / "m.model"
    path.write_text("ehr2icd-tagger\t1\nfeatures\tv1\nepochs\t-3\nseed\t1\nbias\tO\t1.0\n")
    with pytest.raises(MalformedFile, match="row 3: epochs -3 is negative"):
        load_model(path)
    path.write_text("ehr2icd-tagger\t1\nfeatures\tv1\nepochs\t0\nseed\t-1\nbias\tO\t1.0\n")
    assert (load_model(path).epochs, load_model(path).seed) == (0, -1)


def test_unknown_tag_rejected(tmp_path):
    path = tmp_path / "m.model"
    path.write_text(
        "ehr2icd-tagger\t1\nfeatures\tv1\nepochs\t1\nseed\t1\nbias\tX-Disease\t1.0\n"
    )
    with pytest.raises(MalformedFile, match="row 5: unknown tag 'X-Disease'"):
        load_model(path)
    with pytest.raises(ValueError, match="unknown tags"):
        TaggerModel(weights={"bias": {"X-Disease": 1.0}}, epochs=1, seed=1)


# Reference tagger: feature template v1 built in one piece per token, the
# character-loop shape, the sparse (feature, tag) weights walked as dicts,
# the argmax with its TAGS-order tie-break and all-zero -> O rule, greedy
# decoding of Token objects through conftest's decode_biluo, and the
# dict-walk averaged perceptron, as the tagger scored and trained before its weights were
# packed and its features built per distinct token.
def _oracle_shape(token):
    out = []
    for ch in token:
        if ch.isdigit():
            out.append("d")
        elif ch.isalpha():
            out.append("X" if ch.isupper() else "x")
        else:
            out.append(ch)
    return "".join(out)


def _oracle_features(lower, shapes, i, prev_tag):
    word = lower[i]
    feats = ["bias", "w=" + word, "shape=" + shapes[i], "prev=" + prev_tag]
    for k in (1, 2, 3):
        if len(word) >= k:
            feats.append(f"pre{k}=" + word[:k])
            feats.append(f"suf{k}=" + word[-k:])
    for offset in (-2, -1, 1, 2):
        j = i + offset
        if 0 <= j < len(lower):
            context = lower[j]
        else:
            context = "-START-" if j < 0 else "-END-"
        feats.append(f"w{offset:+d}=" + context)
    return feats


def _oracle_scores(weights, feats):
    scores = dict.fromkeys(TAGS, 0.0)
    for feat in feats:
        for tag, weight in weights.get(feat, {}).items():
            scores[tag] += weight
    return scores


def _oracle_best(scores):
    best_tag = TAGS[0]
    best = scores[best_tag]
    for tag in TAGS[1:]:
        if scores[tag] > best:
            best_tag, best = tag, scores[tag]
    if best == 0.0 and all(value == 0.0 for value in scores.values()):
        return "O"
    return best_tag


def _oracle_predict(weights, text):
    tokens = tokenize(text)
    lower = [t.text.lower() for t in tokens]
    shapes = [_oracle_shape(t.text) for t in tokens]
    prev, tags = "-START-", []
    for i in range(len(tokens)):
        prev = _oracle_best(_oracle_scores(weights, _oracle_features(lower, shapes, i, prev)))
        tags.append(prev)
    return decode_biluo(tokens, tags, text)


class _OracleAveragedPerceptron:
    """Collins-style perceptron with lazily accumulated weight averages."""

    def __init__(self):
        self.weights = {}
        self._totals = defaultdict(float)
        self._stamps = defaultdict(int)
        self._ticks = 0

    def predict(self, feats):
        return _oracle_best(_oracle_scores(self.weights, feats))

    def update(self, truth, guess, feats):
        self._ticks += 1
        if truth == guess:
            return
        for feat in feats:
            per_tag = self.weights.setdefault(feat, {})
            self._bump(feat, truth, per_tag, 1.0)
            self._bump(feat, guess, per_tag, -1.0)

    def _bump(self, feat, tag, per_tag, delta):
        key = (feat, tag)
        current = per_tag.get(tag, 0.0)
        self._totals[key] += (self._ticks - self._stamps[key]) * current
        self._stamps[key] = self._ticks
        per_tag[tag] = current + delta

    def averaged(self):
        if self._ticks == 0:
            return {}
        averaged = {}
        for feat, per_tag in self.weights.items():
            kept = {}
            for tag, weight in per_tag.items():
                key = (feat, tag)
                total = self._totals[key] + (self._ticks - self._stamps[key]) * weight
                value = total / self._ticks
                if value:
                    kept[tag] = value
            if kept:
                averaged[feat] = kept
        return averaged


def _oracle_train(examples, epochs, seed, mistakes=None):
    """Train for every epoch; appends each epoch's wrong guesses to ``mistakes``."""
    encoded = []
    for example in examples:
        tokens = tokenize(example.content)
        encoded.append((tokens, encode_biluo(tokens, list(example.spans))))
    rng = random.Random(seed)
    learner = _OracleAveragedPerceptron()
    order = list(range(len(encoded)))
    for _ in range(epochs):
        rng.shuffle(order)
        wrong = 0
        for index in order:
            tokens, gold = encoded[index]
            if not tokens:
                continue
            lower = [t.text.lower() for t in tokens]
            shapes = [_oracle_shape(t.text) for t in tokens]
            prev = "-START-"
            for i in range(len(tokens)):
                feats = _oracle_features(lower, shapes, i, prev)
                guess = learner.predict(feats)
                learner.update(gold[i], guess, feats)
                wrong += guess != gold[i]
                prev = guess
        if mistakes is not None:
            mistakes.append(wrong)
    return learner.averaged()


def _all_features(text):
    """Every feature the text can fire, whatever the previous tag."""
    tokens = tokenize(text)
    lower = [t.text.lower() for t in tokens]
    shapes = [_oracle_shape(t.text) for t in tokens]
    return {
        feat
        for i in range(len(tokens))
        for prev in ("-START-", *TAGS)
        for feat in _oracle_features(lower, shapes, i, prev)
    }


# Digits, punctuation and non-ASCII words, repeated so that features recur.
TEXT_WORDS = ["Colon", "cancer", "type", "2", "DM", "Straße", "δέλτα", "١٢", "/", "+", "-", "(x)"]
TEXTS = st.one_of(
    st.lists(st.sampled_from(TEXT_WORDS), max_size=6).map(" ".join),
    st.lists(st.sampled_from(TEXT_WORDS), max_size=6).map("".join),
    st.text(max_size=20),
)
# Small values whose sums round differently by order, exact ties, zeros of
# both signs and negative weights.
WEIGHT_VALUES = [0.1, 0.2, 0.3, 1.0, 1.0, -0.5, -1.0, 2.5, 0.0, -0.0, 1e-17]


@settings(max_examples=100, deadline=None)
@given(TEXTS)
def test_feature_template_matches_oracle(text):
    # Prediction sums float weights in template order, so the order counts:
    # a token's prefix features (with prev= at _PREV_POSITION), then its
    # w-2=, w-1=, w+1= and w+2= features. Training interns the static
    # features and inserts prev= at the same position.
    tokens = tokenize(text)
    lower = [t.text.lower() for t in tokens]
    shapes = [_oracle_shape(t.text) for t in tokens]
    around = tagger._context_words(lower)
    names, (interned,) = training._training_steps([AnnotatedExample(text, ())])
    assert len(interned) == len(tokens)
    for i, token in enumerate(tokens):
        # As scoring reads them: the w-2= name of around[i], the w-1= name of
        # around[i + 1], the w+1= of around[i + 3] and the w+2= of around[i + 4].
        context = [
            tagger._context_features(around[i + j])[k] for k, j in enumerate((0, 1, 3, 4))
        ]
        static_ids, _ = interned[i]
        for prev in ("-START-", *TAGS):
            expected = _oracle_features(lower, shapes, i, prev)
            prefix = tagger._prefix_features(token.text, prev)
            assert prefix[tagger._PREV_POSITION] == "prev=" + prev
            assert prefix + context == expected
            static = [names[id_] for id_ in static_ids]
            static.insert(tagger._PREV_POSITION, "prev=" + prev)
            assert static == expected


@st.composite
def spans_over_tokens(draw):
    """A text and span offsets over it: each from a token's start to a
    token's end, an end moved by one character a third of the time, drawn in
    any order and with repeats, so that aligned, adjacent, misaligned,
    overlapping, duplicate and unsorted spans are all common. The text has
    non-ASCII letters and digits and punctuation, may be empty, and mostly
    ends with a token, so that spans end at its end. A span built directly
    may be empty or reversed."""
    text = draw(st.text(alphabet="aZé1٣δß -,.+/", max_size=24))
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


@given(spans_over_tokens())
@example(("", []))
@example(("ß,é δ", [(0, 1), (4, 5)]))  # single tokens, the last at the text's end
@example(("aa bb cc", [(3, 8), (0, 5)]))  # overlapping, out of order
@example(("aa bb cc", [(0, 8), (3, 5)]))  # one inside another
@example(("aa bb cc", [(6, 8), (0, 2)]))  # aligned, out of order
@example(("aa bb cc", [(1, 5)]))  # starts inside a token
@example(("aa bb cc", [(0, 4)]))  # ends in the gap after a token
@example(("aa,bb", [(2, 3), (2, 3)]))  # the same span twice
@example(("aa,bb", [(3, 5), (0, 1)]))  # misaligned after an aligned one
@example(("aa,bb", [(2, 2)]))  # empty, between two tokens that touch
@example(("aa,bb", [(3, 2)]))  # ends before it starts
def test_training_aligns_spans_as_the_encode_oracle(case):
    # Training aligns each example's spans on the offsets of its own token
    # pass, straight to tag slots; the oracle tags Token objects.
    text, offsets = case
    spans = [EntitySpan(start, end, text[start:end]) for start, end in offsets]
    try:
        expected = encode_biluo(tokenize(text), spans)
    except SpanError as exc:
        expected = str(exc)
    try:
        _, (steps,) = training._training_steps([AnnotatedExample(text, tuple(spans))])
        got = tuple(TAGS[slot] for _, slot in steps)
    except EncodingError as exc:
        assert exc.record == 1
        got = exc.detail
    assert got == expected


def test_training_builds_no_token(monkeypatch, sample_corpus_path, sample_model_path, tmp_path):
    # Training takes its tokens from one pass of the tokenizer's pattern: it
    # calls neither ``tokenize``, which builds a Token per token, nor the
    # encode oracle, and still gives the bundled model.
    def refuse(*args):
        raise AssertionError("training called tokenize or encode_biluo")

    monkeypatch.setattr(conftest, "encode_biluo", refuse)
    bound = [
        module
        for name, module in sys.modules.items()
        if name.startswith("ehr2icd") and vars(module).get("tokenize") is tokenize
    ]
    assert tokenizer in bound
    for module in bound:
        monkeypatch.setattr(module, "tokenize", refuse)
    train, _ = split_corpus(read_corpus(sample_corpus_path), 0.7, 13)
    save_model(train_tagger(train), tmp_path / "model.txt")
    assert (tmp_path / "model.txt").read_bytes() == sample_model_path.read_bytes()


def test_scores_are_summed_in_template_order():
    # O's score is 0.6 when its three weights are added in template order,
    # ((0.2 + 0.3) + 0.1), which ties U's 0.6 and so tags U; any order that
    # does not add the 0.1 last gives 0.6000000000000001 and tags O.
    feats = _oracle_features(["abc"], ["Xxx"], 0, "-START-")
    assert len(feats) == 14
    for x, y, z in itertools.combinations(feats, 3):
        other = next(feat for feat in feats if feat not in (x, y, z))
        weights = {
            other: {"U-Disease": 0.6},
            x: {"O": 0.2},
            y: {"O": 0.3},
            z: {"O": 0.1},
        }
        model = TaggerModel(weights=weights, epochs=1, seed=1)
        assert predict(model, "Abc") == [EntitySpan(0, 3, "Abc")], (x, y, z)
        assert predict(model, "Abc") == _oracle_predict(weights, "Abc")


@st.composite
def weight_tables_and_texts(draw, texts=st.lists(TEXTS, min_size=1, max_size=4)):
    texts = draw(texts)
    features = sorted(set().union(*map(_all_features, texts)))
    chosen = draw(st.lists(st.sampled_from(features), unique=True)) if features else []
    per_tag = st.dictionaries(st.sampled_from(TAGS), st.sampled_from(WEIGHT_VALUES), max_size=5)
    return {feat: draw(per_tag) for feat in chosen}, texts


@settings(max_examples=150, deadline=None)
@given(weight_tables_and_texts())
def test_packed_scoring_matches_sparse_oracle(table_and_texts):
    weights, texts = table_and_texts
    model = TaggerModel(weights=weights, epochs=1, seed=1)
    for text in texts:
        assert predict(model, text) == _oracle_predict(weights, text)


# Texts of any shape: non-ASCII letters and digits (a capital I with a dot
# that lowercases to two code points, a titlecase letter, a superscript two
# and an Arabic-Indic three), "_" (neither a word character nor a space, so
# a token of its own), tabs, newlines, runs of punctuation, and empty or
# whitespace-only text.
ODD_CHARS = list("aB7İǅß²٣_\t\n -/.()+")
ODD_TEXTS = st.one_of(
    st.text(st.sampled_from(ODD_CHARS), max_size=24),
    st.text(st.sampled_from(" \t\n\r"), max_size=4),
    st.text(max_size=24),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ODD_TEXTS, st.text()))
@example("".join(map(chr, range(128))))
def test_shape_matches_character_loop_oracle(text):
    assert _shape(text) == _oracle_shape(text)


@settings(max_examples=150, deadline=None)
@given(weight_tables_and_texts(st.lists(ODD_TEXTS, min_size=1, max_size=4)))
def test_predict_on_any_text_matches_token_oracle(table_and_texts):
    weights, texts = table_and_texts
    model = TaggerModel(weights=weights, epochs=1, seed=1)
    for text in texts:
        assert predict(model, text) == _oracle_predict(weights, text)


def _forced_model():
    """A model whose tag for a token is fixed by its lowercased text: "b",
    "i", "l" and "u" get their BILUO tag whatever the previous tag, and any
    other token O."""
    weights = {f"w={word}": {tag: 1.0} for word, tag in zip("bilu", TAGS)}
    return TaggerModel(weights=weights, epochs=1, seed=1)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("x i x", ["i"]),  # a lone I opens an entity, which O closes
        ("x i", ["i"]),  # ... or the end of the text
        ("x l", ["l"]),  # a lone L is a one-token entity
        ("i i l", ["i i l"]),
        ("b u", ["b", "u"]),  # U closes the open entity, then is its own
        ("b i u", ["b i", "u"]),
        ("b b i", ["b", "b i"]),  # B closes the open entity
        ("x b", ["b"]),  # B at the end: the entity ends there
        ("b i", ["b i"]),  # ... or at its last I
        ("b i x", ["b i"]),
        ("b l u x", ["b l", "u"]),
    ],
)
def test_every_repair_rule_matches_token_oracle(text, expected):
    model = _forced_model()
    spans = predict(model, text)
    assert [span.text for span in spans] == expected
    assert spans == _oracle_predict(model.weights, text)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(["b", "i", "l", "u", "x", "B", "L", "-"]), max_size=10),
    st.sampled_from([" ", "\t", "/", "\n  "]),
)
def test_forced_tag_sequences_match_token_oracle(words, separator):
    model = _forced_model()
    text = separator.join(words)
    assert predict(model, text) == _oracle_predict(model.weights, text)


def test_bundled_model_matches_oracle_on_bundled_corpus(sample_corpus_path, sample_model_path):
    model = load_model(sample_model_path)
    for example in read_corpus(sample_corpus_path):
        text = example.content
        assert predict(model, text) == _oracle_predict(model.weights, text)


# Many texts over a few words: the same token recurs with other neighbours
# and, as the weights differ, after other previous tags.
SHARED_TOKEN_TEXTS = st.lists(
    st.lists(st.sampled_from(TEXT_WORDS[:6]), min_size=1, max_size=6).map(" ".join),
    min_size=2,
    max_size=16,
)


class _KeepingOne(Memo):
    """A memo that keeps only its latest entry, so that any other key is
    computed again on its next lookup, between lookups that hit."""

    __slots__ = ()

    def __missing__(self, key):
        self.clear()
        return super().__missing__(key)


@pytest.mark.parametrize("memo_size", [None, 1])
@settings(max_examples=80, deadline=None)
@given(table_and_texts=weight_tables_and_texts(SHARED_TOKEN_TEXTS))
def test_cached_token_scores_match_sparse_oracle(memo_size, table_and_texts):
    # With memos of one entry, prefix and context entries are computed again
    # and again; with memos bypassed, at every lookup.
    weights, texts = table_and_texts
    with pytest.MonkeyPatch.context() as patch:
        memos = bypass_memos(patch)
        bypassed = TaggerModel(weights=weights, epochs=1, seed=1)
    with pytest.MonkeyPatch.context() as patch:
        if memo_size is not None:
            patch.setattr(tagger, "Memo", _KeepingOne)
        model = TaggerModel(weights=weights, epochs=1, seed=1)
    for text in texts + texts[::-1]:
        expected = _oracle_predict(weights, text)
        assert predict(model, text) == expected
        assert predict(bypassed, text) == expected
    if memo_size is not None:
        assert len(model._prefix) <= 1 and len(model._context) <= 1
    assert len(memos) == 3 and not any(memos)


def _diagnosis_texts(path):
    with path.open(newline="") as fh:
        return [row["Diagnosis"] for row in csv.DictReader(fh)]


def test_bundled_model_matches_oracle_on_sample_exports(
    sample_model_path, sample_ehr_path, sample_ehr_300_path
):
    model = load_model(sample_model_path)
    for path in (sample_ehr_path, sample_ehr_300_path):
        for text in _diagnosis_texts(path):
            assert predict(model, text) == _oracle_predict(model.weights, text)


def test_tagging_order_does_not_change_spans(sample_model_path, sample_corpus_path):
    texts = [example.content for example in read_corpus(sample_corpus_path)]
    shuffled = random.Random(5).sample(texts, len(texts))
    forward, backward = load_model(sample_model_path), load_model(sample_model_path)
    first = {text: predict(forward, text) for text in texts}
    second = {text: predict(backward, text) for text in shuffled}
    assert first == second


@st.composite
def training_corpora(draw):
    """Texts as for scoring, each with random non-overlapping spans on token edges."""
    examples = []
    for text in draw(st.lists(TEXTS, min_size=1, max_size=6)):
        tokens = tokenize(text)
        spans, i = [], 0
        while i < len(tokens):
            length = draw(st.integers(0, 3))  # 0: the token stays outside
            if length == 0 or i + length > len(tokens):
                i += 1
                continue
            start, end = tokens[i].start, tokens[i + length - 1].end
            spans.append(EntitySpan(start, end, text[start:end]))
            i += length
        examples.append(AnnotatedExample(text, tuple(spans)))
    return examples


@settings(max_examples=120, deadline=None)
@given(
    training_corpora(),
    st.integers(0, 12),
    st.sampled_from([0, 1, 7, 13, 2**32 + 5]),
)
def test_packed_training_matches_dict_walk_oracle(tmp_path_factory, corpus, epochs, seed):
    model = train_tagger(corpus, epochs=epochs, seed=seed)
    expected = _oracle_train(corpus, epochs, seed)
    assert repr(model.weights) == repr(expected)
    directory = tmp_path_factory.mktemp("models")
    save_model(model, directory / "packed.model")
    save_model(TaggerModel(weights=expected, epochs=epochs, seed=seed), directory / "oracle.model")
    assert (directory / "packed.model").read_bytes() == (directory / "oracle.model").read_bytes()


def test_packed_training_matches_oracle_on_bundled_corpus(sample_corpus_path):
    corpus = read_corpus(sample_corpus_path)
    assert repr(train_tagger(corpus, epochs=3, seed=5).weights) == repr(
        _oracle_train(corpus, 3, 5)
    )


@pytest.mark.parametrize("epochs,tokens", [(1, 1), (3, 7), (10, 2690), (64, 10**6)])
def test_extreme_scores_unpack_exactly_at_the_training_width(epochs, tokens):
    # No weight passes epochs * tokens in magnitude and a token fires at most
    # 14 features, so every score lies within +-bound. Pack +bound and -bound
    # in every slot over 14 features, at the width training picks for that
    # many epochs and tokens; the packed sum must give back each score.
    assert training._MOST_FEATURES == 14
    width = training._field_width(epochs, tokens)
    learner = training._PackedPerceptron(14, width)
    most = epochs * tokens
    bound = 14 * most
    half = 1 << width >> 1
    for signs in [*itertools.product((1, -1), repeat=5), (0,) * 5]:
        weights = [sign * most for sign in signs]
        learner.packed[:] = [sum(map(operator.mul, weights, learner.units))] * 14
        total = sum(learner.packed, learner.offset)
        scores = [(total >> width * slot & learner.mask) - half for slot in range(5)]
        assert scores == [sign * bound for sign in signs]
        assert (total == learner.offset) == (signs == (0,) * 5)


def _fields(learner, packed):
    """The five signed weights held in the fields of one packed int."""
    total = packed + learner.offset
    half = learner.mask + 1 >> 1
    return [(total >> learner.width * slot & learner.mask) - half for slot in range(5)]


def test_packed_weights_follow_each_update():
    # Each update moves the true and the guessed slot's packed fields as a
    # walk over per-feature weight dicts moves their weights, negative
    # weights included.
    learner = training._PackedPerceptron(19, training._field_width(2, 3))
    feats = tuple(range(6, 19))
    walk = defaultdict(lambda: [0] * 5)
    for ticks, (truth, guess) in enumerate([(0, 4), (4, 0), (4, 0), (2, 1), (3, 4)], start=1):
        learner.update(truth, guess, feats, training._START, ticks)
        for feat in (training._START, *feats):
            walk[feat][truth] += 1
            walk[feat][guess] -= 1
        for feat in range(19):
            assert _fields(learner, learner.packed[feat]) == walk[feat]
            assert learner.packed[feat] == sum(map(operator.mul, walk[feat], learner.units))
    assert walk[6] == [-1, -1, 1, 1, 0]


def _stamps_and_totals(steps, names, ticks):
    """The averaged weights of ``steps`` (tick, truth, guess, feats, prev),
    from per-slot weights, running totals and last-change stamps, all exact
    integers, and each weight divided by ``ticks`` once at the end."""
    weights, totals, stamps = {}, {}, {}
    for tick, truth, guess, feats, prev in steps:
        for feat in (*feats[: tagger._PREV_POSITION], prev, *feats[tagger._PREV_POSITION :]):
            weight = weights.setdefault(feat, {})
            total, stamp = totals.setdefault(feat, {}), stamps.setdefault(feat, {})
            for slot, step in ((truth, 1), (guess, -1)):
                total[slot] = total.get(slot, 0) + (tick - stamp.get(slot, 0)) * weight.get(slot, 0)
                stamp[slot] = tick
                weight[slot] = weight.get(slot, 0) + step
    averaged = {}
    for feat, weight in weights.items():
        kept = {}
        for slot, value in weight.items():
            value = (totals[feat][slot] + (ticks - stamps[feat][slot]) * value) / ticks
            if value:
                kept[TAGS[slot]] = value
        if kept:
            averaged[names[feat]] = kept
    return averaged


@st.composite
def update_runs(draw):
    """Wrong guesses at increasing ticks, apart by up to 2**40, each with
    static features drawn from ids 6-19 and a ``prev=`` id, then the ticks
    that follow the last."""
    steps, tick = [], 0
    for _ in range(draw(st.integers(0, 30))):
        tick += draw(st.one_of(st.integers(1, 3), st.integers(1, 2**40)))
        truth, guess = draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True))
        feats = tuple(draw(st.lists(st.integers(6, 19), min_size=1, max_size=13, unique=True)))
        prev = draw(st.integers(0, training._START))
        steps.append((tick, truth, guess, feats, prev))
    return steps, tick + draw(st.one_of(st.integers(0, 3), st.integers(0, 2**40)))


@settings(max_examples=200, deadline=None)
@given(update_runs())
def test_averaged_weights_equal_stamps_and_totals(run):
    steps, ticks = run
    names = [f"f{feat}" for feat in range(20)]
    learner = training._PackedPerceptron(len(names), training._field_width(1, max(len(steps), 1)))
    for step in steps:
        learner.update(*step[1:], step[0])
    assert learner.mistakes == len(steps)
    # The same floats, in the same order of features and of tags.
    assert repr(learner.averaged(names, ticks)) == repr(_stamps_and_totals(steps, names, ticks))


def test_a_corpus_of_many_mistakes_over_many_epochs_matches_the_oracle():
    # The same text with and without its spans, repeated: some guess is wrong
    # in every one of the 40 epochs.
    text = "Type 2 diabetes mellitus with anxiety and HTN"
    spans = (EntitySpan(7, 24, "diabetes mellitus"), EntitySpan(30, 37, "anxiety"))
    corpus = [AnnotatedExample(text, spans), AnnotatedExample(text, ()), ANXIETY] * 4
    mistakes = []
    expected = _oracle_train(corpus, 40, 7, mistakes)
    assert all(mistakes) and sum(mistakes) > 400
    assert repr(train_tagger(corpus, epochs=40, seed=7).weights) == repr(expected)


def _count_scored_steps(monkeypatch):
    """A list that gains an item each time training takes a token's step,
    counted as it reads the interned steps of each example."""
    scored = []

    class Counted(list):
        def __iter__(self):
            for step in super().__iter__():
                scored.append(None)
                yield step

    training_steps = training._training_steps

    def counting(examples):
        names, steps = training_steps(examples)
        return names, [Counted(example) for example in steps]

    monkeypatch.setattr(training, "_training_steps", counting)
    return scored


def _token_count(corpus):
    return sum(len(tokenize(example.content)) for example in corpus)


def test_bundled_split_stops_after_first_clean_epoch(monkeypatch, sample_corpus_path):
    # Default training: the 8th epoch is the first with no mistake, so only
    # the last two are skipped, and the model is the oracle's, which runs them.
    train, _ = split_corpus(read_corpus(sample_corpus_path), 0.7, 13)
    mistakes = []
    expected = _oracle_train(train, 10, 13, mistakes)
    assert mistakes[7:] == [0, 0, 0] and all(mistakes[:7])
    steps = _count_scored_steps(monkeypatch)
    model = train_tagger(train, epochs=10, seed=13)
    assert len(steps) == _token_count(train) * 8
    assert repr(model.weights) == repr(expected)
    assert model.epochs == 10


@pytest.mark.parametrize("epochs", [1, 2, 10])
def test_epoch_without_update_ends_training(monkeypatch, epochs):
    # The untrained model guesses O for the U token once; the second epoch
    # makes no mistake and is the last one run.
    steps = _count_scored_steps(monkeypatch)
    model = train_tagger([ANXIETY], epochs=epochs, seed=13)
    assert len(steps) == min(epochs, 2)
    assert repr(model.weights) == repr(_oracle_train([ANXIETY], epochs, 13))
    assert model.epochs == epochs


def test_corpus_that_never_converges_runs_every_epoch(monkeypatch):
    # The same text with and without its span: some guess is wrong in every epoch.
    corpus = [ANXIETY, AnnotatedExample("ANXIETY", ()), ANXIETY]
    steps = _count_scored_steps(monkeypatch)
    mistakes = []
    expected = _oracle_train(corpus, 12, 7, mistakes)
    assert all(mistakes)
    model = train_tagger(corpus, epochs=12, seed=7)
    assert len(steps) == _token_count(corpus) * 12
    assert repr(model.weights) == repr(expected)


def test_corpus_of_empty_texts_trains_no_weights(monkeypatch):
    steps = _count_scored_steps(monkeypatch)
    corpus = [AnnotatedExample("", ()), AnnotatedExample(" \t", ())]
    model = train_tagger(corpus, epochs=10, seed=1)
    assert model.weights == {}
    assert steps == []
    assert model.epochs == 10


def test_training_builds_each_tokens_features_once(monkeypatch, sample_corpus_path):
    # A token's own features are built once per distinct token text, and a
    # word's context features once per distinct lowercased word or boundary
    # marker, however often each recurs.
    corpus = read_corpus(sample_corpus_path)[:30]
    calls = defaultdict(list)

    def counted(name):
        build = getattr(training, name)

        def wrapper(*args):
            calls[name].append(args)
            return build(*args)

        monkeypatch.setattr(training, name, wrapper)

    counted("_own_features")
    counted("_context_features")
    train_tagger(corpus, epochs=4, seed=13)
    texts = [token.text for example in corpus for token in tokenize(example.content)]
    distinct = set(texts)
    words = {text.lower() for text in distinct}
    assert len(texts) > len(distinct) > len(words)
    own = calls["_own_features"]
    assert len(own) == len(distinct)
    assert set(own) == {(text.lower(), _oracle_shape(text)) for text in distinct}
    context = [word for (word,) in calls["_context_features"]]
    assert sorted(context) == sorted(words | {"-START-", "-END-"})


def test_mutating_predict_result_leaves_cache_intact(sample_model_path):
    model = load_model(sample_model_path)
    text = "New discovered hypertension + stroke"
    spans = predict(model, text)
    expected = list(spans)
    assert expected
    spans.clear()
    assert predict(model, text) == expected
    assert predict(model, text) is not predict(model, text)


def test_predict_caches_are_per_model(sample_model_path):
    trained = load_model(sample_model_path)
    untrained = train_tagger([ANXIETY], epochs=0, seed=13)
    text = "New discovered hypertension + stroke"
    assert predict(trained, text) != []
    assert predict(untrained, text) == []
    assert predict(trained, text) != []


def test_a_model_with_filled_memos_is_freed_by_del_alone(sample_model_path):
    model = load_model(sample_model_path)
    assert predict(model, "New discovered hypertension + stroke")
    alive = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert alive() is None
    finally:
        gc.enable()


def test_model_pickles_without_its_cache(sample_model_path):
    model = load_model(sample_model_path)
    text = "New discovered hypertension + stroke"
    expected = predict(model, text)
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model
    assert predict(copy, text) == expected
