import pickle

import pytest
from hypothesis import given, settings, strategies as st

from ehr2icd.errors import (
    EmptyCorpus,
    EncodingError,
    MalformedFile,
    UnsupportedModelVersion,
)
from ehr2icd.evaluation import evaluate_annotator
from ehr2icd.ner import read_corpus, split_corpus
from ehr2icd.ner.biluo import TAGS, TagSequence, decode_biluo
from ehr2icd.ner.spans import AnnotatedExample, EntitySpan
from ehr2icd.ner.tagger import (
    PREDICT_CACHE_SIZE,
    TaggerModel,
    _best_tag,
    _features,
    _shape,
    load_model,
    predict,
    save_model,
    train_tagger,
)
from ehr2icd.ner.tokenizer import tokenize

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
    with pytest.raises(UnsupportedModelVersion):
        load_model(path)


def test_garbage_model_file_rejected(tmp_path):
    path = tmp_path / "m.model"
    path.write_text("not a model\n")
    with pytest.raises(MalformedFile):
        load_model(path)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train_tagger([], epochs=1, seed=1)


def test_encoding_error_names_example():
    bad = AnnotatedExample("Colon cancer", (EntitySpan(0, 3, "Col"),))
    with pytest.raises(EncodingError) as err:
        train_tagger([ANXIETY, bad], epochs=1, seed=1)
    assert err.value.record == 2


def test_tie_break_follows_tag_order():
    scores = dict.fromkeys(TAGS, 0.0)
    scores["B-Disease"] = 1.0
    scores["U-Disease"] = 1.0
    assert _best_tag(scores) == "B-Disease"
    scores = dict.fromkeys(TAGS, 2.5)
    assert _best_tag(scores) == "B-Disease"


def test_all_zero_scores_stay_outside():
    assert _best_tag(dict.fromkeys(TAGS, 0.0)) == "O"


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


def test_model_metadata_recorded():
    model = train_tagger([ANXIETY], epochs=4, seed=9)
    assert (model.epochs, model.seed, model.feature_template) == (4, 9, "v1")
    assert isinstance(model, TaggerModel)


def test_overlap_error_names_example_and_span():
    overlapping = AnnotatedExample(
        "Colon cancer",
        (EntitySpan(0, 12, "Colon cancer"), EntitySpan(6, 12, "cancer")),
    )
    with pytest.raises(EncodingError) as err:
        train_tagger([overlapping], epochs=1, seed=1)
    assert str(err.value) == "example 1: span (6, 12) overlaps another span"


def test_unknown_tag_rejected(tmp_path):
    path = tmp_path / "m.model"
    path.write_text(
        "ehr2icd-tagger\t1\nfeatures\tv1\nepochs\t1\nseed\t1\nbias\tX-Disease\t1.0\n"
    )
    with pytest.raises(MalformedFile, match="row 5: unknown tag 'X-Disease'"):
        load_model(path)
    with pytest.raises(ValueError, match="unknown tags"):
        TaggerModel(weights={"bias": {"X-Disease": 1.0}}, epochs=1, seed=1)


# Reference tagger: the sparse (feature, tag) weights walked as dicts, the
# argmax with its TAGS-order tie-break and all-zero -> O rule, and greedy
# decoding, as the tagger scored before its weights were packed.
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
    shapes = [_shape(t.text) for t in tokens]
    prev, tags = "-START-", []
    for i in range(len(tokens)):
        prev = _oracle_best(_oracle_scores(weights, _features(lower, shapes, i, prev)))
        tags.append(prev)
    return decode_biluo(TagSequence(tuple(tokens), tuple(tags)), text)


def _all_features(text):
    """Every feature the text can fire, whatever the previous tag."""
    tokens = tokenize(text)
    lower = [t.text.lower() for t in tokens]
    shapes = [_shape(t.text) for t in tokens]
    return {
        feat
        for i in range(len(tokens))
        for prev in ("-START-", *TAGS)
        for feat in _features(lower, shapes, i, prev)
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


@st.composite
def weight_tables_and_texts(draw):
    texts = draw(st.lists(TEXTS, min_size=1, max_size=4))
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


def test_bundled_model_matches_oracle_on_bundled_corpus(sample_corpus_path, sample_model_path):
    model = load_model(sample_model_path)
    for example in read_corpus(sample_corpus_path):
        text = example.content
        assert predict(model, text) == _oracle_predict(model.weights, text)


def test_predict_cache_stays_bounded_and_exact(sample_model_path):
    model = load_model(sample_model_path)
    texts = [f"Colon cancer stage {i} with hypertension" for i in range(PREDICT_CACHE_SIZE + 40)]
    first = [predict(model, text) for text in texts]
    assert model._spans.cache_info().currsize <= PREDICT_CACHE_SIZE
    fresh = load_model(sample_model_path)
    # Evicted texts are tagged again, and agree with a fresh model.
    assert [predict(model, text) for text in texts] == first
    assert [predict(fresh, text) for text in texts] == first
    assert model._spans.cache_info().currsize <= PREDICT_CACHE_SIZE


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


def test_model_pickles_without_its_cache(sample_model_path):
    model = load_model(sample_model_path)
    text = "New discovered hypertension + stroke"
    expected = predict(model, text)
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model
    assert predict(copy, text) == expected
