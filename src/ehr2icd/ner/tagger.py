"""Averaged-perceptron disease tagger with greedy decoding.

The learner is deliberately simple and fully deterministic: seeded shuffling,
single-threaded updates, and weight averaging over all update ticks. Tag
scores are summed per (feature, tag) weight; ties break in the fixed TAGS
order, except that a token for which no tag has any evidence at all stays
outside any entity (an untrained model therefore predicts nothing).

A TaggerModel is compiled once, when it is built: each feature's weights are
packed into a vector in TAGS order (0.0 for an absent tag), so scoring a
token adds a few vectors, in the same feature order as the sparse weights
and with bit-identical sums. The spans of each text are kept in a bounded,
per-model LRU cache, since exports repeat a few hundred diagnosis texts
across thousands of rows; ``predict`` returns a fresh list on every call.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

from ..errors import (
    EmptyCorpus,
    EncodingError,
    MalformedFile,
    MisalignedSpan,
    OverlapError,
    UnsupportedModelVersion,
)
from ..textio import atomic_write, read_text
from .biluo import B, I, L, O, TAGS, U, TagSequence, decode_biluo, encode_biluo
from .spans import AnnotatedExample, EntitySpan
from .tokenizer import tokenize

FEATURE_TEMPLATE = "v1"
_MAGIC = "ehr2icd-tagger"
_FORMAT = "1"
_BOUNDARY_LEFT = "-START-"
_BOUNDARY_RIGHT = "-END-"

# Distinct texts whose spans each model keeps.
PREDICT_CACHE_SIZE = 1024

Weights = dict[str, dict[str, float]]
Vector = tuple[float, float, float, float, float]  # weights of B, I, L, U, O


@dataclass(frozen=True)
class TaggerModel:
    """Immutable trained model: sparse (feature, tag) weights plus metadata.

    ``weights`` must not be changed after construction: the packed vectors
    and the span cache are derived from it then.
    """

    weights: Weights
    epochs: int
    seed: int
    feature_template: str = FEATURE_TEMPLATE
    _spans: Callable[[str], tuple[EntitySpan, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        tag_text = partial(_tag_text, _pack(self.weights))
        object.__setattr__(self, "_spans", lru_cache(PREDICT_CACHE_SIZE)(tag_text))

    def __reduce__(self):
        # Pickle the fields only; unpickling compiles the model again.
        return TaggerModel, (self.weights, self.epochs, self.seed, self.feature_template)


def _shape(token: str) -> str:
    out = []
    for ch in token:
        if ch.isdigit():
            out.append("d")
        elif ch.isalpha():
            out.append("X" if ch.isupper() else "x")
        else:
            out.append(ch)
    return "".join(out)


def _features(lower: list[str], shapes: list[str], i: int, prev_tag: str) -> list[str]:
    """Feature template v1 for token i given the previous predicted tag."""
    word = lower[i]
    feats = [
        "bias",
        "w=" + word,
        "shape=" + shapes[i],
        "prev=" + prev_tag,
    ]
    for k in (1, 2, 3):
        if len(word) >= k:
            feats.append(f"pre{k}=" + word[:k])
            feats.append(f"suf{k}=" + word[-k:])
    n = len(lower)
    for offset in (-2, -1, 1, 2):
        j = i + offset
        if 0 <= j < n:
            context = lower[j]
        else:
            context = _BOUNDARY_LEFT if j < 0 else _BOUNDARY_RIGHT
        feats.append(f"w{offset:+d}=" + context)
    return feats


def _score_tags(weights: Weights, feats: list[str]) -> dict[str, float]:
    scores = dict.fromkeys(TAGS, 0.0)
    for feat in feats:
        per_tag = weights.get(feat)
        if not per_tag:
            continue
        for tag, weight in per_tag.items():
            scores[tag] += weight
    return scores


def _pack(weights: Weights) -> dict[str, Vector]:
    known = set(TAGS)
    vectors = {}
    for feat, per_tag in weights.items():
        if not known.issuperset(per_tag):
            unknown = sorted(per_tag.keys() - known)
            raise ValueError(f"feature {feat!r} has weights for unknown tags {unknown}")
        get = per_tag.get
        vectors[feat] = (get(B, 0.0), get(I, 0.0), get(L, 0.0), get(U, 0.0), get(O, 0.0))
    return vectors


def _best_tag(scores: dict[str, float]) -> str:
    best_tag = TAGS[0]
    best = scores[best_tag]
    for tag in TAGS[1:]:
        if scores[tag] > best:
            best_tag, best = tag, scores[tag]
    if best == 0.0 and all(value == 0.0 for value in scores.values()):
        return O  # no evidence for any tag: stay outside
    return best_tag


class _AveragedPerceptron:
    """Collins-style perceptron with lazily accumulated weight averages."""

    def __init__(self):
        self.weights: Weights = {}
        self._totals: dict[tuple[str, str], float] = defaultdict(float)
        self._stamps: dict[tuple[str, str], int] = defaultdict(int)
        self._ticks = 0

    def predict(self, feats: list[str]) -> str:
        return _best_tag(_score_tags(self.weights, feats))

    def update(self, truth: str, guess: str, feats: list[str]) -> None:
        self._ticks += 1
        if truth == guess:
            return
        for feat in feats:
            per_tag = self.weights.setdefault(feat, {})
            self._bump(feat, truth, per_tag, 1.0)
            self._bump(feat, guess, per_tag, -1.0)

    def _bump(self, feat: str, tag: str, per_tag: dict[str, float], delta: float) -> None:
        key = (feat, tag)
        current = per_tag.get(tag, 0.0)
        self._totals[key] += (self._ticks - self._stamps[key]) * current
        self._stamps[key] = self._ticks
        per_tag[tag] = current + delta

    def averaged(self) -> Weights:
        if self._ticks == 0:
            return {}
        averaged: Weights = {}
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


def _encode_corpus(examples: list[AnnotatedExample]):
    encoded = []
    for index, example in enumerate(examples, start=1):
        tokens = tokenize(example.content)
        try:
            sequence = encode_biluo(tokens, list(example.spans))
        except (MisalignedSpan, OverlapError) as exc:
            raise EncodingError(index, str(exc)) from exc
        encoded.append((tokens, sequence.tags))
    return encoded


def train_tagger(
    train: list[AnnotatedExample], epochs: int = 10, seed: int = 13
) -> TaggerModel:
    """Train on annotated examples; identical inputs and seed give identical weights."""
    if not train:
        raise EmptyCorpus()
    encoded = _encode_corpus(train)
    rng = random.Random(seed)
    learner = _AveragedPerceptron()
    order = list(range(len(encoded)))
    for _ in range(epochs):
        rng.shuffle(order)
        for index in order:
            tokens, gold = encoded[index]
            if not tokens:
                continue
            lower = [t.text.lower() for t in tokens]
            shapes = [_shape(t.text) for t in tokens]
            prev = _BOUNDARY_LEFT
            for i in range(len(tokens)):
                feats = _features(lower, shapes, i, prev)
                guess = learner.predict(feats)
                learner.update(gold[i], guess, feats)
                prev = guess
    return TaggerModel(weights=learner.averaged(), epochs=epochs, seed=seed)


def predict(model: TaggerModel, text: str) -> list[EntitySpan]:
    """Greedily tag the text and decode the (repaired) tags into spans."""
    return list(model._spans(text))


def _tag_text(vectors: dict[str, Vector], text: str) -> tuple[EntitySpan, ...]:
    tokens = tokenize(text)
    if not tokens:
        return ()
    lower = [t.text.lower() for t in tokens]
    shapes = [_shape(t.text) for t in tokens]
    get = vectors.get
    prev = _BOUNDARY_LEFT
    tags = []
    for i in range(len(tokens)):
        # The sums of _score_tags, tag by tag: the same weights are added in
        # the same feature order. The 0.0s of absent tags change nothing: a
        # sum that starts at +0.0 never becomes -0.0, and x + 0.0 == x.
        sb = si = sl = su = so = 0.0
        for feat in _features(lower, shapes, i, prev):
            vector = get(feat)
            if vector is not None:
                vb, vi, vl, vu, vo = vector
                sb += vb
                si += vi
                sl += vl
                su += vu
                so += vo
        # _best_tag on these scores: the first strict maximum in TAGS order,
        # or O when every score is zero.
        tag, best = B, sb
        if si > best:
            tag, best = I, si
        if sl > best:
            tag, best = L, sl
        if su > best:
            tag, best = U, su
        if so > best:
            tag = O
        if sb == si == sl == su == so == 0.0:
            tag = O
        tags.append(tag)
        prev = tag
    sequence = TagSequence(tokens=tuple(tokens), tags=tuple(tags))
    return tuple(decode_biluo(sequence, text))


def save_model(model: TaggerModel, path) -> None:
    """Serialize to the flat, sorted text format (byte-stable per model)."""
    lines = [
        f"{_MAGIC}\t{_FORMAT}",
        f"features\t{model.feature_template}",
        f"epochs\t{model.epochs}",
        f"seed\t{model.seed}",
    ]
    for feat in sorted(model.weights):
        per_tag = model.weights[feat]
        for tag in sorted(per_tag):
            lines.append(f"{feat}\t{tag}\t{per_tag[tag]!r}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> TaggerModel:
    lines = read_text(path).splitlines()
    if not lines or lines[0].split("\t") != [_MAGIC, _FORMAT]:
        raise MalformedFile(path, 1, "not a tagger model file")
    # Header lines are "key<TAB>value" in any order; the first line with
    # another key starts the weights.
    meta = {"features": "<missing>", "epochs": 0, "seed": 0}
    body_start = 1
    while body_start < len(lines):
        key, _, value = lines[body_start].partition("\t")
        if key not in meta:
            break
        body_start += 1
        if key != "features":
            try:
                value = int(value)
            except ValueError as exc:
                raise MalformedFile(
                    path, body_start, f"{key} {value!r} is not an integer"
                ) from exc
        meta[key] = value
    if meta["features"] != FEATURE_TEMPLATE:
        raise UnsupportedModelVersion(meta["features"])
    weights: Weights = {}
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedFile(path, lineno, "weight lines need feature, tag, value")
        feat, tag, value = parts
        if tag not in TAGS:
            raise MalformedFile(path, lineno, f"unknown tag {tag!r}")
        try:
            weights.setdefault(feat, {})[tag] = float(value)
        except ValueError as exc:
            detail = f"weight {value!r} is not a number"
            raise MalformedFile(path, lineno, detail) from exc
    return TaggerModel(
        weights=weights,
        epochs=meta["epochs"],
        seed=meta["seed"],
        feature_template=meta["features"],
    )
