"""Averaged-perceptron disease tagger with greedy decoding.

The learner is deliberately simple and fully deterministic: seeded shuffling,
single-threaded updates, and weight averaging over all update ticks. Tag
scores are summed per (feature, tag) weight; ties break in the fixed TAGS
order, except that a token for which no tag has any evidence at all stays
outside any entity (an untrained model therefore predicts nothing).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from ..errors import (
    EmptyCorpus,
    EncodingError,
    MalformedFile,
    MisalignedSpan,
    OverlapError,
    UnsupportedModelVersion,
)
from ..textio import read_text
from .biluo import O, TAGS, TagSequence, decode_biluo, encode_biluo
from .spans import AnnotatedExample, EntitySpan
from .tokenizer import tokenize

FEATURE_TEMPLATE = "v1"
_MAGIC = "ehr2icd-tagger"
_FORMAT = "1"
_BOUNDARY_LEFT = "-START-"
_BOUNDARY_RIGHT = "-END-"

Weights = dict[str, dict[str, float]]


@dataclass(frozen=True)
class TaggerModel:
    """Immutable trained model: sparse (feature, tag) weights plus metadata."""

    weights: Weights
    epochs: int
    seed: int
    feature_template: str = FEATURE_TEMPLATE


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
    tokens = tokenize(text)
    if not tokens:
        return []
    lower = [t.text.lower() for t in tokens]
    shapes = [_shape(t.text) for t in tokens]
    prev = _BOUNDARY_LEFT
    tags = []
    for i in range(len(tokens)):
        feats = _features(lower, shapes, i, prev)
        tag = _best_tag(_score_tags(model.weights, feats))
        tags.append(tag)
        prev = tag
    sequence = TagSequence(tokens=tuple(tokens), tags=tuple(tags))
    return decode_biluo(sequence, text)


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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
