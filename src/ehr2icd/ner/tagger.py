"""Averaged-perceptron disease tagger with greedy decoding.

The learner is deliberately simple and fully deterministic: seeded shuffling,
single-threaded updates, and weight averaging over all update ticks. Tag
scores are summed per (feature, tag) weight; ties break in the fixed TAGS
order, except that a token for which no tag has any evidence at all stays
outside any entity (an untrained model therefore predicts nothing).

Training builds the features of each token that do not depend on the
previous tag before the first epoch, and interns every feature to an
integer id: a token's own features (bias, w=, shape= and the affixes) once
per distinct token text, and a word's four context features once per
distinct lowercased word or boundary marker. A token's shape maps ASCII
text through one ``str.translate`` table, and walks the characters of other
text. Per id the learner keeps three integer vectors in TAGS order:
weights, running totals and the tick of each slot's last change. A token is
scored by adding its features' weight vectors, and an update changes only
the true and the guessed slot. Every weight, score and total is an integer
during training, so sums are exact in any order (below 2**53); the only
rounding is the final ``total / ticks``, from the same operands a walk over
sparse per-feature dicts has, so the averaged weights are bit-identical.

Training stops after the first epoch in which no guess was wrong. Such an
epoch leaves the weights as they were, and a greedy guess depends only on
the weights and its own example, not on the shuffle order, so every later
epoch would guess every token right again and only add one tick per token.
Those ticks are added in one step; since the average depends only on the
final tick count, the model is the one that running every epoch gives.

A TaggerModel is compiled once, when it is built: each feature's weights are
packed into a vector in TAGS order (0.0 for an absent tag), so scoring a
token adds a few vectors, in the same feature order as the sparse weights
and with bit-identical sums. The template's first ten features (bias, w=,
shape=, prev= and the six affixes) depend only on the token's own text and
the previous tag, of which there are six, and its last four only on the
neighbouring words. So each model keeps two memos (``frozen.Memo``): the
five running sums after the first ten features, per (token text, previous
tag), and the vectors of a word as each of the four context features, per
word or boundary marker. A token's scores are its memoized prefix sums plus
its context vectors, added in template order. Float addition is not
associative, but this is the very sequence of additions a walk over all
fourteen features makes, from the same +0.0, so the sums are bit-identical.
Tagging a text takes its token texts from one ``findall`` of the tokenizer's
pattern and repairs its tag list into entity runs with ``biluo.entity_runs``;
token offsets are found only when some tag is not O, and no per-text
``Token`` is built.
The spans of each text are kept in a third memo, so each distinct text is
tagged once per model, however many there are; ``predict`` returns a fresh
list on every call.
"""

from __future__ import annotations

import math
import random
from functools import cache, partial

from ..errors import (
    EmptyCorpus,
    EncodingError,
    MalformedFile,
    MisalignedSpan,
    OverlapError,
    UnsupportedModelVersion,
)
from ..frozen import Frozen, Memo
from ..textio import atomic_write, read_text
from .biluo import B, I, L, O, TAGS, U, encode_biluo, entity_runs
from .spans import AnnotatedExample, EntitySpan, make_span
from .tokenizer import _TOKEN_RE, tokenize

FEATURE_TEMPLATE = "v1"
_MAGIC = "ehr2icd-tagger"
_FORMAT = "1"
_BOUNDARY_LEFT = "-START-"
_BOUNDARY_RIGHT = "-END-"
_AFFIXES = tuple((k, f"pre{k}=", f"suf{k}=") for k in (1, 2, 3))
_CONTEXT = tuple(f"w{offset:+d}=" for offset in (-2, -1, 1, 2))
# Where ``prev=`` sits in the template: after bias, w= and shape=.
_PREV_POSITION = 3
# Training slots: TAGS order, then -START- as the first token's previous tag.
_SLOTS = {tag: slot for slot, tag in enumerate(TAGS)}
_O_SLOT = _SLOTS[O]
_START = len(TAGS)
# The shape of each ASCII letter and digit; any other ASCII character is its
# own shape. (Spelled out: importing ``string`` would cost each process ~1 ms.)
_ASCII_SHAPES = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
    "X" * 26 + "x" * 26 + "d" * 10,
)

Weights = dict[str, dict[str, float]]
Vector = tuple[float, float, float, float, float]  # weights of B, I, L, U, O


class TaggerModel(Frozen):
    """Immutable trained model: sparse (feature, tag) weights plus metadata,
    and the memos compiled from them. Its features are those of template
    ``FEATURE_TEMPLATE``, the only one this module builds.

    ``weights`` must not be changed after construction: the packed vectors
    and the memos are derived from it then. Equality and pickling use the
    weights and metadata only; unpickling compiles the model again.
    """

    __slots__ = ("weights", "epochs", "seed", "_prefix", "_context", "_spans")

    def __init__(self, weights: Weights, epochs: int, seed: int):
        vectors = _pack(weights)
        prefix = Memo(partial(_prefix_sums, vectors))
        context = Memo(partial(_context_vectors, vectors))
        spans = Memo(partial(_tag_text, prefix, context))
        fields = (weights, epochs, seed, prefix, context, spans)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return self.weights, self.epochs, self.seed


def _shape(token: str) -> str:
    """The token with each digit as d and each letter as X (uppercase) or x;
    other characters stay as they are."""
    if token.isascii():
        return token.translate(_ASCII_SHAPES)
    out = []
    for ch in token:
        if ch.isdigit():
            out.append("d")
        elif ch.isalpha():
            out.append("X" if ch.isupper() else "x")
        else:
            out.append(ch)
    return "".join(out)


def _own_features(word: str, shape: str) -> list[str]:
    """The features of template v1 that depend only on the token itself, in
    template order; ``prev=`` goes at ``_PREV_POSITION`` among them."""
    feats = ["bias", "w=" + word, "shape=" + shape]
    for k, prefix, suffix in _AFFIXES:
        if len(word) >= k:
            feats.append(prefix + word[:k])
            feats.append(suffix + word[-k:])
    return feats


def _context_features(word: str) -> list[str]:
    """The features of template v1 that ``word`` fires as each neighbour of
    a token, at -2, -1, +1 and +2, in template order."""
    return [name + word for name in _CONTEXT]


def _prefix_features(text: str, prev_tag: str) -> list[str]:
    """The features of token text ``text`` that come before its context
    features in template v1, given the previous predicted tag."""
    feats = _own_features(text.lower(), _shape(text))
    feats.insert(_PREV_POSITION, "prev=" + prev_tag)
    return feats


def _context_words(lower: list[str]) -> list[str]:
    """The lowercased words padded with two boundary markers on each side:
    the word at ``offset`` from token i is item ``i + 2 + offset``."""
    return [_BOUNDARY_LEFT, _BOUNDARY_LEFT, *lower, _BOUNDARY_RIGHT, _BOUNDARY_RIGHT]


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


class _PackedPerceptron:
    """Collins-style perceptron with lazily accumulated weight averages.

    Features are integer ids. Each id owns three 5-slot lists in TAGS order:
    its weights, its running totals and the tick at which each slot last
    changed. Ids 0-4 are ``prev=`` of each tag and id ``_START`` is
    ``prev=-START-``, so a guessed slot is also the next token's ``prev=`` id.
    """

    def __init__(self, n_features: int):
        self.weights = [[0] * len(TAGS) for _ in range(n_features)]
        self._totals = [[0] * len(TAGS) for _ in range(n_features)]
        self._stamps = [[0] * len(TAGS) for _ in range(n_features)]
        # Feature id -> the slots updated so far, in the order first updated;
        # the keys are in the order the features were first updated.
        self._touched: dict[int, list[int]] = {}
        self._ticks = 0
        # Guesses that were wrong, so updates made, so far.
        self.mistakes = 0

    def predict(self, prev: int, vectors: tuple[list[int], ...]) -> int:
        """The slot of the best tag for a token, given its ``prev=`` id and
        its other features' weight vectors: the first strict maximum in TAGS
        order, or O when every score is zero."""
        sb, si, sl, su, so = self.weights[prev]
        for vb, vi, vl, vu, vo in vectors:
            sb += vb
            si += vi
            sl += vl
            su += vu
            so += vo
        scores = [sb, si, sl, su, so]
        best = max(scores)
        if best or any(scores):
            return scores.index(best)
        return _O_SLOT

    def update(self, truth: int, guess: int, feats: tuple[int, ...], prev: int) -> None:
        self._ticks += 1
        if truth == guess:
            return
        self.mistakes += 1
        ticks = self._ticks
        weights, totals, stamps, touched = (
            self.weights, self._totals, self._stamps, self._touched
        )
        # Template order, so that features are first updated in the order a
        # walk over _features would meet them.
        for feat in (*feats[:_PREV_POSITION], prev, *feats[_PREV_POSITION:]):
            weight, total, stamp = weights[feat], totals[feat], stamps[feat]
            slots = touched.get(feat)
            if slots is None:
                slots = touched[feat] = []
            for slot, delta in ((truth, 1), (guess, -1)):
                last = stamp[slot]
                if not last:
                    slots.append(slot)
                total[slot] += (ticks - last) * weight[slot]
                stamp[slot] = ticks
                weight[slot] += delta

    def skip(self, steps: int) -> None:
        """Count ``steps`` correct guesses without making them: each would
        only add one tick."""
        self._ticks += steps

    def averaged(self, names: list[str]) -> Weights:
        """Average weights by feature name, keeping only nonzero values."""
        ticks = self._ticks
        if ticks == 0:
            return {}
        averaged: Weights = {}
        for feat, slots in self._touched.items():
            weight, total, stamp = self.weights[feat], self._totals[feat], self._stamps[feat]
            kept = {}
            for slot in slots:
                value = (total[slot] + (ticks - stamp[slot]) * weight[slot]) / ticks
                if value:
                    kept[TAGS[slot]] = value
            if kept:
                averaged[names[feat]] = kept
        return averaged


def _encode_corpus(examples: list[AnnotatedExample]):
    """Each example's token texts and gold tags."""
    encoded = []
    for index, example in enumerate(examples, start=1):
        tokens = tokenize(example.content)
        try:
            tags = encode_biluo(tokens, list(example.spans))
        except (MisalignedSpan, OverlapError) as exc:
            raise EncodingError(index, str(exc)) from exc
        encoded.append(([token.text for token in tokens], tags))
    return encoded


class _Interned(dict):
    """Feature name -> id, numbering each name the first time it is looked up."""

    def __missing__(self, name: str) -> int:
        self[name] = id_ = len(self)
        return id_


def _intern_corpus(encoded) -> tuple[list[str], list[list[tuple[tuple[int, ...], int]]]]:
    """Intern the static features of every token.

    A token's own features are built and interned once per distinct token
    text, and a word's four context features once per distinct word or
    boundary marker. Returns the feature names by id and, per example, each
    token's static feature ids in template order with the slot of its gold
    tag.
    """
    ids = _Interned()
    for tag in (*TAGS, _BOUNDARY_LEFT):
        ids["prev=" + tag]
    intern = ids.__getitem__

    @cache
    def own(text: str) -> tuple[int, ...]:
        return tuple(map(intern, _own_features(text.lower(), _shape(text))))

    @cache
    def context(word: str) -> tuple[int, ...]:
        return tuple(map(intern, _context_features(word)))

    examples = []
    for texts, gold in encoded:
        around = list(map(context, _context_words([text.lower() for text in texts])))
        # Token i's neighbours at -2, -1, +1 and +2 are around[i],
        # around[i + 1], around[i + 3] and around[i + 4].
        examples.append(
            [
                (own(text) + (left2[0], left1[1], right1[2], right2[3]), _SLOTS[tag])
                for text, tag, left2, left1, right1, right2 in zip(
                    texts, gold, around, around[1:], around[3:], around[4:]
                )
            ]
        )
    return list(ids), examples


def train_tagger(
    train: list[AnnotatedExample], epochs: int = 10, seed: int = 13
) -> TaggerModel:
    """Train on annotated examples; identical inputs and seed give identical weights."""
    if not train:
        raise EmptyCorpus()
    names, examples = _intern_corpus(_encode_corpus(train))
    learner = _PackedPerceptron(len(names))
    # The learner changes its weight lists in place, so a tuple of them taken
    # now stays current.
    vector = learner.weights.__getitem__
    steps = [
        [(tuple(map(vector, feats)), feats, truth) for feats, truth in example]
        for example in examples
    ]
    rng = random.Random(seed)
    order = list(range(len(steps)))
    for epoch in range(epochs):
        mistakes = learner.mistakes
        rng.shuffle(order)
        for index in order:
            prev = _START
            for vectors, feats, truth in steps[index]:
                guess = learner.predict(prev, vectors)
                learner.update(truth, guess, feats, prev)
                prev = guess
        if learner.mistakes == mistakes:
            # The weights did not change, and a greedy guess depends only on
            # the weights and its example, so every later epoch would guess
            # every token right again. Only their ticks remain to be counted.
            learner.skip((epochs - epoch - 1) * sum(map(len, steps)))
            break
    return TaggerModel(weights=learner.averaged(names), epochs=epochs, seed=seed)


def predict(model: TaggerModel, text: str) -> list[EntitySpan]:
    """Greedily tag the text and decode the (repaired) tags into spans."""
    return list(model._spans[text])


def _prefix_sums(vectors: dict[str, Vector], key: tuple[str, str]) -> Vector:
    """The five running score sums after the prefix features of ``key``, a
    (token text, previous tag): from +0.0, each present feature's vector
    added in template order."""
    sb = si = sl = su = so = 0.0
    for feat in _prefix_features(*key):
        vector = vectors.get(feat)
        if vector is not None:
            vb, vi, vl, vu, vo = vector
            sb += vb
            si += vi
            sl += vl
            su += vu
            so += vo
    return sb, si, sl, su, so


def _context_vectors(vectors: dict[str, Vector], word: str) -> tuple[Vector | None, ...]:
    """The vectors of ``word`` as each context feature, in template order
    (None where the model has no such feature)."""
    return tuple(map(vectors.get, _context_features(word)))


def _tag_text(prefix: Memo, context: Memo, text: str) -> tuple[EntitySpan, ...]:
    """Tag the text's tokens greedily and decode the repaired tags into
    spans; token offsets are found only when there is a span."""
    texts = _TOKEN_RE.findall(text)
    around = list(map(context.__getitem__, _context_words([token.lower() for token in texts])))
    prev = _BOUNDARY_LEFT
    tags = []
    # Token i's neighbours at -2, -1, +1 and +2 are around[i], around[i + 1],
    # around[i + 3] and around[i + 4].
    for token, left2, left1, right1, right2 in zip(
        texts, around, around[1:], around[3:], around[4:]
    ):
        # The sums a walk over the template makes: the memoized prefix, then
        # the w-2=, w-1=, w+1= and w+2= vectors. The 0.0s of absent tags
        # change nothing: a sum that starts at +0.0 never becomes -0.0, and
        # x + 0.0 == x.
        sb, si, sl, su, so = prefix[token, prev]
        for vector in (left2[0], left1[1], right1[2], right2[3]):
            if vector is not None:
                vb, vi, vl, vu, vo = vector
                sb += vb
                si += vi
                sl += vl
                su += vu
                so += vo
        # The first strict maximum in TAGS order, or O when every score is
        # zero.
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
    runs = entity_runs(tags)
    if not runs:
        return ()
    bounds = [match.span() for match in _TOKEN_RE.finditer(text)]
    return tuple(make_span(text, bounds[first][0], bounds[last][1]) for first, last in runs)


def save_model(model: TaggerModel, path) -> None:
    """Serialize to the flat, sorted text format (byte-stable per model)."""
    lines = [
        f"{_MAGIC}\t{_FORMAT}",
        f"features\t{FEATURE_TEMPLATE}",
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
    # Header lines are "key<TAB>value" in any order, each key at most once;
    # the first line with another key starts the weights.
    meta = {"features": "<missing>", "epochs": 0, "seed": 0}
    seen = set()
    body_start = 1
    while body_start < len(lines):
        key, _, value = lines[body_start].partition("\t")
        if key not in meta:
            break
        body_start += 1
        if key in seen:
            raise MalformedFile(path, body_start, f"header key {key!r} repeats an earlier line")
        seen.add(key)
        if key != "features":
            try:
                value = int(value)
            except ValueError as exc:
                raise MalformedFile(
                    path, body_start, f"{key} {value!r} is not an integer"
                ) from exc
            if key == "epochs" and value < 0:
                raise MalformedFile(path, body_start, f"epochs {value} is negative")
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
            weight = float(value)
        except ValueError as exc:
            detail = f"weight {value!r} is not a number"
            raise MalformedFile(path, lineno, detail) from exc
        if not math.isfinite(weight):
            raise MalformedFile(path, lineno, f"weight {value!r} is not finite")
        per_tag = weights.setdefault(feat, {})
        if tag in per_tag:
            detail = f"weight for {feat!r}, {tag!r} repeats an earlier line"
            raise MalformedFile(path, lineno, detail)
        per_tag[tag] = weight
    return TaggerModel(weights=weights, epochs=meta["epochs"], seed=meta["seed"])
