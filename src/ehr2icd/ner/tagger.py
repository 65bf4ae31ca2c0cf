"""Averaged-perceptron disease tagger with greedy decoding.

The learner is deliberately simple and fully deterministic: seeded shuffling,
single-threaded updates, and weight averaging over all update ticks. Tag
scores are summed per (feature, tag) weight; ties break in the fixed TAGS
order, except that a token for which no tag has any evidence at all stays
outside any entity (an untrained model therefore predicts nothing).

Training reads each example once, before the first epoch: one
``finditer`` of the tokenizer's pattern gives its token texts and offsets,
its gold spans are aligned on those offsets straight to tag slots (TAGS
order), and the features of each token that do not depend on the previous
tag are interned to integer ids: a token's own features (bias, w=, shape=
and the affixes) once per distinct token text, and a word's four context
features once per distinct lowercased word or boundary marker. A token's
shape maps ASCII text through one ``str.translate`` table, and walks the
characters of other text. Per id the learner keeps one packed int, the id's five weights in TAGS
order as fixed-width fields: slot k's weight times ``2**(width * k)``. A
token step is scored by one C-level ``sum`` of its features' packed ints,
started from ``offset``, which adds ``2**(width - 1)`` to every field; five
shifts and masks read the fields back, and a correct guess makes no Python
call. Only a wrong guess calls ``update``, which moves the true and the
guessed field of each packed int and adds tick times step to that slot's
entry in the id's move sums.

The width comes from a bound, not a setting. A token fires at most 14
features (bias, w=, shape=, six affixes, prev= and four context words), and
each update moves a weight by at most 1, with at most one update per step,
so every score lies within ``bound = 14 * epochs * tokens``. The width is the
least whose fields hold ``2**(width - 1) + bound``, so every field of a
packed sum lies in 1 .. 2**width - 1 and reads back exactly. Every weight,
score and move sum is an exact integer during training. A weight that ends
at w after steps d_i at ticks t_i sums over T ticks to ``T*w - sum(t_i*d_i)``
(Collins, EMNLP 2002; Daumé III, "A Course in Machine Learning", ch. 4), the
very integer that running totals with last-change stamps reach. So the only
rounding is the final division by T, from the same operands a walk over
sparse per-feature dicts has, and the averaged weights are bit-identical.
The move sums keep the order in which features and slots are first moved,
which is the order that walk creates its dict keys in, so the averaged
weights come out in its order too.

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
Decoding keeps that order on purpose and uses no ``sum()``: another order
can round otherwise, and since Python 3.12 ``sum()`` of floats is
compensated, so its results would differ across Python versions.

Tagging a text takes its token texts from one ``findall`` of the tokenizer's
pattern, adds each token's four context vectors written out (no per-token
tuple or inner loop), and repairs its tag list into entity runs with
``biluo.entity_runs``. Token offsets are found only for a text with a span
(``spans.run_spans``, which the dictionary annotator shares): only
whitespace lies between tokens, so each token starts at its text's first
occurrence after the end of the token before it (``str.find``). Spans are
built with ``tuple.__new__``, and no per-text ``Token`` is built. The
spans of each text are kept in a third memo, so each distinct text is
tagged once per model, however many there are; ``predict`` returns a fresh
list on every call.
"""

from __future__ import annotations

import math
import random
from functools import cache, partial

from ..config import PipelineConfig
from ..errors import EmptyCorpus, EncodingError, MalformedFile, UnsupportedModelVersion
from ..frozen import Frozen, Memo
from ..textio import atomic_write, read_text
from .biluo import B, I, L, O, TAGS, U, entity_runs
from .spans import AnnotatedExample, EntitySpan, run_spans
from .tokenizer import _TOKEN_RE

FEATURE_TEMPLATE = "v1"
# Training's defaults are the pipeline's.
_DEFAULTS = PipelineConfig()
_MAGIC = "ehr2icd-tagger"
_FORMAT = "1"
_BOUNDARY_LEFT = "-START-"
_BOUNDARY_RIGHT = "-END-"
_AFFIXES = tuple((k, f"pre{k}=", f"suf{k}=") for k in (1, 2, 3))
_CONTEXT = tuple(f"w{offset:+d}=" for offset in (-2, -1, 1, 2))
# Where ``prev=`` sits in the template: after bias, w= and shape=.
_PREV_POSITION = 3
# The most features a token fires: bias, w=, shape=, the affixes, prev= and
# the four context words.
_MOST_FEATURES = _PREV_POSITION + 2 * len(_AFFIXES) + 1 + len(_CONTEXT)
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

    Features are integer ids. An id's five weights, in TAGS order, live only
    in ``packed[id]``: slot k's weight times ``2 ** (width * k)``. Ids 0-4
    are ``prev=`` of each tag and id ``_START`` is ``prev=-START-``, so a
    guessed slot is also the next token's ``prev=`` id. A weight ending at
    w after steps d_i at ticks t_i sums to ``T * w - sum(t_i * d_i)`` over T
    ticks, so ``moved`` keeps, per id first updated, slot ->
    ``sum(t_i * d_i)``. Both levels keep first-moved order, the order in
    which a walk over sparse dicts creates its keys and so gives its
    averaged weights.
    """

    def __init__(self, n_features: int, width: int):
        self.packed = [0] * n_features
        self.moved: dict[int, dict[int, int]] = {}
        self.width = width
        self.units = tuple(1 << width * slot for slot in range(len(TAGS)))
        # Field k of a step's packed sum is slot k's score plus half the
        # field's range, which ``offset`` adds once: every field then lies in
        # 0 .. ``mask``, and the sum is ``offset`` exactly when every score is
        # zero.
        self.offset = sum(self.units) * (1 << width >> 1)
        self.mask = (1 << width) - 1
        # Guesses that were wrong, so updates made, so far.
        self.mistakes = 0

    def update(
        self, truth: int, guess: int, feats: tuple[int, ...], prev: int, ticks: int
    ) -> None:
        """Move the weights of a wrong guess, made at tick ``ticks``: +1 for
        the true slot and -1 for the guessed one, of every feature fired."""
        self.mistakes += 1
        delta = self.units[truth] - self.units[guess]
        packed, moved = self.packed, self.moved
        # Template order, so that features are first updated in the order a
        # walk over the template would meet them.
        for feat in (*feats[:_PREV_POSITION], prev, *feats[_PREV_POSITION:]):
            packed[feat] += delta
            sums = moved.get(feat)
            if sums is None:
                sums = moved[feat] = {}
            sums[truth] = sums.get(truth, 0) + ticks
            sums[guess] = sums.get(guess, 0) - ticks

    def averaged(self, names: list[str], ticks: int) -> Weights:
        """Average weights over ``ticks`` steps by feature name, keeping only
        nonzero values."""
        width, mask, half = self.width, self.mask, 1 << self.width >> 1
        averaged: Weights = {}
        for feat, sums in self.moved.items():
            fields = self.packed[feat] + self.offset
            kept = {}
            for slot, moved in sums.items():
                weight = (fields >> width * slot & mask) - half
                value = (ticks * weight - moved) / ticks
                if value:
                    kept[TAGS[slot]] = value
            if kept:
                averaged[names[feat]] = kept
        return averaged


def _field_width(epochs: int, tokens: int) -> int:
    """The bits of one packed score field when training runs ``epochs``
    epochs over ``tokens`` tokens.

    A weight moves by at most 1 per update, and there is at most one update
    per token step, so no weight passes ``epochs * tokens`` in magnitude, and
    no score, a sum of at most ``_MOST_FEATURES`` weights, passes
    ``bound = _MOST_FEATURES * epochs * tokens``. The width makes
    ``bound < 2**(width - 1)``, so a score plus ``2**(width - 1)`` lies in
    1 .. 2**width - 1: it fits in the field.
    """
    bound = _MOST_FEATURES * epochs * tokens
    return (2 * bound).bit_length()


def _training_steps(
    examples: list[AnnotatedExample],
) -> tuple[list[str], list[list[tuple[tuple[int, ...], int]]]]:
    """The feature names by id and, per example, each token's static feature
    ids in template order with the slot of its gold tag.

    A span is aligned iff a token starts where it starts, a token ends where
    it ends, and the first comes no later than the last: then the tokens
    between them are the ones it covers. Spans are taken in (start, end)
    order, so one overlaps an earlier one iff its first token comes no later
    than the last token tagged so far.
    """
    ids = {"prev=" + tag: id_ for id_, tag in enumerate((*TAGS, _BOUNDARY_LEFT))}

    @cache
    def own(text: str) -> tuple[int, ...]:
        feats = _own_features(text.lower(), _shape(text))
        return tuple([ids.setdefault(name, len(ids)) for name in feats])

    @cache
    def context(word: str) -> tuple[int, ...]:
        return tuple([ids.setdefault(name, len(ids)) for name in _context_features(word)])

    steps = []
    for index, example in enumerate(examples, start=1):
        texts, first_at, last_at = [], {}, {}
        for match in _TOKEN_RE.finditer(example.content):
            start, end = match.span()
            first_at[start] = last_at[end] = len(texts)
            texts.append(match.group())
        slots = [_O_SLOT] * len(texts)
        tagged = -1  # the last token of the spans aligned so far
        for span in sorted(example.spans, key=lambda span: (span.start, span.end)):
            first, last = first_at.get(span.start), last_at.get(span.end)
            if first is None or last is None or first > last:
                detail = f"{span.text!r} does not align with token boundaries"
            elif first <= tagged:
                detail = "overlaps another span"
            else:
                if first == last:
                    slots[first] = _SLOTS[U]
                else:
                    slots[first : last + 1] = [_SLOTS[I]] * (last - first + 1)
                    slots[first], slots[last] = _SLOTS[B], _SLOTS[L]
                tagged = last
                continue
            raise EncodingError(index, f"span ({span.start}, {span.end}) {detail}")
        around = list(map(context, _context_words([text.lower() for text in texts])))
        # Token i's neighbours at -2, -1, +1 and +2 are around[i],
        # around[i + 1], around[i + 3] and around[i + 4].
        steps.append(
            [
                (own(text) + (left2[0], left1[1], right1[2], right2[3]), slot)
                for text, slot, left2, left1, right1, right2 in zip(
                    texts, slots, around, around[1:], around[3:], around[4:]
                )
            ]
        )
    return list(ids), steps


def train_tagger(
    train: list[AnnotatedExample], epochs: int = _DEFAULTS.epochs, seed: int = _DEFAULTS.seed
) -> TaggerModel:
    """Train on annotated examples; identical inputs and seed give identical weights."""
    if not train:
        raise EmptyCorpus()
    names, examples = _training_steps(train)
    tokens = sum(map(len, examples))
    width = _field_width(epochs, tokens)
    learner = _PackedPerceptron(len(names), width)
    packed, update, offset, mask = learner.packed, learner.update, learner.offset, learner.mask
    score = packed.__getitem__
    at_i, at_l, at_u, at_o = width, 2 * width, 3 * width, 4 * width
    rng = random.Random(seed)
    order = list(range(len(examples)))
    ticks = 0
    for epoch in range(epochs):
        mistakes = learner.mistakes
        rng.shuffle(order)
        for index in order:
            prev = _START
            for feats, truth in examples[index]:
                ticks += 1
                total = sum(map(score, feats), packed[prev] + offset)
                # The first strict maximum in TAGS order (B, I, L, U, O), or
                # O when every score is zero.
                guess, best = 0, total & mask
                field = total >> at_i & mask
                if field > best:
                    guess, best = 1, field
                field = total >> at_l & mask
                if field > best:
                    guess, best = 2, field
                field = total >> at_u & mask
                if field > best:
                    guess, best = 3, field
                if total >> at_o > best or total == offset:
                    guess = _O_SLOT
                if guess != truth:
                    update(truth, guess, feats, prev, ticks)
                prev = guess
        if learner.mistakes == mistakes:
            # The weights did not change, and a greedy guess depends only on
            # the weights and its example, so every later epoch would guess
            # every token right again. Only their ticks remain to be counted.
            ticks += (epochs - epoch - 1) * tokens
            break
    return TaggerModel(weights=learner.averaged(names, ticks), epochs=epochs, seed=seed)


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
        vector = left2[0]
        if vector is not None:
            vb, vi, vl, vu, vo = vector
            sb += vb
            si += vi
            sl += vl
            su += vu
            so += vo
        vector = left1[1]
        if vector is not None:
            vb, vi, vl, vu, vo = vector
            sb += vb
            si += vi
            sl += vl
            su += vu
            so += vo
        vector = right1[2]
        if vector is not None:
            vb, vi, vl, vu, vo = vector
            sb += vb
            si += vi
            sl += vl
            su += vu
            so += vo
        vector = right2[3]
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
        if so > best or sb == si == sl == su == so == 0.0:
            tag = O
        tags.append(tag)
        prev = tag
    runs = entity_runs(tags)
    if not runs:
        return ()
    return tuple(run_spans(text, texts, runs))


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
    lines = read_text(path).split("\n")
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
