"""Training the averaged-perceptron disease tagger.

The learner is deliberately simple and fully deterministic: seeded shuffling,
single-threaded updates, and weight averaging over all update ticks. Its
features are those of the tagger's template, built by the tagger's own
helpers, and it gives a ``tagger.TaggerModel``. Commands that only tag text
never load this module.

Training reads each example once, before the first epoch: one
``finditer`` of the tokenizer's pattern gives its token texts and offsets,
its gold spans are aligned on those offsets straight to tag slots (TAGS
order), and the features of each token that do not depend on the previous
tag are interned to integer ids: a token's own features (bias, w=, shape=
and the affixes) once per distinct token text, and a word's four context
features once per distinct lowercased word or boundary marker. Per id the
learner keeps one packed int, the id's five weights in TAGS order as
fixed-width fields: slot k's weight times ``2**(width * k)``. A token step
is scored by one C-level ``sum`` of its features' packed ints, started from
``offset``, which adds ``2**(width - 1)`` to every field; five shifts and
masks read the fields back, and a correct guess makes no Python call. Only
a wrong guess calls ``update``, which moves the true and the guessed field
of each packed int and adds tick times step to that slot's entry in the
id's move sums.

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
"""

from __future__ import annotations

import random
from functools import cache

from ..config import PipelineConfig
from ..errors import EncodingError
from .biluo import B, I, L, O, TAGS, U
from .spans import AnnotatedExample
from .tagger import (
    _AFFIXES,
    _BOUNDARY_LEFT,
    _CONTEXT,
    _PREV_POSITION,
    TaggerModel,
    Weights,
    _context_features,
    _context_words,
    _own_features,
    _shape,
)
from .tokenizer import _TOKEN_RE

# Training's defaults are the pipeline's.
_DEFAULTS = PipelineConfig()
# The most features a token fires: bias, w=, shape=, the affixes, prev= and
# the four context words.
_MOST_FEATURES = _PREV_POSITION + 2 * len(_AFFIXES) + 1 + len(_CONTEXT)
# Training slots: TAGS order, then -START- as the first token's previous tag.
_SLOTS = {tag: slot for slot, tag in enumerate(TAGS)}
_O_SLOT = _SLOTS[O]
_START = len(TAGS)


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
        raise ValueError("no examples to train on")
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
