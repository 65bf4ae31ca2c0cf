"""Averaged-perceptron disease tagger with greedy decoding: the model, its
feature template, tagging and the model file.

Tag scores are summed per (feature, tag) weight; ties break in the fixed
TAGS order, except that a token for which no tag has any evidence at all
stays outside any entity (an untrained model therefore predicts nothing).
The learner is in ``training``, which builds its features with this
module's template helpers; a command that only tags text never loads it.
A token's shape maps ASCII text through one ``str.translate`` table, and
walks the characters of other text.

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
from functools import partial

from ..errors import MalformedFile
from ..frozen import Frozen, Memo
from ..textio import atomic_write, read_text
from .biluo import B, I, L, O, TAGS, U, entity_runs
from .spans import EntitySpan, run_spans
from .tokenizer import _TOKEN_RE

FEATURE_TEMPLATE = "v1"
_MAGIC = "ehr2icd-tagger"
_FORMAT = "1"
_BOUNDARY_LEFT = "-START-"
_BOUNDARY_RIGHT = "-END-"
_AFFIXES = tuple((k, f"pre{k}=", f"suf{k}=") for k in (1, 2, 3))
_CONTEXT = tuple(f"w{offset:+d}=" for offset in (-2, -1, 1, 2))
# Where ``prev=`` sits in the template: after bias, w= and shape=.
_PREV_POSITION = 3
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
    seen = {}  # key -> its line
    body_start = 1
    while body_start < len(lines):
        key, _, value = lines[body_start].partition("\t")
        if key not in meta:
            break
        body_start += 1
        if key in seen:
            raise MalformedFile(path, body_start, f"header key {key!r} repeats an earlier line")
        seen[key] = body_start
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
        detail = f"model uses unknown feature-template version {meta['features']!r}"
        raise MalformedFile(path, seen.get("features"), detail)
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
