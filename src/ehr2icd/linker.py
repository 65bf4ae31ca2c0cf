"""ICD-10 knowledge base and ranked lookup.

``read_kb`` parses a KB file into entries, ``KnowledgeBase(entries)``
compiles them, and ``load_kb`` does both, or loads the compiled form from an
image on disk (``kbimage``). The compiled form (``SurfaceIndex``) keeps the
entries as columns (codes, names, synonym cells) beside a surface-level
inverted index. Each entry's name and synonyms are its surfaces; each is
tokenized once by ``query_tokens`` (the shared tokenizer's case-folded words)
and its key filed under each of its tokens: every token's ascending keys lie
in one flat key array, between that token's two offsets, and each surface's
entry is kept too (an entry's name is its first surface). A key orders
surfaces by token count first and KB order second, so every posting list is
ordered by surface size; a lookup bisects views of the flat array in place.
The token-set Jaccard score of a surface is shared / (query size + surface
size - shared). An entry scores by its best surface, the name winning a tie
with a synonym whatever their sizes, and candidates are ranked by score
descending with ties broken by code.

A lookup is an exact top-k search with prefix and size filters (Xiao et al.,
"Top-k Set Similarity Joins", ICDE 2009; Bayardo et al., "Scaling Up All
Pairs Similarity Search", WWW 2007). It walks the query's posting lists from
the rarest token to the most common and keeps ``t``, the k-th best entry
score so far. A surface first met in the i-th list (from 0) holds none of
the earlier lists' tokens, so it shares at most q - i of the q query tokens:
once (q - i) / q < t no unseen surface can reach ``t``, and the common
tokens' long lists are never walked. Within a list, only a window of
surface sizes can reach ``t``; being contiguous in a size-ordered list, it
is found by bisection. A surface, once met, has its full overlap counted by
bisecting the lists not yet walked. Every bound is non-strict, so each
surface that scores ``t`` or more is scored exactly and ties are still
ranked by code.

Assignment (``standard.assign``) codes each disease from its top-ranked
candidate alone, so each KnowledgeBase keeps, in a memo keyed by span text
(``KnowledgeBase.top``), that candidate's score, code, name and category: a
text repeated across rows is tokenized, ranked and its category derived
once. The memo holds the index, not the KnowledgeBase, so the two make
no cycle. ``lookup`` memoizes nothing and returns a fresh list.

``load_kb`` stores the KnowledgeBase's image (``kbimage.load``) as the
index's columns and token numbers as they are, and its three typed arrays
(offsets, the flat keys and each surface's entry) as bytes. A KB loaded by
``load_kb``, from its image or not, builds its tuple of ``KBEntry`` from the
columns only when ``entries`` is first read.
"""

from __future__ import annotations

import heapq
import re
from array import array
from bisect import bisect_left
from functools import partial
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import MalformedFile
from .frozen import Frozen, Memo
from .ner.tokenizer import folded_words as query_tokens
from .textio import decode_text

# Uppercase letter, two digits, optional "." plus one or two alphanumerics.
CODE_RE = re.compile(r"^[A-Z][0-9]{2}(?:\.[A-Za-z0-9]{1,2})?$")


class KBEntry(NamedTuple):
    code: str
    name: str
    synonyms: tuple[str, ...] = ()


class SurfaceIndex(NamedTuple):
    """The KB compiled for lookup.

    Entry ids number the entries in KB order; ``codes``, ``names`` and
    ``synonyms`` give each entry's code, name and its synonyms joined by
    "|" (a KB file's synonyms hold no "|", and none is empty).

    Surfaces are numbered in KB order: entry by entry, the name first, then
    the synonyms in order. A posting holds a surface's key, its size (number
    of distinct tokens) times the stride plus its number, where the stride
    is the number of surfaces, ``len(entry_of)``. So keys order surfaces by
    size first and KB order second. Each posting list, in ascending key
    order, is then in ascending size order, and the surfaces of one size s
    lie between keys s * stride and (s + 1) * stride. Token number n's list
    is ``keys[offsets[n]:offsets[n + 1]]``. Typed arrays keep the index
    small on a large KB; keys take 32 bits unless one needs more.

    An entry's name is its first surface: surface s is a name exactly when
    s is 0 or surface s - 1 belongs to another entry.
    """

    codes: tuple[str, ...]  # entry id -> code
    names: tuple[str, ...]  # entry id -> name
    synonyms: tuple[str, ...]  # entry id -> its synonyms, "|"-joined
    tokens: dict[str, int]  # token -> its number
    offsets: array  # token number -> where its list starts; one more at the end
    keys: array  # every token's ascending surface keys, in token number order
    entry_of: array  # surface number -> entry id


class KnowledgeBase(Frozen):
    """The surface index compiled from the entries, and the memo of each
    span text's top candidate; immutable.

    Built from the entries, or from the index alone: the entries are then
    made from its columns when first read. Equality, hashing and pickling
    use the entries only; unpickling compiles the index again.
    """

    __slots__ = ("index", "top", "_entries")

    def __init__(
        self, entries: Optional[tuple[KBEntry, ...]] = None, index: Optional[SurfaceIndex] = None
    ):
        if index is None:
            index = build_index(entries)
        top = Memo(partial(_top_candidate, index))
        for name, value in zip(self.__slots__, (index, top, entries)):
            object.__setattr__(self, name, value)

    @property
    def entries(self) -> tuple[KBEntry, ...]:
        if self._entries is None:
            codes, names, cells = self.index[:3]
            synonyms = (tuple(cell.split("|")) if cell else () for cell in cells)
            entries = tuple(map(KBEntry._make, zip(codes, names, synonyms)))
            object.__setattr__(self, "_entries", entries)
        return self._entries

    def _key(self) -> tuple:
        return (self.entries,)


class LinkCandidate(NamedTuple):
    entry: KBEntry
    score: float  # Jaccard, in [0, 1]
    matched_via: str  # "name" or "synonym"


def build_index(entries: tuple[KBEntry, ...]) -> SurfaceIndex:
    # Each surface is tokenized once and its key appended to its tokens'
    # lists as it goes; at the end each list is sorted onto the flat array.
    stride = sum(1 + len(entry.synonyms) for entry in entries)
    postings: dict[str, list[int]] = {}
    entry_of = array("I")
    for entry_id, entry in enumerate(entries):
        for surface in (entry.name, *entry.synonyms):
            tokens = query_tokens(surface)
            key = len(tokens) * stride + len(entry_of)
            for token in tokens:
                postings.setdefault(token, []).append(key)
            entry_of.append(entry_id)
    flat: list[int] = []
    offsets = array("I", [0])
    for keys in postings.values():
        flat += sorted(keys)
        offsets.append(len(flat))
    try:
        keys = array("I", flat)
    except OverflowError:  # a key past 32 bits: a very long surface in a large KB
        keys = array("Q", flat)
    return SurfaceIndex(
        tuple(entry.code for entry in entries),
        tuple(entry.name for entry in entries),
        tuple("|".join(entry.synonyms) for entry in entries),
        dict(zip(postings, range(len(postings)))),
        offsets,
        keys,
        entry_of,
    )


def read_kb(path, data: Optional[bytes] = None) -> tuple[KBEntry, ...]:
    """Parse a tab-separated KB file: code, name, optional '|'-joined synonyms.

    ``data``, when given, is the file's content, already read.
    """
    path = Path(path)
    if data is None:
        data = path.read_bytes()
    entries: list[KBEntry] = []
    seen: dict[str, int] = {}  # code -> the line it is first on
    for lineno, line in enumerate(decode_text(path, data).split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2 or len(parts) > 3:
            raise MalformedFile(path, lineno, "expected 2 or 3 tab-separated columns")
        code = parts[0].strip()
        name = parts[1].strip()
        if not CODE_RE.match(code):
            raise MalformedFile(path, lineno, f"invalid ICD-10 code {code!r}")
        if not name:
            raise MalformedFile(path, lineno, "entry name is empty")
        if code in seen:
            detail = f"duplicate code {code!r}, first on row {seen[code]}"
            raise MalformedFile(path, lineno, detail)
        seen[code] = lineno
        synonyms = ()
        if len(parts) == 3:
            synonyms = tuple(s.strip() for s in parts[2].split("|") if s.strip())
        entries.append(KBEntry(code=code, name=name, synonyms=synonyms))
    return tuple(entries)


def load_kb(path) -> KnowledgeBase:
    """Parse a KB file and compile it for lookup, or load that from its image."""
    # Imported here: only the commands that read a KB compile that module.
    from . import kbimage

    return kbimage.load(path, ".kbimage", _kb_fields, _kb_from_fields)


def _kb_fields(path: Path, data: bytes) -> list:
    """The KB file's compiled index as the plain values ``marshal`` stores:
    its columns and token numbers, the keys' typecode, and its typed arrays
    as machine words."""
    codes, names, synonyms, tokens, offsets, keys, entry_of = build_index(read_kb(path, data))
    words = offsets.tobytes(), keys.tobytes(), entry_of.tobytes()
    return [codes, names, synonyms, tokens, keys.typecode, *words]


def _kb_from_fields(fields: list) -> KnowledgeBase:
    codes, names, synonyms, tokens, typecode, offsets, keys, entry_of = fields
    fields.clear()  # so that each value is freed once it has been used
    arrays = array("I", offsets), array(typecode, keys), array("I", entry_of)
    return KnowledgeBase(index=SurfaceIndex(codes, names, synonyms, tokens, *arrays))


def lookup(term: str, kb: KnowledgeBase, k: int = 4) -> list[LinkCandidate]:
    """Rank KB entries sharing at least one token with the term; top k returned.

    A candidate is matched via its name when the entry's name surface scores
    the entry's best score, and via a synonym otherwise."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    index = kb.index
    lists = _lists(index, query_tokens(term))
    stride = len(index.entry_of)
    candidates = []
    for entry_id, score in _rank(index, lists, k):
        # Surfaces are numbered entry by entry, name first.
        name = bisect_left(index.entry_of, entry_id)
        via = "name" if _score(lists, stride, name) == score else "synonym"
        candidates.append(LinkCandidate(kb.entries[entry_id], score, via))
    return candidates


def _lists(index: SurfaceIndex, query: set[str]) -> list[memoryview]:
    """The posting list of each query token: a view of the flat key array,
    empty for a token that no surface holds."""
    keys, offsets, tokens = memoryview(index.keys), index.offsets, index.tokens
    lists = []
    for token in query:
        n = tokens.get(token)
        lists.append(keys[:0] if n is None else keys[offsets[n] : offsets[n + 1]])
    return lists


def _score(lists: list[memoryview], stride: int, surface: int) -> float:
    """The score of ``surface`` against the query whose tokens' posting
    lists are ``lists``.

    The surface's key in a list is size * stride + surface, for its size, so
    each list is bisected once per surface size it holds, up to that one.
    """
    shared = size = 0
    for keys in lists:
        at = 0
        while at < len(keys):
            key = keys[at] // stride * stride + surface  # at the size of keys[at]
            at = bisect_left(keys, key, at)
            if at < len(keys) and keys[at] == key:
                shared, size = shared + 1, key // stride
                break
            at = bisect_left(keys, key - surface + stride, at)
    # Same integers as |query & surface| / |query | surface|.
    return shared / (len(lists) + size - shared)


def _rank(index: SurfaceIndex, lists: list[memoryview], k: int) -> list[tuple[int, float]]:
    """The ids of the (up to) k best entries for the query whose tokens'
    posting lists are ``lists``, best first, each with its score."""
    entry_of = index.entry_of
    stride = len(entry_of)
    lists = sorted(lists, key=len)
    q = len(lists)
    best: dict[int, float] = {}  # entry id -> best score of its surfaces met
    top: list[int] = []  # k distinct entries; the lowest of their scores is t
    t = 0.0
    seen: set[int] = set()
    for i, keys in enumerate(lists):
        m = q - i  # at most m shared tokens for a surface first met here
        if m / q < t:
            break
        later = None  # sliced once a new surface is met: many lists hold none
        pos, end = _window(keys, stride, 0, len(keys), t, q, m)
        while pos < end:
            key = keys[pos]
            pos += 1
            if key in seen:
                continue
            seen.add(key)
            if later is None:
                later = lists[i + 1 :]
            shared = 1
            for other in later:
                at = bisect_left(other, key)
                if at < len(other) and other[at] == key:
                    shared += 1
            size, surface = divmod(key, stride)
            # Same integers as |query & surface| / |query | surface|.
            score = shared / (q + size - shared)
            entry = entry_of[surface]
            if score <= best.get(entry, 0.0):
                continue
            best[entry] = score
            if entry not in top:
                if len(top) == k:
                    if score <= t:
                        continue
                    top.remove(min(top, key=best.__getitem__))
                top.append(entry)
            if len(top) == k:
                t = min(map(best.__getitem__, top))
                if m / q < t:
                    break
                pos, end = _window(keys, stride, pos, end, t, q, m)
    # Every entry outside ``top`` scores at most t, the k-th best score.
    ranked = [entry for entry, score in best.items() if score >= t]
    codes = index.codes
    chosen = heapq.nsmallest(k, ranked, key=lambda e: (-best[e], codes[e]))
    return [(entry_id, best[entry_id]) for entry_id in chosen]


def _window(keys, stride, pos, end, t, q, m) -> tuple[int, int]:
    """The slice of ``keys[pos:end]`` whose surfaces could still score ``t``.

    A surface of size s first met where at most m of the q query tokens are
    left shares c <= min(m, s) of them, so it scores at most s / q when
    s <= m and m / (q + s - m) above: a bound that rises to m / q >= t, then
    falls. The sizes reaching ``t`` are one range, found from float
    estimates and fixed by exact comparisons (correctly rounded quotients of
    small integers order as the fractions do).
    """
    if t == 0.0:
        return pos, end
    lo = max(int(t * q), 1)
    while lo / q < t:
        lo += 1
    hi = int(m / t) + m - q + 1
    while m / (q + hi - m) < t:
        hi -= 1
    pos = bisect_left(keys, lo * stride, pos, end)
    return pos, bisect_left(keys, (hi + 1) * stride, pos, end)


def code_to_category(code: str) -> str:
    """The category is everything before the first '.'; undotted codes are their own category."""
    if not CODE_RE.match(code):
        raise ValueError(f"invalid ICD-10 code {code!r}")
    return code.split(".", 1)[0]


def _top_candidate(
    index: SurfaceIndex, text: str
) -> Optional[tuple[float, tuple[str, str, str]]]:
    """Score, and (code, name, category), of the top candidate for ``text``, if any."""
    ranked = _rank(index, _lists(index, query_tokens(text)), 1)
    if not ranked:
        return None
    [(entry_id, score)] = ranked
    code = index.codes[entry_id]
    return score, (code, index.names[entry_id], code_to_category(code))
