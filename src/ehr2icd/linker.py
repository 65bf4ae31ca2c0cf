"""ICD-10 knowledge base and ranked lookup.

``read_kb`` parses a KB file into entries, ``KnowledgeBase(entries)``
compiles them, and ``load_kb`` does both, or loads the compiled form from an
image on disk (``kbimage``). Each entry's name and synonyms are
its surfaces; each is tokenized once by ``query_tokens`` (the shared
tokenizer's case-folded words) into a surface-level inverted index: token ->
ascending surface keys, plus each surface's entry and each entry's name. A
key orders surfaces by token count first and KB order second, so every
posting list is ordered by surface size. The token-set Jaccard score of a
surface is shared / (query size + surface size - shared). An entry scores by
its best surface, the name winning a tie with a synonym whatever their
sizes, and candidates are ranked by score descending with ties broken by
code.

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
once. The memo holds the entries and index, not the KnowledgeBase, so the
two make no cycle. ``lookup`` memoizes nothing and returns a fresh list.

``load_kb`` defines the KnowledgeBase's image form (``kbimage.Form``): the
entries by column, and the index's typed arrays as bytes.
"""

from __future__ import annotations

import heapq
import re
from array import array
from bisect import bisect_left
from functools import partial
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import DuplicateCode, InvalidCode, MalformedFile
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

    Surfaces are numbered in KB order: entry by entry, the name first, then
    the synonyms in order. A posting holds a surface's key, its size (number
    of distinct tokens) times the stride plus its number, where the stride
    is the number of surfaces, ``len(entry_of)``. So keys order surfaces by
    size first and KB order second. Each posting list, in ascending key
    order, is then in ascending size order, and the surfaces of one size s
    lie between keys s * stride and (s + 1) * stride. Typed arrays keep the
    index small on a large KB; keys take 32 bits unless one needs more.
    """

    postings: dict[str, array]  # token -> ascending surface keys
    entry_of: array  # surface number -> entry id
    name_surface: array  # entry id -> surface number of its name


class KnowledgeBase(Frozen):
    """Entries plus the surface index compiled from them, and the memo of
    each span text's top candidate; immutable.

    ``index`` is compiled from the entries when not given. Equality, hashing
    and pickling use the entries only; unpickling compiles the index again.
    """

    __slots__ = ("entries", "index", "top")

    def __init__(self, entries: tuple[KBEntry, ...], index: Optional[SurfaceIndex] = None):
        if index is None:
            index = build_index(entries)
        top = Memo(partial(_top_candidate, entries, index))
        for name, value in zip(self.__slots__, (entries, index, top)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return (self.entries,)


class LinkCandidate(NamedTuple):
    entry: KBEntry
    score: float  # Jaccard, in [0, 1]
    matched_via: str  # "name" or "synonym"


def build_index(entries: tuple[KBEntry, ...]) -> SurfaceIndex:
    try:
        return _build_index(entries, "I")
    except OverflowError:  # a key past 32 bits: a very long surface in a large KB
        return _build_index(entries, "Q")


def _build_index(entries: tuple[KBEntry, ...], typecode: str) -> SurfaceIndex:
    # Each surface is tokenized once and its key appended as it goes; one
    # sort per posting list at the end puts the keys in order.
    stride = sum(1 + len(entry.synonyms) for entry in entries)
    postings: dict[str, array] = {}
    entry_of = array("I")
    name_surface = array("I")
    for entry_id, entry in enumerate(entries):
        name_surface.append(len(entry_of))
        for surface in (entry.name, *entry.synonyms):
            tokens = query_tokens(surface)
            key = len(tokens) * stride + len(entry_of)
            for token in tokens:
                keys = postings.get(token)
                if keys is None:
                    postings[token] = keys = array(typecode)
                keys.append(key)
            entry_of.append(entry_id)
    for token, keys in postings.items():
        postings[token] = array(typecode, sorted(keys))
    return SurfaceIndex(postings, entry_of, name_surface)


def read_kb(path, data: Optional[bytes] = None) -> tuple[KBEntry, ...]:
    """Parse a tab-separated KB file: code, name, optional '|'-joined synonyms.

    ``data``, when given, is the file's content, already read.
    """
    path = Path(path)
    if data is None:
        data = path.read_bytes()
    entries: list[KBEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(decode_text(path, data).splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 2 or len(parts) > 3:
            raise MalformedFile(path, lineno, "expected 2 or 3 tab-separated columns")
        code = parts[0].strip()
        name = parts[1].strip()
        if not CODE_RE.match(code):
            raise InvalidCode(code, lineno)
        if not name:
            raise MalformedFile(path, lineno, "entry name is empty")
        if code in seen:
            raise DuplicateCode(code)
        seen.add(code)
        synonyms = ()
        if len(parts) == 3:
            synonyms = tuple(s.strip() for s in parts[2].split("|") if s.strip())
        entries.append(KBEntry(code=code, name=name, synonyms=synonyms))
    return tuple(entries)


def load_kb(path) -> KnowledgeBase:
    """Parse a KB file and compile it for lookup, or load that from its image."""
    # Imported here: only the commands that read a KB compile that module.
    from . import kbimage

    return kbimage.load(path, kbimage.Form(".kbimage", _compile_kb, _kb_fields, _kb_from_fields))


def _compile_kb(path: Path, data: bytes) -> KnowledgeBase:
    return KnowledgeBase(read_kb(path, data))


def _kb_fields(kb: KnowledgeBase) -> list:
    """The compiled KB as the plain values ``marshal`` stores: the entries
    by column, and the posting lists' keys, in token order, as one run of
    machine words."""
    entries, postings = kb.entries, kb.index.postings
    typecode = next((keys.typecode for keys in postings.values()), "I")
    return [
        [entry.code for entry in entries],
        [entry.name for entry in entries],
        [entry.synonyms for entry in entries],
        list(postings),
        typecode,
        array("I", map(len, postings.values())).tobytes(),
        b"".join(keys.tobytes() for keys in postings.values()),
        kb.index.entry_of.tobytes(),
        kb.index.name_surface.tobytes(),
    ]


def _kb_from_fields(fields: list) -> KnowledgeBase:
    codes, names, synonyms, tokens, typecode, lengths, keys, entry_of, name_surface = fields
    fields.clear()  # so that each value is freed once it has been used
    keys = _words(typecode, keys)
    postings: dict[str, array] = {}
    start = 0
    for token, length in zip(tokens, _words("I", lengths)):
        postings[token] = keys[start : start + length]
        start += length
    if start != len(keys):
        raise ValueError("the posting lists' lengths do not add up")
    del keys
    index = SurfaceIndex(postings, _words("I", entry_of), _words("I", name_surface))
    return KnowledgeBase(tuple(map(KBEntry._make, zip(codes, names, synonyms))), index)


def _words(typecode: str, data: bytes) -> array:
    words = array(typecode)
    words.frombytes(data)
    return words


def lookup(term: str, kb: KnowledgeBase, k: int = 4) -> list[LinkCandidate]:
    """Rank KB entries sharing at least one token with the term; top k returned."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _rank(kb.entries, kb.index, query_tokens(term), k)


_NO_KEYS = array("I")


def _rank(
    entries: tuple[KBEntry, ...], index: SurfaceIndex, query: set[str], k: int
) -> list[LinkCandidate]:
    entry_of, name_surface = index.entry_of, index.name_surface
    stride = len(entry_of)
    lists = sorted((index.postings.get(token, _NO_KEYS) for token in query), key=len)
    q = len(lists)
    best: dict[int, float] = {}  # entry id -> best score of its surfaces met
    via_name: dict[int, bool] = {}
    top: list[int] = []  # k distinct entries; the lowest of their scores is t
    t = 0.0
    seen: set[int] = set()
    for i, keys in enumerate(lists):
        m = q - i  # at most m shared tokens for a surface first met here
        if m / q < t:
            break
        later = lists[i + 1 :]
        pos, end = _window(keys, stride, 0, len(keys), t, q, m)
        while pos < end:
            key = keys[pos]
            pos += 1
            if key in seen:
                continue
            seen.add(key)
            shared = 1
            for other in later:
                at = bisect_left(other, key)
                if at < len(other) and other[at] == key:
                    shared += 1
            size, surface = divmod(key, stride)
            # Same integers as |query & surface| / |query | surface|.
            score = shared / (q + size - shared)
            entry = entry_of[surface]
            is_name = surface == name_surface[entry]
            old = best.get(entry, 0.0)
            if score == old and is_name:
                via_name[entry] = True
            if score <= old:
                continue
            best[entry] = score
            via_name[entry] = is_name
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
    chosen = heapq.nsmallest(k, ranked, key=lambda e: (-best[e], entries[e].code))
    return [
        LinkCandidate(
            entry=entries[entry_id],
            score=best[entry_id],
            matched_via="name" if via_name[entry_id] else "synonym",
        )
        for entry_id in chosen
    ]


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
        raise InvalidCode(code)
    return code.split(".", 1)[0]


def _top_candidate(
    entries: tuple[KBEntry, ...], index: SurfaceIndex, text: str
) -> Optional[tuple[float, tuple[str, str, str]]]:
    """Score, and (code, name, category), of the top candidate for ``text``, if any."""
    candidates = _rank(entries, index, query_tokens(text), 1)
    if not candidates:
        return None
    top = candidates[0]
    code = top.entry.code
    return top.score, (code, top.entry.name, code_to_category(code))
