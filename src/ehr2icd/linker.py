"""ICD-10 knowledge base, ranked lookup, and standard-record assembly.

``read_kb`` parses a KB file into entries, ``KnowledgeBase(entries)``
compiles them, and ``load_kb`` does both. Each entry's name and synonyms are
its surfaces; each is tokenized once by ``query_tokens`` (the shared
tokenizer's case-folded words) into a surface-level inverted index: token ->
ascending surface ids, plus each surface's entry and token count. A lookup
counts, from the postings of its query tokens, how many tokens each surface
shares with the query; the token-set Jaccard score is then
shared / (query size + surface size - shared). An entry scores by its best
surface (the name wins a tie with a synonym), and candidates are ranked by
score descending with ties broken by code. Since a ranking depends only on
the query's token set and k, each KnowledgeBase keeps the rankings of recent
queries in a bounded LRU cache; ``lookup`` returns a fresh list on every
call. Assignment takes the top-ranked candidate per recognized disease;
rows whose lookup comes up empty keep NA in all three ICD fields so they
stay available for manual coding.
"""

from __future__ import annotations

import csv
import heapq
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain
from pathlib import Path
from typing import Callable, Optional

from .errors import DuplicateCode, InvalidCode, MalformedFile
from .ner.spans import EntitySpan
from .ner.tokenizer import folded_words as query_tokens
from .normalization import DateTriple, NormalizedRecord, normalize_date
from .textio import atomic_write, open_input, read_text

# Distinct (query token set, k) rankings each KnowledgeBase keeps.
LOOKUP_CACHE_SIZE = 1024

# Uppercase letter, two digits, optional "." plus one or two alphanumerics.
CODE_RE = re.compile(r"^[A-Z][0-9]{2}(?:\.[A-Za-z0-9]{1,2})?$")

STANDARD_HEADER = (
    "Gender",
    "Age",
    "Diagnosis",
    "Diagnosis Date",
    "ICD_10 Code",
    "ICD_10 Name",
    "ICD_10 Category",
)


@dataclass(frozen=True)
class KBEntry:
    code: str
    name: str
    synonyms: tuple[str, ...] = ()


@dataclass(frozen=True)
class SurfaceIndex:
    """The KB compiled for lookup.

    Surfaces are numbered entry by entry, the name first, then the synonyms
    in order. Typed arrays keep the index small on a large KB.
    """

    postings: dict[str, array]  # token -> ascending surface ids
    entry_of: array  # surface id -> entry id
    size: array  # surface id -> number of distinct tokens
    name_surface: array  # entry id -> surface id of its name


@dataclass(frozen=True)
class KnowledgeBase:
    """Entries plus the surface index compiled from them; immutable."""

    entries: tuple[KBEntry, ...]
    index: SurfaceIndex = field(init=False, compare=False, repr=False)
    _ranked: Callable[[frozenset[str], int], tuple[LinkCandidate, ...]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "index", build_index(self.entries))
        rank = partial(_rank, self.entries, self.index)
        object.__setattr__(self, "_ranked", lru_cache(LOOKUP_CACHE_SIZE)(rank))

    def __reduce__(self):
        # Pickle the entries only; unpickling compiles the index again.
        return KnowledgeBase, (self.entries,)


@dataclass(frozen=True)
class LinkCandidate:
    entry: KBEntry
    score: float  # Jaccard, in [0, 1]
    matched_via: str  # "name" or "synonym"


@dataclass(frozen=True)
class StandardRecord:
    """One row of the 7-attribute standard output."""

    gender: str
    age_years: int
    diagnosis_date: DateTriple
    diagnosis_text: str
    icd10_code: Optional[str] = None
    icd10_name: Optional[str] = None
    icd10_category: Optional[str] = None


def build_index(entries: tuple[KBEntry, ...]) -> SurfaceIndex:
    postings: dict[str, array] = {}
    entry_of = array("I")
    size = array("I")
    name_surface = array("I")
    for entry_id, entry in enumerate(entries):
        name_surface.append(len(size))
        for surface in (entry.name, *entry.synonyms):
            tokens = query_tokens(surface)
            surface_id = len(size)
            for token in tokens:
                ids = postings.get(token)
                if ids is None:
                    postings[token] = ids = array("I")
                ids.append(surface_id)
            entry_of.append(entry_id)
            size.append(len(tokens))
    return SurfaceIndex(postings, entry_of, size, name_surface)


def read_kb(path) -> tuple[KBEntry, ...]:
    """Parse a tab-separated KB file: code, name, optional '|'-joined synonyms."""
    path = Path(path)
    entries: list[KBEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
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
    """Parse a KB file and compile it for lookup."""
    return KnowledgeBase(read_kb(path))


def lookup(term: str, kb: KnowledgeBase, k: int = 4) -> list[LinkCandidate]:
    """Rank KB entries sharing at least one token with the term; top k returned."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = query_tokens(term)
    if not query:
        return []
    return list(kb._ranked(frozenset(query), k))


def _rank(
    entries: tuple[KBEntry, ...], index: SurfaceIndex, query: frozenset[str], k: int
) -> tuple[LinkCandidate, ...]:
    shared = Counter(chain.from_iterable(index.postings.get(t, ()) for t in query))
    n_query, entry_of, size = len(query), index.entry_of, index.size
    # Surfaces are walked in id order and only a strictly greater score
    # replaces an entry's best, so the name (its first surface) wins a tie
    # with any of its synonyms. Every score here is > 0.
    best_score: dict[int, float] = {}
    best_surface: dict[int, int] = {}
    for surface_id, count in sorted(shared.items()):
        # Same integers as |query & surface| / |query | surface|.
        score = count / (n_query + size[surface_id] - count)
        entry_id = entry_of[surface_id]
        if score > best_score.get(entry_id, 0.0):
            best_score[entry_id] = score
            best_surface[entry_id] = surface_id
    # Only entries scoring at least the k-th best score can make the top k;
    # finding that score first keeps the keyed ranking to a few entries.
    ranked = best_score.keys()
    if len(best_score) > k:
        floor = heapq.nlargest(k, best_score.values())[-1]
        ranked = [e for e, score in best_score.items() if score >= floor]
    top = heapq.nsmallest(k, ranked, key=lambda e: (-best_score[e], entries[e].code))
    return tuple(
        LinkCandidate(
            entry=entries[entry_id],
            score=best_score[entry_id],
            matched_via="name"
            if best_surface[entry_id] == index.name_surface[entry_id]
            else "synonym",
        )
        for entry_id in top
    )


def code_to_category(code: str) -> str:
    """The category is everything before the first '.'; undotted codes are their own category."""
    if not CODE_RE.match(code):
        raise InvalidCode(code)
    return code.split(".", 1)[0]


def assign(
    record: NormalizedRecord,
    spans: list[EntitySpan],
    kb: KnowledgeBase,
    lookup_k: int = 4,
    score_threshold: float = 0.0,
) -> list[StandardRecord]:
    """Build one StandardRecord per recognized disease (or one NA row for none).

    Demographics are duplicated across the rows of a multi-disease text. The
    three ICD fields are populated together from the top-ranked candidate, or
    left NA together when lookup misses or scores below the threshold.
    """
    base = dict(
        gender=record.gender,
        age_years=record.age_years,
        diagnosis_date=record.diagnosis_date,
        diagnosis_text=record.diagnosis_text,
    )
    if not spans:
        return [StandardRecord(**base)]
    rows = []
    for span in spans:
        candidates = lookup(span.text, kb, k=lookup_k)
        top = candidates[0] if candidates else None
        if top is not None and top.score >= score_threshold:
            rows.append(
                StandardRecord(
                    **base,
                    icd10_code=top.entry.code,
                    icd10_name=top.entry.name,
                    icd10_category=code_to_category(top.entry.code),
                )
            )
        else:
            rows.append(StandardRecord(**base))
    return rows


def write_standard_csv(path, rows: list[StandardRecord]) -> None:
    """Write the 7-attribute output; NA fields become empty cells."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STANDARD_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.gender,
                    str(row.age_years),
                    row.diagnosis_text,
                    row.diagnosis_date.render(),
                    row.icd10_code or "",
                    row.icd10_name or "",
                    row.icd10_category or "",
                ]
            )


def read_standard_csv(path) -> list[StandardRecord]:
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != STANDARD_HEADER:
            raise MalformedFile(path, 1, "unexpected header for a standard file")
        rows = []
        for n, cells in enumerate(reader, start=2):
            if len(cells) != len(STANDARD_HEADER):
                raise MalformedFile(path, n, "wrong number of cells")
            try:
                age = int(cells[1])
            except ValueError:
                age = 0
            if age < 1:
                raise MalformedFile(path, n, f"age {cells[1]!r} is not a whole number >= 1")
            date = normalize_date(cells[3])
            if date is None:
                raise MalformedFile(path, n, f"unparseable date {cells[3]!r}")
            rows.append(
                StandardRecord(
                    gender=cells[0],
                    age_years=age,
                    diagnosis_date=date,
                    diagnosis_text=cells[2],
                    icd10_code=cells[4] or None,
                    icd10_name=cells[5] or None,
                    icd10_category=cells[6] or None,
                )
            )
    return rows
