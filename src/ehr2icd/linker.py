"""ICD-10 knowledge base, ranked lookup, and standard-record assembly.

Lookup scores candidates by token-set Jaccard similarity between the query
and each entry's best name or synonym (case-folded, punctuation stripped),
sorted by score descending with ties broken by code. Assignment takes the
top-ranked candidate per recognized disease; rows whose lookup comes up
empty keep NA in all three ICD fields so they stay available for manual
coding.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import DuplicateCode, InvalidCode, MalformedFile
from .ner.spans import EntitySpan
from .ner.tokenizer import tokenize
from .normalization import DateTriple, NormalizedRecord, normalize_date
from .textio import open_input, read_text

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
class KnowledgeBase:
    """Entries plus a token-level inverted index; immutable after load."""

    entries: tuple[KBEntry, ...]
    index: dict[str, tuple[int, ...]]


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


def query_tokens(text: str) -> set[str]:
    """Case-folded alphanumeric tokens; punctuation tokens are dropped."""
    return {t.text.lower() for t in tokenize(text) if t.text[0].isalnum()}


def build_index(entries: tuple[KBEntry, ...]) -> dict[str, tuple[int, ...]]:
    index: dict[str, list[int]] = {}
    for i, entry in enumerate(entries):
        tokens: set[str] = set()
        for surface in (entry.name, *entry.synonyms):
            tokens |= query_tokens(surface)
        for token in tokens:
            index.setdefault(token, []).append(i)
    return {token: tuple(ids) for token, ids in index.items()}


def load_kb(path) -> KnowledgeBase:
    """Load a tab-separated KB file: code, name, optional '|'-joined synonyms."""
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
    frozen = tuple(entries)
    return KnowledgeBase(entries=frozen, index=build_index(frozen))


def lookup(term: str, kb: KnowledgeBase, k: int = 4) -> list[LinkCandidate]:
    """Rank KB entries sharing at least one token with the term; top k returned."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = query_tokens(term)
    if not query:
        return []
    candidate_ids: set[int] = set()
    for token in query:
        candidate_ids.update(kb.index.get(token, ()))
    candidates = []
    for entry_id in sorted(candidate_ids):
        entry = kb.entries[entry_id]
        best_score = 0.0
        best_via = "name"
        for via, surface in (("name", entry.name), *(("synonym", s) for s in entry.synonyms)):
            surface_tokens = query_tokens(surface)
            shared = len(query & surface_tokens)
            if shared == 0:
                continue
            score = shared / len(query | surface_tokens)
            if score > best_score:
                best_score, best_via = score, via
        if best_score > 0.0:
            candidates.append(LinkCandidate(entry=entry, score=best_score, matched_via=best_via))
    candidates.sort(key=lambda c: (-c.score, c.entry.code))
    return candidates[:k]


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
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
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
