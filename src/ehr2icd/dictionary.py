"""Greedy longest-match lexicon annotator.

This is the dictionary-system comparator: it only recognizes surface forms
present in its lexicon, so misspellings and unseen names yield nothing and
compound names covered only piecewise come out as separate spans. Matching
is case-insensitive but punctuation-sensitive, over the shared tokenizer, so
its offsets are directly comparable with the learned tagger's. The lexicon
is built from parsed KB entries (``linker.read_kb``), not the linker's index.
``load_lexicon`` keeps a KB's lexicon as an image on disk (``kbimage``), as
its terms and the longest term's token count; on an image hit it loads no
``linker``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple

from .ner.spans import EntitySpan, make_span
from .ner.tokenizer import folded_tokens, tokenize
from .textio import read_text


class Lexicon(NamedTuple):
    """Normalized terms and the token count of the longest."""

    terms: frozenset[str]
    max_term_tokens: int


def build_lexicon(entries, extra_terms: Iterable[str] = ()) -> Lexicon:
    """Collect every KB entry's name and synonyms plus any extra terms."""
    terms: set[str] = set()
    longest = 0
    surfaces = chain.from_iterable((entry.name, *entry.synonyms) for entry in entries)
    for surface in chain(surfaces, extra_terms):
        tokens = folded_tokens(surface)
        if tokens:
            terms.add(" ".join(tokens))
            longest = max(longest, len(tokens))
    return Lexicon(terms=frozenset(terms), max_term_tokens=longest)


def load_lexicon(path, extra_terms: Iterable[str] = ()) -> Lexicon:
    """``build_lexicon(read_kb(path), extra_terms)``, with the KB's part loaded
    from its image when the KB file is unchanged.

    The extra terms are folded here and joined to the KB's terms, so an image
    depends on the KB file alone.
    """
    # Imported here: only the commands that read a KB compile that module.
    from . import kbimage

    form = kbimage.Form(".lexicon", _compile_lexicon, _lexicon_fields, _lexicon_from_fields)
    lexicon = kbimage.load(path, form)
    extra = build_lexicon((), extra_terms)
    if not extra.terms:
        return lexicon
    return Lexicon(
        terms=lexicon.terms | extra.terms,
        max_term_tokens=max(lexicon.max_term_tokens, extra.max_term_tokens),
    )


def _compile_lexicon(path, data: bytes) -> Lexicon:
    # Imported here: an image hit parses no KB, so it loads no linker.
    from . import linker

    return build_lexicon(linker.read_kb(path, data))


def _lexicon_fields(lexicon: Lexicon) -> list:
    # In the set's order, not sorted: the load makes a set of them again, and
    # sorting the benchmark KB's 12.7k terms would add ~4 ms to every miss.
    return [list(lexicon.terms), lexicon.max_term_tokens]


def _lexicon_from_fields(fields: list) -> Lexicon:
    terms, max_term_tokens = fields
    return Lexicon(frozenset(terms), max_term_tokens)


def read_terms(path) -> list[str]:
    """A term file (extra lexicon terms or a stoplist): one term per line,
    blank lines and '#' comments ignored."""
    terms = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        terms.append(line)
    return terms


def dict_annotate(text: str, lexicon: Lexicon) -> list[EntitySpan]:
    """Scan left to right, preferring the longest lexicon match at each position."""
    tokens = tokenize(text)
    lower = [t.text.lower() for t in tokens]
    spans: list[EntitySpan] = []
    i = 0
    while i < len(tokens):
        matched = 0
        longest_try = min(lexicon.max_term_tokens, len(tokens) - i)
        for length in range(longest_try, 0, -1):
            key = " ".join(lower[i : i + length])
            if key in lexicon.terms:
                spans.append(
                    make_span(text, tokens[i].start, tokens[i + length - 1].end)
                )
                matched = length
                break
        i += matched or 1
    return spans
