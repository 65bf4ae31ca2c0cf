"""Greedy longest-match lexicon annotator.

This is the dictionary-system comparator: it only recognizes surface forms
present in its lexicon, so misspellings and unseen names yield nothing and
compound names covered only piecewise come out as separate spans. Matching
is case-insensitive but punctuation-sensitive, over the shared tokenizer, so
its offsets are directly comparable with the learned tagger's. The lexicon
is built from parsed KB entries (``linker.read_kb``), not the linker's index.
Besides its terms, a lexicon holds a first-word index: each term's first
folded token maps to the token counts of the terms it starts, longest
first. At each token ``dict_annotate`` makes one dict lookup and joins
tokens only for those lengths, so a token that starts no term costs no join.
``load_lexicon`` keeps a KB's lexicon as an image on disk (``kbimage``), its
terms and its index, so an image hit rebuilds neither; on a hit it loads no
``linker``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple

from .ner.spans import EntitySpan, run_spans
from .ner.tokenizer import _TOKEN_RE, folded_tokens
from .textio import read_text


class Lexicon(NamedTuple):
    """Normalized terms (folded tokens joined by single spaces), and the
    first-word index: each term's first token -> the token counts of the
    terms it starts, longest first. The index must not be changed."""

    terms: frozenset[str]
    first_words: dict[str, tuple[int, ...]]


def build_lexicon(entries, extra_terms: Iterable[str] = ()) -> Lexicon:
    """Collect every KB entry's name and synonyms plus any extra terms."""
    terms: set[str] = set()
    lengths: dict[str, set[int]] = {}
    surfaces = chain.from_iterable((entry.name, *entry.synonyms) for entry in entries)
    for surface in chain(surfaces, extra_terms):
        tokens = folded_tokens(surface)
        if tokens:
            terms.add(" ".join(tokens))
            lengths.setdefault(tokens[0], set()).add(len(tokens))
    return Lexicon(frozenset(terms), _first_words(lengths))


def _first_words(lengths: dict[str, set[int]]) -> dict[str, tuple[int, ...]]:
    """Each first word's lengths, longest first; equal tuples are one object,
    so an image stores each once."""
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    first_words = {}
    for word, counts in lengths.items():
        key = tuple(sorted(counts, reverse=True))
        first_words[word] = shared.setdefault(key, key)
    return first_words


def load_lexicon(path, extra_terms: Iterable[str] = ()) -> Lexicon:
    """``build_lexicon(read_kb(path), extra_terms)``, with the KB's part loaded
    from its image when the KB file is unchanged.

    The extra terms are folded here and joined to the KB's terms and index,
    so an image depends on the KB file alone.
    """
    # Imported here: only the commands that read a KB compile that module.
    from . import kbimage

    lexicon = kbimage.load(path, ".lexicon", _lexicon_fields, _lexicon_from_fields)
    extra = build_lexicon((), extra_terms)
    if not extra.terms:
        return lexicon
    first_words = dict(lexicon.first_words)
    for word, counts in extra.first_words.items():
        known = first_words.get(word, ())
        first_words[word] = tuple(sorted({*known, *counts}, reverse=True))
    return Lexicon(lexicon.terms | extra.terms, first_words)


def _lexicon_fields(path, data: bytes) -> list:
    # Imported here: an image hit parses no KB, so it loads no linker.
    from . import linker

    lexicon = build_lexicon(linker.read_kb(path, data))
    # The terms in the set's order, not sorted: sorting the benchmark KB's
    # 12.7k terms would add ~4 ms to every miss. They are stored as a list,
    # not as the frozenset, so that the set is built after the image's bytes
    # are freed (~0.5 MB less at the peak). The index is stored as it is:
    # building it again would cost every hit 5-9 ms.
    return [list(lexicon.terms), lexicon.first_words]


def _lexicon_from_fields(fields: list) -> Lexicon:
    terms, first_words = fields
    return Lexicon(frozenset(terms), first_words)


def read_terms(path) -> list[str]:
    """A term file (extra lexicon terms or a stoplist): one term per line,
    blank lines and '#' comments ignored."""
    terms = []
    for line in read_text(path).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        terms.append(line)
    return terms


def dict_annotate(text: str, lexicon: Lexicon) -> list[EntitySpan]:
    """Scan left to right, preferring the longest lexicon match at each position."""
    texts = _TOKEN_RE.findall(text)
    lower = [token.lower() for token in texts]
    first_words, terms = lexicon.first_words, lexicon.terms
    n = len(lower)
    runs = []
    end = 0  # the first token not yet inside a match
    for i, word in enumerate(lower):
        if i < end:
            continue
        lengths = first_words.get(word)
        if lengths is None:
            continue
        for length in lengths:
            # A length of 1 is the word itself, a term.
            if length == 1 or (
                i + length <= n and " ".join(lower[i : i + length]) in terms
            ):
                end = i + length
                runs.append((i, end - 1))
                break
    return run_spans(text, texts, runs) if runs else []
