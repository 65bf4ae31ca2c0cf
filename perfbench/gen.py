"""Deterministic workload generator for the ehr2icd benchmark.

From a seed it writes the three kinds of input the CLI reads:

* a raw EHR export (``raw.csv``) whose diagnosis texts are drawn from a pool
  of ``round(rows * distinct_fraction)`` distinct texts, with mixed
  demographic formats, a few invalid demographics and a share of blank
  cells;
* a knowledge base (``kb.tsv``) holding the bundled entries plus generated
  titles over a long-tailed vocabulary, up to ``kb_size`` entries;
* annotated corpora in the internal JSONL format.

Disease names, templates and demographic pools come from
``scripts/make_fixtures.py``, so the generated texts look like the bundled
fixtures. The same arguments always give byte-identical files. The caller
puts ``src/`` and ``scripts/`` on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import csv
import itertools
import random
import string
from pathlib import Path

import make_fixtures as fx
from ehr2icd.linker import query_tokens
from ehr2icd.ner.corpus import write_internal
from ehr2icd.samples import sample_path

# Demographic cells that normalize to NA, one list per drop reason.
BAD_GENDER = ["U", "unknown", "X"]
BAD_AGE = ["6 months", "0", "3 m", "adult"]
BAD_DATE = ["3 days ago", "last week", "yesterday"]
BLANKS = ["", " ", "  "]
# Share of rows whose gender, age or date cell (each column on its own rows)
# is invalid.
INVALID_RATE = 0.02

# Words real ICD-10 titles repeat across thousands of entries; they head the
# long-tailed title vocabulary so that their posting lists are long.
COMMON_TITLE_WORDS = [
    "of", "unspecified", "with", "without", "and", "other", "disease",
    "chronic", "acute", "due", "to", "in", "left", "right", "complications",
    "type", "disorder", "syndrome", "neoplasm", "malignant", "injury",
]


def _rng(seed: int, stream: int) -> random.Random:
    return random.Random(seed * 7919 + stream)


def _misspell(rng: random.Random, word: str) -> str:
    """One seeded edit inside a word: swap, double or drop a letter."""
    i = rng.randrange(1, len(word) - 1)
    edit = rng.randrange(3)
    if edit == 0:
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    if edit == 1:
        return word[:i] + word[i] + word[i:]
    return word[:i] + word[i + 1 :]


def vary_surface(rng: random.Random, surface: str, variation: float) -> str:
    """With probability ``variation``, change the case and spell one word wrongly."""
    if rng.random() >= variation:
        return surface
    case = rng.randrange(3)
    if case == 0:
        surface = surface.lower()
    elif case == 1:
        surface = surface.upper()
    else:
        surface = surface.title()
    words = surface.split(" ")
    long_words = [i for i, w in enumerate(words) if len(w) >= 4]
    if long_words:
        i = rng.choice(long_words)
        words[i] = _misspell(rng, words[i])
    return " ".join(words)


def make_example(rng: random.Random, variation: float, diseases: list[str]):
    """One annotated diagnosis text naming one or two diseases, from a bundled template."""
    parts = rng.choice(fx.PAIR_TEMPLATES if len(diseases) == 2 else fx.SINGLE_TEMPLATES)
    return fx.build_example(parts, [vary_surface(rng, d, variation) for d in diseases])


def example_diseases(i: int) -> list[str]:
    """The diseases the ``i``-th example names.

    The leading disease cycles through the disease list, and every fifth
    example names a second disease, which cycles too. So every disease is
    equally common whatever the seed. A few names (such as "Shortness of
    breath", whose "of" is in thousands of KB titles) cost the linker far
    more than the rest, so drawing them at random would let the seed set the
    cost of a file.
    """
    names = fx.ALL_DISEASES
    diseases = [names[i % len(names)]]
    if i % 5 == 4:
        second = names[(i // 5) % len(names)]
        if second == diseases[0]:
            second = names[(i // 5 + 1) % len(names)]
        diseases.append(second)
    return diseases


def distinct_examples(rng: random.Random, n: int, variation: float) -> list:
    """``n`` examples with pairwise distinct texts, in generation order."""
    seen: set[str] = set()
    examples = []
    misses = 0
    while len(examples) < n:
        example = make_example(rng, variation, example_diseases(len(examples)))
        if example.content in seen:
            misses += 1
            if misses > 10 * (n + 100):
                raise ValueError(f"cannot draw {n} distinct texts at variation {variation}")
            continue
        seen.add(example.content)
        examples.append(example)
    return examples


def diagnosis_texts(
    rng: random.Random, rows: int, distinct_fraction: float, variation: float
) -> list[str]:
    """``rows`` texts with exactly ``max(1, round(rows * distinct_fraction))`` distinct.

    Pool texts repeat equally often, in pool order (so the disease a text
    names cycles with its position); the caller shuffles. A real export
    repeats its common diagnoses far more than its rare ones, but a skewed
    draw would let a few texts chosen by the seed set the cost of the whole
    file.
    """
    n_distinct = max(1, min(rows, round(rows * distinct_fraction)))
    pool = [e.content for e in distinct_examples(rng, n_distinct, variation)]
    return [pool[i % n_distinct] for i in range(rows)]


def _every(rate: float, phase: float, i: int) -> bool:
    """Whether position ``i`` is among an evenly spaced ``rate`` share of positions.

    ``phase`` (0 to 1) shifts the marked positions by that part of a period.
    """
    return int(i * rate + phase) != int((i + 1) * rate + phase)


def _age(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(fx.AGE_POOL)
    years = rng.randint(1, 95)
    return rng.choice(["{}", "{} yrs", "{} y", "{} years", "{} 1/2"]).format(years)


def _date(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return rng.choice(fx.DATE_POOL)
    sep = rng.choice("/-")
    return f"{rng.randint(1, 28)}{sep}{rng.randint(1, 12)}{sep}{rng.randint(1435, 1445)}"


def raw_rows(
    rng: random.Random,
    rows: int,
    distinct_fraction: float,
    blank_rate: float,
    variation: float,
) -> list[list[str]]:
    """Rows of the four standard cells, in shuffled order; some blank, some invalid.

    Invalid and blank cells go to evenly spaced positions of the unshuffled
    rows, and the blanked column cycles. So they hit every disease alike
    whatever the seed. Drawn at random, they would let the seed decide how
    many of the few texts that cost the linker most are dropped, and so move
    the cost of a file by several percent.
    """
    texts = diagnosis_texts(rng, rows, distinct_fraction, variation)
    out = []
    blanks = 0
    for i, text in enumerate(texts):
        row = [
            rng.choice(fx.GENDER_POOL),
            _age(rng),
            text,
            _date(rng),
        ]
        for phase, column, bad in ((0.0, 0, BAD_GENDER), (1 / 3, 1, BAD_AGE), (2 / 3, 3, BAD_DATE)):
            if _every(INVALID_RATE, phase, i):
                row[column] = rng.choice(bad)
        if _every(blank_rate, 0.1, i):
            row[blanks % 4] = rng.choice(BLANKS)
            blanks += 1
        out.append(row)
    rng.shuffle(out)
    return out


def _pseudo_word(rng: random.Random) -> str:
    syllables = rng.randint(2, 4)
    return "".join(
        rng.choice("bcdfghklmnprstvz") + rng.choice("aeiou") + rng.choice(["", "n", "r", "s"])
        for _ in range(syllables)
    )


def title_vocabulary(rng: random.Random, size: int) -> list[str]:
    """Common title words, then disease and KB words, then pseudo-words."""
    vocab = list(COMMON_TITLE_WORDS)
    seen = set(vocab)
    bundled = [line.split("\t")[1] for line in _bundled_kb_lines()]
    for surface in sorted(set(fx.ALL_DISEASES + bundled)):
        for token in sorted(query_tokens(surface)):
            if token not in seen and not token.isdigit():
                seen.add(token)
                vocab.append(token)
    while len(vocab) < size:
        word = _pseudo_word(rng)
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def _bundled_kb_lines() -> list[str]:
    text = sample_path("sample_kb.tsv").read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]


def _code(rng: random.Random) -> str:
    alnum = string.ascii_uppercase + string.digits
    return (
        rng.choice(string.ascii_uppercase)
        + f"{rng.randrange(100):02d}"
        + "."
        + rng.choice(alnum)
        + rng.choice(alnum)
    )


def kb_lines(rng: random.Random, kb_size: int) -> list[str]:
    """The bundled KB lines plus generated entries, ``kb_size`` lines in all."""
    lines = _bundled_kb_lines()
    codes = {line.split("\t")[0] for line in lines}
    vocab = title_vocabulary(rng, max(200, kb_size // 4))
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** 1.1 for rank in range(len(vocab))))

    def title(low: int, high: int) -> str:
        words = rng.choices(vocab, cum_weights=weights, k=rng.randint(low, high))
        return " ".join(words).capitalize()

    while len(lines) < kb_size:
        code = _code(rng)
        if code in codes:
            continue
        codes.add(code)
        name = title(2, 7)
        if rng.random() < 0.4:
            name += ", unspecified"
        if rng.random() < 0.3:
            synonyms = "|".join(title(1, 3) for _ in range(rng.randint(1, 2)))
            lines.append(f"{code}\t{name}\t{synonyms}")
        else:
            lines.append(f"{code}\t{name}")
    return lines


def write_raw(path: Path, rows: list[list[str]]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["Gender", "Age", "Diagnosis", "Diagnosis Date"])
        writer.writerows(rows)


def generate(
    out_dir,
    seed: int,
    rows: int,
    distinct_fraction: float,
    blank_rate: float,
    kb_size: int,
    variation: float = 0.0,
    corpus_size: int = 0,
    heldout_size: int = 300,
) -> dict[str, Path]:
    """Write a workload's inputs under ``out_dir`` and return their paths.

    ``kb_size`` at or below the bundled KB size, or ``corpus_size`` 0, use the
    bundled KB or the bundled training corpus instead of generated ones.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"raw": out_dir / "raw.csv", "heldout": out_dir / "heldout.jsonl"}
    write_raw(
        paths["raw"],
        raw_rows(_rng(seed, 1), rows, distinct_fraction, blank_rate, variation),
    )
    if kb_size > len(_bundled_kb_lines()):
        paths["kb"] = out_dir / "kb.tsv"
        paths["kb"].write_text("\n".join(kb_lines(_rng(seed, 2), kb_size)) + "\n", encoding="utf-8")
    else:
        paths["kb"] = sample_path("sample_kb.tsv")
    if corpus_size:
        paths["corpus"] = out_dir / "corpus.jsonl"
        write_internal(paths["corpus"], distinct_examples(_rng(seed, 3), corpus_size, variation))
    else:
        paths["corpus"] = sample_path("sample_corpus.jsonl")
    write_internal(paths["heldout"], distinct_examples(_rng(seed, 4), heldout_size, variation))
    return paths
