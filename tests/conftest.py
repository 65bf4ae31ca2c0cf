import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from ehr2icd import linker, report, standard
from ehr2icd.frozen import Memo
from ehr2icd.linker import KBEntry, KnowledgeBase
from ehr2icd.ner import tagger
from ehr2icd.ner.spans import EntitySpan
from ehr2icd.ner.tokenizer import tokenize
from ehr2icd.samples import sample_path

TESTS_DIR = Path(__file__).parent
GOLDEN_DIR = TESTS_DIR / "golden"
DATA_DIR = TESTS_DIR / "data"


@pytest.fixture(autouse=True)
def private_cache_home(tmp_path_factory, monkeypatch) -> Path:
    """Each test gets its own empty XDG cache directory, so compiled KB images
    are never read from or written to the user's cache. CLI subprocesses
    inherit it through the environment."""
    cache_home = tmp_path_factory.mktemp("cache_home")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache_home))
    return cache_home


def count_parses(monkeypatch) -> list:
    """The paths ``linker.read_kb`` is called with from now on."""
    calls = []
    parse = linker.read_kb

    def counting(path, data=None):
        calls.append(path)
        return parse(path, data)

    monkeypatch.setattr(linker, "read_kb", counting)
    return calls


def bypass_memos(monkeypatch) -> list:
    """Make every ``Memo`` built from now on store nothing, so that each
    lookup computes its value again. Returns the memos built; each counts
    its lookups in ``asked``."""
    made = []

    class Bypassed(Memo):
        __slots__ = ("asked",)

        def __init__(self, function):
            super().__init__(function)
            self.asked = 0
            made.append(self)

        def __missing__(self, key):
            self.asked += 1
            return self.function(key)

    users = {
        name: module
        for name, module in sys.modules.items()
        if name.startswith("ehr2icd.") and name != "ehr2icd.frozen"
        and vars(module).get("Memo") is Memo
    }
    assert {tagger, linker, standard, report} <= set(users.values()), sorted(users)
    for module in users.values():
        monkeypatch.setattr(module, "Memo", Bypassed)
    return made


@contextmanager
def feeding_fifo(path: Path, data: bytes):
    """Write ``data`` into the named pipe at ``path`` from a thread, for the
    one reader that opens it inside the block."""

    def feed():
        with open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    yield
    writer.join(timeout=30)
    assert not writer.is_alive(), "nothing read the pipe"


def make_span(source: str, start: int, end: int) -> EntitySpan:
    """A disease span over ``source`` from ``start`` to ``end``, with the
    text it covers."""
    if not (0 <= start < end <= len(source)):
        raise ValueError(f"span ({start}, {end}) outside text of length {len(source)}")
    return EntitySpan(start=start, end=end, text=source[start:end])


class SpanError(ValueError):
    """A span that ``encode_biluo`` cannot tag: misaligned, or overlapping
    another."""


def encode_biluo(tokens, spans) -> tuple[str, ...]:
    """The BILUO tag of each token for the given spans, which must sit on
    token edges; each error's message is the detail of the ``EncodingError``
    that training raises for it. The oracle of the tagger's span alignment.

    ``tokens`` are ordered and disjoint, as ``tokenize`` gives them. A span
    is aligned iff a token starts where it starts, a token ends where it
    ends, and the first comes no later than the last: then the tokens
    between them are the ones it covers, and no other token touches it.
    """
    tags = ["O"] * len(tokens)
    first_at = {tok.start: k for k, tok in enumerate(tokens)}
    last_at = {tok.end: k for k, tok in enumerate(tokens)}
    for span in sorted(spans, key=lambda s: (s.start, s.end)):
        first = first_at.get(span.start)
        last = last_at.get(span.end)
        if first is None or last is None or first > last:
            raise SpanError(
                f"span ({span.start}, {span.end}) {span.text!r} does not align "
                f"with token boundaries"
            )
        if any(tag != "O" for tag in tags[first : last + 1]):
            raise SpanError(f"span ({span.start}, {span.end}) overlaps another span")
        if first == last:
            tags[first] = "U-Disease"
        else:
            tags[first] = "B-Disease"
            tags[first + 1 : last] = ["I-Disease"] * (last - first - 1)
            tags[last] = "L-Disease"
    return tuple(tags)


def decode_biluo(tokens, tags, text: str) -> list:
    """The spans of ``text`` that a (possibly invalid) tag sequence over
    ``tokens`` marks, repaired as ``ner.biluo`` says, but found without its
    ``entity_runs``: an entity tag joins the entity before it exactly when it
    is I or L and follows B or I. The oracle of ``entity_runs`` and of the
    tagger's decoding."""
    runs: list[list[int]] = []
    for k, tag in enumerate(tags):
        if tag in ("I-Disease", "L-Disease") and k and tags[k - 1] in ("B-Disease", "I-Disease"):
            runs[-1][1] = k
        elif tag in ("B-Disease", "I-Disease", "L-Disease", "U-Disease"):
            runs.append([k, k])
    return [make_span(text, tokens[first].start, tokens[last].end) for first, last in runs]


def oracle_dict_annotate(text: str, lexicon) -> list:
    """The spans the dictionary annotator marks in ``text``, found from the
    lexicon's terms alone: at each token, every length from the longest
    term's token count down to 1 is joined from the text's ``Token``
    objects, lowercased, and the first length whose join is a term is a
    span; the scan goes on after it, or one token on. The oracle of
    ``dictionary.dict_annotate``."""
    tokens = tokenize(text)
    lower = [t.text.lower() for t in tokens]
    longest = max((len(term.split(" ")) for term in lexicon.terms), default=0)
    spans = []
    i = 0
    while i < len(tokens):
        matched = 0
        for length in range(min(longest, len(tokens) - i), 0, -1):
            if " ".join(lower[i : i + length]) in lexicon.terms:
                spans.append(make_span(text, tokens[i].start, tokens[i + length - 1].end))
                matched = length
                break
        i += matched or 1
    return spans


def make_kb(*entries: KBEntry) -> KnowledgeBase:
    return KnowledgeBase(tuple(entries))


@pytest.fixture(scope="session")
def table9_kb() -> KnowledgeBase:
    # The four type-1-diabetes entries used by the ranked-lookup checks.
    return make_kb(
        KBEntry("E10.9", "Type 1 diabetes mellitus without complications"),
        KBEntry("E10.21", "Type 1 diabetes mellitus with diabetic nephropathy"),
        KBEntry("E10.36", "Type 1 diabetes mellitus with diabetic cataract"),
        KBEntry("E10.41", "Type 1 diabetes mellitus with diabetic mononeuropathy"),
    )


@pytest.fixture(scope="session")
def sample_kb_path() -> Path:
    return sample_path("sample_kb.tsv")


@pytest.fixture(scope="session")
def sample_corpus_path() -> Path:
    return sample_path("sample_corpus.jsonl")


@pytest.fixture(scope="session")
def sample_model_path() -> Path:
    return sample_path("sample_model.txt")


@pytest.fixture(scope="session")
def sample_ehr_path() -> Path:
    return sample_path("sample_ehr.csv")


@pytest.fixture(scope="session")
def sample_ehr_300_path() -> Path:
    return sample_path("sample_ehr_300.csv")
