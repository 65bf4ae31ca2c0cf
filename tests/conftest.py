import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from ehr2icd import linker, report, standard
from ehr2icd.frozen import Memo
from ehr2icd.linker import KBEntry, KnowledgeBase
from ehr2icd.ner import tagger
from ehr2icd.ner.spans import make_span
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
