import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from ehr2icd import linker
from ehr2icd.linker import KBEntry, KnowledgeBase
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
