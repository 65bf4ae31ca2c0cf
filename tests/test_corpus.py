import json

import pytest

from ehr2icd.errors import EmptyCorpus, MalformedFile, OffsetOutOfRange, OverlapError
from ehr2icd.ner.corpus import (
    read_annotations,
    read_corpus,
    split_corpus,
    write_annotations,
    write_internal,
)
from ehr2icd.ner.spans import AnnotatedExample, EntitySpan


def _external_record(content, points, label="Disease Name", status="done"):
    return json.dumps(
        {
            "content": content,
            "annotation": [{"label": [label], "points": points}],
            "extras": None,
            "metadata": {"status": status},
        }
    )


def _read_document(tmp_path, document):
    """The examples ``read_corpus`` reads from a file holding ``document``."""
    path = tmp_path / "corpus.jsonl"
    path.write_text(document, encoding="utf-8")
    return read_corpus(path)


def test_inclusive_end_becomes_exclusive(tmp_path):
    document = _external_record("ANXIETY", [{"start": 0, "end": 6, "text": "ANXIETY"}])
    [example] = _read_document(tmp_path, document)
    assert example.spans == (EntitySpan(0, 7, "ANXIETY", "Disease"),)


def test_record_with_no_annotations(tmp_path):
    document = json.dumps(
        {"content": "follow up", "annotation": None, "metadata": {"status": "done"}}
    )
    [example] = _read_document(tmp_path, document)
    assert example.spans == ()


def test_point_beyond_content_raises(tmp_path):
    document = _external_record("ANXIETY", [{"start": 0, "end": 99, "text": "x"}])
    with pytest.raises(OffsetOutOfRange) as err:
        _read_document(tmp_path, document)
    assert err.value.record == 1


def test_line_separator_inside_content_keeps_record_whole(tmp_path):
    # json.dumps(ensure_ascii=False) writes U+2028 raw; only "\n" ends a record.
    document = _external_record("Cystitis\u2028", [{"start": 0, "end": 7}])
    document = document.replace("\\u2028", "\u2028")
    [example] = _read_document(tmp_path, document)
    assert example.content == "Cystitis\u2028"


def test_non_done_records_skipped(tmp_path):
    pending = _external_record("ANXIETY", [{"start": 0, "end": 6}], status="pending")
    done = _external_record("Cystitis", [{"start": 0, "end": 7}])
    examples = _read_document(tmp_path, pending + "\n" + done)
    assert [e.content for e in examples] == ["Cystitis"]


def test_other_labels_ignored(tmp_path):
    document = _external_record("ANXIETY", [{"start": 0, "end": 6}], label="Symptom")
    [example] = _read_document(tmp_path, document)
    assert example.spans == ()


def test_overlapping_points_raise_with_record_number(tmp_path):
    document = "\n".join(
        [
            _external_record("Cystitis", [{"start": 0, "end": 7}]),
            _external_record(
                "Colon cancer",
                [{"start": 0, "end": 11}, {"start": 6, "end": 11}],
            ),
        ]
    )
    with pytest.raises(OverlapError) as err:
        _read_document(tmp_path, document)
    assert err.value.record == 2


def test_internal_roundtrip(tmp_path):
    examples = [
        AnnotatedExample("Colon cancer here", (EntitySpan(0, 12, "Colon cancer"),)),
        AnnotatedExample("nothing", ()),
    ]
    path = tmp_path / "corpus.jsonl"
    write_internal(path, examples)
    assert read_corpus(path) == examples


def test_annotations_roundtrip(tmp_path):
    by_row = {
        4: AnnotatedExample("Cystitis\u2028 ß", (EntitySpan(0, 8, "Cystitis"),)),
        2: AnnotatedExample("nothing", ()),
    }
    path = tmp_path / "spans.jsonl"
    write_annotations(path, by_row)
    first = json.loads(path.read_text(encoding="utf-8").split("\n")[0])
    assert list(first) == ["row_index", "content", "entities"]
    assert read_annotations(path) == by_row
    assert list(read_annotations(path)) == [4, 2]


def test_annotations_reject_a_repeated_row(tmp_path):
    path = tmp_path / "spans.jsonl"
    path.write_text(
        '{"row_index": 1, "content": "Cystitis", "entities": []}\n'
        '{"row_index": 2, "content": "Asthma", "entities": []}\n'
        '{"row_index": 1, "content": "Cystitis", "entities": [[0, 8, "Disease"]]}\n'
    )
    with pytest.raises(MalformedFile) as err:
        read_annotations(path)
    assert (err.value.path, err.value.row) == (path, 3)


def test_read_corpus_detects_both_schemas(tmp_path):
    external = tmp_path / "external.jsonl"
    external.write_text(
        _external_record("ANXIETY", [{"start": 0, "end": 6, "text": "ANXIETY"}]) + "\n"
    )
    internal = tmp_path / "internal.jsonl"
    write_internal(
        internal, [AnnotatedExample("ANXIETY", (EntitySpan(0, 7, "ANXIETY"),))]
    )
    assert read_corpus(external) == read_corpus(internal)


def test_read_corpus_rejects_unknown_schema(tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"text": "no known keys"}\n')
    with pytest.raises(MalformedFile):
        read_corpus(path)


def test_read_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptyCorpus):
        read_corpus(path)


def _corpus(n):
    return [AnnotatedExample(f"text {i}", ()) for i in range(n)]


def test_split_700_300():
    train, test = split_corpus(_corpus(1000), 0.7, seed=13)
    assert (len(train), len(test)) == (700, 300)


def test_split_floor_arithmetic():
    train, test = split_corpus(_corpus(3), 0.7, seed=13)
    assert (len(train), len(test)) == (2, 1)


def test_split_deterministic():
    corpus = _corpus(10)
    assert split_corpus(corpus, 0.7, seed=4) == split_corpus(corpus, 0.7, seed=4)


def test_split_is_exact_partition():
    corpus = _corpus(17)
    train, test = split_corpus(corpus, 0.33, seed=99)
    assert sorted(e.content for e in train + test) == sorted(e.content for e in corpus)
    assert not set(e.content for e in train) & set(e.content for e in test)


def test_split_empty_corpus():
    with pytest.raises(EmptyCorpus):
        split_corpus([], 0.7, seed=1)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
def test_split_fraction_bounds(fraction):
    with pytest.raises(ValueError):
        split_corpus(_corpus(5), fraction, seed=1)
