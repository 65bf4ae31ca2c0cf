import json

import pytest

from ehr2icd.errors import MalformedFile
from ehr2icd.ner.corpus import (
    numbered_corpus,
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
    with pytest.raises(MalformedFile) as err:
        _read_document(tmp_path, document)
    assert err.value.row == 1
    assert str(err.value).endswith(": row 1: point (0, 99) exceeds content of length 7")


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


@pytest.mark.parametrize("label, kept", [("Disease Name", True), ("Symptom", False)])
def test_a_bare_string_label_reads_as_a_list_of_one(tmp_path, label, kept):
    annotation = {"label": label, "points": [{"start": 0, "end": 6}]}
    document = json.dumps({"content": "ANXIETY", "annotation": [annotation]})
    [example] = _read_document(tmp_path, document)
    assert example.spans == ((EntitySpan(0, 7, "ANXIETY", "Disease"),) if kept else ())


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
    with pytest.raises(MalformedFile) as err:
        _read_document(tmp_path, document)
    assert err.value.row == 2
    assert str(err.value).endswith(": row 2: spans (0, 12) and (6, 12) overlap")


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


# JSON's true and false load as Python bools, which are ints too; none of
# them is an offset or a row index. Each case's line follows a valid line of
# its schema.
_INTERNAL_LINE = '{"content": "Cystitis", "entities": [[0, 8]]}'
_EXTERNAL_LINE = _external_record("Cystitis", [{"start": 0, "end": 7}])
_BOOLEAN_OFFSETS = {
    "entity-start-and-end": (
        _INTERNAL_LINE, '{"content": "Asthma attack", "entities": [[false, true, "Disease"]]}'
    ),
    "entity-end": (_INTERNAL_LINE, '{"content": "Asthma attack", "entities": [[0, true]]}'),
    "entity-start": (_INTERNAL_LINE, '{"content": "Asthma attack", "entities": [[true, 6]]}'),
    "point-start": (
        _EXTERNAL_LINE, _external_record("Asthma attack", [{"start": False, "end": 5}])
    ),
    "point-end": (_EXTERNAL_LINE, _external_record("Asthma attack", [{"start": 0, "end": True}])),
}


@pytest.mark.parametrize("case", sorted(_BOOLEAN_OFFSETS))
def test_boolean_offsets_are_rejected_naming_their_line(tmp_path, case):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(_BOOLEAN_OFFSETS[case]) + "\n")
    with pytest.raises(MalformedFile) as err:
        read_corpus(path)
    assert (err.value.path, err.value.row) == (path, 2)


@pytest.mark.parametrize("row_index", ["true", "false"])
def test_a_boolean_row_index_is_rejected_naming_its_line(tmp_path, row_index):
    path = tmp_path / "spans.jsonl"
    path.write_text(
        '{"row_index": 1, "content": "Cystitis", "entities": []}\n'
        f'{{"row_index": {row_index}, "content": "Asthma", "entities": []}}\n'
    )
    with pytest.raises(MalformedFile) as err:
        read_annotations(path)
    assert (err.value.path, err.value.row) == (path, 2)
    assert "integer row_index" in str(err.value)


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
    with pytest.raises(MalformedFile) as err:
        read_corpus(path)
    assert (err.value.path, err.value.row) == (path, None)
    assert str(err.value) == f"{path}: contains no examples"


def test_an_export_with_no_record_done_is_rejected_naming_the_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text(_external_record("Cystitis", [{"start": 0, "end": 7}], status="todo"))
    with pytest.raises(MalformedFile) as err:
        read_corpus(path)
    assert str(err.value) == f"{path}: contains no examples"


def test_numbered_corpus_gives_each_example_its_line(tmp_path):
    # A blank line and a record not "done" are skipped but still counted.
    external = tmp_path / "external.jsonl"
    external.write_text(
        "\n".join(
            [
                _external_record("Cystitis", [{"start": 0, "end": 7}]),
                "",
                _external_record("Asthma", [{"start": 0, "end": 5}], status="todo"),
                _external_record("Asthma", [{"start": 0, "end": 5}]),
            ]
        )
    )
    assert [line for line, _ in numbered_corpus(external)] == [1, 4]
    internal = tmp_path / "internal.jsonl"
    internal.write_text('\n{"content": "Cystitis", "entities": []}\n\n{"content": "Asthma"}\n')
    assert [line for line, _ in numbered_corpus(internal)] == [2, 4]
    for path in (external, internal):
        assert [example for _, example in numbered_corpus(path)] == read_corpus(path)


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
    with pytest.raises(ValueError, match="training split is empty: .* of 0 example"):
        split_corpus([], 0.7, seed=1)


def test_a_split_that_leaves_nothing_to_train_on_raises():
    with pytest.raises(ValueError, match="training split is empty: .* of 1 example"):
        split_corpus(_corpus(1), 0.7, seed=1)


def test_split_depends_only_on_length():
    # train splits (line number, example) pairs; they must split as the
    # examples alone do, so every model stays the same.
    corpus = _corpus(23)
    numbered = list(enumerate(corpus, start=1))
    train, test = split_corpus(numbered, 0.7, seed=13)
    assert ([e for _, e in train], [e for _, e in test]) == split_corpus(corpus, 0.7, seed=13)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
def test_split_fraction_bounds(fraction):
    with pytest.raises(ValueError):
        split_corpus(_corpus(5), fraction, seed=1)
