"""Corpus import, export, and splitting.

Two newline-delimited JSON formats are understood:

* external annotation exports: one object per line with ``content``, an
  ``annotation`` list whose items carry a ``label`` list and ``points`` with
  inclusive start/end character offsets, and ``metadata.status``;
* the internal format written by this package: one object per line with
  ``content`` and ``entities`` as [start, end, label] triples using
  exclusive ends. Annotations files add an integer ``row_index`` per line.

Offsets and row indexes must be JSON integers. JSON's ``true`` and ``false``
load as ``bool``, a subclass of ``int``, so they are checked by exact type.

External offsets are inclusive at the right edge and are shifted by one
during conversion. Only records whose status is "done" are kept, and only
annotations labelled "Disease Name" (or already "Disease") are converted.

An error names the file and its line (``MalformedFile``). ``numbered_corpus``
keeps each example's line from its one read, so ``train`` can name it too.
"""

from __future__ import annotations

import json
import random

from ..errors import MalformedFile
from ..textio import atomic_write, read_text
from .spans import DISEASE_LABEL, AnnotatedExample, EntitySpan

_ACCEPTED_LABELS = ("Disease Name", DISEASE_LABEL)


def _json_objects(path, text: str):
    """Yield (line number, object) for each non-blank line of ``text``."""
    # Split on "\n" only: JSON strings may hold U+2028 and other characters
    # that str.splitlines() would also break lines at.
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        # ValueError is also how json reports a number too long for int().
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise MalformedFile(path, lineno, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MalformedFile(path, lineno, "record is not a JSON object")
        yield lineno, obj


def _content(path, lineno: int, obj: dict) -> str:
    content = obj.get("content")
    if not isinstance(content, str):
        raise MalformedFile(path, lineno, "record has no content string")
    try:
        # A "\ud800" escape decodes to a lone surrogate, which no output
        # file could hold.
        content.encode("utf-8")
    except UnicodeEncodeError as exc:
        detail = f"content is not valid Unicode: {exc.reason}"
        raise MalformedFile(path, lineno, detail) from exc
    return content


def _objects(path, lineno: int, value, what: str) -> list[dict]:
    """A JSON list of objects; null or absent reads as empty."""
    value = value or []
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise MalformedFile(path, lineno, f"{what} must be a list of objects")
    return value


def _external_records(path, document: str):
    """Yield (line number, example) for each kept record of an external export."""
    for lineno, obj in _json_objects(path, document):
        metadata = obj.get("metadata")
        status = metadata.get("status") if isinstance(metadata, dict) else None
        if status is not None and status != "done":
            continue
        content = _content(path, lineno, obj)
        spans = []
        for annotation in _objects(path, lineno, obj.get("annotation"), "annotation"):
            labels = annotation.get("label") or []
            if not isinstance(labels, list):
                labels = [labels]
            if not any(label in _ACCEPTED_LABELS for label in labels):
                continue
            for point in _objects(path, lineno, annotation.get("points"), "points"):
                start = point.get("start")
                end_inclusive = point.get("end")
                if type(start) is not int or type(end_inclusive) is not int:
                    raise MalformedFile(path, lineno, "point offsets must be integers")
                end = end_inclusive + 1
                if not (0 <= start < end <= len(content)):
                    detail = (
                        f"point ({start}, {end_inclusive}) exceeds content of "
                        f"length {len(content)}"
                    )
                    raise MalformedFile(path, lineno, detail)
                spans.append(
                    tuple.__new__(EntitySpan, (start, end, content[start:end], DISEASE_LABEL))
                )
        yield lineno, _build_example(path, lineno, content, spans)


def _build_example(
    path, lineno: int, content: str, spans: list[EntitySpan]
) -> AnnotatedExample:
    if len(spans) > 1:
        spans.sort(key=lambda s: (s.start, s.end))
        for previous, current in zip(spans, spans[1:]):
            if previous.end > current.start:
                raise MalformedFile(
                    path,
                    lineno,
                    f"spans ({previous.start}, {previous.end}) and "
                    f"({current.start}, {current.end}) overlap",
                )
    return tuple.__new__(AnnotatedExample, (content, tuple(spans)))


def _entity(path, lineno: int, content: str, item) -> EntitySpan:
    """One internal-format entity: [start, end] or [start, end, label], end exclusive."""
    valid = isinstance(item, list) and len(item) in (2, 3)
    if valid:
        start, end = item[0], item[1]
        label = item[2] if len(item) == 3 else DISEASE_LABEL
        valid = type(start) is int and type(end) is int and isinstance(label, str)
    if not valid:
        raise MalformedFile(
            path, lineno, "each entity must be [start, end] or [start, end, label]"
        )
    if not (0 <= start < end <= len(content)):
        detail = f"entity ({start}, {end}) exceeds content length"
        raise MalformedFile(path, lineno, detail)
    # tuple.__new__ skips the named tuple's Python-level __new__.
    return tuple.__new__(EntitySpan, (start, end, content[start:end], label))


def _internal_records(path, text: str):
    """Yield (line number, object, example) for each record of the internal format."""
    for lineno, obj in _json_objects(path, text):
        content = _content(path, lineno, obj)
        entities = obj.get("entities") or []
        if not isinstance(entities, list):
            raise MalformedFile(path, lineno, "entities must be a list")
        spans = [_entity(path, lineno, content, item) for item in entities]
        yield lineno, obj, _build_example(path, lineno, content, spans)


def read_annotations(path) -> dict[int, AnnotatedExample]:
    """Read an annotations file: the internal format plus each record's ``row_index``."""
    by_row = {}
    for lineno, obj, example in _internal_records(path, read_text(path)):
        row_index = obj.get("row_index")
        if type(row_index) is not int:
            raise MalformedFile(path, lineno, "record has no integer row_index")
        if row_index in by_row:
            raise MalformedFile(path, lineno, f"row_index {row_index} repeats an earlier record")
        by_row[row_index] = example
    return by_row


def _write_records(path, records) -> None:
    """Write (leading fields, example) pairs, one internal-format object a line."""
    with atomic_write(path) as fh:
        for head, example in records:
            entities = [[s.start, s.end, s.label] for s in example.spans]
            record = {**head, "content": example.content, "entities": entities}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_internal(path, examples: list[AnnotatedExample]) -> None:
    _write_records(path, (({}, example) for example in examples))


def write_annotations(path, by_row: dict[int, AnnotatedExample]) -> None:
    """Write an annotations file, the inverse of ``read_annotations``."""
    _write_records(path, (({"row_index": row}, ex) for row, ex in by_row.items()))


def read_corpus(path) -> list[AnnotatedExample]:
    """Read a non-empty corpus file, auto-detecting external vs internal schema."""
    return [example for _, example in numbered_corpus(path)]


def numbered_corpus(path) -> list[tuple[int, AnnotatedExample]]:
    """(line number, example) for each example of a non-empty corpus file."""
    text = read_text(path)
    numbered = []
    for lineno, first in _json_objects(path, text):
        if "annotation" in first:
            numbered = list(_external_records(path, text))
        elif "entities" in first:
            numbered = [(n, example) for n, _, example in _internal_records(path, text)]
        else:
            raise MalformedFile(path, lineno, "records carry neither 'annotation' nor 'entities'")
        break
    if not numbered:
        raise MalformedFile(path, None, "contains no examples")
    return numbered


def split_corpus(corpus: list, train_fraction: float, seed: int) -> tuple[list, list]:
    """Deterministically shuffle and partition a corpus.

    The first floor(n * train_fraction) shuffled items become the training
    half; together the two halves are exactly the input. A corpus too small
    to leave the training half any item raises ValueError. The shuffle
    depends only on n and ``seed``: (line, example) pairs split as examples.
    """
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    items = list(corpus)
    random.Random(seed).shuffle(items)
    # The epsilon keeps exact products like 1000 * 0.7 from landing below the
    # integer they equal mathematically.
    cut = int(len(items) * train_fraction + 1e-9)
    if cut == 0:
        raise ValueError(
            f"training split is empty: train_fraction {train_fraction} of "
            f"{len(items)} example(s) leaves none to train on"
        )
    return items[:cut], items[cut:]
