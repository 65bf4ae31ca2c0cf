"""Compiled forms of a KB kept on disk, so that a command need not parse and
compile an unchanged KB file again.

A KB has two compiled forms, and each command compiles only the one it
reads: ``KB``, the KnowledgeBase that ``linker.load_kb`` gives to ``link``
and ``pipeline``, and ``LEXICON``, the dictionary baseline's lexicon that
``dictionary.load_lexicon`` gives to ``evaluate``. ``load`` is the one load
path for both; a form supplies only its compile step, its conversion to and
from the plain values that ``marshal`` stores, and the suffix of its image.

An image holds one form as ``marshal`` data, under ``$XDG_CACHE_HOME/ehr2icd/``
(default ``~/.cache/ehr2icd/``, a directory made with mode 0700): one image
per resolved KB path and form, overwritten when the file's content changes.
Only a KB path that names a regular file gets one; a pipe's or a device's
resolved name may differ on every run, so those are always parsed. As with
CPython's hash-based .pyc files (PEP 552), an image is keyed by its source
bytes: a BLAKE2b digest of the KB file's bytes, of the form, and of a code
fingerprint, which covers the image format, the interpreter, and the code of
``linker``, ``dictionary``, the tokenizer, ``textio`` and this module. An
image is used only if its key matches and its payload matches the checksum
stored beside it, checked before the payload is unmarshalled. Otherwise
``load`` parses and compiles the bytes it has already read and writes the
image anew, through a temporary file and ``os.replace``, outside any
``textio.atomic_group``.

The image only saves time, so every failure to locate, read, check or write
one is caught: the KB is then parsed and compiled, which gives the same
value. The loaders import this module when they first run, so the commands
that read no KB do not compile it.
"""

from __future__ import annotations

import marshal
import os
import sys
from array import array
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from . import dictionary, linker, textio
from .dictionary import Lexicon
from .linker import KBEntry, KnowledgeBase, SurfaceIndex
from .ner import tokenizer

try:  # the bare module imports in a fraction of hashlib's time
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

# The layout of an image; part of every image's key.
IMAGE_FORMAT = 2

# An image is the key (a 64-byte BLAKE2b digest), the payload's checksum
# (another), then the payload: the marshalled fields of its form.
_KEY_END, _HEAD_END = 64, 128


class Form(NamedTuple):
    """One compiled form of a KB, as an image holds it."""

    suffix: str  # of the image's file name; part of its key
    compile: Callable[[Path, bytes], Any]  # the KB file's path and bytes -> the form
    fields: Callable[[Any], list]  # the form -> the values marshal stores
    from_fields: Callable[[list], Any]  # and back


def load(path, form: Form):
    """The ``form`` of the KB file at ``path``: loaded from its image, or
    parsed and compiled, and then saved as the image."""
    path = Path(path)
    data = path.read_bytes()
    slot = image_slot(path, data, form)
    compiled = _load_image(*slot, form) if slot else None
    if compiled is None:
        compiled = form.compile(path, data)
        if slot:
            _save_image(*slot, form, compiled)
    return compiled


def image_slot(path: Path, data: bytes, form: Form) -> Optional[tuple[Path, bytes]]:
    """Where the image of ``form`` for the KB file at ``path`` lives, and the
    key that an image of ``data`` holds; None if the path is not a regular
    file, or if either cannot be worked out."""
    try:
        if not path.is_file():
            return None
        base = os.environ.get("XDG_CACHE_HOME", "")
        # The XDG spec ignores an unset, empty or relative value.
        root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
        name = blake2b(os.fsencode(path.resolve()), digest_size=16).hexdigest()
        key = blake2b(_code_fingerprint())
        key.update(form.suffix.encode())
        key.update(data)
        return root / "ehr2icd" / f"{name}{form.suffix}", key.digest()
    except Exception:
        return None


def _load_image(image: Path, key: bytes, form: Form):
    """The form in the image, if the image holds ``key`` and is whole; else None."""
    try:
        return form.from_fields(_read_payload(image, key))
    except Exception:
        return None


def _save_image(image: Path, key: bytes, form: Form, compiled) -> None:
    """Write ``compiled`` as the image holding ``key``, replacing any image there."""
    try:
        image.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        payload = marshal.dumps(form.fields(compiled))
        temporary = image.with_name(f".{image.name}.{os.urandom(6).hex()}.tmp")
        try:
            with temporary.open("xb") as fh:
                fh.write(key)
                fh.write(blake2b(payload).digest())
                fh.write(payload)
            os.replace(temporary, image)
        finally:
            temporary.unlink(missing_ok=True)
    except Exception:
        pass


def _code_fingerprint() -> bytes:
    """A digest of what decides an image's content besides the KB bytes."""
    fingerprint = blake2b()
    layout = (IMAGE_FORMAT, sys.version, marshal.version, sys.byteorder)
    fingerprint.update(repr((layout, array("I").itemsize, array("Q").itemsize)).encode())
    code_files = (linker.__file__, dictionary.__file__, tokenizer.__file__, textio.__file__)
    for code_file in (*code_files, __file__):
        source = Path(code_file).read_bytes()
        fingerprint.update(len(source).to_bytes(8, "little"))
        fingerprint.update(source)
    return fingerprint.digest()


def _read_payload(image: Path, key: bytes) -> list:
    """The unmarshalled payload of the image, checked before it is unmarshalled.

    The image's bytes are sliced through a memoryview, never copied, and
    freed on return.
    """
    if not image.is_file():  # reading a pipe or a device could block
        raise ValueError("not a regular file")
    blob = memoryview(image.read_bytes())
    payload = blob[_HEAD_END:]
    if blob[:_KEY_END] != key:
        raise ValueError("an image of other bytes or other code")
    if blob[_KEY_END:_HEAD_END] != blake2b(payload).digest():
        raise ValueError("a damaged image")
    return marshal.loads(payload)


def _compile_kb(path: Path, data: bytes) -> KnowledgeBase:
    return KnowledgeBase(linker.read_kb(path, data))


def _kb_fields(kb: KnowledgeBase) -> list:
    """The compiled KB as the plain values ``marshal`` stores: the entries
    by column, and the posting lists' keys, in token order, as one run of
    machine words."""
    entries, postings = kb.entries, kb.index.postings
    typecode = next((keys.typecode for keys in postings.values()), "I")
    return [
        [entry.code for entry in entries],
        [entry.name for entry in entries],
        [entry.synonyms for entry in entries],
        list(postings),
        typecode,
        array("I", map(len, postings.values())).tobytes(),
        b"".join(keys.tobytes() for keys in postings.values()),
        kb.index.entry_of.tobytes(),
        kb.index.name_surface.tobytes(),
        kb.index.stride,
    ]


def _kb_from_fields(fields: list) -> KnowledgeBase:
    codes, names, synonyms, tokens, typecode, lengths, keys, entry_of, name_surface, stride = (
        fields
    )
    fields.clear()  # so that each value is freed once it has been used
    keys = _words(typecode, keys)
    postings: dict[str, array] = {}
    start = 0
    for token, length in zip(tokens, _words("I", lengths)):
        postings[token] = keys[start : start + length]
        start += length
    if start != len(keys):
        raise ValueError("the posting lists' lengths do not add up")
    del keys
    index = SurfaceIndex(postings, _words("I", entry_of), _words("I", name_surface), stride)
    return KnowledgeBase(tuple(map(KBEntry._make, zip(codes, names, synonyms))), index)


def _words(typecode: str, data: bytes) -> array:
    words = array(typecode)
    words.frombytes(data)
    return words


def _compile_lexicon(path: Path, data: bytes) -> Lexicon:
    return dictionary.build_lexicon(linker.read_kb(path, data))


def _lexicon_fields(lexicon: Lexicon) -> list:
    # In the set's order, not sorted: the load makes a set of them again, and
    # sorting the benchmark KB's 12.7k terms would add ~4 ms to every miss.
    return [list(lexicon.terms), lexicon.max_term_tokens]


def _lexicon_from_fields(fields: list) -> Lexicon:
    terms, max_term_tokens = fields
    return Lexicon(frozenset(terms), max_term_tokens)


KB = Form(".kbimage", _compile_kb, _kb_fields, _kb_from_fields)
LEXICON = Form(".lexicon", _compile_lexicon, _lexicon_fields, _lexicon_from_fields)
