"""The compiled KB kept on disk, so that ``linker.load_kb`` need not parse
and index an unchanged KB file again.

An image holds a KnowledgeBase's entries and index arrays as ``marshal``
data, under ``$XDG_CACHE_HOME/ehr2icd/`` (default ``~/.cache/ehr2icd/``, a
directory made with mode 0700): one image per resolved KB path, overwritten
when the file's content changes. As with CPython's hash-based .pyc files
(PEP 552), an image is keyed by its source bytes: a BLAKE2b digest of the
KB file's bytes and of a code fingerprint, which covers the image format,
the interpreter, and the code of ``linker``, the tokenizer, ``textio`` and
this module. An image is used only if its key matches and its payload
matches the checksum stored beside it, checked before the payload is
unmarshalled. Otherwise ``load_kb`` parses and compiles the bytes it has
already read and writes the image anew, through a temporary file and
``os.replace``, outside any ``textio.atomic_group``.

The image only saves time, so every failure to locate, read, check or write
one is caught: the KB is then parsed and compiled, which gives the same
KnowledgeBase. ``linker.load_kb`` imports this module when it first runs,
so the commands that never link do not compile it.
"""

from __future__ import annotations

import marshal
import os
import sys
from array import array
from pathlib import Path
from typing import Optional

from . import linker, textio
from .linker import KBEntry, KnowledgeBase, SurfaceIndex
from .ner import tokenizer

try:  # the bare module imports in a fraction of hashlib's time
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

# The layout of an image; part of every image's key.
IMAGE_FORMAT = 1

# An image is the key (a 64-byte BLAKE2b digest), the payload's checksum
# (another), then the payload: the marshalled fields of ``_image_fields``.
_KEY_END, _HEAD_END = 64, 128


def image_slot(path: Path, data: bytes) -> Optional[tuple[Path, bytes]]:
    """Where the image of the KB file at ``path`` lives, and the key that an
    image of ``data`` holds; None if either cannot be worked out."""
    try:
        base = os.environ.get("XDG_CACHE_HOME", "")
        # The XDG spec ignores an unset, empty or relative value.
        root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
        name = blake2b(os.fsencode(path.resolve()), digest_size=16).hexdigest()
        key = blake2b(_code_fingerprint())
        key.update(data)
        return root / "ehr2icd" / f"{name}.kbimage", key.digest()
    except Exception:
        return None


def load_image(image: Path, key: bytes) -> Optional[KnowledgeBase]:
    """The KnowledgeBase in the image, if the image holds ``key`` and is whole."""
    try:
        return _from_image_fields(_read_payload(image, key))
    except Exception:
        return None


def save_image(image: Path, key: bytes, kb: KnowledgeBase) -> None:
    """Write ``kb`` as the image holding ``key``, replacing any image there."""
    try:
        image.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        payload = marshal.dumps(_image_fields(kb))
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
    for code_file in (linker.__file__, tokenizer.__file__, textio.__file__, __file__):
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


def _image_fields(kb: KnowledgeBase) -> list:
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


def _from_image_fields(fields: list) -> KnowledgeBase:
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
