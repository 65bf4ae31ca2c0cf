"""Compiled forms of a KB kept on disk, so that a command need not parse and
compile an unchanged KB file again.

A KB has two compiled forms: the KnowledgeBase that ``linker.load_kb`` gives
to ``link`` and ``pipeline``, and the lexicon that ``dictionary.load_lexicon``
gives to ``evaluate``. ``load`` is the one load path for both. Each loader
passes it an image suffix and two functions defined beside the type they
make: ``compile`` parses the KB file's bytes into the list of plain values
that an image stores, and ``build`` makes the form from that list. A hit and
a miss both return ``build`` of the list, so a miss returns what the hits
after it return. This module imports no module of the package: loading a
KnowledgeBase loads no dictionary, and loading a lexicon from its image
loads no linker. A KnowledgeBase's image is its lookup-ready form as it is:
the entries as columns (codes, names, synonym cells), and every posting
list in one flat array of keys with one offset per token, so a hit builds
no tuple per entry and no array per token.

An image holds one form as ``marshal`` data, under ``$XDG_CACHE_HOME/ehr2icd/``
(default ``~/.cache/ehr2icd/``, a directory made with mode 0700): one image
per resolved KB path and form, overwritten when the file's content changes.
After each save only the ``IMAGES_KEPT`` most recently written images of
that form are kept. Only a KB path that names a regular file gets one; a
pipe's or a device's resolved name may differ on every run, so those are
always parsed. As with CPython's hash-based .pyc files (PEP 552), an image
is keyed by its source bytes: a BLAKE2b digest of the KB file's bytes, of
the form, and of a code fingerprint, which covers the interpreter and the
code of ``linker``, ``dictionary``, the tokenizer, ``textio`` and this
module, read from the files beside this one. Those files decide an image's
layout, so an edit to any of them keys new images. An image is used only
if its key matches, its payload matches the checksum stored beside it
(checked before the payload is unmarshalled), and ``build`` accepts its
payload. Otherwise ``load`` compiles the bytes it has already read and
writes the image anew, through a temporary file and ``os.replace``, outside
any ``textio.atomic_group``.

The image only saves time, so every failure to locate, read, check, write
or remove one is caught: the KB is then parsed and compiled, which gives the
same value. But a ``build`` that fails on the list ``compile`` has just
given fails the run that wrote it. The loaders import this module when they
first run, so the commands that read no KB do not compile it.
"""

from __future__ import annotations

import marshal
import os
import sys
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

try:  # the bare module imports in a fraction of hashlib's time
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

# Images of one form kept in the cache directory; the least recently
# written go first.
IMAGES_KEPT = 32

# The code that decides an image's content besides the KB bytes.
CODE_FILES = tuple(
    Path(__file__).parent / name
    for name in ("linker.py", "dictionary.py", "ner/tokenizer.py", "textio.py", "kbimage.py")
)

# An image is the key (a 64-byte BLAKE2b digest), the payload's checksum
# (another), then the payload: the marshalled fields of its form.
_KEY_END, _HEAD_END = 64, 128


def load(path, suffix: str, compile: Callable[[Path, bytes], list], build: Callable[[list], Any]):
    """The form of the KB file at ``path``: ``build`` of the fields that its
    image with ``suffix`` holds or, on a miss, of ``compile(path, data)`` of
    the file's bytes, which are then saved as that image. So a miss returns
    what a hit would."""
    path = Path(path)
    data = path.read_bytes()
    slot = image_slot(path, data, suffix)
    if slot:
        try:
            return build(_read_payload(*slot))
        except Exception:
            pass
    fields = compile(path, data)
    if slot:
        _save_image(*slot, fields)
    return build(fields)


def image_slot(path: Path, data: bytes, suffix: str) -> Optional[tuple[Path, bytes]]:
    """Where the image with ``suffix`` for the KB file at ``path`` lives, and
    the key that an image of ``data`` holds; None if the path is not a
    regular file, or if either cannot be worked out."""
    try:
        if not path.is_file():
            return None
        base = os.environ.get("XDG_CACHE_HOME", "")
        # The XDG spec ignores an unset, empty or relative value.
        root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
        name = blake2b(os.fsencode(path.resolve()), digest_size=16).hexdigest()
        key = blake2b(_code_fingerprint())
        key.update(suffix.encode())
        key.update(data)
        return root / "ehr2icd" / f"{name}{suffix}", key.digest()
    except Exception:
        return None


def _save_image(image: Path, key: bytes, fields: list) -> None:
    """Write ``fields`` as the image holding ``key``, replacing any image there."""
    try:
        image.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        payload = marshal.dumps(fields)
        temporary = image.with_name(f".{image.name}.{os.urandom(6).hex()}.tmp")
        try:
            with temporary.open("xb") as fh:
                fh.write(key)
                fh.write(blake2b(payload).digest())
                fh.write(payload)
            os.replace(temporary, image)
        finally:
            temporary.unlink(missing_ok=True)
        _remove_old_images(image)
    except Exception:
        pass


def _remove_old_images(image: Path) -> None:
    """Remove all but the ``IMAGES_KEPT`` most recently written images of
    ``image``'s form beside it; ``image`` is always kept. Temporary files end
    in ``.tmp`` and are left alone."""
    others = [
        (other.stat().st_mtime_ns, other)
        for other in image.parent.glob(f"*{image.suffix}")
        if other.name != image.name
    ]
    others.sort(reverse=True)
    for _, old in others[IMAGES_KEPT - 1 :]:
        old.unlink(missing_ok=True)


def _code_fingerprint() -> bytes:
    """A digest of what decides an image's content besides the KB bytes."""
    fingerprint = blake2b()
    layout = (sys.version, marshal.version, sys.byteorder)
    fingerprint.update(repr((layout, array("I").itemsize, array("Q").itemsize)).encode())
    for code_file in CODE_FILES:
        source = code_file.read_bytes()
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
