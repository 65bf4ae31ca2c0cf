"""The base of the immutable slot classes whose fields are checked, derived or
compiled when they are built: ``EvalSummary``, ``KnowledgeBase`` and
``TaggerModel``. Plain records are named tuples instead."""


class Frozen:
    """Immutable once built: ``__init__`` sets the slots with
    ``object.__setattr__``, and nothing can set them afterwards.

    Two instances are equal when they are of the same class and their
    ``_key()`` fields are equal, and an instance hashes by them (so it is
    unhashable if one of them is). It pickles as those fields, and unpickling
    builds it again from them: the checks run again and any caches start
    empty, so ``_key()`` must give ``__init__``'s arguments.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def __repr__(self):
        return f"{type(self).__name__}{self._key()!r}"
