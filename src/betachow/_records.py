"""Plain slotted value classes, the package's records without dataclasses.

A subclass lists its fields in ``__slots__``, in constructor order, and
sets them in an explicit ``__init__``.  A ``Record`` compares equal to
another of its class with equal fields and is not hashable.  A ``Frozen``
record also hashes by its fields and refuses assignment and deletion; its
``__init__`` validates and stores the fields through ``_assign``, and
``_make`` builds one from fields that are already valid, which is also how
it unpickles (a point in a shard's part or result, say) without re-running
the checks.

Importing ``dataclasses`` pulls ``inspect`` and ``ast`` into every
command's start-up, and each decorated class execs generated source; these
two bases cost neither.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def _assign(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _make(cls, *values):
        """The record with these field values, trusted to be valid."""
        self = object.__new__(cls)
        self._assign(*values)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self._make, self._fields()
