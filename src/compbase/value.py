"""Field-wise equality, hashing, repr and immutability for the package's classes.

A subclass lists its fields in __slots__, in constructor order, and sets
them in its own __init__; slots whose names start with an underscore
(memos, __dict__) are not fields.  An instance equals an instance of
exactly its own class whose fields are equal, and prints as
Name(field=value, ...).  A Record is mutable and unhashable.  A Value is
frozen: assigning or deleting any attribute raises AttributeError, so its
__init__ sets fields with object.__setattr__, and it hashes as the tuple of
its fields, so the iteration order of every set and dict of values does
not depend on how the class is written.  Both pickle and copy through
their constructor.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls) -> None:
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if fields:
            get = attrgetter(*fields)
            cls._fields = fields
            # _values(x) is the tuple of x's fields; attrgetter returns a bare
            # value for a single name
            cls._values = staticmethod(get if len(fields) > 1 else lambda x: (get(x),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values(self)


class Value(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
