"""The base of pi1lab's plain value records."""
from __future__ import annotations

from operator import attrgetter


class Record:
    """A value record: its fields, in order, are the class's ``_fields``.

    A subclass lists its fields in ``_fields`` and its ``__slots__`` (which
    may add slots that are not fields, such as a stored result) and sets
    them in ``__init__``. Two records are equal when they are of the same
    class and their fields are equal; the hash is the hash of the tuple of
    fields; the repr is ``Name(field=value, ...)``.
    """

    __slots__ = ()
    _fields: tuple = ()
    # record -> the tuple of its fields; an attrgetter per class, as
    # equality runs in the probes' loops
    _values = staticmethod(lambda record: ())

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        if len(fields) > 1:
            cls._values = staticmethod(attrgetter(*fields))
        elif fields:
            value = attrgetter(fields[0])
            cls._values = staticmethod(lambda record: (value(record),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
