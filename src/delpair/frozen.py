"""Base of the immutable value classes.

Hashed and validated values are small plain classes on this base, and
read-only records are ``typing.NamedTuple``s.  Both avoid the standard
library's code-generating class decorator: its import (``inspect``, ``ast``,
``dis``, ``tokenize``) and its per-class ``exec`` cost a one-query CLI
process more than the query itself.
"""
from __future__ import annotations

from operator import attrgetter


class Frozen:
    """An immutable value that compares, hashes and prints by its fields.

    A subclass names its fields, two or more, in its class statement:
    ``class C(Frozen, fields=("a", "b"))``; its ``__init__`` sets them with
    ``object.__setattr__``.  Two instances of the same class are equal when
    the tuples ``(a, b)`` are, and an instance hashes as that tuple.
    Assigning or deleting an attribute raises ``AttributeError``;
    ``functools.cached_property`` still caches, since it writes the instance
    ``__dict__`` directly.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if fields:
            cls._fields = fields
            cls._key = staticmethod(attrgetter(*fields))     # the tuple of fields

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"
