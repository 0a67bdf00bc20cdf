"""Base of the immutable value classes.

Every value class and every read-only record is a small plain class on
this base: the one record idiom.  It avoids the standard library's code
generators.  The class decorator of ``dataclasses`` imports ``inspect``,
``ast``, ``dis`` and ``tokenize``; a class-syntax named tuple imports the
annotation and regular-expression modules; and both ``exec`` or ``eval``
fresh methods per class.  Together these cost a one-query CLI process more
than the query itself.
"""
from __future__ import annotations

from operator import attrgetter


class Frozen:
    """An immutable value that compares, hashes and prints by its fields.

    A subclass names its fields, two or more, in its class statement:
    ``class C(Frozen, fields=("a", "b"))``.  A value class writes its own
    ``__init__``, which validates and sets the fields with
    ``object.__setattr__``; a record writes none and takes its fields
    positionally or by name, ``C(1, b=2)``, where a missing, unknown or
    repeated field raises ``TypeError``.  Two instances of the same class are
    equal when the tuples ``(a, b)`` are, and an instance hashes as that tuple.
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

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        name = type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for field {field!r}")
            values[field] = value
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing field {field!r}")
            object.__setattr__(self, field, values[field])

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
