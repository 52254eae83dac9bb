"""Base of the immutable value types.

Plain classes, not frozen dataclasses: importing ``dataclasses`` pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, and with the class generation
it costs every cold CLI call about 20 ms.

A type is declared by its fields: a subclass names them in ``_fields`` and
inherits a constructor taking them positionally or by name. A type that
checks or converts its fields does so in its own ``__init__``, which ends in
``super().__init__(...)`` with the values to store.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Value"]

_store = object.__setattr__


class Value:
    """Immutable value object whose fields are named in ``_fields``.

    The constructor takes every field once, positionally or by name, and
    raises ``TypeError`` on a missing, extra, duplicated or unknown one.
    Equality and hashing compare the field values (instances of different
    classes are never equal), ``repr`` is ``Name(field=value, ...)``, and
    assigning or deleting an attribute raises ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # one field: the bare value, which compares and hashes just as well
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        if kwargs:
            # the fields after the positional ones, by name
            try:
                args += tuple(map(kwargs.pop, names[len(args):]))
            except KeyError:  # one is missing
                args = ()
        # a name left over is unknown or repeats a positional field
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes each of the fields {names} exactly once")
        # through object.__setattr__, since Value.__setattr__ raises
        for name, value in zip(names, args):
            _store(self, name, value)

    @classmethod
    def _unchecked(cls, *fields: object) -> Value:
        """The value with these fields, stored as given, with none of the checks or conversions of
        the type's own constructor: for values the library builds that meet them by construction."""
        value = object.__new__(cls)
        Value.__init__(value, *fields)
        return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
