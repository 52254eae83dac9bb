"""Base of the immutable value types.

Plain classes, not frozen dataclasses: importing ``dataclasses`` pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``, and with the class generation
it costs every cold CLI call about 20 ms.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Value"]


class Value:
    """Immutable value object whose fields are named in ``_fields``.

    A subclass sets its fields in ``__init__`` through ``object.__setattr__``;
    equality and hashing compare the field values (instances of different
    classes are never equal), ``repr`` is ``Name(field=value, ...)``, and
    assigning or deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # one field: the bare value, which compares and hashes just as well
        cls._key = staticmethod(attrgetter(*cls._fields))

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
