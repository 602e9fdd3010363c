"""The base of the package's immutable value types."""

from __future__ import annotations

from typing import Any


class Value:
    """An immutable value that compares, hashes and prints by its fields.

    A subclass lists its fields as class annotations, in the order of its
    constructor's parameters. The constructor here takes them by position or
    by keyword, each exactly once, and stores them in vars(self); a subclass
    that validates its fields, or is slotted, writes its own. Two values
    are equal when they are of the same class and their _key() tuples are
    equal, and the hash is that of _key(); by default _key() holds every
    field, and a subclass may narrow it. Assigning or deleting an attribute
    raises AttributeError. copy and pickle rebuild a value through its
    constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _field_set: frozenset[str] = frozenset()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        if own:
            cls._fields, cls._field_set = own, frozenset(own)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        values = dict(zip(self._fields, args), **kwargs) if args else kwargs
        # dict() keeps a keyword that repeats a positional field, and zip
        # drops surplus positionals: either leaves values short.
        if len(values) != len(args) + len(kwargs) or values.keys() != self._field_set:
            fields = ", ".join(self._fields)
            raise TypeError(f"{type(self).__qualname__}() takes {fields}, each once")
        vars(self).update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    _key = _values

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
