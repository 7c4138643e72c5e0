"""Exception types shared across the package, and the frozen record that its value types build on."""
from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__  # how a record's own `__init__` fills its fields


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen record or a face word."""


class Record:
    """A frozen record: its fields are its `__slots__` in order, but for a `"__dict__"` slot for cached properties.

    Within one class, records compare, hash and print by their fields as
    frozen dataclasses do; `copy`, `deepcopy` and `pickle` rebuild them with
    the constructor.  This `__init__` takes the fields by position or keyword,
    with the defaults of `_defaults`; records made in bulk, or that validate, define their own.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        cls._key = attrgetter(*cls._fields)  # the fields as a tuple, read in C

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or values.keys() != set(fields) or not kwargs.keys().isdisjoint(fields[: len(args)]):
            raise TypeError(f"{type(self).__name__}() takes each of the fields {fields} once, got {args} and {kwargs}")
        for name in fields:
            set_field(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class PhdaError(Exception):
    """Base class for all errors raised by this library."""


class IndexOutOfRange(PhdaError, IndexError):
    """A face index exceeds the length of the word it is applied to."""


class UnknownCell(PhdaError, KeyError):
    """A cell id is not present in the model."""


class ModelInvalid(PhdaError):
    """A model or morphism failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations) or "invalid")


class ParseError(PhdaError):
    """A file could not be parsed into the expected structure."""


class InvalidBound(PhdaError, ValueError):
    """A length or depth bound is negative."""


class DomainMismatch(PhdaError):
    """Morphisms do not compose or do not share the required endpoints."""


class NotAPathShape(PhdaError):
    """The model is not the shape freely generated by a spine."""


class InvalidSpine(PhdaError):
    """The dimension/label transitions of a spine are inconsistent."""


class InvalidDiagram(PhdaError):
    """A diagram of path shapes has a malformed object or arrow."""


class NotACocone(PhdaError):
    """The supplied legs do not commute with the diagram arrows."""


class NotTotalHDA(PhdaError):
    """The operation requires a model with a total face table."""


class NotATree(PhdaError):
    """The operation requires a model with unique executions."""


class NotOpen(PhdaError):
    """A lifting square admits no solution, so the map is not open."""

