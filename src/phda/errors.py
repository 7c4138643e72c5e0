"""Exception types shared across the package."""
from __future__ import annotations


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

