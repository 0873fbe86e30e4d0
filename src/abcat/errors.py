"""Exception types shared across the package."""

from collections.abc import Iterator
from contextlib import contextmanager


class AbcatError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(AbcatError):
    """Objects, fields, or matrix dimensions do not line up."""


class PreconditionError(AbcatError):
    """A mathematical precondition of an operation is violated by the input."""


class InternalCheckError(AbcatError):
    """An identity that must hold by construction failed.  Indicates a bug,
    not bad input."""


@contextmanager
def internal(construction: str) -> Iterator[None]:
    """Run a step whose input the library has already checked: a
    ``PreconditionError`` or ``ShapeError`` it raises is a bug in
    ``construction``."""
    try:
        yield
    except (PreconditionError, ShapeError) as exc:
        raise InternalCheckError(f"{construction}: {exc}") from exc


def hold(what: str, checks: dict[str, bool]) -> dict[str, bool]:
    """Return ``checks``, identities that hold by construction, or raise
    ``InternalCheckError`` naming the first of them that is false."""
    for name, ok in checks.items():
        if not ok:
            raise InternalCheckError(f"{what} failed: {name}")
    return checks


class GenerationError(AbcatError):
    """A random generator exceeded its resampling budget."""


class DiagramFormatError(AbcatError):
    """A diagram file is malformed; the message names the offending path."""
