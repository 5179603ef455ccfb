"""Exception types shared across the package, and how a message quotes
the user's text."""


def quoted(text: str) -> str:
    """``repr(text)``, or for a text longer than 40 characters ``repr`` of
    its first 40 and ``...``: a message never echoes an argument in full."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


class PkatError(Exception):
    """Base class for every error raised by this library."""


class LatticeMismatchError(PkatError):
    """Operands belong to different truth-value lattices."""


class CarrierError(PkatError):
    """A value lies outside the carrier of its lattice."""


class ShapeError(PkatError):
    """Relations or sets over incompatible state spaces were combined."""


class ModelError(PkatError):
    """A model document is malformed or fails validation."""


class SortError(PkatError):
    """A term violates the two-sorted typing discipline."""


class EngineError(PkatError):
    """A verification request cannot be carried out as stated."""


class ParseError(PkatError):
    """A term failed to tokenize or parse; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
