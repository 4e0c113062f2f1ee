"""Exception types shared across the package.

Bad input raises ``ValueError`` naming the input; an unreadable matrix
file raises ``ParseError`` with its position; a singular sum raises the
internal ``BreakdownError``.  ``ABFlowError`` is the base of the last two.
"""

from __future__ import annotations


class ABFlowError(Exception):
    """Base class of ``BreakdownError`` and ``ParseError``."""


class BreakdownError(ABFlowError):
    """An iteration step required inverting a numerically singular sum.

    ``linalg.lu_factor`` raises it (index None) when a pivot falls below
    its cutoff; ``pencil.combine`` stamps the index of its element.

    Attributes
    ----------
    index : int or None
        Plain-chain index of the pencil element that could not be
        produced; None for square-root steps and bare factorizations.
    """

    index: int | None = None


class ParseError(ABFlowError):
    """A matrix file is malformed or unreadable; carries its position."""

    def __init__(self, message: str, path: str,
                 line: int | None = None, offset: int | None = None):
        loc = "".join(f":{v}" for v in (line, offset) if v is not None)
        super().__init__(f"{path}{loc}: {message}")
        self.path, self.line, self.offset = path, line, offset
