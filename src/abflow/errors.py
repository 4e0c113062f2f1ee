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

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ParseError(ABFlowError):
    """A matrix file is malformed or unreadable; carries its position."""

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None, offset: int | None = None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        if offset is not None:
            loc += f":{offset}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line
        self.offset = offset
