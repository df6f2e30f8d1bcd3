"""Exceptions raised across the package.

Every deliberate failure derives from FreewordError, so callers can
catch one type at the boundary.  Errors carry the data needed to point
at the offending spot (step index, position, token offset) instead of
only prose.
"""

from __future__ import annotations


class FreewordError(Exception):
    """Base class for all errors raised on purpose by this library.

    ``chain_index`` is filled in when the failure happened while a move
    chain was being applied, so reports can say which move broke.
    """

    chain_index: int | None = None

    def __str__(self) -> str:
        text = super().__str__()
        if self.chain_index is not None:
            text += f" (move {self.chain_index} of chain)"
        return text


class InvalidArgument(FreewordError, ValueError):
    """An argument outside its allowed values: a sign, an overlap
    direction, a move kind, a corpus generator's negative length or
    pair count or empty alphabet, or a negative enumeration cap.  Also
    a ValueError, as for the builtins."""


class ParseError(FreewordError):
    """Malformed word, sequence, or move text.

    The message echoes at most the first 40 characters of a longer
    token, with its length; ``token`` keeps all of it.
    """

    def __init__(self, message: str, token: str, offset: int | None = None):
        if len(token) <= 40:
            detail = f"{message}: {token!r}"
        else:
            detail = f"{message}: {token[:40]!r}... ({len(token)} characters)"
        if offset is not None:
            detail += f" (offset {offset})"
        super().__init__(detail)
        self.token = token
        self.offset = offset


class InvalidRedex(FreewordError):
    """A step names a position where nothing cancels.

    ``step`` is the index of the failing step when the error arises from
    a whole sequence, None for a single application.  ``pair`` holds the
    two items found at the position in ``word``, the word the step acted
    on, when the position was in range.
    """

    def __init__(self, position: int, word: tuple, step: int | None = None):
        pair = (word[position], word[position + 1]) if 0 <= position <= len(word) - 2 else None
        msg = f"no redex at position {position}"
        if pair is not None:
            msg += f" (found {pair[0]} {pair[1]})"
        if step is not None:
            msg += f" at step {step}"
        super().__init__(msg)
        self.position = position
        self.pair = pair
        self.step = step


class IncompleteReduction(FreewordError):
    """The steps ran out before the word did."""

    def __init__(self, remainder: tuple):
        text = " ".join(str(item) for item in remainder)
        super().__init__(f"reduction stops at nonempty word: {text}")
        self.remainder = remainder


class NotIndependent(FreewordError):
    """Swap rejected: the second step's redex only exists because the
    first step removed the pair sitting between its items."""

    def __init__(self, at: int, first: int, second: int):
        super().__init__(
            f"steps {at} and {at + 1} are nested (positions {first}, {second}), not independent"
        )
        self.at = at


class IndexOutOfRange(FreewordError):
    """A step or move index outside the sequence."""

    def __init__(self, index: int, count: int, what: str = "step index"):
        super().__init__(f"{what} {index} out of range (have {count})")
        self.index = index


class NoOverlap(FreewordError):
    """Overlap switch rejected: no third matching item next to the redex."""

    def __init__(self, at: int, position: int, direction: str):
        super().__init__(f"step {at} at position {position} has no {direction} overlap")
        self.at = at
        self.direction = direction


class WordMismatch(FreewordError):
    """Two arguments were expected to be over the same word but are not."""


class CapExceeded(FreewordError):
    """A word is longer than the configured enumeration cap."""

    def __init__(self, length: int, cap: int):
        super().__init__(f"word length {length} exceeds enumeration cap {cap}")
        self.length = length
        self.cap = cap
