"""Reduction sequences: stepwise cancellations taking a word to empty.

A sequence stores the list of redex positions it removes.  Each
position refers to the word as it stands *after* all earlier steps, not
to the original word; that keeps every step a plain local operation.
A word of length 2k is consumed by exactly k steps, and odd-length
words admit no sequence at all.

Sequence text format: comma or whitespace separated positions, e.g.
``3,0,0``.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple

from .core import Word, is_redex_at
from .errors import IncompleteReduction, InvalidRedex, ParseError


class ReductionSequence(NamedTuple):
    """A word together with step positions reducing it to the empty word.

    Compares by value: two sequences over the same word are equal
    exactly when their position lists are.  Build instances through
    validate_sequence, or through the move and transform operations,
    which preserve validity by construction.
    """

    word: Word
    steps: tuple[int, ...]


def apply_step(w: Word, p: int) -> Word:
    """Remove the cancelling pair at positions p and p+1."""
    if not is_redex_at(w, p):
        raise InvalidRedex(p, w)
    return w[:p] + w[p + 2:]


def validate_sequence(w: Word, positions: Iterable[int]) -> ReductionSequence:
    """Check that the positions reduce w all the way to the empty word.
    Raises InvalidRedex as run_sequence does, or IncompleteReduction
    carrying the leftover word."""
    r = ReductionSequence(w, tuple(positions))
    for leftover in walk(w, r.steps):
        pass  # keeps one word at a time: a whole trace is quadratic in len(w)
    if leftover:
        raise IncompleteReduction(leftover)
    return r


def run_sequence(r: ReductionSequence) -> list[Word]:
    """The trace of intermediate words, from r.word down to the word
    left when the steps run out: () for a complete reduction.

    len(result) == len(r.steps) + 1 and consecutive words shrink by 2.
    Raises InvalidRedex, carrying the failing step index and the pair
    found there, at the first step that is not a redex of its word.
    """
    return list(walk(r.word, r.steps))


def walk(w: Word, steps: tuple[int, ...], start: int = 0) -> Iterator[Word]:
    """The one checked walk: w, then the word after each of
    steps[start:].  w is the word before step start, so a caller that
    kept the words of a shared prefix resumes from there.  Raises
    InvalidRedex, carrying the step's index in steps, at the first step
    that is not a redex of its word."""
    current = w
    yield current
    for k in range(start, len(steps)):
        p = steps[k]
        if not is_redex_at(current, p):
            raise InvalidRedex(p, current, step=k)
        current = current[:p] + current[p + 2:]
        yield current


# A step or move position in text: 1 to 18 ASCII digits, few enough
# that int() reads them under any limit the interpreter sets on digits.
POSITION_PATTERN = re.compile(r"[0-9]{1,18}")


def parse_steps(text: str) -> tuple[int, ...]:
    """Parse ``3,0,0`` (or ``3 0 0``) into a position tuple.  Positions
    are 1 to 18 ASCII digits; anything else raises ParseError."""
    steps = []
    for part in text.replace(",", " ").split():
        if not POSITION_PATTERN.fullmatch(part):
            raise ParseError("bad step position", token=part)
        steps.append(int(part))
    return tuple(steps)


def render_steps(steps: Iterable[int]) -> str:
    return ",".join(str(p) for p in steps)
