"""Elementary moves on reduction sequences.

A move edits one spot in a sequence and yields another complete
reduction of the same word with the same number of steps.  There are
two kinds:

* swap: two consecutive steps consume disjoint redexes; perform them in
  the other order.  Positions must be rewritten because each refers to
  the word its step acts on.
* overlap switch: a step sits on an overlapping configuration
  ``.. a a' a ..`` where two redexes share the middle item.  Removing
  either pair leaves the identical word, so the step can be retargeted
  to the other redex without touching the rest of the sequence.

Move text format: ``swap@i``, ``ovl@i``, ``ovr@i`` where i is the step
index edited; chains are comma separated.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple

from .core import Word
from .errors import (
    FreewordError, IndexOutOfRange, InvalidArgument, NoOverlap, NotIndependent, ParseError,
    WordMismatch,
)
from .reduction import POSITION_PATTERN, ReductionSequence, walk

SWAP = "swap"
OVERLAP_LEFT = "ovl"
OVERLAP_RIGHT = "ovr"

LEFT = "left"
RIGHT = "right"

_DIRECTION_OF = {OVERLAP_LEFT: LEFT, OVERLAP_RIGHT: RIGHT}


class Move(NamedTuple):
    kind: str  # SWAP, OVERLAP_LEFT or OVERLAP_RIGHT
    at: int    # index of the step the move edits

    def __str__(self) -> str:
        return f"{self.kind}@{self.at}"


MoveChain = tuple[Move, ...]
Steps = tuple[int, ...]


def swap(r: ReductionSequence, i: int) -> ReductionSequence:
    """Exchange steps i and i+1 when they consume disjoint redexes.

    With p = steps[i] and q = steps[i+1], the rewritten pair is

        q <= p - 2  ->  (q, p - 2)    second redex lies left of the first
        q >= p      ->  (q + 2, p)    second redex lies right, shifted back up

    q == p - 1 means the second redex only became adjacent because step
    i removed the pair between its items; that is a nested pattern, not
    a swap, and is rejected with NotIndependent.  swap trusts p and q
    and checks only i and the nesting, so a hand-built sequence that is
    not a reduction gives another one without an error; validate such
    a sequence first.  Checking the steps here, by replaying the prefix,
    made long apply_chain calls two thirds slower.
    """
    steps = r.steps
    if not 0 <= i < len(steps) - 1:
        raise IndexOutOfRange(i, max(len(steps) - 1, 0), what="swap index")
    p, q = steps[i], steps[i + 1]
    if q == p - 1:
        raise NotIndependent(i, p, q)
    if q <= p - 2:
        edited = (q, p - 2)
    else:
        edited = (q + 2, p)
    return ReductionSequence(r.word, steps[:i] + edited + steps[i + 2:])


def _overlap_target(before: Word, p: int, direction: str) -> int | None:
    """New position for a step at p of ``before``, or None if the
    required third item is missing."""
    if direction == RIGHT:
        if p + 2 < len(before) and before[p + 2] == before[p]:
            return p + 1
        return None
    if direction == LEFT:
        if p >= 1 and before[p - 1] == before[p + 1]:
            return p - 1
        return None
    raise InvalidArgument(f"direction must be {LEFT!r} or {RIGHT!r}, got {direction!r}")


def overlap_switch(r: ReductionSequence, i: int, direction: str) -> ReductionSequence:
    """Retarget step i to the other redex of an overlapping pair.

    RIGHT moves the step from position p to p+1 (needs item p+2 equal
    to item p), LEFT from p to p-1 (needs item p-1 equal to item p+1).
    The word after the step is identical either way, so later steps are
    unaffected; the whole trace of words stays the same.  Raises
    InvalidRedex, with the step index, when step i is not a redex of
    the word it acts on, as in a sequence built by hand; so does an
    earlier step, with its own index.  The prefix is walked one word at
    a time, so memory stays linear in the word.
    """
    steps = r.steps
    if not 0 <= i < len(steps):
        raise IndexOutOfRange(i, len(steps))
    # the last two words of the walk through step i, which checks step
    # i too: the word before it and the word after it
    before = deque(walk(r.word, steps[:i + 1]), maxlen=2)[0]
    p = steps[i]
    target = _overlap_target(before, p, direction)
    if target is None:
        raise NoOverlap(i, p, direction)
    return ReductionSequence(r.word, steps[:i] + (target,) + steps[i + 1:])


def apply_move(r: ReductionSequence, move: Move) -> ReductionSequence:
    if move.kind == SWAP:
        return swap(r, move.at)
    if move.kind in _DIRECTION_OF:
        return overlap_switch(r, move.at, _DIRECTION_OF[move.kind])
    raise InvalidArgument(f"unknown move kind {move.kind!r}")


def apply_chain(r: ReductionSequence, chain: Iterable[Move]) -> ReductionSequence:
    """Apply moves left to right.  A failing move re-raises with its
    chain index attached."""
    current = r
    for idx, move in enumerate(chain):
        try:
            current = apply_move(current, move)
        except FreewordError as err:
            err.chain_index = idx
            raise
    return current


def applicable_moves(r: ReductionSequence) -> list[tuple[Move, ReductionSequence]]:
    """Every single move applicable to r, with its result.

    Deterministic order: by step index, swap then ovl then ovr.  The
    one-node case of neighbour_maps.
    """
    return [(move, ReductionSequence(r.word, steps))
            for steps, move in neighbour_maps([r])[r.steps].items()]


def neighbour_maps(sequences: Iterable[ReductionSequence]) -> dict[Steps, dict[Steps, Move]]:
    """{steps: {neighbour steps: the move reaching it}} for sequences
    of one word, each map in applicable_moves order.  Distinct moves
    from a reduction reach distinct neighbours, so no move is dropped.
    Sequences of different words raise WordMismatch.

    One pass: the trace of the current sequence is kept, and only the
    words past the steps it shares with the previous sequence are
    walked again, each step checked as run_sequence checks it.
    Sequences in lexicographic order, as enumeration yields them, share
    most of their steps.  Each Move is built once.
    """
    maps: dict[Steps, dict[Steps, Move]] = {}
    trace: list[Word] = []  # trace[j]: the word before step j of the last sequence
    last: Steps = ()
    table: list[tuple[Move, list[tuple[Move, str]]]] = []  # the moves at each step index
    for seq in sequences:
        steps = seq.steps
        if not trace:
            trace = [seq.word]
        elif seq.word != trace[0]:
            raise WordMismatch(
                f"sequences reduce different words ({len(trace[0])} and {len(seq.word)} items)"
            )
        shared = 0
        for p, q in zip(steps, last):
            if p != q:
                break
            shared += 1
        trace[shared:] = walk(trace[shared], steps, shared)
        last = steps
        k = len(steps)
        table.extend(
            (Move(SWAP, i), [(Move(kind, i), side) for kind, side in _DIRECTION_OF.items()])
            for i in range(len(table), k)
        )
        neighbours = maps[steps] = {}
        for i, p in enumerate(steps):
            swap_move, switches = table[i]
            if i + 1 < k and steps[i + 1] != p - 1:
                neighbours[swap(seq, i).steps] = swap_move
            for move, direction in switches:
                target = _overlap_target(trace[i], p, direction)
                if target is not None:
                    neighbours[steps[:i] + (target,) + steps[i + 1:]] = move
    return maps


_KINDS = (SWAP, *_DIRECTION_OF)


def parse_move(text: str) -> Move:
    kind, sep, at = text.strip().partition("@")
    if not sep or kind not in _KINDS or not POSITION_PATTERN.fullmatch(at):
        raise ParseError("bad move", token=text.strip())
    return Move(kind, int(at))


def parse_chain(text: str) -> MoveChain:
    """Parse a comma separated move chain; empty text is the empty chain."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_move(part) for part in text.split(","))


def render_chain(chain: Iterable[Move]) -> str:
    return ",".join(str(move) for move in chain)
