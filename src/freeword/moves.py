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
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

from .core import Word, is_redex_at
from .errors import (
    FreewordError, IndexOutOfRange, InvalidArgument, InvalidRedex, NoOverlap, NotIndependent,
    ParseError, WordMismatch,
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
    maps, index = neighbour_maps([r])
    steps_of = list(index)
    return [(move, ReductionSequence(r.word, steps_of[j])) for j, move in maps[0].items()]


def neighbour_maps(
    sequences: Sequence[ReductionSequence],
) -> tuple[dict[int, dict[int, Move]], dict[Steps, int]]:
    """(maps, index) for distinct sequences of one word.  index numbers
    the sequences' steps 0, 1, ... in order, and maps[i] is {j: the move
    reaching j} for sequence i, in applicable_moves order.  A neighbour
    that is not among the sequences, which only a faulty move reaches,
    is numbered past them in the order the maps meet it, in index and
    in maps with an empty map, so every number in a map has an entry.
    Distinct moves from a reduction reach distinct neighbours, so no
    move is dropped.  A sequence of another word raises WordMismatch
    and a step that is no redex raises InvalidRedex, as run_sequence
    does: either way the first faulty sequence's error, in input order.

    A graph with at least _SEQUENCES_PER_STEP sequences per step is
    built by sub-problem, a sparser one node by node; both give the
    same maps.
    """
    index = {seq.steps: i for i, seq in enumerate(sequences)}
    if not sequences:
        return {}, index
    word = sequences[0].word
    if any(seq.word != word for seq in sequences):
        _raise_first_fault(sequences)
    if len(sequences) < _SEQUENCES_PER_STEP * len(sequences[0].steps):
        return _maps_node_by_node(sequences, index)
    return _maps_by_sub_problem(sequences, index)


# Below this many sequences per step few sub-problems coincide, and
# finding and lifting them costs more than it saves.  Timed against node
# by node on words of 1 to 3 letters and 4 to 42 pairs (Python 3.11,
# 2-core Xeon), by sub-problem took 1.0 to 1.5 times as long at 1 to 7
# sequences per step, 0.8 to 1.06 times at 8 to 24, and 0.4 to 0.9
# times from 28 on
_SEQUENCES_PER_STEP = 8


def _maps_node_by_node(
    sequences: Sequence[ReductionSequence], index: dict[Steps, int],
) -> tuple[dict[int, dict[int, Move]], dict[Steps, int]]:
    """neighbour_maps in one pass over the nodes: the trace of the
    current sequence is kept, and only the words past the steps it
    shares with the previous sequence are walked again.  Sequences in
    lexicographic order, as enumeration yields them, share most of
    their steps.  Each Move is built once, and each neighbour's steps
    are hashed once, into index."""
    maps: dict[int, dict[int, Move]] = {}
    trace = [sequences[0].word]  # trace[j]: the word before step j of the last sequence
    last: Steps = ()
    table: list[tuple[Move, list[tuple[Move, str]]]] = []  # the moves at each step index
    number = index.setdefault
    for seq in sequences:
        steps = seq.steps
        shared = 0
        for p, q in zip(steps, last):
            if p != q:
                break
            shared += 1
        try:
            trace[shared:] = walk(trace[shared], steps[shared:])
        except InvalidRedex:
            _raise_first_fault(sequences)  # with the step's index in steps
        last = steps
        k = len(steps)
        table.extend(
            (Move(SWAP, i), [(Move(kind, i), side) for kind, side in _DIRECTION_OF.items()])
            for i in range(len(table), k)
        )
        neighbours = maps[len(maps)] = {}
        for i, p in enumerate(steps):
            swap_move, switches = table[i]
            if i + 1 < k and steps[i + 1] != p - 1:
                neighbours[number(swap(seq, i).steps, len(index))] = swap_move
            for move, direction in switches:
                target = _overlap_target(trace[i], p, direction)
                if target is not None:
                    neighbours[number(steps[:i] + (target,) + steps[i + 1:], len(index))] = move
    for j in range(len(maps), len(index)):
        maps[j] = {}
    return maps, index


def _maps_by_sub_problem(
    sequences: Sequence[ReductionSequence], index: dict[Steps, int],
) -> tuple[dict[int, dict[int, Move]], dict[Steps, int]]:
    """neighbour_maps from one identity: a move at step i of a sequence
    is the step-0 move of its tail, the steps from i on, on the word left
    after the first i steps.  So the work is split into sub-problems, a
    word and the distinct tails that reduce it.  The sequences with
    first step p give the sub-problem of the word without the redex at
    p, and each distinct sub-problem is solved once, however many
    reach it.  Top down, the sub-problems are found one step at a time,
    with the step-0 moves of their tails; bottom up, a tail's map is its
    step-0 moves followed by its own tail's map, whose numbers are
    lifted to the tails they stand for.  Every way into a sub-problem
    takes the same number of steps, so its moves already carry their
    step index in the sequences.  Only two layers of words and tails are
    held at a time, a sub-problem's maps are dropped once the last one
    that lifts them is built, and nothing recurses, so no word is too
    long for the stack."""
    # top down: layers[d] is (the sub-problems d steps in, uses), each
    # sub-problem as (its tail count, the step-0 moves of the tails that
    # have any, plan, extras).  The plan lists (p, the tails with first
    # step p, the number b of the sub-problem of their rests in
    # layers[d + 1]), and uses[b] counts the plans that lift it; a lone
    # empty rest needs no sub-problem, and its b is None.  extras numbers
    # the steps past the tails that the moves reach, which only a faulty
    # move makes
    layers = []
    found = {(sequences[0].word, tuple(index)): None}  # the next layer, each sub-problem once
    while found:
        swap_move, left_move, right_move = (Move(kind, len(layers)) for kind in _KINDS)
        layer = []
        below: dict[tuple[Word, tuple[Steps, ...]], int] = {}
        uses: list[int] = []
        for u, tails in found:
            local = {t: j for j, t in enumerate(tails)}
            number = local.setdefault
            groups: dict[int, tuple[list[int], list[Steps]]] = {}
            for j, t in enumerate(tails):
                if t:
                    group = groups.get(t[0])
                    if group is None:
                        groups[t[0]] = ([j], [t[1:]])
                    else:
                        group[0].append(j)
                        group[1].append(t[1:])
            step0 = {}
            plan = []
            for p, (members, rests) in groups.items():
                if not is_redex_at(u, p):
                    _raise_first_fault(sequences)
                left = _overlap_target(u, p, LEFT)
                right = _overlap_target(u, p, RIGHT)
                for j in members:
                    t = tails[j]
                    neighbours = {}
                    if len(t) > 1 and t[1] != p - 1:
                        swapped = swap(ReductionSequence(u, t), 0).steps
                        neighbours[number(swapped, len(local))] = swap_move
                    if left is not None:
                        neighbours[number((left,) + t[1:], len(local))] = left_move
                    if right is not None:
                        neighbours[number((right,) + t[1:], len(local))] = right_move
                    if neighbours:
                        step0[j] = neighbours
                b = None
                if rests != [()]:
                    b = below.setdefault((u[:p] + u[p + 2:], tuple(rests)), len(uses))
                    if b == len(uses):
                        uses.append(0)
                    uses[b] += 1
                plan.append((p, members, b))
            extras = dict(islice(local.items(), len(tails), None))
            layer.append((len(tails), step0, plan, extras))
        layers.append((layer, uses))
        found = below
    # bottom up: solved[b] is (maps, extras) for sub-problem b of the
    # layer below, its extras as a list of steps.  A lifted extra starts
    # with the lifting plan's p, so it is none of the tails
    solved: list = []
    while layers:
        layer, uses = layers.pop()
        done = []
        for count, step0, plan, extras in layer:
            maps = [step0.get(j) or {} for j in range(count)]
            number = extras.setdefault
            for p, members, b in plan:
                if b is None:
                    continue
                below_maps, below_extras = solved[b]
                lift = members
                if below_extras:
                    lift = members + [number((p,) + t, count + len(extras)) for t in below_extras]
                for j, below_map in zip(members, below_maps):
                    if below_map:
                        lifted = map(lift.__getitem__, below_map)
                        maps[j].update(zip(lifted, below_map.values()))
                uses[b] -= 1
                if not uses[b]:
                    solved[b] = None
            done.append((maps, list(extras)))
        solved = done
    maps, extras = solved[0]
    count = len(maps)
    if extras:
        # number the non-nodes past the nodes, in the order the maps meet them
        steps_of = list(index) + extras
        number = index.setdefault
        maps = [{number(steps_of[j], len(index)): move for j, move in m.items()} for m in maps]
    maps += [{} for _ in range(count, len(index))]
    return dict(enumerate(maps)), index


def _raise_first_fault(sequences: Sequence[ReductionSequence]) -> None:
    """Raise the error of the first faulty sequence, in input order:
    WordMismatch for a word other than the first sequence's, or what
    run_sequence raises."""
    word = sequences[0].word
    for seq in sequences:
        if seq.word != word:
            raise WordMismatch(
                f"sequences reduce different words ({len(word)} and {len(seq.word)} items)"
            )
        for _ in walk(word, seq.steps):
            pass


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
