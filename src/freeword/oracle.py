"""Brute-force checking layer.

Enumerates every complete reduction of a small word, wires them into a
graph whose edges are single moves, and checks the properties the rest
of the package promises: the graph is connected, transform_to produces
chains that really replay, and a word is fully reducible exactly when
its normal form is empty.

Enumeration is exhaustive on purpose and guarded by a length cap
(default 12): sequence counts grow quickly with word length, so raise
the cap knowingly.  Pairs are checked exhaustively up to PAIR_THRESHOLD
nodes; a larger graph has PAIR_SAMPLES pairs drawn at random.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
import random
from dataclasses import dataclass, field

from .core import SignedGenerator, Word, find_redexes, invert, render_word, signed
from .errors import CapExceeded, FreewordError, InvalidArgument, ParseError
from .group import normal_form
from .moves import Move, Steps, apply_move, neighbour_maps
from .reduction import ReductionSequence
from .transform import transform_to

DEFAULT_CAP = 12
PAIR_THRESHOLD = 200
PAIR_SAMPLES = 50


def _step_lists(w: Word) -> tuple[Steps, ...]:
    # bottom-up, so no word is too long for the stack.  First every
    # nonempty subword reachable by cancelling, one length at a time,
    # longest first, each with its (p, shorter) list; then the step
    # lists, shortest word first.  Each subword is expanded once, and
    # nothing is kept after the call returns.
    shorter_of: dict[Word, list[tuple[int, Word]]] = {}
    layer = [w]
    while layer and layer[0]:  # words of one length, so only () is empty
        found: dict[Word, None] = {}  # the next layer, each word once
        for u in layer:
            pairs = shorter_of[u] = [(p, u[:p] + u[p + 2:]) for p in find_redexes(u)]
            for _, v in pairs:
                found[v] = None
        layer = list(found)
    lists: dict[Word, tuple[Steps, ...]] = {(): ((),)}
    for u, pairs in reversed(shorter_of.items()):
        lists[u] = tuple([(p,) + tail for p, v in pairs for tail in lists[v]])
    return lists[w]


def guard_cap(length: int, cap: int) -> None:
    """Raise InvalidArgument for a negative cap, and CapExceeded for a
    word length above the cap."""
    if cap < 0:
        raise InvalidArgument(f"cap must not be negative, got {cap!r}")
    if length > cap:
        raise CapExceeded(length, cap)


def enumerate_sequences(w: Word, cap: int = DEFAULT_CAP) -> list[ReductionSequence]:
    """All complete reductions of w, duplicate-free, in lexicographic
    position order.  Empty iff the normal form of w is nonempty; the
    empty word has exactly the empty sequence.  Raises what guard_cap
    raises for len(w) and cap."""
    guard_cap(len(w), cap)
    return [ReductionSequence(w, steps) for steps in _step_lists(w)]


@dataclass
class MoveGraph:
    """All reduction sequences of one word, joined by single moves.

    nodes are the step tuples in enumeration order, and index numbers
    each node by its position there.  adjacency maps each node's number
    i to {j: the move reaching node j}, in applicable_moves order, so a
    search runs over ints and never hashes a step tuple.  No two moves
    from a node reach one neighbour, so no edge is dropped.  Every edge
    comes with its reverse: swaps are self-inverse and the two overlap
    directions undo each other.  A neighbour that is not a node, which
    only a faulty move reaches, is numbered past the nodes, in index and
    in adjacency with a map of its own, so len(adjacency) >= len(nodes).
    adjacency is a dict keyed 0, 1, ... in order, not a list, so that
    its values() are the neighbour maps, as bench/tracing.py's edge
    counter reads them.
    """

    word: Word
    nodes: tuple[Steps, ...]
    adjacency: dict[int, dict[int, Move]]
    index: dict[Steps, int]

    def edges(self) -> list[tuple[Steps, Steps, Move]]:
        """Canonical undirected edge list: one entry per unordered pair,
        labelled with the move applied from the smaller node, by steps.
        An edge to a non-node, which only a faulty move makes, is listed
        when the non-node's steps are the larger."""
        steps = list(self.index)  # steps[j] for every number j
        return [
            (steps[i], steps[j], move)
            for i in range(len(self.nodes))
            for j, move in self.adjacency[i].items()
            if steps[i] < steps[j]
        ]


def build_move_graph(w: Word, cap: int = DEFAULT_CAP) -> MoveGraph:
    sequences = enumerate_sequences(w, cap)
    adjacency, index = neighbour_maps(sequences)
    return MoveGraph(w, tuple(seq.steps for seq in sequences), adjacency, index)


def check_connected(graph: MoveGraph) -> bool:
    """BFS over graph.adjacency from node 0; true iff at most one
    component (so vacuously true for irreducible words), that is iff it
    reaches every node and no number past them: an edge leaving the node
    set, which only a faulty move makes, is false too."""
    count = len(graph.nodes)
    if not count:
        return True
    dist = _distances(graph.adjacency, 0)
    return None not in dist[:count] and dist.count(None) == len(dist) - count


def _distances(successors: dict[int, dict[int, Move]], start: int) -> list[int | None]:
    """Breadth-first distance from start to every number of a
    MoveGraph's adjacency, whose entries iterate as neighbours: None
    where start does not reach."""
    dist: list[int | None] = [None] * len(successors)
    dist[start] = 0
    order = [start]
    for node in order:  # grows as nodes are found, so a queue
        step = dist[node] + 1
        for other in successors[node]:
            if dist[other] is None:
                dist[other] = step
                order.append(other)
    return dist


def _distance(
    successors: dict[int, dict[int, Move]],
    predecessors: list[list[int]],
    start: int,
    target: int,
) -> int | None:
    """Breadth-first distance from start to target, or None if target is
    unreachable, by a search that meets in the middle: forward from
    start over successors, a MoveGraph's adjacency, and backward from
    target over predecessors, whose entries are bare lists; both are
    indexed by node number.  It always grows the smaller frontier by one
    whole layer and returns at the first node the other side has seen.
    Before that layer no node was on both sides, so no path is
    shorter."""
    if start == target:
        return 0
    side = ([start], {start: 0}, successors)
    other_side = ([target], {target: 0}, predecessors)
    while side[0] and other_side[0]:
        if len(side[0]) > len(other_side[0]):
            side, other_side = other_side, side
        frontier, seen, neighbours = side
        met = other_side[1]
        layer = []
        for node in frontier:
            step = seen[node] + 1
            for other in neighbours[node]:
                if other not in seen:
                    if other in met:
                        return step + met[other]
                    seen[other] = step
                    layer.append(other)
        side = (layer, seen, neighbours)
    return None


@dataclass
class TransformFailure:
    word: Word
    start: Steps
    target: Steps
    move_index: int | None  # which move of the chain broke, if any
    reason: str


@dataclass
class TransformReport:
    word: Word
    pair_count: int = 0
    max_chain_length: int = 0
    max_bfs_distance: int = 0
    failures: list[TransformFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class _Sequences(dict):
    """The ReductionSequence of each node number, built when first
    asked for, so a sampled pair check builds one only for the nodes
    its chains touch."""

    def __init__(self, word: Word, nodes: tuple[Steps, ...]):
        super().__init__()
        self.word = word
        self.nodes = nodes

    def __missing__(self, i: int) -> ReductionSequence:
        r = self[i] = ReductionSequence(self.word, self.nodes[i])
        return r


def _reason(err: Exception) -> str:
    # a FreewordError by its message; any other error, which only a
    # defect raises, by its type too
    if isinstance(err, FreewordError):
        return str(err)
    return f"{type(err).__name__}: {err}"


def check_pairs(graph: MoveGraph, rng: random.Random | None = None) -> TransformReport:
    """Replay-check transform_to over ordered pairs of the graph's nodes.

    Every ordered pair is checked when the graph has at most
    PAIR_THRESHOLD nodes; beyond that, PAIR_SAMPLES pairs are drawn from
    rng (default Random(0)).  A transform_to or a replayed move that
    raises is a failure too, reported by its message, after its type
    unless it is a FreewordError.  Each pair must replay from start to
    target through known nodes within the k(k-1)/2 length bound, and
    the target must also be reachable by single moves.  Its BFS distance
    is reported alongside the chain length for comparison.  Exhaustive
    pairs read it from one breadth-first search per start, which expands
    each node once.  A sampled pair gets it from a search that meets in
    the middle, forward from the start and backward from the target.
    """
    word = graph.word
    nodes = graph.nodes
    count = len(nodes)
    index = graph.index
    adjacency = graph.adjacency
    report = TransformReport(word)
    k = len(word) // 2
    bound = k * (k - 1) // 2
    sequences = _Sequences(word, nodes)
    predecessors = None
    if count <= PAIR_THRESHOLD:
        runs = [(i, range(count)) for i in range(count)]
    else:
        rng = rng or random.Random(0)
        # randrange(count) draws as choice(nodes) does
        runs = [(rng.randrange(count), (rng.randrange(count),)) for _ in range(PAIR_SAMPLES)]
        # from the adjacency itself, since a faulty move can make an
        # edge one-way or lead it out of the node set
        predecessors = [[] for _ in adjacency]
        for node, others in adjacency.items():
            for other in others:
                predecessors[other].append(node)
    # moved[i][move] is the number of the node that move turns node i
    # into; apply_move is pure, so a move met again, from any start, is
    # looked up.  A move that raises or leaves the node set is not
    # stored, so it fails again on every chain holding it.  Tables hold
    # numbers, not each other, since moves are reversible and tables
    # would form cycles.
    moved: defaultdict[int, dict[Move, int]] = defaultdict(dict)
    report.pair_count = sum(len(targets) for _, targets in runs)
    longest = farthest = 0

    def fail(i, j, move_index, reason):
        report.failures.append(TransformFailure(word, nodes[i], nodes[j], move_index, reason))

    for i, targets in runs:
        r = sequences[i]
        dist = _distances(adjacency, i) if predecessors is None else None
        for j in targets:
            try:
                chain = transform_to(r, sequences[j])
            except Exception as err:
                # a defect: one pair's failure, not the end of the sweep
                fail(i, j, None, _reason(err))
                continue
            length = len(chain)
            if length > longest:
                longest = length
            if length > bound:
                fail(i, j, None, f"chain length {length} exceeds bound {bound}")
            at = i
            for move_index, move in enumerate(chain):
                table = moved[at]
                after = table.get(move)
                if after is None:
                    try:
                        result = apply_move(sequences[at], move)
                    except Exception as err:
                        fail(i, j, move_index, _reason(err))
                        break
                    # a non-node is missing from index or numbered past the nodes
                    after = index.get(result.steps, count)
                    if after >= count:
                        fail(i, j, move_index, "intermediate sequence is not a known node")
                        break
                    table[move] = after
                at = after
            else:
                if at != j:
                    fail(i, j, None, "chain does not replay to the target")
            if dist is None:
                distance = _distance(adjacency, predecessors, i, j)
            else:
                distance = dist[j]
            if distance is None:
                fail(i, j, None, "target unreachable by single moves")
            elif distance > farthest:
                farthest = distance
    report.max_chain_length = longest
    report.max_bfs_distance = farthest
    return report


def signed_alphabet(names: tuple[str, ...] | list[str]) -> tuple[SignedGenerator, ...]:
    """The 2n signed items over the given names, in name order with the
    positive item first.  Raises ParseError at the first name that is
    not a generator name or repeats an earlier one, since a repeated
    name would yield every word more than once."""
    letters: dict[SignedGenerator, None] = {}
    for name in names:
        item = signed(name)
        if item in letters:
            raise ParseError("alphabet names must be distinct", token=name)
        letters[item] = letters[invert(item)] = None
    return tuple(letters)


def all_words(names: tuple[str, ...] | list[str], length: int):
    """Every word of exactly this length, lexicographic over the signed
    alphabet.  4^length words for two names, so keep lengths small.
    Raises InvalidArgument, once iterated, for a negative length."""
    if length < 0:
        raise InvalidArgument(f"word length must not be negative, got {length!r}")
    yield from itertools.product(signed_alphabet(names), repeat=length)


def random_reducible_word(
    names: tuple[str, ...] | list[str], pairs: int, rng: random.Random
) -> Word:
    """A word of length 2*pairs with empty normal form, built by
    repeatedly inserting a cancelling pair at a random position.  Every
    fully reducible word can arise this way.  Raises InvalidArgument
    for a negative pair count, or for pairs from an empty alphabet."""
    if pairs < 0:
        raise InvalidArgument(f"pair count must not be negative, got {pairs!r}")
    letters = signed_alphabet(names)
    if pairs and not letters:
        raise InvalidArgument("cannot draw cancelling pairs from an empty alphabet")
    word: Word = ()
    for _ in range(pairs):
        item = rng.choice(letters)
        at = rng.randrange(len(word) + 1)
        word = word[:at] + (item, invert(item)) + word[at:]
    return word


@dataclass
class CorpusReport:
    """Aggregated results of sweeping a corpus of words."""

    words_checked: int = 0
    sequences_enumerated: int = 0
    pairs_verified: int = 0
    max_chain_length: int = 0
    max_bfs_distance: int = 0
    disconnected: list[Word] = field(default_factory=list)
    mismatched: list[Word] = field(default_factory=list)
    transform_failures: list[TransformFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.disconnected or self.mismatched or self.transform_failures)


def check_corpus(words, cap: int = DEFAULT_CAP, seed: int = 0) -> CorpusReport:
    """Run the full battery over a corpus of words.

    Per word: the reducible/empty-normal-form equivalence, move-graph
    connectivity, and transform_to replay checks; check_pairs draws the
    pairs of every sampled word from one Random(seed).  Words are
    processed in sorted text order, so reports are deterministic
    whatever order the corpus arrives in.
    """
    rng = random.Random(seed)
    report = CorpusReport()
    for w in sorted(words, key=render_word):
        report.words_checked += 1
        graph = build_move_graph(w, cap)
        report.sequences_enumerated += len(graph.nodes)
        if bool(graph.nodes) != (normal_form(w) == ()):
            report.mismatched.append(w)
        if not graph.nodes:
            continue
        if not check_connected(graph):
            report.disconnected.append(w)
        sub = check_pairs(graph, rng)
        report.pairs_verified += sub.pair_count
        report.max_chain_length = max(report.max_chain_length, sub.max_chain_length)
        report.max_bfs_distance = max(report.max_bfs_distance, sub.max_bfs_distance)
        report.transform_failures.extend(sub.failures)
    return report
