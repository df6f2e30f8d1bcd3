"""Brute-force checking layer.

Enumerates every complete reduction of a small word, wires them into a
graph whose edges are single moves, and checks the properties the rest
of the package promises: the graph is connected, transform_to produces
chains that really replay, and a word is fully reducible exactly when
its normal form is empty.

Everything here is exhaustive on purpose and guarded by a length cap
(default 12): sequence counts grow quickly with word length, so raise
the cap knowingly.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field

from .core import SignedGenerator, Word, find_redexes, invert, render_word, signed
from .errors import CapExceeded, FreewordError, InvalidArgument, ParseError
from .group import normal_form
from .moves import Move, applicable_moves, apply_move
from .reduction import ReductionSequence
from .transform import transform_to

DEFAULT_CAP = 12
PAIR_THRESHOLD = 200
PAIR_SAMPLES = 50

Steps = tuple[int, ...]


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


def enumerate_sequences(w: Word, cap: int = DEFAULT_CAP) -> list[ReductionSequence]:
    """All complete reductions of w, duplicate-free, in lexicographic
    position order.  Empty iff the normal form of w is nonempty; the
    empty word has exactly the empty sequence."""
    if len(w) > cap:
        raise CapExceeded(len(w), cap)
    return [ReductionSequence(w, steps) for steps in _step_lists(w)]


@dataclass
class MoveGraph:
    """All reduction sequences of one word, joined by single moves.

    nodes are the step tuples in enumeration order; adjacency maps each
    node to every applicable (move, resulting node) pair.  Every edge
    comes with its reverse: swaps are self-inverse and the two overlap
    directions undo each other.
    """

    word: Word
    nodes: tuple[Steps, ...]
    adjacency: dict[Steps, tuple[tuple[Move, Steps], ...]]

    def edges(self) -> list[tuple[Steps, Steps, Move]]:
        """Canonical undirected edge list: one entry per unordered pair,
        labelled with the move applied from the smaller node."""
        return [
            (src, dst, move)
            for src in self.nodes
            for move, dst in self.adjacency[src]
            if src < dst
        ]


def build_move_graph(w: Word, cap: int = DEFAULT_CAP) -> MoveGraph:
    sequences = enumerate_sequences(w, cap)
    adjacency = {
        seq.steps: tuple((move, result.steps) for move, result in applicable_moves(seq))
        for seq in sequences
    }
    return MoveGraph(w, tuple(seq.steps for seq in sequences), adjacency)


def check_connected(graph: MoveGraph) -> bool:
    """BFS from the first node; true iff at most one component (so
    vacuously true for irreducible words).  An edge leading out of the
    node set, which only a faulty move can produce, also makes it false."""
    if not graph.nodes:
        return True
    start = graph.nodes[0]
    dist = {start: 0}
    _search(graph, dist, deque([start]), None)
    return dist.keys() == set(graph.nodes)


def _search(
    graph: MoveGraph,
    dist: dict[Steps, int],
    queue: deque,
    target: Steps | None,
    predecessors: dict[Steps, list[Steps]] | None = None,
) -> int | None:
    """Resume the breadth-first search held in dist and queue until
    target has a distance or the queue is empty; return that distance,
    or None if target is unreachable.  A node's distance is fixed when
    it is first found, so every distance in dist is exact; target None
    drains the search.  Nodes outside the graph have no edges.

    With predecessors, which maps each node to every node with an edge
    into it, dist and queue must hold only the start, and the search
    meets in the middle instead: it also searches backward from target
    and always grows the smaller frontier by one whole layer.  At the
    end of the first layer that finds nodes the other side has seen, it
    returns the least sum of their two distances; once either frontier
    is empty, None.
    """
    adjacency = graph.adjacency
    if predecessors is None:
        while queue and target not in dist:
            node = queue.popleft()
            step = dist[node] + 1
            for _, other in adjacency.get(node, ()):
                if other not in dist:
                    dist[other] = step
                    queue.append(other)
        return dist.get(target)
    if target in dist:
        return 0
    back = {target: 0}
    forward, backward = list(queue), [target]
    forward_step = backward_step = 0
    while forward and backward:
        meetings = []
        if len(forward) <= len(backward):
            forward_step += 1
            layer = []
            for node in forward:
                for _, other in adjacency.get(node, ()):
                    if other not in dist:
                        dist[other] = forward_step
                        layer.append(other)
                        if other in back:
                            meetings.append(forward_step + back[other])
            forward = layer
        else:
            backward_step += 1
            layer = []
            for node in backward:
                for other in predecessors.get(node, ()):
                    if other not in back:
                        back[other] = backward_step
                        layer.append(other)
                        if other in dist:
                            meetings.append(backward_step + dist[other])
            backward = layer
        if meetings:
            return min(meetings)
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


def check_pairs(graph: MoveGraph, rng: random.Random | None = None) -> TransformReport:
    """Replay-check transform_to over ordered pairs of the graph's nodes.

    Every ordered pair is checked when the graph has at most
    PAIR_THRESHOLD nodes; beyond that, PAIR_SAMPLES pairs are drawn from
    rng (default Random(0)).  A transform_to that raises is a failure too.
    Each pair must replay from start to target through known nodes
    within the k(k-1)/2 length bound, and the target must also be
    reachable by single moves.  Its BFS distance, reported alongside
    the chain length for comparison, comes from one search per run of
    targets from one start.  An exhaustive run holds every node, and
    each target resumes its search only until it is found, so no node
    is expanded twice for one start.  A sampled run holds one drawn
    target, and its search meets in the middle: it also runs backward
    from the target over a map of predecessors, built once per call
    from the adjacency, so the two sides stop about halfway.
    """
    word = graph.word
    nodes = graph.nodes
    report = TransformReport(word)
    k = len(word) // 2
    bound = k * (k - 1) // 2
    sequence = {node: ReductionSequence(word, node) for node in nodes}
    predecessors = None
    if len(nodes) <= PAIR_THRESHOLD:
        runs = [(start, nodes) for start in nodes]
    else:
        rng = rng or random.Random(0)
        runs = [(rng.choice(nodes), (rng.choice(nodes),)) for _ in range(PAIR_SAMPLES)]
        # from the adjacency itself, since a faulty move can make an
        # edge one-way or lead it out of the node set
        predecessors = {}
        for node, edges in graph.adjacency.items():
            for _, other in edges:
                predecessors.setdefault(other, []).append(node)
    # moved[steps, move] is the known node that move turns steps into.
    # apply_move is pure and the graph has one word, so a move met again,
    # from any start, is looked up; a move that raises or leaves the
    # node set is not stored, so it fails again on every chain holding it.
    moved: dict[tuple[Steps, Move], ReductionSequence] = {}

    def fail(start, target, move_index, reason):
        report.failures.append(TransformFailure(word, start, target, move_index, reason))

    for start, targets in runs:
        r = sequence[start]
        # one breadth-first search per run: each target resumes it only
        # until that target has a distance
        dist = {start: 0}
        queue = deque([start])
        for target in targets:
            report.pair_count += 1
            try:
                chain = transform_to(r, sequence[target])
            except FreewordError as err:
                # on two graph nodes it raises only through a defect
                fail(start, target, None, str(err))
                continue
            report.max_chain_length = max(report.max_chain_length, len(chain))
            if len(chain) > bound:
                fail(start, target, None, f"chain length {len(chain)} exceeds bound {bound}")
            current = r
            for idx, move in enumerate(chain):
                key = (current.steps, move)
                result = moved.get(key)
                if result is None:
                    try:
                        result = apply_move(current, move)
                    except FreewordError as err:
                        fail(start, target, idx, str(err))
                        break
                    if result.steps not in sequence:
                        fail(start, target, idx, "intermediate sequence is not a known node")
                        break
                    moved[key] = result
                current = result
            else:
                if current.steps != target:
                    fail(start, target, None, "chain does not replay to the target")
            distance = _search(graph, dist, queue, target, predecessors)
            if distance is None:
                fail(start, target, None, "target unreachable by single moves")
            else:
                report.max_bfs_distance = max(report.max_bfs_distance, distance)
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
