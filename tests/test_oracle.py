import gc
import hashlib
import json
import random
import re
import tracemalloc
from collections import deque

import pytest

from freeword import moves, oracle, transform
from freeword.core import parse_word, render_word
from freeword.errors import CapExceeded, FreewordError, InvalidArgument, NotIndependent, ParseError
from freeword.group import normal_form
from freeword.moves import OVERLAP_LEFT, OVERLAP_RIGHT, SWAP, Move, applicable_moves, apply_move
from freeword.oracle import (
    DEFAULT_CAP,
    MoveGraph,
    TransformReport,
    all_words,
    build_move_graph,
    check_connected,
    check_corpus,
    check_pairs,
    enumerate_sequences,
    random_reducible_word,
    signed_alphabet,
)
from freeword.transform import front_reduction, transform_to
from freeword.reduction import ReductionSequence, apply_step, validate_sequence


def w(text):
    return parse_word(text)


def test_enumerate_single_pair():
    seqs = enumerate_sequences(w("a a'"))
    assert [s.steps for s in seqs] == [(0,)]


def test_enumerate_overlap_family():
    seqs = enumerate_sequences(w("a a' a a'"))
    assert [s.steps for s in seqs] == [(0, 0), (1, 0), (2, 0)]


def test_enumerate_empty_word_has_the_empty_sequence():
    assert [s.steps for s in enumerate_sequences(())] == [()]


def test_enumerate_irreducible_and_odd_words():
    assert enumerate_sequences(w("a b")) == []
    assert enumerate_sequences(w("a")) == []
    assert enumerate_sequences(w("a a' b")) == []


def test_enumerate_respects_cap():
    long_word = w(" ".join(["a", "a'"] * 7))  # 14 items
    with pytest.raises(CapExceeded):
        enumerate_sequences(long_word)
    assert enumerate_sequences(long_word, cap=14)


@pytest.mark.parametrize("text", ["", "a a'"])
def test_enumerate_rejects_a_negative_cap(text):
    # used to raise CapExceeded, "word length 0 exceeds enumeration cap -1"
    with pytest.raises(InvalidArgument, match=r"^cap must not be negative, got -1$"):
        enumerate_sequences(w(text), cap=-1)
    with pytest.raises(InvalidArgument):
        build_move_graph(w(text), cap=-1)


def test_enumerate_a_word_deeper_than_the_recursion_limit():
    # 1,200 nested pairs: one frame per pair used to overflow the stack
    deep = w(" ".join(["a"] * 1200 + ["a'"] * 1200))
    sequences = enumerate_sequences(deep, cap=2400)
    assert [s.steps for s in sequences] == [tuple(range(1199, -1, -1))]


def test_enumerated_sequences_are_valid_unique_lexicographic():
    for text in ["a a' b b'", "a a' a a'", "a a' b c c' b'", "b' b b' b a a'"]:
        word = w(text)
        seqs = enumerate_sequences(word)
        step_lists = [s.steps for s in seqs]
        assert len(set(step_lists)) == len(step_lists)
        assert step_lists == sorted(step_lists)
        for s in seqs:
            assert validate_sequence(word, s.steps) == s


def test_enumeration_empty_iff_normal_form_nonempty():
    for length in range(7):
        for word in all_words(("a", "b"), length):
            has_sequences = bool(enumerate_sequences(word))
            assert has_sequences == (normal_form(word) == ())


def test_move_graph_two_disjoint_pairs():
    graph = build_move_graph(w("a a' b b'"))
    assert graph.nodes == ((0, 0), (2, 0))
    assert graph.edges() == [((0, 0), (2, 0), Move(SWAP, 0))]


def test_move_graph_overlap_family_is_a_triangle():
    graph = build_move_graph(w("a a' a a'"))
    assert graph.nodes == ((0, 0), (1, 0), (2, 0))
    labelled = {(src, dst): move for src, dst, move in graph.edges()}
    assert labelled == {
        ((0, 0), (1, 0)): Move(OVERLAP_RIGHT, 0),
        ((1, 0), (2, 0)): Move(OVERLAP_RIGHT, 0),
        ((0, 0), (2, 0)): Move(SWAP, 0),
    }


def test_move_graph_single_node():
    graph = build_move_graph(w("a a'"))
    assert graph.nodes == ((0,),)
    assert graph.edges() == []
    assert check_connected(graph)


def test_move_graph_every_edge_has_its_reverse():
    for text in ["a a' b b'", "a a' a a'", "a a' b c c' b'", "a a' a a' a a'"]:
        graph = build_move_graph(w(text))
        assert len(graph.adjacency) == len(graph.nodes)
        for src, node in enumerate(graph.nodes):
            for dst, move in graph.adjacency[src].items():
                reverse_kind = {
                    SWAP: SWAP,
                    OVERLAP_LEFT: OVERLAP_RIGHT,
                    OVERLAP_RIGHT: OVERLAP_LEFT,
                }[move.kind]
                back = graph.adjacency[dst].get(src)
                assert back == Move(reverse_kind, move.at), \
                    f"{move} from {node} has no reverse from {graph.nodes[dst]}"


def hand_built(text, nodes, adjacency, strays=()):
    # a MoveGraph built by hand: the nodes are numbered first, then the
    # non-nodes that some edge reaches, as build_move_graph numbers them
    index = {steps: i for i, steps in enumerate(nodes + strays)}
    return MoveGraph(w(text), nodes, adjacency, index)


def test_check_connected_spots_a_gap():
    # hand-built graph with an unreachable node
    adjacency = {
        0: {1: Move(OVERLAP_RIGHT, 0)},
        1: {0: Move(OVERLAP_LEFT, 0)},
        2: {},
    }
    graph = hand_built("a a' a a'", ((0, 0), (1, 0), (2, 0)), adjacency)
    assert not check_connected(graph)
    # the same graph with the gap filled
    adjacency[1][2] = Move(OVERLAP_RIGHT, 0)
    adjacency[2][1] = Move(OVERLAP_LEFT, 0)
    assert check_connected(graph)


def test_check_connected_rejects_an_edge_leaving_the_node_set():
    # only a faulty move can produce such an edge; it must not pass.
    # (9, 9) is no node, so it is numbered past them, with a map of its own
    adjacency = {
        0: {1: Move(SWAP, 0), 2: Move(SWAP, 0)},
        1: {0: Move(SWAP, 0)},
        2: {},
    }
    graph = hand_built("a a' b b'", ((0, 0), (2, 0)), adjacency, strays=((9, 9),))
    assert not check_connected(graph)
    # the same graph without the stray edge
    del adjacency[0][2]
    assert check_connected(graph)


def test_check_triviality_witness():
    # any two complete reductions are linked by single moves
    for text in ["a a' b c c' b'", "a a' a a' a a'", "a b", ""]:  # "a b" is vacuous
        assert check_connected(build_move_graph(w(text)))


def test_check_transform_chain_single_node():
    report = check_pairs(build_move_graph(w("a a'")))
    assert report.ok
    assert report.pair_count == 1
    assert report.max_chain_length == 0
    assert report.max_bfs_distance == 0


def test_check_transform_chain_two_nodes():
    report = check_pairs(build_move_graph(w("a a' b b'")))
    assert report.ok
    assert report.pair_count == 4
    assert report.max_bfs_distance == 1
    assert report.max_chain_length >= 1


def test_check_transform_chain_longer_word():
    report = check_pairs(build_move_graph(w("a a' b c c' b'")))
    assert report.ok
    assert report.pair_count == len(report_nodes(report)) ** 2


def report_nodes(report):
    return enumerate_sequences(report.word)


def test_check_pairs_on_an_irreducible_word_checks_no_pair():
    graph = build_move_graph(w("a b"))
    assert graph.nodes == ()
    assert check_pairs(graph) == TransformReport(w("a b"))


def test_check_transform_chain_sampling(monkeypatch):
    monkeypatch.setattr(oracle, "PAIR_THRESHOLD", 14)
    monkeypatch.setattr(oracle, "PAIR_SAMPLES", 10)
    report = check_pairs(build_move_graph(w("a a' a a' a a'")), random.Random(5))
    assert report.pair_count == 10
    assert report.ok


@pytest.mark.parametrize("threshold,pair_count", [(15, 15 ** 2), (14, oracle.PAIR_SAMPLES)])
def test_check_pairs_samples_only_above_the_threshold(monkeypatch, threshold, pair_count):
    graph = build_move_graph(w("a a' a a' a a'"))
    assert len(graph.nodes) == 15
    monkeypatch.setattr(oracle, "PAIR_THRESHOLD", threshold)
    report = check_pairs(graph)
    assert report.pair_count == pair_count
    assert report.ok


def test_chain_length_dominates_bfs_distance():
    for text in ["a a' b b'", "a a' a a'", "a a' b c c' b'"]:
        report = check_pairs(build_move_graph(w(text)))
        assert report.max_chain_length >= report.max_bfs_distance


def test_signed_alphabet_order():
    letters = signed_alphabet(("a", "b"))
    assert [str(x) for x in letters] == ["a", "a'", "b", "b'"]


def test_signed_alphabet_rejects_a_name_that_is_not_a_generator():
    # "a b" used to make one item that renders as two tokens
    with pytest.raises(ParseError, match="not a valid generator name"):
        list(all_words(("a b",), 1))


def test_signed_alphabet_rejects_a_repeated_name():
    # ("a", "a") used to yield every word twice
    with pytest.raises(ParseError, match="alphabet names must be distinct"):
        list(all_words(("a", "a"), 1))


def test_all_words_counts():
    assert len(list(all_words(("a", "b"), 0))) == 1
    assert len(list(all_words(("a", "b"), 2))) == 16
    assert len(list(all_words(("a", "b", "c"), 2))) == 36


@pytest.mark.parametrize("make,message", [
    (lambda: list(all_words(("a", "b"), -1)), "word length must not be negative"),
    (lambda: random_reducible_word((), 2, random.Random(0)), "empty alphabet"),
    (lambda: random_reducible_word(("a", "b"), -3, random.Random(0)),
     "pair count must not be negative"),
], ids=["negative-length", "empty-alphabet", "negative-pairs"])
def test_corpus_generators_reject_bad_arguments(make, message):
    # these raised itertools' ValueError, an IndexError, and returned ()
    with pytest.raises(InvalidArgument, match=message):
        make()


def test_random_reducible_word_is_reducible_and_seeded():
    rng = random.Random(42)
    words = [random_reducible_word(("a", "b", "c"), n, rng) for n in (1, 3, 6)]
    for n, word in zip((1, 3, 6), words):
        assert len(word) == 2 * n
        assert normal_form(word) == ()
    again = random.Random(42)
    assert words == [random_reducible_word(("a", "b", "c"), n, again) for n in (1, 3, 6)]


def test_check_corpus_small_sweep():
    words = [word for length in range(5) for word in all_words(("a", "b"), length)]
    report = check_corpus(words)
    assert report.ok
    assert report.words_checked == 1 + 4 + 16 + 64 + 256
    assert report.disconnected == []
    assert report.mismatched == []
    assert report.transform_failures == []
    assert report.pairs_verified > 0
    assert report.max_chain_length >= 1


def test_check_corpus_is_deterministic():
    words = list(all_words(("a", "b"), 4))
    first = check_corpus(words)
    second = check_corpus(list(reversed(words)))
    assert (first.words_checked, first.sequences_enumerated, first.pairs_verified,
            first.max_chain_length, first.max_bfs_distance) == (
        second.words_checked, second.sequences_enumerated, second.pairs_verified,
        second.max_chain_length, second.max_bfs_distance)


def test_check_corpus_sampling_policy():
    # (a a')^5 has hundreds of sequences, so pairs get sampled
    word = w(" ".join(["a", "a'"] * 5))
    node_count = len(enumerate_sequences(word))
    assert node_count > 200
    report = check_corpus([word])
    assert report.pairs_verified == 50
    assert report.ok


def test_check_corpus_seed_drives_the_sampled_pairs(monkeypatch):
    # (a a')^5 has 945 sequences, so its pairs are drawn from Random(seed)
    word = w(" ".join(["a", "a'"] * 5))
    pairs = record_pairs(monkeypatch)

    def sweep(seed):
        del pairs[:]
        report = check_corpus([word], seed=seed)
        assert report.ok
        return list(pairs), report

    draws, report = sweep(0)
    assert len(draws) == oracle.PAIR_SAMPLES
    assert sweep(0) == (draws, report)
    assert sweep(1)[0] != draws


# The oracle must be able to fail: each seeded defect below has to show
# up as a reported failure of check_corpus, not as a pass or a crash.

SELF_TEST_WORDS = [word for length in range(0, 7, 2) for word in all_words(("a", "b"), length)]


def truncating_transform_to(r, s):
    return transform_to(r, s)[:-1]


def swap_without_shift(r, i):
    # exchanges the positions but forgets to rewrite them
    steps = r.steps
    return ReductionSequence(r.word, steps[:i] + (steps[i + 1], steps[i]) + steps[i + 2:])


def overlap_target_off_by_one(before, p, direction):
    target = ORIGINAL_OVERLAP_TARGET(before, p, direction)
    return None if target is None else p


ORIGINAL_OVERLAP_TARGET = moves._overlap_target


def front_without_lift(word, steps, p, lift):
    # moves found past level 0 keep the step indices of the shorter word
    return ORIGINAL_FRONT(word, steps, p, 0)


ORIGINAL_FRONT = transform._front


def overlap_switch_reversed(r, i, direction):
    # switches the other way; only apply_move calls overlap_switch, so
    # the move graph stays sound and only check_pairs' replay meets it
    return ORIGINAL_OVERLAP_SWITCH(r, i, moves.LEFT if direction == moves.RIGHT else moves.RIGHT)


ORIGINAL_OVERLAP_SWITCH = moves.overlap_switch


SEEDED_DEFECTS = [
    (oracle, "transform_to", truncating_transform_to),
    (moves, "swap", swap_without_shift),
    (moves, "_overlap_target", overlap_target_off_by_one),
    (transform, "_front", front_without_lift),
    (moves, "overlap_switch", overlap_switch_reversed),
]


def patch_with_cold_memo(monkeypatch, module, name, value):
    # transform_to's memo may hold edges of earlier calls: start cold,
    # and restore it afterwards so no patched edge outlives the test
    monkeypatch.setattr(transform, "_memo", None)
    monkeypatch.setattr(module, name, value)


@pytest.mark.parametrize("module,name,defect", SEEDED_DEFECTS)
def test_check_corpus_reports_seeded_defects(monkeypatch, module, name, defect):
    assert check_corpus(SELF_TEST_WORDS).ok
    patch_with_cold_memo(monkeypatch, module, name, defect)
    report = check_corpus(SELF_TEST_WORDS)
    assert not report.ok
    assert report.words_checked == len(SELF_TEST_WORDS)


# Count and sha256 of every transform failure (word, start, target,
# move index, reason) that check_corpus(SELF_TEST_WORDS) reports under
# each seeded defect, recorded while every chain was still replayed from
# its start.  Looking moves up in check_pairs' table of applied moves
# must report the very same failures, in the same order.  The
# overlap_switch row was recorded before check_pairs read its nodes
# from one table of sequences, which must not change it either.
PINNED_FAILURES = {
    "transform_to": (4872, "8aa5f1d6cec88b71d4e6940a40f26d0f06f1a137610451c8190b156675ac5ad6"),
    "swap": (6712, "c38de5441588260c40b9fcfc51160d7e03f4fde69ed60d4427f5dbb44305b732"),
    "_overlap_target": (4048, "596226b140969c9df79d124d1b2f99e39ce88570376b832c90aac92917a1d43e"),
    "_front": (2904, "59c0cf9236359146098b7dedf6ab2b14463f0a2b6c9b2154f7876d43c532bcc5"),
    "overlap_switch": (2024, "7bd7b897913b84afac3bef5b61c05c550c2712ee5b080e81a7795fe929b253b3"),
}


@pytest.mark.parametrize("module,name,defect", SEEDED_DEFECTS)
def test_seeded_defect_failures_are_pinned(monkeypatch, module, name, defect):
    patch_with_cold_memo(monkeypatch, module, name, defect)
    failures = check_corpus(SELF_TEST_WORDS).transform_failures
    text = "\n".join(
        json.dumps([render_word(f.word), list(f.start), list(f.target), f.move_index, f.reason])
        for f in failures
    )
    assert (len(failures), hashlib.sha256(text.encode()).hexdigest()) == PINNED_FAILURES[name]


def transform_to_raising_at_2_0(r, s):
    # a defect that raises instead of returning a chain
    if s.steps == (2, 0):
        raise NotIndependent(0, 1, 0)
    return transform_to(r, s)


def test_check_corpus_reports_a_transform_to_that_raises(monkeypatch):
    # used to end the sweep with the error instead of reporting it
    patch_with_cold_memo(monkeypatch, oracle, "transform_to", transform_to_raising_at_2_0)
    report = check_corpus([w("a a' a a'")])
    assert report.pairs_verified == 9
    reason = str(NotIndependent(0, 1, 0))
    assert [(f.start, f.target, f.move_index, f.reason) for f in report.transform_failures] == [
        (start, (2, 0), None, reason) for start in [(0, 0), (1, 0), (2, 0)]
    ]


def padding_transform_to(r, s):
    # a correct chain padded past k(k-1)/2 moves with a legal swap
    # applied twice, which replays to the target all the same
    chain = transform_to(r, s)
    k = len(s.steps)
    swaps = [Move(SWAP, i) for i in range(k - 1) if s.steps[i + 1] != s.steps[i] - 1]
    while swaps and len(chain) <= k * (k - 1) // 2:
        chain += (swaps[0], swaps[0])
    return chain


def test_check_corpus_reports_a_chain_past_the_length_bound(monkeypatch):
    # replay and the BFS pass, so only the length bound can catch it
    patch_with_cold_memo(monkeypatch, oracle, "transform_to", padding_transform_to)
    report = check_corpus(SELF_TEST_WORDS)
    padded = []
    for word in SELF_TEST_WORDS:
        nodes = build_move_graph(word).nodes
        k = len(word) // 2
        padded += [
            (word, start, target) for start in nodes for target in nodes
            if len(padding_transform_to(ReductionSequence(word, start),
                                        ReductionSequence(word, target))) > k * (k - 1) // 2
        ]
    assert padded
    assert sorted((f.word, f.start, f.target) for f in report.transform_failures) == sorted(padded)
    for f in report.transform_failures:
        assert f.move_index is None
        assert re.fullmatch(r"chain length \d+ exceeds bound \d+", f.reason)
    assert report.disconnected == report.mismatched == []


def swap_refusing_step_zero(r, i):
    # calls every pair of steps 0 and 1 nested
    if i == 0:
        raise NotIndependent(0, r.steps[0], r.steps[1])
    return ORIGINAL_SWAP(r, i)


ORIGINAL_SWAP = moves.swap


def test_check_pairs_reports_a_failure_inside_a_shared_prefix(monkeypatch):
    # from (0, 0, 0) the chains to the consecutive targets (4, 0, 0) and
    # (4, 2, 0) are swap@1,swap@0 and swap@1,swap@0,swap@1; the broken
    # swap@0 is never stored in the table of applied moves, so both
    # chains meet it and report it at move 1
    graph = build_move_graph(w("a a' b b' c c'"))
    start, first, second = (0, 0, 0), (4, 0, 0), (4, 2, 0)
    assert graph.nodes.index(second) == graph.nodes.index(first) + 1
    monkeypatch.setattr(moves, "swap", swap_refusing_step_zero)
    report = check_pairs(graph)
    broken = {
        f.target: (f.move_index, f.reason)
        for f in report.failures
        if f.start == start and f.move_index is not None
    }
    reason = "steps 0 and 1 are nested (positions 0, 2), not independent"
    assert broken[first] == broken[second] == (1, reason)


def test_check_pairs_reports_a_replayed_move_that_raises(monkeypatch):
    # an error outside the FreewordError hierarchy from apply_move during
    # the replay is that pair's failure at the move, by its type and its
    # message, as a FreewordError is by its message.  The move is not
    # stored, so every chain that meets it raises again
    graph = build_move_graph(w("a a' a a' b b'"))
    broken = (2, 0, 0)
    reason = "IndexError: tuple index out of range"
    raised = []

    def raising(r, move):
        if r.steps == broken:
            raised.append(move)
            raise IndexError("tuple index out of range")
        return apply_move(r, move)

    monkeypatch.setattr(oracle, "apply_move", raising)
    report = check_pairs(graph)
    expected = []
    for start in graph.nodes:
        for target in graph.nodes:
            current = ReductionSequence(graph.word, start)
            chain = transform_to(current, ReductionSequence(graph.word, target))
            for move_index, move in enumerate(chain):
                if current.steps == broken:
                    expected.append((start, target, move_index, reason))
                    break
                current = apply_move(current, move)
    assert len(expected) > len(graph.nodes)
    assert [(f.start, f.target, f.move_index, f.reason) for f in report.failures] == expected
    assert len(raised) == len(expected)


def test_check_pairs_builds_sequences_only_for_the_nodes_chains_touch(monkeypatch):
    # a sampled pair check builds one ReductionSequence for each start,
    # target and node a replayed move leaves from, not one per node
    graph = build_move_graph(w(LARGE_WORD))
    built, applied = [], []

    def counting_sequence(word, steps):
        built.append(steps)
        return ReductionSequence(word, steps)

    def recording_apply_move(r, move):
        applied.append(r.steps)
        return apply_move(r, move)

    monkeypatch.setattr(oracle, "ReductionSequence", counting_sequence)
    monkeypatch.setattr(oracle, "apply_move", recording_apply_move)
    pairs = record_pairs(monkeypatch)
    assert check_pairs(graph, random.Random(0)).ok
    assert len(built) == len(set(built))
    assert set(built) == {steps for pair in pairs for steps in pair} | set(applied)
    assert len(built) < len(graph.nodes) // 4


# the 180-sequence word of the sweep workload's first seed
SWEEP_WORD = "b b' b b' c c' a b c c' b' a'"


def test_check_pairs_applies_each_move_once_per_node(monkeypatch):
    graph = build_move_graph(w("a a' a a' b b'"))
    calls = []

    def counting_apply_move(r, move):
        calls.append((r.steps, move))
        return apply_move(r, move)

    monkeypatch.setattr(oracle, "apply_move", counting_apply_move)
    report = check_pairs(graph)
    assert report.ok
    # chains from every start meet the same (node, move) pairs again and
    # again; each is applied once
    met = set()
    total = 0
    for start in graph.nodes:
        r = ReductionSequence(graph.word, start)
        for target in graph.nodes:
            chain = transform_to(r, ReductionSequence(graph.word, target))
            total += len(chain)
            current = r
            for move in chain:
                met.add((current.steps, move))
                current = apply_move(current, move)
    assert sorted(calls) == sorted(met)
    assert len(met) < total


def reference_front_count(word, nodes):
    # transform_to's rule on a model of its states: one _front call per
    # distinct (state, step) edge over all ordered pairs.  A state is the
    # word and the fronted steps after some levels; a start's own state is
    # its alone, and every deeper state is shared by all starts of the word.
    k = len(word) // 2
    states = {}

    def state(start, prefix):
        # the word and fronted steps after len(prefix) levels
        if not prefix:
            return word, start
        if (start, prefix) not in states:
            before, steps = state(start, prefix[:-1])
            _, fronted = front_reduction(ReductionSequence(before, steps), prefix[-1])
            states[start, prefix] = apply_step(before, prefix[-1]), fronted.steps[1:]
        return states[start, prefix]

    edges = {(state(start, target[:level]), target[level])
             for start in nodes for target in nodes for level in range(k)}
    deeper = {state(start, target[:level]) for start in nodes for target in nodes
              for level in range(1, k + 1)}
    return len(edges), len(deeper)


def test_check_pairs_resumes_transform_to_past_the_shared_levels(monkeypatch):
    graph = build_move_graph(w(SWEEP_WORD))
    calls = []

    def counting_front(word, steps, p, lift):
        calls.append(lift)
        return ORIGINAL_FRONT(word, steps, p, lift)

    patch_with_cold_memo(monkeypatch, transform, "_front", counting_front)
    assert check_pairs(graph).ok
    states = transform._memo[2]
    monkeypatch.setattr(transform, "_front", ORIGINAL_FRONT)
    # one _front call per edge of the graph of states, the starts' own
    # nodes included
    fronts, deeper = reference_front_count(graph.word, graph.nodes)
    assert len(calls) == fronts == 1962
    assert len(states) == deeper == 259


def test_check_pairs_table_memory_is_bounded(monkeypatch):
    # every ordered pair of the 180-sequence word: transform_to's graph
    # of sub-problems, the tables of applied moves and the rest of the
    # pair check peak within 1 MiB traced
    graph = build_move_graph(w(SWEEP_WORD))
    monkeypatch.setattr(transform, "_memo", None)
    tracemalloc.start()
    try:
        assert check_pairs(graph).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_check_pairs_leaves_no_reference_cycles(monkeypatch):
    # with the cyclic collector off, reference counts alone free what the
    # pair check built once transform_to drops its graph for another
    # word.  Objects freed into the interpreter's free lists stay traced,
    # so a first round fills them and the second is measured; replay
    # tables that held each other would leave about 135 KiB a round
    graph = build_move_graph(w(SWEEP_WORD))
    other = enumerate_sequences(w("a a' b b'"))
    monkeypatch.setattr(transform, "_memo", None)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        levels = []
        for _ in range(2):
            assert check_pairs(graph).ok
            transform_to(other[0], other[1])
            levels.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert levels[1] - levels[0] < 2**14


# One-letter 12-letter words of the graph-large kind: the first has
# 2,052 sequences, the second 150, few enough to check every pair.
LARGE_WORD = "a a' a' a a' a a a' a a' a' a"
EXHAUSTIVE_WORD = "a a a a' a' a' a a a' a' a' a"


def full_bfs(graph, start):
    # reference: the distance from node number start to every number of
    # the adjacency, None where unreached, the whole graph searched
    dist = [None] * len(graph.adjacency)
    dist[start] = 0
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other in graph.adjacency[node].keys():
            if dist[other] is None:
                dist[other] = dist[node] + 1
                queue.append(other)
    return dist


def numbered(graph, pairs):
    # recorded (start, target) steps as node numbers
    return [(graph.index[s], graph.index[t]) for s, t in pairs]


def record_pairs(monkeypatch):
    # the (start, target) of every checked pair, in order: each pair
    # calls transform_to once, before its distance is looked up
    pairs = []

    def recording_transform_to(r, s):
        pairs.append((r.steps, s.steps))
        return transform_to(r, s)

    monkeypatch.setattr(oracle, "transform_to", recording_transform_to)
    return pairs


def record_searches(monkeypatch, maps=None):
    # every search the oracle runs, in order, with its result, over
    # node numbers: (start, distances) for a start's BFS, (start,
    # target, distance) for a sampled pair; maps, if given, collects the
    # successor map each search is handed
    searches = []
    maps = [] if maps is None else maps
    distances, distance = oracle._distances, oracle._distance

    def recording_distances(successors, start):
        maps.append(successors)
        searches.append((start, distances(successors, start)))
        return searches[-1][-1]

    def recording_distance(successors, predecessors, start, target):
        maps.append(successors)
        searches.append((start, target, distance(successors, predecessors, start, target)))
        return searches[-1][-1]

    monkeypatch.setattr(oracle, "_distances", recording_distances)
    monkeypatch.setattr(oracle, "_distance", recording_distance)
    return searches


def test_move_graph_held_memory_is_bounded():
    # LARGE_WORD's graph, 2,052 nodes and 8,190 edges, numbered: what it
    # holds stays below 1.75 MiB traced (1,278 KiB).  Keyed by step
    # tuples, each node's neighbour map held about 2.5 MiB
    word = w(LARGE_WORD)
    gc.collect()
    tracemalloc.start()
    try:
        graph = build_move_graph(word)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (len(graph.nodes), len(graph.edges())) == (2052, 8190)
    assert held < 1.75 * 2**20


def test_move_graph_work_and_peak_are_pinned(monkeypatch):
    # LARGE_WORD's graph, built by sub-problem, finds the step-0 moves of
    # each sub-problem once: 3,352 swap and 240 _overlap_target calls,
    # where building it node by node made 9,180 and 24,624.  The traced
    # peak stays below 2.1 MiB: 1,850 KiB, against 1,428 KiB node by node
    # and 1,973 KiB if no sub-problem's maps were dropped once lifted
    word = w(LARGE_WORD)
    gc.collect()
    tracemalloc.start()
    try:
        build_move_graph(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * 2**20
    calls = dict.fromkeys(["swap", "_overlap_target"], 0)

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(moves, name, counting(name, getattr(moves, name)))
    assert len(build_move_graph(word).nodes) == 2052
    assert calls == {"swap": 3352, "_overlap_target": 240}


def test_move_graph_keeps_every_applicable_move():
    # each node maps its neighbours, in applicable_moves order, to the
    # move reaching each one; no two moves share a neighbour, so the
    # map drops no move
    nodes = 0
    for word in [*SELF_TEST_WORDS, w(LARGE_WORD)]:
        graph = build_move_graph(word)
        assert len(graph.adjacency) == len(graph.index) == len(graph.nodes)
        for i, steps in enumerate(graph.nodes):
            assert graph.index[steps] == i
            applicable = applicable_moves(ReductionSequence(word, steps))
            assert len(graph.adjacency[i]) == len(applicable)
            assert [(graph.nodes[j], move) for j, move in graph.adjacency[i].items()] == [
                (result.steps, move) for move, result in applicable]
            nodes += 1
    assert nodes > 2052  # LARGE_WORD's alone, so no word was skipped


def test_move_graph_holds_exactly_the_moves_apply_move_accepts():
    # build_move_graph and applicable_moves share one implementation, so
    # check the graph against apply_move, whose swap and overlap_switch
    # walk each node on their own: every kind at every step index that
    # apply_move accepts is an edge to the sequence it returns, in step
    # index order, swap then ovl then ovr, and no other move is
    nodes = 0
    for word in [*SELF_TEST_WORDS, w(LARGE_WORD)]:
        graph = build_move_graph(word)
        k = len(word) // 2
        for i, steps in enumerate(graph.nodes):
            r = ReductionSequence(word, steps)
            accepted = []
            kinds = (SWAP, OVERLAP_LEFT, OVERLAP_RIGHT)
            for move in (Move(kind, i) for i in range(k) for kind in kinds):
                try:
                    accepted.append((apply_move(r, move).steps, move))
                except FreewordError:
                    pass
            assert [(graph.nodes[j], move) for j, move in graph.adjacency[i].items()] == accepted
            nodes += 1
    assert nodes > 2052  # LARGE_WORD's alone, so no word was skipped


def test_searches_run_over_the_graph_adjacency_itself(monkeypatch):
    # no search gets a successor map rebuilt from the adjacency:
    # check_connected, a start's BFS and a sampled pair's two-sided
    # search are all handed graph.adjacency itself, and search from
    # node numbers, not step tuples
    maps = []
    searches = record_searches(monkeypatch, maps)
    for text in [EXHAUSTIVE_WORD, LARGE_WORD]:
        graph = build_move_graph(w(text))
        del maps[:], searches[:]
        assert check_connected(graph)
        assert check_pairs(graph, random.Random(0)).ok
        assert len(maps) == len(searches) > 1
        assert all(m is graph.adjacency for m in maps)
        assert all(type(n) is int for search in searches for n in search[:-1])
    assert {len(search) for search in searches} == {2, 3}


@pytest.mark.parametrize("text,samples,seed", [
    (EXHAUSTIVE_WORD, None, 0),
    (LARGE_WORD, oracle.PAIR_SAMPLES, 0),
    (LARGE_WORD, oracle.PAIR_SAMPLES, 1),
    (LARGE_WORD, oracle.PAIR_SAMPLES, 2),
])
def test_check_pairs_distances_match_a_full_bfs(monkeypatch, text, samples, seed):
    graph = build_move_graph(w(text))
    pairs = record_pairs(monkeypatch)
    searches = record_searches(monkeypatch)
    report = check_pairs(graph, random.Random(seed))
    assert report.ok
    assert report.pair_count == len(pairs) == (samples or len(graph.nodes) ** 2)
    numbers = numbered(graph, pairs)
    reference = {start: full_bfs(graph, start) for start in {s for s, _ in numbers}}
    if samples is None:
        # every pair reads its distance from its start's one search
        assert [s for s, _ in pairs] == [s for s in graph.nodes for _ in graph.nodes]
        assert searches == [(start, reference[start]) for start in range(len(graph.nodes))]
    else:
        assert searches == [(s, t, reference[s][t]) for s, t in numbers]
    assert report.max_bfs_distance == max(reference[s][t] for s, t in numbers)


def test_check_pairs_reports_unreachable_targets_as_a_full_bfs_does(monkeypatch):
    # (0, 0) -> (1, 0) is one-way, and (2, 0) has an edge leaving the
    # node set, to (9, 9); only faulty moves make such graphs
    graph = hand_built(
        "a a' a a'",
        ((0, 0), (1, 0), (2, 0)),
        {
            0: {1: Move(OVERLAP_RIGHT, 0)},
            1: {2: Move(OVERLAP_RIGHT, 0)},
            2: {1: Move(OVERLAP_LEFT, 0), 3: Move(SWAP, 0)},
            3: {},
        },
        strays=((9, 9),),
    )
    reason = "target unreachable by single moves"
    pairs = record_pairs(monkeypatch)
    for samples, seed in [(None, 0), (5, 0), (8, 1), (8, 2)]:
        if samples is not None:
            # sample pairs even from these 3 nodes
            monkeypatch.setattr(oracle, "PAIR_THRESHOLD", 2)
            monkeypatch.setattr(oracle, "PAIR_SAMPLES", samples)
        del pairs[:]
        report = check_pairs(graph, random.Random(seed))
        numbers = numbered(graph, pairs)
        reference = {start: full_bfs(graph, start) for start in {s for s, _ in numbers}}
        unreachable = [(s, t, reason) for (s, t), (i, j) in zip(pairs, numbers)
                       if reference[i][j] is None]
        assert [(f.start, f.target, f.reason) for f in report.failures] == unreachable
        assert report.max_bfs_distance == max(
            reference[i][j] for i, j in numbers if reference[i][j] is not None)
        if samples is None:
            assert unreachable == [((1, 0), (0, 0), reason), ((2, 0), (0, 0), reason)]


def damaged_graph(graph, rng):
    # drop edges at random, so that some become one-way, and add edges
    # to nodes outside the node set, some of which lead back in; only
    # faulty moves make such graphs.  The strays are numbered past the
    # nodes, each with a map of its own
    drop = rng.choice([0.1, 0.3, 0.6])
    count = len(graph.nodes)
    strays = []
    adjacency = {}
    for i, node in enumerate(graph.nodes):
        kept = [edge for edge in graph.adjacency[i].items() if rng.random() >= drop]
        if rng.random() < 0.2:
            stray = count + len(strays)
            strays.append(node + (len(node),))  # one step too many: never a node
            kept.insert(rng.randrange(len(kept) + 1), (stray, Move(SWAP, 0)))
            if rng.random() < 0.5:
                # randrange(count) draws as choice(graph.nodes) does
                adjacency[stray] = {rng.randrange(count): Move(SWAP, 0)}
        adjacency[i] = dict(kept)
    adjacency = {i: adjacency.get(i, {}) for i in range(count + len(strays))}
    index = {steps: i for i, steps in enumerate(graph.nodes + tuple(strays))}
    return MoveGraph(graph.word, graph.nodes, adjacency, index)


@pytest.mark.parametrize("text", ["a a' a a' a a'", "a a' b b' a a' b b'", EXHAUSTIVE_WORD,
                                  SWEEP_WORD])
def test_sampled_distances_on_damaged_graphs_match_a_full_bfs(monkeypatch, text):
    # every pair's distance, or its unreachable target, is what a full
    # one-sided search finds, however one-way the graph is: first with
    # every pair sampled, then with PAIR_THRESHOLD at its default, under
    # which every pair of these words is checked
    pairs = record_pairs(monkeypatch)
    searches = record_searches(monkeypatch)
    reason = "target unreachable by single moves"
    graph = build_move_graph(w(text))
    for threshold in [2, oracle.PAIR_THRESHOLD]:
        monkeypatch.setattr(oracle, "PAIR_THRESHOLD", threshold)
        seen = set()
        for seed in range(8):
            damaged = damaged_graph(graph, random.Random(seed))
            del pairs[:], searches[:]
            report = check_pairs(damaged, random.Random(seed))
            numbers = numbered(damaged, pairs)
            reference = {start: full_bfs(damaged, start) for start in {s for s, _ in numbers}}
            if threshold == 2:
                assert len(pairs) == report.pair_count == oracle.PAIR_SAMPLES
                assert searches == [(s, t, reference[s][t]) for s, t in numbers]
            else:
                assert len(pairs) == report.pair_count == len(graph.nodes) ** 2
                assert searches == [(start, reference[start]) for start in range(len(graph.nodes))]
            unreachable = [(s, t, reason) for (s, t), (i, j) in zip(pairs, numbers)
                           if reference[i][j] is None]
            assert [(f.start, f.target, f.reason) for f in report.failures] == unreachable
            assert report.max_bfs_distance == max(
                [reference[i][j] for i, j in numbers if reference[i][j] is not None], default=0)
            seen.update("same" if i == j else "unreachable" if reference[i][j] is None
                        else "reachable" for i, j in numbers)
        assert seen == {"same", "unreachable", "reachable"}


class CountingMap(list):
    """Neighbours by node number that log every node a search expands,
    together with the start of that search."""

    def __init__(self, neighbours, start, log):
        super().__init__(neighbours[i] for i in range(len(neighbours)))
        self.start = start
        self.log = log

    def __getitem__(self, node):
        self.log.append((self.start, node))
        return super().__getitem__(node)


def count_expansions(monkeypatch):
    # the (start, node) of every node that the pair check's searches
    # expand, forward over successors and backward over predecessors
    forward, backward = [], []
    distances, distance = oracle._distances, oracle._distance

    def counting_distances(successors, start):
        return distances(CountingMap(successors, start, forward), start)

    def counting_distance(successors, predecessors, start, target):
        return distance(CountingMap(successors, start, forward),
                        CountingMap(predecessors, start, backward), start, target)

    monkeypatch.setattr(oracle, "_distances", counting_distances)
    monkeypatch.setattr(oracle, "_distance", counting_distance)
    return forward, backward


def expanded_until(graph, start, target):
    # how many nodes a one-sided breadth-first search from node number
    # start expands before it finds target
    dist = {start: 0}
    queue = deque([start])
    while queue and target not in dist:
        node = queue.popleft()
        for other in graph.adjacency[node].keys():
            if other not in dist:
                dist[other] = dist[node] + 1
                queue.append(other)
    return len(dist) - len(queue)


def test_check_pairs_search_stops_at_the_target(monkeypatch):
    pairs = record_pairs(monkeypatch)
    forward, backward = count_expansions(monkeypatch)
    graph = build_move_graph(w(LARGE_WORD))
    assert check_pairs(graph, random.Random(0)).ok
    assert forward and backward
    assert {node for _, node in forward + backward} <= set(range(len(graph.nodes)))
    # a full BFS expands every node of this connected graph once
    assert len(forward) + len(backward) < len({s for s, _ in pairs}) * len(graph.nodes)

    del forward[:], backward[:]
    graph = build_move_graph(w(EXHAUSTIVE_WORD))
    assert check_pairs(graph).ok
    # one search per start, which expands each node of this connected
    # graph once, and no search backward
    assert not backward
    assert len(set(forward)) == len(forward) == len(graph.nodes) ** 2


def test_check_pairs_sampled_searches_meet_in_the_middle(monkeypatch):
    # both sides of the sampled searches together expand under 30 % of
    # the nodes that one-sided searches stopping at the same targets
    # expand (27.6 %: 12,524 against 45,418, both pinned)
    pairs = record_pairs(monkeypatch)
    forward, backward = count_expansions(monkeypatch)
    searches = record_searches(monkeypatch)
    graph = build_move_graph(w(LARGE_WORD))
    assert check_pairs(graph, random.Random(0)).ok
    assert len(pairs) == len(searches) == oracle.PAIR_SAMPLES
    assert forward and backward
    one_sided = sum(expanded_until(graph, start, target)
                    for start, target in numbered(graph, pairs))
    assert len(forward) + len(backward) < 0.3 * one_sided
    assert (len(forward) + len(backward), one_sided) == (12524, 45418)
