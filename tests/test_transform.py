import hashlib
import itertools
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeword import transform
from freeword.core import find_redexes, invert, parse_word, signed
from freeword.errors import FreewordError, IncompleteReduction, InvalidRedex, WordMismatch
from freeword.moves import Move, apply_chain, render_chain
from freeword.oracle import all_words, enumerate_sequences, random_reducible_word
from freeword.reduction import ReductionSequence, apply_step, render_steps, validate_sequence
from freeword.transform import drop_redex, extend_reduction, front_reduction, transform_to


def w(text):
    return parse_word(text)


def seq(text, steps):
    return validate_sequence(w(text), steps)


CORPUS_WORDS = [
    "a a'",
    "a a' b b'",
    "a a' a a'",
    "a b b' a'",
    "a a' b c c' b'",
    "b' b b' b",
    "a a' a a' a a'",
]


def redexes(word):
    return [p for p in range(len(word) - 1) if word[p] == invert(word[p + 1])]


def test_front_reduction_bubbles_a_late_step():
    r = seq("a a' b c c' b'", (3, 0, 0))
    chain, out = front_reduction(r, 0)
    assert out.steps == (0, 1, 0)
    assert chain == (Move("swap", 0),)


def test_front_reduction_no_move_needed():
    r = seq("a a' b c c' b'", (0, 1, 0))
    chain, out = front_reduction(r, 0)
    assert chain == ()
    assert out == r


def test_front_reduction_overlap_case():
    # the marked pair (0, 1) is torn apart: item 1 is consumed at step 0
    # together with item 2, so an overlap switch comes first
    r = seq("a a' a a'", (1, 0))
    chain, out = front_reduction(r, 0)
    assert chain == (Move("ovl", 0),)
    assert out.steps == (0, 0)


def test_front_reduction_mirror_overlap_case():
    # marked pair (2, 3): item 2 is consumed at step 0 together with
    # item 1, before item 3 goes; the mirror overlap direction applies
    r = seq("a' a a' a", (1, 0))
    chain, out = front_reduction(r, 2)
    assert chain == (Move("ovr", 0),)
    assert out.steps == (2, 0)


def test_front_reduction_rejects_non_redex():
    r = seq("a a' b b'", (0, 0))
    with pytest.raises(InvalidRedex):
        front_reduction(r, 1)
    with pytest.raises(InvalidRedex):
        front_reduction(r, 7)


# front_reduction and transform_to validate a start whole on entry, as
# validate_sequence does, so a hand-built start raises what
# validate_sequence raises on it; transform_to skips the check only for
# the start of its previous call, which it validated.

@pytest.mark.parametrize("steps", [(5, 0), (-1, 0)])
def test_front_reduction_rejects_steps_off_the_word(steps):
    # used to raise a bare IndexError, or NoOverlap for the negative step
    r = ReductionSequence(w("a a' b b'"), steps)
    with pytest.raises(InvalidRedex) as info:
        front_reduction(r, 0)
    assert (info.value.position, info.value.step) == (steps[0], 0)


def test_transform_to_rejects_steps_off_the_word():
    # used to raise a bare IndexError
    r = ReductionSequence(w("a a' b b'"), (5, 0))
    with pytest.raises(InvalidRedex) as info:
        transform_to(r, seq("a a' b b'", (0, 0)))
    assert (info.value.position, info.value.step) == (5, 0)


def test_transform_to_rejects_steps_that_run_out():
    # used to raise AssertionError("a complete sequence consumes every index")
    r = ReductionSequence(w("a a' b b'"), (0,))
    with pytest.raises(IncompleteReduction) as info:
        transform_to(r, seq("a a' b b'", (0, 0)))
    assert info.value.remainder == w("b b'")


def test_transform_to_rejects_a_target_that_stops_early_or_a_start_that_runs_on():
    # both used to return a chain that does not reach the target
    r = seq("a a' b b'", (0, 0))
    with pytest.raises(IncompleteReduction) as info:
        transform_to(r, ReductionSequence(r.word, (0,)))
    assert info.value.remainder == w("b b'")
    with pytest.raises(InvalidRedex) as info:
        transform_to(ReductionSequence(r.word, (0, 0, 0)), r)
    assert (info.value.position, info.value.step) == (0, 2)


@pytest.mark.parametrize("text,start,call,step", [
    ("a a' b b'", (1, 0), lambda r: front_reduction(r, 0), 0),
    ("a a' b b'", (1, 0), lambda r: front_reduction(r, 2), 0),
    ("a a' b b'", (1, 0), lambda r: transform_to(r, seq("a a' b b'", (0, 0))), 0),
    ("a a' b a' a b'", (0, 2, 0), lambda r: transform_to(r, seq("a a' b a' a b'", (0, 1, 0))), 1),
], ids=["front-left", "front-right", "transform_to", "transform_to-level-1"])
def test_steps_in_the_word_that_are_not_redexes_are_named(text, start, call, step):
    # used to raise NoOverlap, which blames a move rather than the step
    r = ReductionSequence(w(text), start)
    with pytest.raises(InvalidRedex) as info:
        call(r)
    assert (info.value.position, info.value.step) == (start[step], step)


@pytest.mark.parametrize("text,start,p,error,fields", [
    ("a a' b b' c c'", (0, 1, 0), 0, InvalidRedex, {"position": 1, "step": 1}),
    ("a a' b b' c c'", (2, 1, 0), 2, InvalidRedex, {"position": 1, "step": 1}),
    ("a a' b b' c c' d d'", (2, 0, 1, 0), 0, InvalidRedex, {"position": 1, "step": 2}),
    ("a a' b b' c c'", (0, 0), 0, IncompleteReduction, {"remainder": w("c c'")}),
], ids=["p-first", "p-first-right", "after-a-swap", "runs-out"])
def test_front_reduction_rejects_bad_steps_past_the_one_consuming_p(text, start, p, error, fields):
    # each used to come back rewritten without an error, since the scan
    # stops at the step consuming p
    r = ReductionSequence(w(text), start)
    with pytest.raises(error) as info:
        front_reduction(r, p)
    assert {name: getattr(info.value, name) for name in fields} == fields


@given(
    st.lists(st.sampled_from(["a", "a'", "b", "b'"]), max_size=6),
    st.lists(st.integers(-2, 7), max_size=4),
    st.lists(st.integers(-2, 7), max_size=4),
    st.integers(-1, 6),
)
def test_hand_built_sequences_fail_only_with_freeword_errors(items, start, target, p):
    word = w(" ".join(items))
    r, s = ReductionSequence(word, tuple(start)), ReductionSequence(word, tuple(target))
    for call in (lambda: front_reduction(r, p), lambda: transform_to(r, s)):
        try:
            call()
        except FreewordError:
            pass


def test_front_reduction_contract_over_corpus():
    # for every sequence and every redex: the chain replays r to the
    # output, the output starts at the redex, stays valid, and the chain
    # is short (one overlap plus at most steps-1 swaps)
    for text in CORPUS_WORDS:
        word = w(text)
        for r in enumerate_sequences(word):
            for p in redexes(word):
                chain, out = front_reduction(r, p)
                assert out.steps[0] == p
                assert validate_sequence(out.word, out.steps) == out
                assert apply_chain(r, chain) == out
                assert len(chain) <= len(r.steps)


def test_transform_to_simple_swap():
    chain = transform_to(seq("a a' b b'", (0, 0)), seq("a a' b b'", (2, 0)))
    assert chain == (Move("swap", 0),)


def test_transform_to_across_the_overlap_family():
    # the swap rule makes this a single move: steps (0,0) and
    # (2,0) consume disjoint pairs of a a' a a'
    r = seq("a a' a a'", (0, 0))
    s = seq("a a' a a'", (2, 0))
    chain = transform_to(r, s)
    assert chain == (Move("swap", 0),)
    assert apply_chain(r, chain) == s


def test_transform_to_identity_replays_to_itself():
    r = seq("a a' b b'", (0, 0))
    chain = transform_to(r, r)
    assert apply_chain(r, chain) == r


def test_transform_to_rejects_different_words():
    with pytest.raises(WordMismatch):
        transform_to(seq("a a'", (0,)), seq("b b'", (0,)))


def test_transform_to_contract_over_corpus():
    for text in CORPUS_WORDS:
        word = w(text)
        nodes = enumerate_sequences(word)
        k = len(word) // 2
        bound = k * (k - 1) // 2
        for r, s in itertools.product(nodes, nodes):
            chain = transform_to(r, s)
            assert apply_chain(r, chain) == s
            assert len(chain) <= bound


@pytest.mark.parametrize("k", [2, 3, 4])
def test_transform_to_chain_bound_is_attained(k):
    # a level with m steps left makes at most m - 1 moves, and some
    # one-letter word of k pairs needs every one of them
    longest = max(
        len(transform_to(r, s))
        for word in all_words(("a",), 2 * k)
        for nodes in [enumerate_sequences(word)]
        for r, s in itertools.product(nodes, nodes)
    )
    assert longest == k * (k - 1) // 2


def test_transform_to_lifts_tail_moves():
    # a pair needing a move below the first level: check indices shift
    r = seq("a a' b b' c c'", (0, 0, 0))
    s = seq("a a' b b' c c'", (0, 2, 0))
    chain = transform_to(r, s)
    assert apply_chain(r, chain) == s
    assert all(move.at >= 1 for move in chain)


# sha256 over render_chain(transform_to(r, s)) + "\n" for every ordered
# pair of sequences of every two-letter word of even length up to 8
GOLDEN_CHAINS_SHA256 = "934c55ca7c7c2c0bdb3556ac9634f7e7376d9f31e6650a656adbc279b3ae6ca9"
GOLDEN_CHAINS_PAIRS = 658301


def test_transform_to_chains_are_pinned():
    digest = hashlib.sha256()
    pairs = 0
    for length in range(0, 9, 2):
        for word in all_words(("a", "b"), length):
            nodes = enumerate_sequences(word)
            for r, s in itertools.product(nodes, nodes):
                digest.update((render_chain(transform_to(r, s)) + "\n").encode())
                pairs += 1
    assert pairs == GOLDEN_CHAINS_PAIRS
    assert digest.hexdigest() == GOLDEN_CHAINS_SHA256


# sha256 over words of 16 to 80 letters: render_chain(transform_to(r, s))
# + "\n" for two random complete sequences r and s, then for every redex
# p of the word render_chain(chain) + " " + render_steps(out.steps) + "\n"
# where chain, out = front_reduction(r, p)
GOLDEN_LONG_SHA256 = "f34302347c59604224cb2294808686802ba0b41fc12b88240a3057e44aca6127"
GOLDEN_LONG_LINES = 744


def random_sequence(word, rng):
    current, steps = word, []
    while current:
        p = rng.choice(find_redexes(current))
        steps.append(p)
        current = apply_step(current, p)
    return validate_sequence(word, steps)


def test_chains_for_long_words_are_pinned():
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    lines = 0
    for k in range(8, 41):
        word = random_reducible_word(("a", "b", "c"), k, rng)
        r, s = random_sequence(word, rng), random_sequence(word, rng)
        digest.update((render_chain(transform_to(r, s)) + "\n").encode())
        lines += 1
        for p in find_redexes(word):
            chain, out = front_reduction(r, p)
            digest.update((render_chain(chain) + " " + render_steps(out.steps) + "\n").encode())
            lines += 1
    assert lines == GOLDEN_LONG_LINES
    assert digest.hexdigest() == GOLDEN_LONG_SHA256


# transform_to keeps a graph of the sub-problems of one word; every call
# must return, or raise, what a call from scratch does.

MEMO_WORDS = [w(text) for text in (
    "a a' b b' c c'", "a a' a a' a a'", "b b' b b' c c' a b c c' b' a'",
)]
MEMO_NODES = [enumerate_sequences(word) for word in MEMO_WORDS]


def outcome(r, s):
    try:
        return transform_to(r, s)
    except FreewordError as err:
        return type(err), str(err), vars(err)


def cold_outcome(r, s):
    transform._memo = None
    return outcome(r, s)


def replace_step(steps, at, value):
    at %= len(steps) or 1
    return steps[:at] + (value,) + steps[at + 1:]


@st.composite
def memo_calls(draw):
    # runs of targets from few starts, interleaved across words, so starts
    # repeat both back to back and after other starts
    calls = []
    for _ in range(draw(st.integers(1, 8))):
        i = draw(st.integers(0, len(MEMO_WORDS) - 1))
        nodes = MEMO_NODES[i]
        r = nodes[draw(st.integers(0, 2))]
        for _ in range(draw(st.integers(1, 6))):
            s = nodes[draw(st.integers(0, len(nodes) - 1))]
            at, value = draw(st.integers(0, 8)), draw(st.integers(-1, len(r.word)))
            kind = draw(st.sampled_from(
                ["pair"] * 6 + ["mismatch", "early", "runs-on", "bad-start", "bad-target"]))
            if kind == "mismatch":
                s = MEMO_NODES[(i + 1) % len(MEMO_WORDS)][0]
            elif kind == "early":
                s = ReductionSequence(s.word, s.steps[:-1])
            elif kind == "runs-on":
                s = ReductionSequence(s.word, s.steps + (value,))
            elif kind == "bad-start":
                # kept for the rest of the run, so such starts repeat too
                r = ReductionSequence(r.word, replace_step(r.steps, at, value))
            elif kind == "bad-target":
                s = ReductionSequence(s.word, replace_step(s.steps, at, value))
            calls.append((r, s))
    return calls


@pytest.mark.at_length
@given(memo_calls())
def test_transform_to_with_the_memo_matches_cold_calls(calls):
    transform._memo = None
    warm = [outcome(r, s) for r, s in calls]
    assert warm == [cold_outcome(r, s) for r, s in calls]


@pytest.mark.at_length
@given(memo_calls())
def test_transform_to_with_a_small_bound_matches_cold_calls(calls):
    # a bound of 48 state letters, 4 states of these words of up to 12
    # letters, drops the graph at most calls; after each call the graph
    # holds at most the bound plus the k states of the last call that
    # walked it, from the memo's start
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "_MAX_STATE_LETTERS", 48)
        transform._memo = None
        warm = []
        for r, s in calls:
            warm.append(outcome(r, s))
            memo = transform._memo
            assert memo is None or len(memo[2]) <= 4 + len(memo[0].word) // 2
    assert warm == [cold_outcome(r, s) for r, s in calls]


def assert_edges_are_fronts(memo):
    # each node of the memo, the root included, holds its state, a pair of
    # tuples, and each edge the tuple of moves that fronting p makes on
    # that state, every at raised by j, leading to the node of the state
    # that fronting leaves
    _, root, graph = memo
    k = len(root[None][1])
    for node in [root, *graph.values()]:
        word, steps = node[None]
        assert type(word) is tuple and type(steps) is tuple
        j = k - len(steps)
        for p in node.keys() - {None}:
            moves, after = node[p]
            cold, fronted = front_reduction(ReductionSequence(word, steps), p)
            assert type(moves) is tuple
            assert moves == tuple(Move(move.kind, move.at + j) for move in cold)
            assert after is graph[apply_step(word, p), fronted.steps[1:]]


def count_fronts(monkeypatch):
    # the lift of every _front call from now on, in call order
    lifts = []
    original_front = transform._front

    def counting_front(word, steps, p, lift):
        lifts.append(lift)
        return original_front(word, steps, p, lift)

    monkeypatch.setattr(transform, "_front", counting_front)
    return lifts


def test_transform_to_memo_holds_one_call_of_immutable_values():
    transform._memo = None
    nodes = MEMO_NODES[2]
    k = len(nodes[0].steps)
    r = nodes[5]
    for s in nodes[:3]:
        chain = transform_to(r, s)
    start, root, graph = transform._memo
    assert start == r and root[None] == (r.word, r.steps)
    assert type(chain) is tuple
    # a new start of the same word keeps the graph and gets its own root
    transform_to(nodes[6], nodes[0])
    start, root, same = transform._memo
    assert start == nodes[6] and root[None] == (r.word, nodes[6].steps)
    assert same is graph and nodes[0].steps[0] in root
    # every ordered pair fills the graph with a node per state, no start
    # among them
    for r in nodes:
        for s in nodes:
            transform_to(r, s)
    graph = transform._memo[2]
    assert len(graph) > 100
    for state, node in graph.items():
        assert node[None] == state
        word, steps = state
        assert 0 < k - len(steps) <= k and len(word) == 2 * len(steps)
    assert_edges_are_fronts(transform._memo)


def states_along(r, target):
    # the state after each level of transform_to(r, target): the word
    # left and the fronted steps
    word, steps = r.word, r.steps
    states = [(word, steps)]
    for p in target:
        _, fronted = front_reduction(ReductionSequence(word, steps), p)
        word, steps = apply_step(word, p), fronted.steps[1:]
        states.append((word, steps))
    return states


def test_transform_to_second_call_resumes_past_the_shared_levels(monkeypatch):
    # a call stores every level it fronts, so the same target again fronts
    # nothing, and a second target fronts only past the prefix it shares
    # with the first, until it reaches a state the first one stored.  A
    # call from another start fronts until it reaches such a state too
    nodes = MEMO_NODES[2]
    k = len(nodes[0].steps)
    r, first, second = nodes[5], nodes[0], nodes[1]
    shared = 0
    while first.steps[shared] == second.steps[shared]:
        shared += 1
    assert 0 < shared < k
    stored = set(states_along(r, first.steps)[1:])
    along = states_along(r, second.steps)
    rejoin = next(j for j in range(shared + 1, k + 1) if along[j] in stored)
    assert rejoin < k
    stored.update(along[1:])
    other = nodes[0]
    along = states_along(other, first.steps)
    joined = next(j for j in range(1, k + 1) if along[j] in stored)
    assert joined < k
    calls = [(r, first, range(k)), (r, first, []), (r, second, range(shared, rejoin)),
             (other, first, range(joined))]
    monkeypatch.setattr(transform, "_memo", None)
    lifts = count_fronts(monkeypatch)
    chains = []
    for start, target, fronted in calls:
        del lifts[:]
        chains.append(transform_to(start, target))
        assert lifts == list(fronted)
    assert chains == [cold_outcome(start, target) for start, target, _ in calls]


@pytest.mark.at_length
def test_transform_to_from_two_threads_matches_cold_calls():
    # both threads take the same starts, one at a time, and split its
    # targets, so each keeps resuming from levels the other published
    nodes = MEMO_NODES[2]
    starts = nodes[:8]
    jobs = [[[(r, s) for s in nodes[n::2]] for r in starts] for n in (0, 1)]
    expected = [[[cold_outcome(r, s) for r, s in calls] for calls in job] for job in jobs]
    results = [[], []]
    barrier = threading.Barrier(2, timeout=60)

    def run(n):
        try:
            for calls in jobs[n]:
                barrier.wait()
                results[n].append([outcome(r, s) for r, s in calls])
        except BaseException:
            barrier.abort()  # do not leave the other thread waiting
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(n,)) for n in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


# The graph is shared by every start of one word, so calls from a start
# meet states that other starts stored, in whatever order.

SHARED_WORDS = [MEMO_WORDS[2], w(" ".join(["a a'"] * 4))]  # 180 and 105 sequences
SHARED_NODES = [enumerate_sequences(word) for word in SHARED_WORDS]


def start_major(nodes):
    return [(r, s) for r in nodes for s in nodes]


def shuffled_start_major(nodes, seed):
    # starts and each start's targets in a seeded order, so a call walks
    # prefixes of any length and meets other starts' states past them
    rng = random.Random(seed)
    starts = rng.sample(nodes, len(nodes))
    return [(r, s) for r in starts for s in rng.sample(nodes, len(nodes))]


def switched_halfway(first, second):
    # half the pairs of the first word, all of the second, the rest of
    # the first
    half = len(first) // 2
    return first[:half] + second + first[half:]


@pytest.mark.at_length
@pytest.mark.parametrize("order", ["start-major", "shuffled", "switched"])
def test_transform_to_sharing_tails_across_starts_matches_cold_calls(order):
    if order == "start-major":
        runs = [start_major(nodes) for nodes in SHARED_NODES]
    elif order == "shuffled":
        runs = [shuffled_start_major(nodes, 2026 + i) for i, nodes in enumerate(SHARED_NODES)]
    else:
        runs = [switched_halfway(*[start_major(nodes) for nodes in SHARED_NODES])]
    for calls in runs:
        transform._memo = None
        warm = [outcome(r, s) for r, s in calls]
        assert transform._memo[2]  # calls from a start did walk the graph
        assert warm == [cold_outcome(r, s) for r, s in calls]


def test_transform_to_drops_the_table_when_the_word_changes():
    first, second = SHARED_NODES
    transform._memo = None
    for r, s in start_major(first)[:400]:
        transform_to(r, s)
    graph = transform._memo[2]
    assert graph
    transform_to(second[0], second[1])  # a new start on another word
    assert transform._memo[2] is not graph
    # one state per level, each of the new word
    assert sorted(len(word) for word, _ in transform._memo[2]) == [0, 2, 4, 6]


def test_transform_to_target_with_a_bad_middle_step_stores_only_correct_edges(monkeypatch):
    # the root of the memo's start lacks the target's first step, so the
    # first call fronts level 0 before the step at level 3, which is off
    # the word or not a redex, or a redex that leaves the later steps off
    # or short.  Failing targets run first: the first stores the levels
    # before its bad step, which every later target shares, and every
    # edge stored, by a call that failed or not, is the front of its state
    nodes = SHARED_NODES[0]
    transform._memo = None
    for r, s in start_major(nodes)[:len(nodes) + 40]:
        transform_to(r, s)
    memo = transform._memo
    r, root = memo[:2]
    other = next(s.steps for s in nodes if s.steps[0] not in root)
    targets = [
        ReductionSequence(r.word, other[:3] + (bad,) + other[4:])
        for bad in range(-1, len(r.word) - 4)
    ]
    expected = {target: cold_outcome(r, target) for target in targets}

    def raises(got):
        return bool(got) and isinstance(got[0], type)

    transform._memo = memo
    lifts = count_fronts(monkeypatch)
    failed = 0
    for n, target in enumerate(sorted(targets, key=lambda target: not raises(expected[target]))):
        del lifts[:]
        got = outcome(r, target)
        failed += raises(got)
        assert got == expected[target]
        assert lifts[:1] == [0] if n == 0 else min(lifts, default=3) >= 3
    assert failed >= len(r.word) - 6
    assert transform._memo[1] is root and other[0] in root
    assert_edges_are_fronts(transform._memo)


def test_transform_to_from_a_fresh_start_stores_every_level(monkeypatch):
    # the fresh calls of library use: one pair at a time on a long word.
    # Each fronts and stores every level its state is new at, so the same
    # pair again fronts nothing, and an earlier start fronts only level 0
    # before it walks into the states it stored
    rng = random.Random(40)
    word = random_reducible_word(("a", "b", "c"), 40, rng)
    pairs = [(random_sequence(word, rng), random_sequence(word, rng)) for _ in range(3)]
    transform._memo = None
    for r, s in start_major(MEMO_NODES[0]):
        transform_to(r, s)
    lifts = count_fronts(monkeypatch)
    for n, (r, s) in enumerate(pairs):
        del lifts[:]
        chain = transform_to(r, s)
        assert apply_chain(r, chain) == s
        assert lifts == list(range(40)) if n == 0 else lifts[:2] == [0, 1]
        assert transform._memo[0] == r and transform._memo[1][None] == (word, r.steps)
    del lifts[:]
    for r, s in pairs[-1:] + pairs[:1]:
        assert apply_chain(r, transform_to(r, s)) == s
    assert lifts == [0]


@pytest.mark.parametrize("starts", ["one", "fresh"])
def test_transform_to_memory_is_bounded(starts):
    # 1,000 calls on an 80-letter word, from one start or from a fresh
    # start each, to random targets: the graph is dropped once its states
    # times 80 exceed _MAX_STATE_LETTERS, so what the memo holds after
    # them, and the peak on the way, stay under 8 MiB traced (3.9 MiB
    # peak; a bound of 2^14 states on every word peaked at 25 MiB)
    rng = random.Random(80)
    word = random_reducible_word(("a", "b", "c"), 40, rng)
    pairs = [(random_sequence(word, rng), random_sequence(word, rng)) for _ in range(1000)]
    if starts == "one":
        pairs = [(pairs[0][0], s) for _, s in pairs]
    transform._memo = None
    tracemalloc.start()
    try:
        for r, s in pairs:
            transform_to(r, s)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        transform._memo = None
    assert held <= peak < 8 * 2**20


# One start contract: a hand-built start raises what validate_sequence
# raises on it, from transform_to as from front_reduction, and a valid
# one gets the chain of the validated start.

START_WORDS = [w(text) for text in CORPUS_WORDS[1:]] + MEMO_WORDS  # two or more steps
START_NODES = [enumerate_sequences(word) for word in START_WORDS]


@st.composite
def hand_built_starts(draw):
    # a valid start with some steps moved elsewhere in the word or off
    # it, perhaps cut short; the start errors that a range check alone
    # sees differently come from a step that is not a redex before a
    # step off the word, or before the cut
    i = draw(st.integers(0, len(START_WORDS) - 1))
    word, nodes = START_WORDS[i], START_NODES[i]
    steps = list(nodes[draw(st.integers(0, len(nodes) - 1))].steps)
    for j in range(len(steps)):
        last = len(word) - 2 - 2 * j  # the last position step j may name
        kind = draw(st.sampled_from(["keep", "in-range", "off-word"]))
        if kind == "in-range":
            steps[j] = draw(st.integers(0, last))
        elif kind == "off-word":
            steps[j] = draw(st.sampled_from([-1, last + 1, len(word)]))
    cut = draw(st.sampled_from([len(steps)] * 2 + list(range(len(steps)))))
    target = nodes[draw(st.integers(0, len(nodes) - 1))]
    p = draw(st.sampled_from(redexes(word)))
    return ReductionSequence(word, tuple(steps[:cut])), target, p


@settings(max_examples=300)
@given(hand_built_starts())
def test_hand_built_starts_raise_what_validate_sequence_raises(case):
    r, s, p = case
    try:
        valid = validate_sequence(r.word, r.steps)
    except FreewordError as err:
        expected = type(err), str(err), vars(err)
        assert cold_outcome(r, s) == expected
        with pytest.raises(type(err)) as info:
            front_reduction(r, p)
        assert (str(info.value), vars(info.value)) == expected[1:]
    else:
        chain = cold_outcome(valid, s)
        assert cold_outcome(r, s) == chain
        assert apply_chain(r, chain) == s


def test_extend_reduction_prepends_the_inserted_pair():
    r = seq("a a'", (0,))
    out = extend_reduction((), signed("b"), w("a a'"), r)
    assert out.word == w("b b' a a'")
    assert out.steps == (0, 0)

    out = extend_reduction(w("a a'"), signed("b"), (), r)
    assert out.word == w("a a' b b'")
    assert out.steps == (2, 0)

    out = extend_reduction(w("a"), signed("b"), w("a'"), r)
    assert out.word == w("a b b' a'")
    assert out.steps == (1, 0)


def test_extend_reduction_validates():
    for out in [
        extend_reduction((), signed("b"), w("a a'"), seq("a a'", (0,))),
        extend_reduction(w("a"), signed("b", -1), w("a'"), seq("a a'", (0,))),
    ]:
        assert validate_sequence(out.word, out.steps) == out


def test_extend_reduction_rejects_wrong_word():
    with pytest.raises(WordMismatch):
        extend_reduction(w("a"), signed("b"), w("b'"), seq("a a'", (0,)))


def test_drop_redex_examples():
    assert drop_redex(seq("a a' b b'", (0, 0)), 0) == seq("b b'", (0,))
    assert drop_redex(seq("a a' b b'", (2, 0)), 2) == seq("a a'", (0,))
    assert drop_redex(seq("a a' a a'", (1, 0)), 0) == seq("a a'", (0,))


def test_drop_redex_rejects_non_redex():
    with pytest.raises(InvalidRedex):
        drop_redex(seq("a a' b b'", (0, 0)), 1)


def test_extend_then_drop_is_exact():
    r = seq("a a'", (0,))
    for y, z in [((), w("a a'")), (w("a"), w("a'")), (w("a a'"), ())]:
        out = extend_reduction(y, signed("b"), z, r)
        assert drop_redex(out, len(y)) == r


@st.composite
def extend_instances(draw):
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    word = random_reducible_word(("a", "b", "c"), rng.randint(1, 5), rng)
    steps = []
    current = word
    while current:
        p = rng.choice(redexes(current))
        steps.append(p)
        current = apply_step(current, p)
    cut = rng.randrange(len(word) + 1)
    item = signed(rng.choice("abc"), rng.choice((1, -1)))
    return ReductionSequence(word, tuple(steps)), cut, item


@given(extend_instances())
def test_extend_drop_round_trip_randomised(instance):
    r, cut, item = instance
    extended = extend_reduction(r.word[:cut], item, r.word[cut:], r)
    assert validate_sequence(extended.word, extended.steps) == extended
    assert drop_redex(extended, cut) == r
