"""End-to-end acceptance battery.

One test per advertised guarantee, each printing a single PASS/FAIL
line (run with -s to watch the checklist).  The corpus is every
two-letter word up to length 8, exhaustively, plus 500 seeded random
fully reducible three-letter words up to length 12.  Tolerances are
pinned: zero counterexamples everywhere, and the corpus sweep must stay
under two minutes.
"""

import itertools
import random
import subprocess
import sys
import time

import pytest

from freeword.core import SignedGenerator, find_redexes, signed
from freeword.group import abelianize, eq, inv, is_normal, mul, normal_form
from freeword.moves import OVERLAP_LEFT, OVERLAP_RIGHT, SWAP, Move, apply_chain
from freeword.oracle import (
    all_words,
    build_move_graph,
    check_corpus,
    enumerate_sequences,
    random_reducible_word,
    signed_alphabet,
)
from freeword.reduction import ReductionSequence, apply_step, validate_sequence
from freeword.transform import drop_redex, extend_reduction, front_reduction

ALPHABET2 = ("a", "b")
ALPHABET3 = ("a", "b", "c")
SEED = 20260814
RANDOM_WORDS = 500
MAX_EXHAUSTIVE_LEN = 8
MAX_RANDOM_LEN = 12
TIME_BUDGET_SECONDS = 120.0


def report(number, name, ok, detail=""):
    line = f"criterion {number:2d}: {name}: " + ("PASS" if ok else "FAIL")
    if detail:
        line += f" ({detail})"
    print(line)
    return ok


@pytest.fixture(scope="module")
def exhaustive_words():
    return [
        word
        for length in range(MAX_EXHAUSTIVE_LEN + 1)
        for word in all_words(ALPHABET2, length)
    ]


@pytest.fixture(scope="module")
def random_words():
    rng = random.Random(SEED)
    return [
        random_reducible_word(ALPHABET3, rng.randint(1, MAX_RANDOM_LEN // 2), rng)
        for _ in range(RANDOM_WORDS)
    ]


@pytest.fixture(scope="module")
def corpus_reports(exhaustive_words, random_words):
    started = time.monotonic()
    exhaustive = check_corpus(exhaustive_words)
    randomised = check_corpus(random_words)
    return exhaustive, randomised, time.monotonic() - started


def reducible(words):
    return [word for word in words if normal_form(word) == ()]


def random_sequence(word, rng):
    steps = []
    current = word
    while current:
        p = rng.choice(find_redexes(current))
        steps.append(p)
        current = apply_step(current, p)
    return ReductionSequence(word, tuple(steps))


def test_criterion_01_move_graph_connectivity(corpus_reports):
    exhaustive, randomised, elapsed = corpus_reports
    disconnected = exhaustive.disconnected + randomised.disconnected
    ok = not disconnected and elapsed < TIME_BUDGET_SECONDS
    assert report(
        1,
        "every reduction graph in the corpus is connected",
        ok,
        f"{exhaustive.words_checked + randomised.words_checked} words, "
        f"{exhaustive.sequences_enumerated + randomised.sequences_enumerated} sequences, "
        f"{elapsed:.1f}s",
    ), disconnected[:5]


def test_criterion_02_transform_chains_replay(corpus_reports):
    exhaustive, randomised, _ = corpus_reports
    failures = exhaustive.transform_failures + randomised.transform_failures
    pairs = exhaustive.pairs_verified + randomised.pairs_verified
    longest = max(exhaustive.max_chain_length, randomised.max_chain_length)
    assert report(
        2,
        "transform_to chains replay within the k(k-1)/2 bound",
        not failures,
        f"{pairs} ordered pairs, longest chain {longest}",
    ), failures[:5]


# (words, sequences, ordered pairs, longest chain, deepest BFS) of each
# corpus: a sweep that skipped words, sequences or pairs would still
# report no failures, so the amount of work is pinned too
PINNED_SWEEP_COUNTS = (
    (87381, 27893, 658301, 6, 6),
    (500, 47954, 1148230, 14, 13),
)


def test_corpus_sweep_counts_are_pinned(corpus_reports):
    counts = tuple(
        (r.words_checked, r.sequences_enumerated, r.pairs_verified,
         r.max_chain_length, r.max_bfs_distance)
        for r in corpus_reports[:2]
    )
    assert counts == PINNED_SWEEP_COUNTS


def test_criterion_03_front_reduction_contract(exhaustive_words, random_words):
    checked = 0
    failures = []
    for word in reducible(itertools.chain(exhaustive_words, random_words)):
        positions = find_redexes(word)
        for seq in enumerate_sequences(word):
            for p in positions:
                chain, out = front_reduction(seq, p)
                checked += 1
                good = (
                    out.steps[0] == p
                    and apply_chain(seq, chain) == out
                    and validate_sequence(out.word, out.steps) == out
                    and len(chain) <= len(seq.steps)
                )
                if not good:
                    failures.append((word, seq.steps, p))
    assert report(
        3,
        "front_reduction fronts every redex of every sequence",
        not failures,
        f"{checked} (sequence, redex) cases",
    ), failures[:5]


def test_criterion_04_extend_drop_round_trip():
    rng = random.Random(SEED + 4)
    failures = []
    for _ in range(1000):
        word = random_reducible_word(ALPHABET3, rng.randint(1, 5), rng)
        r = random_sequence(word, rng)
        cut = rng.randrange(len(word) + 1)
        item = SignedGenerator(rng.choice(ALPHABET3), rng.choice((1, -1)))
        extended = extend_reduction(word[:cut], item, word[cut:], r)
        valid = validate_sequence(extended.word, extended.steps) == extended
        if not (valid and drop_redex(extended, cut) == r):
            failures.append((word, r.steps, cut, item))
    assert report(
        4,
        "extend_reduction then drop_redex is the exact identity",
        not failures,
        "1000 randomised instances",
    ), failures[:5]


def test_criterion_05_reducible_iff_empty_normal_form(exhaustive_words, corpus_reports):
    exhaustive, _, _ = corpus_reports
    ok = exhaustive.mismatched == [] and exhaustive.words_checked == len(exhaustive_words)
    assert report(
        5,
        "a word has a complete reduction iff its normal form is empty",
        ok,
        f"{len(exhaustive_words)} words exhaustively",
    ), exhaustive.mismatched[:5]


def test_criterion_06_step_count_law(exhaustive_words):
    failures = []
    odd_checked = 0
    sequences_checked = 0
    for word in exhaustive_words:
        sequences = enumerate_sequences(word)
        if len(word) % 2 == 1:
            odd_checked += 1
            if sequences:
                failures.append(word)
            continue
        for seq in sequences:
            sequences_checked += 1
            if len(seq.steps) != len(word) // 2:
                failures.append((word, seq.steps))
    assert report(
        6,
        "sequences take exactly length/2 steps and odd words have none",
        not failures,
        f"{sequences_checked} sequences, {odd_checked} odd words",
    ), failures[:5]


def test_criterion_07_group_laws():
    rng = random.Random(SEED + 7)
    letters = signed_alphabet(ALPHABET3)

    def random_word():
        return tuple(rng.choice(letters) for _ in range(rng.randint(0, 10)))

    failures = []
    for _ in range(1000):
        u, v, x = random_word(), random_word(), random_word()
        laws = (
            mul(mul(u, v), x) == mul(u, mul(v, x))
            and mul((), u) == normal_form(u)
            and mul(u, ()) == normal_form(u)
            and mul(u, inv(u)) == ()
            and mul(inv(u), u) == ()
            and eq(u, v) == (normal_form(u) == normal_form(v))
        )
        if not laws:
            failures.append((u, v, x))
    assert report(
        7,
        "associativity, unit, inverse, and eq on random triples",
        not failures,
        "1000 randomised triples",
    ), failures[:5]


def test_criterion_08_confluence(exhaustive_words):
    memo = {}

    def reachable_forms(word):
        cached = memo.get(word)
        if cached is not None:
            return cached
        positions = find_redexes(word)
        if positions:
            out = frozenset().union(
                *(reachable_forms(word[:p] + word[p + 2:]) for p in positions)
            )
        else:
            out = frozenset([word])
        memo[word] = out
        return out

    failures = [
        word
        for word in exhaustive_words
        if reachable_forms(word) != frozenset([normal_form(word)])
    ]
    assert report(
        8,
        "every maximal reduction order lands on the stack normal form",
        not failures,
        f"{len(exhaustive_words)} words, all orders",
    ), failures[:5]


def word_of(k):
    item = signed("a") if k >= 0 else signed("a", -1)
    return (item,) * abs(k)


def test_criterion_09_one_generator_group_is_the_integers():
    normal_words = set()
    for length in range(11):
        for word in all_words(("a",), length):
            if is_normal(word):
                normal_words.add(word)
    ok = normal_words == {word_of(k) for k in range(-10, 11)}
    sums = sorted(abelianize(word).get("a", 0) for word in normal_words)
    ok = ok and sums == list(range(-10, 11))
    for i in range(-10, 11):
        for j in range(-10, 11):
            ok = ok and mul(word_of(i), word_of(j)) == word_of(i + j)
        ok = ok and inv(word_of(i)) == word_of(-i)
    assert report(
        9,
        "one generator: normal forms biject with integers under mul",
        ok,
        "sums -10..10 exhaustively",
    )


def test_criterion_10_worked_example_trace():
    result = subprocess.run(
        [sys.executable, "-m", "freeword", "reduce", "a a' b c c' b'",
         "--steps", "3,0,0", "--trace"],
        capture_output=True,
        text=True,
    )
    expected = [
        "a a' b c c' b'",
        "  --[c c']--> a a' b b'",
        "  --[a a']--> b b'",
        "  --[b b']--> nil",
    ]
    ok = result.returncode == 0 and result.stdout.splitlines() == expected
    assert report(
        10,
        "the worked trace prints 4 words with exact annotations",
        ok,
        "reduce --steps 3,0,0 --trace",
    ), result.stdout


def test_criterion_11_move_algebra(exhaustive_words, random_words):
    inverse_kind = {SWAP: SWAP, OVERLAP_LEFT: OVERLAP_RIGHT, OVERLAP_RIGHT: OVERLAP_LEFT}
    checked = 0
    failures = []
    for word in reducible(itertools.chain(exhaustive_words, random_words)):
        graph = build_move_graph(word)
        for src, node in enumerate(graph.nodes):
            for dst, move in graph.adjacency[src].items():
                back = Move(inverse_kind[move.kind], move.at)
                checked += 1
                if [s for s, m in graph.adjacency[dst].items() if m == back] != [src]:
                    failures.append((word, node, move))
    assert report(
        11,
        "swaps are involutions and the overlap directions undo each other",
        not failures,
        f"{checked} directed edges",
    ), failures[:5]
