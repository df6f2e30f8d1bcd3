import random
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeword import moves
from freeword.core import parse_word
from freeword.errors import (
    FreewordError, IndexOutOfRange, InvalidRedex, NoOverlap, NotIndependent, ParseError,
    WordMismatch,
)
from freeword.moves import (
    LEFT,
    OVERLAP_LEFT,
    OVERLAP_RIGHT,
    RIGHT,
    SWAP,
    Move,
    applicable_moves,
    apply_chain,
    apply_move,
    neighbour_maps,
    overlap_switch,
    parse_chain,
    parse_move,
    render_chain,
    swap,
)
from freeword.oracle import enumerate_sequences, random_reducible_word
from freeword.reduction import ReductionSequence, run_sequence, validate_sequence


def w(text):
    return parse_word(text)


def seq(text, steps):
    return validate_sequence(w(text), steps)


# a small but varied pool of complete reductions to quantify over
CORPUS_WORDS = [
    "a a'",
    "a a' b b'",
    "a a' a a'",
    "a b b' a'",
    "a a' b c c' b'",
    "b' b b' b",
    "a a' a a' a a'",
    "a b c c' b' a'",
]


def corpus_sequences():
    for text in CORPUS_WORDS:
        yield from enumerate_sequences(w(text))


# neighbour_maps builds a graph with fewer than _SEQUENCES_PER_STEP
# sequences per step node by node and a denser one by sub-problem; these
# two values send every graph of a nonempty word node by node, or every
# graph by sub-problem
BOTH_PASSES = (10**9, 0)


@contextmanager
def sequences_per_step(count):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moves, "_SEQUENCES_PER_STEP", count)
        yield


def test_swap_rewrites_positions_left_case():
    # second step's redex sits left of the first step's
    assert swap(seq("a a' b c c' b'", (3, 0, 0)), 0).steps == (0, 1, 0)


def test_swap_rewrites_positions_right_case():
    # second step's redex sits right, so it is shifted back up by the pair
    assert swap(seq("a a' b b'", (0, 0)), 0).steps == (2, 0)


def test_swap_is_rejected_for_nested_steps():
    # removing c c' is what made a a' adjacent; there is nothing to swap
    with pytest.raises(NotIndependent) as err:
        swap(seq("a c c' a'", (1, 0)), 0)
    assert err.value.at == 0


def test_swap_index_out_of_range():
    r = seq("a a'", (0,))
    with pytest.raises(IndexOutOfRange):
        swap(r, 0)  # needs two steps
    with pytest.raises(IndexOutOfRange):
        swap(seq("a a' b b'", (0, 0)), -1)


def test_swap_output_is_a_valid_sequence():
    out = swap(seq("a a' b c c' b'", (3, 0, 0)), 0)
    assert validate_sequence(out.word, out.steps) == out


def test_overlap_switch_right():
    assert overlap_switch(seq("a a' a a'", (0, 0)), 0, RIGHT).steps == (1, 0)


def test_overlap_switch_left():
    assert overlap_switch(seq("a a' a a'", (1, 0)), 0, LEFT).steps == (0, 0)


def test_overlap_switch_rejects_without_third_item():
    with pytest.raises(NoOverlap) as err:
        overlap_switch(seq("a a' b b'", (0, 0)), 0, RIGHT)
    assert err.value.at == 0
    assert err.value.direction == RIGHT


def test_overlap_switch_rejects_bad_direction():
    with pytest.raises(ValueError) as info:
        overlap_switch(seq("a a' a a'", (0, 0)), 0, "up")
    assert isinstance(info.value, FreewordError)


def test_overlap_switch_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        overlap_switch(seq("a a'", (0,)), 1, LEFT)


@pytest.mark.parametrize("steps,direction,position", [
    ((1,), LEFT, 1),    # used to raise a bare IndexError
    ((-1,), RIGHT, -1),  # used to return steps (0,) without complaint
])
def test_overlap_switch_rejects_a_step_that_is_not_a_redex(steps, direction, position):
    r = ReductionSequence(w("a a'"), steps)  # built by hand, never validated
    kind = OVERLAP_LEFT if direction == LEFT else OVERLAP_RIGHT
    for switch in (lambda: overlap_switch(r, 0, direction), lambda: apply_move(r, Move(kind, 0))):
        with pytest.raises(InvalidRedex) as err:
            switch()
        assert (err.value.position, err.value.step) == (position, 0)


def test_overlap_switch_names_a_bad_step_before_the_switched_one():
    # step 0 is no redex: replaying the prefix used to raise without its index
    r = ReductionSequence(w("a a' a a'"), (5, 0))  # built by hand, never validated
    for switch in (lambda: overlap_switch(r, 1, RIGHT),
                   lambda: apply_move(r, Move(OVERLAP_RIGHT, 1))):
        with pytest.raises(InvalidRedex) as err:
            switch()
        assert (err.value.position, err.value.step) == (5, 0)
        assert str(err.value) == "no redex at position 5 at step 0"


def test_overlap_switch_keeps_one_word_at_a_time():
    # a^6000 a'^6000 cancelled from the middle out: listing the prefix's
    # trace held close to 300 MB to read one word of under 100 kB
    word = w(" ".join(["a"] * 6000 + ["a'"] * 6000))
    r = ReductionSequence(word, tuple(range(5999, -1, -1)))
    tracemalloc.start()
    try:
        with pytest.raises(NoOverlap) as err:
            overlap_switch(r, 5999, RIGHT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == str(NoOverlap(5999, 0, RIGHT))
    assert peak < 10_000_000


def test_overlap_at_a_later_step():
    # the overlapping configuration appears only after the first step
    r = seq("b b' a a' a a'", (0, 0, 0))
    out = overlap_switch(r, 1, RIGHT)
    assert out.steps == (0, 1, 0)
    assert validate_sequence(out.word, out.steps) == out


def test_apply_move_dispatch():
    r = seq("a a' b b'", (0, 0))
    assert apply_move(r, Move(SWAP, 0)).steps == (2, 0)
    r = seq("a a' a a'", (0, 0))
    assert apply_move(r, Move(OVERLAP_RIGHT, 0)).steps == (1, 0)
    assert apply_move(seq("a a' a a'", (1, 0)), Move(OVERLAP_LEFT, 0)).steps == (0, 0)
    with pytest.raises(ValueError) as info:
        apply_move(r, Move("spin", 0))
    assert isinstance(info.value, FreewordError)


def test_apply_chain_example():
    r = seq("a a' a a'", (0, 0))
    out = apply_chain(r, (Move(OVERLAP_RIGHT, 0), Move(OVERLAP_RIGHT, 0)))
    assert out.steps == (2, 0)


def test_apply_chain_empty_is_identity():
    r = seq("a a' b b'", (0, 0))
    assert apply_chain(r, ()) == r


def test_apply_chain_reports_failing_move():
    r = seq("a a' b b'", (0, 0))
    chain = (Move(SWAP, 0), Move(OVERLAP_LEFT, 0))
    with pytest.raises(NoOverlap) as err:
        apply_chain(r, chain)
    assert err.value.chain_index == 1
    assert "move 1 of chain" in str(err.value)


def test_moves_keep_word_and_step_count():
    for r in corpus_sequences():
        for move, result in applicable_moves(r):
            assert result.word == r.word
            assert len(result.steps) == len(r.steps)
            assert validate_sequence(result.word, result.steps) == result
            assert result.steps != r.steps


def test_applicable_moves_matches_single_ops():
    for r in corpus_sequences():
        for move, result in applicable_moves(r):
            assert apply_move(r, move) == result


def test_neighbour_maps_match_applicable_moves_in_any_order():
    # the trace reused from the previous sequence, and the sub-problems
    # the sequences share, must not depend on the sequences arriving in
    # enumeration order
    for count in BOTH_PASSES:
        with sequences_per_step(count):
            for text in CORPUS_WORDS:
                sequences = enumerate_sequences(w(text))
                for order in (sequences, sequences[::-1], sequences[1::2] + sequences[::2]):
                    maps, index = neighbour_maps(order)
                    # a correct move reaches only sequences, so no number is added
                    assert list(index) == [r.steps for r in order]
                    assert list(maps) == list(range(len(order)))
                    for i, r in enumerate(order):
                        neighbours = [(move, order[j]) for j, move in maps[i].items()]
                        assert neighbours == applicable_moves(r)


@pytest.mark.parametrize("steps,position,step", [
    ((0, 1), 1, 1),  # shares step 0 with (0, 0); its last step is no redex
    ((5, 0), 5, 0),  # shares nothing
])
def test_neighbour_maps_check_every_step_past_the_shared_prefix(steps, position, step):
    word = w("a a' b b'")
    bad = ReductionSequence(word, steps)  # built by hand, never validated
    for count in BOTH_PASSES:
        with sequences_per_step(count), pytest.raises(InvalidRedex) as err:
            neighbour_maps([seq("a a' b b'", (0, 0)), bad])
        assert (err.value.position, err.value.step) == (position, step)


@pytest.mark.parametrize("faulty,position,step", [
    (((0, 1), (5, 0)), 1, 1),
    (((5, 0), (0, 1)), 5, 0),
])
def test_neighbour_maps_raise_for_the_first_faulty_sequence_in_input_order(faulty, position,
                                                                           step):
    # step 0 of (5, 0) is met before step 1 of (0, 1) whatever the
    # order, and a sequence of another word comes last
    word = w("a a' b b'")
    sequences = [seq("a a' b b'", (0, 0)), *(ReductionSequence(word, s) for s in faulty)]
    for count in BOTH_PASSES:
        with sequences_per_step(count), pytest.raises(InvalidRedex) as err:
            neighbour_maps(sequences + [seq("b b'", (0,))])
        assert (err.value.position, err.value.step) == (position, step)


# fully reducible words of up to 6 pairs over 3 or 4 letters
@st.composite
def reducible_words(draw):
    names = ("a", "b", "c", "d")[:draw(st.integers(3, 4))]
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return random_reducible_word(names, draw(st.integers(1, 6)), rng)


def moved(r, move):
    # the steps apply_move reaches, or None where it raises
    try:
        return apply_move(r, move).steps
    except FreewordError:
        return None


MOVE_KINDS = (SWAP, OVERLAP_LEFT, OVERLAP_RIGHT)


@settings(deadline=None)
@given(reducible_words())
def test_a_move_at_step_i_is_the_step_0_move_of_the_tail(word):
    # the identity neighbour_maps rests on: the move at step i edits the
    # tail, the steps from i on over the word left after i steps, as its
    # step-0 move does, and raises exactly when that one raises
    for r in enumerate_sequences(word):
        trace = run_sequence(r)
        for i in range(len(r.steps)):
            tail = ReductionSequence(trace[i], r.steps[i:])
            for kind in MOVE_KINDS:
                edited = moved(tail, Move(kind, 0))
                expected = None if edited is None else r.steps[:i] + edited
                assert moved(r, Move(kind, i)) == expected


@settings(deadline=None)
@given(reducible_words(), st.randoms(use_true_random=False))
def test_neighbour_maps_match_apply_move_per_node(word, rng):
    # each node's map, entry order included, is the map apply_move gives
    # for that node alone, in enumeration order and in a shuffled one,
    # node by node and by sub-problem
    sequences = enumerate_sequences(word)
    shuffled = rng.sample(sequences, len(sequences))
    expected = {}
    for r in sequences:
        expected[r.steps] = [(steps, Move(kind, at))
                             for at in range(len(r.steps)) for kind in MOVE_KINDS
                             if (steps := moved(r, Move(kind, at))) is not None]
    for count in BOTH_PASSES:
        with sequences_per_step(count):
            for order in (sequences, shuffled):
                maps, index = neighbour_maps(order)
                assert list(index) == [r.steps for r in order]
                for i, r in enumerate(order):
                    moves_of_r = [(index[steps], move) for steps, move in expected[r.steps]]
                    assert list(maps[i].items()) == moves_of_r


def test_neighbour_maps_reject_sequences_of_two_words():
    with pytest.raises(WordMismatch):
        neighbour_maps([seq("a a'", (0,)), seq("b b'", (0,))])


def test_neighbour_maps_number_a_neighbour_missing_from_the_sequences():
    # (2, 0) is not among the sequences, as when a faulty move reaches
    # a non-node: it gets the next free number and an empty map
    for count in BOTH_PASSES:
        with sequences_per_step(count):
            maps, index = neighbour_maps([seq("a a' b b'", (0, 0))])
        assert index == {(0, 0): 0, (2, 0): 1}
        assert maps == {0: {1: Move(SWAP, 0)}, 1: {}}


def test_neighbour_maps_by_sub_problem_hold_two_layers_of_tails():
    # 101 sequences of a 202-letter word, which cancel b b' at any of the
    # 101 steps and share few sub-problems: holding every layer's words
    # and tails to the end peaked at 3.2 MiB, two layers at a time take
    # 0.3 MiB
    word = w(" ".join(["a"] * 100 + ["a'"] * 100 + ["b", "b'"]))
    sequences = enumerate_sequences(word, len(word))
    with sequences_per_step(0):
        tracemalloc.start()
        try:
            maps, index = neighbour_maps(sequences)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(index) == len(maps) == 101
    assert peak < 2**20


def test_neighbour_maps_of_a_deep_word_do_not_recurse():
    # 1,200 steps, and by sub-problem as many layers: deeper than the stack
    word = w(" ".join(["a"] * 1200 + ["a'"] * 1200))
    r = validate_sequence(word, range(1199, -1, -1))
    for count in BOTH_PASSES:
        with sequences_per_step(count):
            assert neighbour_maps([r]) == ({0: {}}, {r.steps: 0})


def test_neighbour_maps_number_non_nodes_in_the_order_the_maps_meet_them(monkeypatch):
    # a swap that forgets to rewrite its positions reaches non-nodes: in
    # any input order they are numbered past the sequences in the order
    # the maps, read node by node, first meet them
    def swap_without_shift(r, i):
        steps = r.steps
        return ReductionSequence(r.word, steps[:i] + (steps[i + 1], steps[i]) + steps[i + 2:])

    monkeypatch.setattr(moves, "swap", swap_without_shift)
    for count in BOTH_PASSES:
        monkeypatch.setattr(moves, "_SEQUENCES_PER_STEP", count)
        non_nodes = 0
        for text in CORPUS_WORDS:
            sequences = enumerate_sequences(w(text))
            for order in (sequences, sequences[::-1], sequences[1::2] + sequences[::2]):
                maps, index = neighbour_maps(order)
                met = dict.fromkeys(j for i in range(len(order)) for j in maps[i]
                                    if j >= len(order))
                assert list(met) == list(range(len(order), len(index)))
                non_nodes += len(met)
        assert non_nodes


def test_swap_is_an_involution():
    for r in corpus_sequences():
        for move, result in applicable_moves(r):
            if move.kind == SWAP:
                assert swap(result, move.at) == r


def test_overlap_directions_undo_each_other():
    for r in corpus_sequences():
        for move, result in applicable_moves(r):
            if move.kind == OVERLAP_RIGHT:
                assert overlap_switch(result, move.at, LEFT) == r
            elif move.kind == OVERLAP_LEFT:
                assert overlap_switch(result, move.at, RIGHT) == r


def test_overlap_keeps_the_whole_trace():
    # retargeting a step inside an overlap changes no intermediate word
    for r in corpus_sequences():
        trace = run_sequence(r)
        for move, result in applicable_moves(r):
            if move.kind in (OVERLAP_LEFT, OVERLAP_RIGHT):
                assert run_sequence(result) == trace


def test_swap_touches_only_the_word_between_its_steps():
    # only trace entry i+1 may differ (it need not: reducing either of
    # two disjoint a a' pairs can leave the same word)
    for r in corpus_sequences():
        trace = run_sequence(r)
        for move, result in applicable_moves(r):
            if move.kind == SWAP:
                new_trace = run_sequence(result)
                i = move.at
                assert new_trace[:i + 1] == trace[:i + 1]
                assert new_trace[i + 2:] == trace[i + 2:]


def test_parse_move():
    assert parse_move("swap@3") == Move(SWAP, 3)
    assert parse_move("ovl@0") == Move(OVERLAP_LEFT, 0)
    assert parse_move("ovr@12") == Move(OVERLAP_RIGHT, 12)
    assert parse_move("swap@" + "9" * 18) == Move(SWAP, 10 ** 18 - 1)


def test_parse_move_rejects_garbage():
    for bad in ["swap", "swap@", "@3", "spin@1", "swap@-1", "swap@x",
                "swap@\u00b2", "ovl@\u0661", "ovr@\uff11", "swap@" + "9" * 5000,
                # more than 18 digits; 4,000 are within int()'s default limit
                "swap@" + "1" * 19, "swap@" + "9" * 4000]:
        with pytest.raises(ParseError):
            parse_move(bad)


def test_parse_move_error_echoes_a_long_token_in_part():
    token = "swap@" + "9" * 5000
    with pytest.raises(ParseError) as err:
        parse_move(token)
    assert err.value.token == token
    assert str(err.value) == f"bad move: {token[:40]!r}... (5005 characters)"


def test_parse_render_chain_round_trip():
    chain = (Move(SWAP, 0), Move(OVERLAP_LEFT, 2), Move(OVERLAP_RIGHT, 1))
    assert render_chain(chain) == "swap@0,ovl@2,ovr@1"
    assert parse_chain(render_chain(chain)) == chain
    assert parse_chain("") == ()
    assert render_chain(()) == ""
