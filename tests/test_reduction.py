import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freeword.core import parse_word, render_word
from freeword.errors import IncompleteReduction, InvalidRedex, ParseError
from freeword.oracle import random_reducible_word
from freeword.reduction import (
    ReductionSequence,
    apply_step,
    parse_steps,
    render_steps,
    run_sequence,
    validate_sequence,
)

import random


def w(text):
    return parse_word(text)


DEMO_WORD = "a a' b c c' b'"


# random complete reduction sequences, built by greedy random reduction of
# a randomly grown fully reducible word
@st.composite
def sequences(draw, max_pairs=5):
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    word = random_reducible_word(("a", "b", "c"), draw(st.integers(1, max_pairs)), rng)
    steps = []
    current = word
    while current:
        options = [p for p in range(len(current) - 1)
                   if current[p].name == current[p + 1].name
                   and current[p].sign == -current[p + 1].sign]
        p = rng.choice(options)
        steps.append(p)
        current = current[:p] + current[p + 2:]
    return ReductionSequence(word, tuple(steps))


def test_apply_step_example():
    assert apply_step(w(DEMO_WORD), 3) == w("a a' b b'")
    assert apply_step(w("a a'"), 0) == ()


def test_apply_step_middle_of_overlap():
    assert apply_step(w("a a' a a'"), 1) == w("a a'")


def test_apply_step_rejects_non_redex():
    with pytest.raises(InvalidRedex) as err:
        apply_step(w("a b"), 0)
    assert err.value.pair == w("a b")
    assert err.value.step is None


def test_apply_step_rejects_out_of_range():
    with pytest.raises(InvalidRedex) as err:
        apply_step(w("a a'"), 1)
    assert err.value.pair is None
    with pytest.raises(InvalidRedex):
        apply_step((), 0)


def test_validate_sequence_example():
    r = validate_sequence(w(DEMO_WORD), (3, 0, 0))
    assert r.word == w(DEMO_WORD)
    assert r.steps == (3, 0, 0)


def test_validate_sequence_left_first():
    # left-first reduction of the same word: a a', then c c' (position 1
    # of b c c' b'), then b b'
    assert validate_sequence(w(DEMO_WORD), (0, 1, 0)).steps == (0, 1, 0)


def test_validate_sequence_rejects_stale_position():
    # after removing a a' the word is b c c' b', whose only redex is at 1
    with pytest.raises(InvalidRedex) as err:
        validate_sequence(w(DEMO_WORD), (0, 0, 0))
    assert err.value.step == 1
    assert err.value.position == 0
    assert err.value.pair == w("b c")


def test_validate_sequence_empty_word():
    assert validate_sequence((), ()) == ReductionSequence((), ())


def test_validate_sequence_incomplete():
    with pytest.raises(IncompleteReduction) as err:
        validate_sequence(w("a a' b b'"), (0,))
    assert err.value.remainder == w("b b'")


def test_validate_sequence_rejects_anything_on_odd_word():
    for steps in [(), (0,), (1, 0)]:
        with pytest.raises((InvalidRedex, IncompleteReduction)):
            validate_sequence(w("a a' b"), steps)


def test_validate_sequence_error_carries_step_index():
    with pytest.raises(InvalidRedex) as err:
        validate_sequence(w("a a' b b'"), (0, 5))
    assert err.value.step == 1
    assert err.value.position == 5


def test_validate_sequence_keeps_one_word_at_a_time():
    # a^6000 a'^6000 cancelled from the middle out: its whole trace holds
    # 36 million items, close to 300 MB, while one word is under 100 kB
    word = w(" ".join(["a"] * 6000 + ["a'"] * 6000))
    tracemalloc.start()
    try:
        validate_sequence(word, range(5999, -1, -1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_run_sequence_trace():
    r = validate_sequence(w(DEMO_WORD), (3, 0, 0))
    assert [render_word(x) for x in run_sequence(r)] == [
        "a a' b c c' b'",
        "a a' b b'",
        "b b'",
        "",
    ]


def test_run_sequence_empty():
    assert run_sequence(ReductionSequence((), ())) == [()]


def test_run_sequence_error_carries_step_index():
    # the one checked walk: validate_sequence and overlap_switch go
    # through it, so its error names the failing step as theirs do
    with pytest.raises(InvalidRedex) as err:
        run_sequence(ReductionSequence(w("a a' b b'"), (0, 5)))
    assert err.value.step == 1
    assert err.value.position == 5
    assert str(err.value) == "no redex at position 5 at step 1"


@given(sequences())
def test_run_sequence_shrinks_by_two(r):
    trace = run_sequence(r)
    assert len(trace) == len(r.steps) + 1
    assert trace[0] == r.word
    assert trace[-1] == ()
    for before, after in zip(trace, trace[1:]):
        assert len(after) == len(before) - 2


@given(sequences())
def test_step_count_is_half_the_length(r):
    assert len(r.steps) == len(r.word) // 2


@given(sequences())
def test_removed_pairs_account_for_every_item(r):
    # the multiset of removed items equals the multiset of the word
    trace = run_sequence(r)
    removed = []
    for i, p in enumerate(r.steps):
        removed.extend(trace[i][p:p + 2])
    assert Counter(removed) == Counter(r.word)


def test_parse_steps_formats():
    assert parse_steps("3,0,0") == (3, 0, 0)
    assert parse_steps("3 0 0") == (3, 0, 0)
    assert parse_steps("") == ()
    assert parse_steps("0," + "9" * 18) == (0, 10 ** 18 - 1)


def test_parse_steps_rejects_garbage():
    with pytest.raises(ParseError):
        parse_steps("3,x,0")
    with pytest.raises(ParseError):
        parse_steps("-1")
    # str.isdigit accepts these, but int() fails on the superscript and
    # would quietly read the Arabic-Indic digit as 1; a position also
    # has at most 18 digits
    for bad in ["\u00b2", "0,\u00b2", "\u0661", "\uff11", "1" * 19, "0," + "1" * 4000]:
        with pytest.raises(ParseError):
            parse_steps(bad)


def test_render_steps():
    assert render_steps((3, 0, 0)) == "3,0,0"
    assert render_steps(()) == ""
    assert parse_steps(render_steps((5, 2))) == (5, 2)
