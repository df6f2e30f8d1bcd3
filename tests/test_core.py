import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freeword.core import (
    NEGATIVE,
    POSITIVE,
    SignedGenerator,
    cancels,
    find_redexes,
    invert,
    is_redex_at,
    parse_word,
    render_word,
    signed,
)
from freeword.errors import FreewordError, ParseError


def w(text):
    return parse_word(text)


names = st.sampled_from(["a", "b", "c"])
items = st.builds(SignedGenerator, names, st.sampled_from([POSITIVE, NEGATIVE]))
words = st.lists(items, max_size=12).map(tuple)


def test_signed_defaults_positive():
    assert signed("a") == SignedGenerator("a", POSITIVE)
    assert signed("a", NEGATIVE) == SignedGenerator("a", NEGATIVE)


def test_signed_rejects_bad_name():
    with pytest.raises(ParseError):
        signed("1a")
    with pytest.raises(ParseError):
        signed("")


def test_signed_rejects_bad_sign():
    for sign in (2, 0):
        with pytest.raises(ValueError) as info:
            signed("a", sign)
        assert isinstance(info.value, FreewordError)


def test_invert_flips_sign():
    assert invert(signed("a")) == signed("a", NEGATIVE)
    assert invert(signed("a", NEGATIVE)) == signed("a")


@given(items)
def test_invert_is_an_involution(item):
    assert invert(invert(item)) == item


@given(items)
def test_invert_keeps_name(item):
    assert invert(item).name == item.name


def test_cancels_exactly_against_the_inverse():
    signed_items = [SignedGenerator(n, s) for n in "ab" for s in (POSITIVE, NEGATIVE)]
    for x in signed_items:
        for y in signed_items:
            assert cancels(x, y) == (x == invert(y))


def test_is_redex_at_both_orders():
    assert is_redex_at(w("a a'"), 0)
    assert is_redex_at(w("a' a"), 0)
    assert not is_redex_at(w("a a"), 0)
    assert not is_redex_at(w("a b'"), 0)


def test_is_redex_at_out_of_range_is_false():
    assert not is_redex_at(w("a a'"), 1)
    assert not is_redex_at(w("a a'"), -1)
    assert not is_redex_at((), 0)
    assert not is_redex_at(w("a"), 0)


def test_is_redex_at_overlapping_runs():
    word = w("a a' a a'")
    assert [p for p in range(4) if is_redex_at(word, p)] == [0, 1, 2]


@given(words, st.integers(-2, 14))
def test_is_redex_at_characterisation(word, p):
    expected = (
        0 <= p <= len(word) - 2
        and word[p].name == word[p + 1].name
        and word[p].sign == -word[p + 1].sign
    )
    assert is_redex_at(word, p) == expected


def test_find_redexes_examples():
    assert find_redexes(w("a a' b c c' b'")) == [0, 3]
    assert find_redexes(w("a a' a a'")) == [0, 1, 2]
    assert find_redexes(w("a b c")) == []
    assert find_redexes(()) == []


@given(words)
def test_find_redexes_agrees_with_is_redex_at(word):
    assert find_redexes(word) == [p for p in range(len(word)) if is_redex_at(word, p)]


def test_parse_word_example():
    word = w("a a' b c c' b'")
    assert word == (
        signed("a"), signed("a", NEGATIVE),
        signed("b"), signed("c"), signed("c", NEGATIVE), signed("b", NEGATIVE),
    )


def test_parse_word_empty_and_whitespace():
    assert parse_word("") == ()
    assert parse_word("   ") == ()


def test_parse_word_underscore_and_digits():
    assert parse_word("_x1 _x1'") == (signed("_x1"), signed("_x1", NEGATIVE))


def test_parse_word_rejects_double_apostrophe():
    with pytest.raises(ParseError) as err:
        parse_word("a''")
    assert err.value.token == "a''"
    assert err.value.offset == 0


def test_parse_word_rejects_bad_tokens():
    for bad in ["1a", "'", "'a", "a-b"]:
        with pytest.raises(ParseError):
            parse_word(bad)


def test_parse_word_error_offset_points_at_token():
    with pytest.raises(ParseError) as err:
        parse_word("a b 9z c")
    assert err.value.offset == 4
    assert err.value.token == "9z"


def test_parse_word_error_echoes_a_long_token_in_part():
    token = "9" * 5000
    with pytest.raises(ParseError) as err:
        parse_word("a " + token)
    assert err.value.token == token
    assert str(err.value) == f"bad token in word: {token[:40]!r}... (5000 characters) (offset 2)"


WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def test_every_whitespace_character_separates_tokens():
    assert len(WHITESPACE) == 29
    for c in WHITESPACE:
        assert parse_word(f"a{c}b'") == (signed("a"), signed("b", NEGATIVE)), hex(ord(c))


_TOKEN = re.compile(r"\S+")


def reference_parse(text):
    """The word format read as one regex match per token."""
    return tuple(
        signed(token[:-1], NEGATIVE) if token.endswith("'") else signed(token)
        for token in _TOKEN.findall(text)
    )


tokens = st.tuples(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True), st.sampled_from(["", "'"])
).map("".join)
gaps = st.text(st.sampled_from(WHITESPACE), min_size=1, max_size=3)


@given(st.lists(st.tuples(gaps, tokens), max_size=12), gaps)
def test_parse_word_agrees_with_a_token_regex(runs, tail):
    text = "".join(gap + token for gap, token in runs) + tail
    assert parse_word(text) == reference_parse(text)
    assert parse_word(text[1:]) == reference_parse(text[1:])


@pytest.mark.parametrize("text, token, offset", [
    # the bad token also occurs inside an earlier token; only a whole
    # token counts
    ("a' '", "'", 3),
    ("a b$ c b$", "b$", 2),
    ("b$ c$", "b$", 0),
    pytest.param("a " * 10_000 + "b$", "b$", 20_000, id="after-10000-tokens"),
    # a character offset: U+3000 is one character but three UTF-8 bytes
    ("a\u3000b$", "b$", 2),
])
def test_parse_word_reports_the_first_bad_token_at_its_first_occurrence(text, token, offset):
    with pytest.raises(ParseError) as err:
        parse_word(text)
    assert (err.value.token, err.value.offset) == (token, offset)


def test_render_word_examples():
    assert render_word(w("a a' b")) == "a a' b"
    assert render_word(()) == ""


def test_render_parse_normalises_whitespace():
    assert render_word(parse_word("  a   a'\tb ")) == "a a' b"


@given(words)
def test_parse_render_round_trip(word):
    assert parse_word(render_word(word)) == word
