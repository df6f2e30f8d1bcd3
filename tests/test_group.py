from functools import lru_cache

from hypothesis import given
from hypothesis import strategies as st

from freeword.core import (
    NEGATIVE,
    POSITIVE,
    SignedGenerator,
    find_redexes,
    invert,
    parse_word,
    signed,
)
from freeword.group import (
    abelianize, cons, eq, greedy_reduction, inv, is_normal, mul, normal_form,
)
from freeword.reduction import apply_step


def w(text):
    return parse_word(text)


items = st.builds(
    SignedGenerator, st.sampled_from(["a", "b", "c"]), st.sampled_from([POSITIVE, NEGATIVE])
)
words = st.lists(items, max_size=12).map(tuple)


@lru_cache(maxsize=None)
def reachable_normal_forms(word):
    # oracle: follow every maximal reduction order
    positions = find_redexes(word)
    if not positions:
        return frozenset([word])
    out = set()
    for p in positions:
        out |= reachable_normal_forms(apply_step(word, p))
    return frozenset(out)


def test_normal_form_examples():
    assert normal_form(w("a a' b c c' b'")) == ()
    assert normal_form(w("a b b' c")) == w("a c")
    assert normal_form(w("a b c")) == w("a b c")
    assert normal_form(()) == ()


def test_normal_form_cancels_cascades():
    assert normal_form(w("a b b' a'")) == ()
    assert normal_form(w("a b b' a' c")) == w("c")


@given(words)
def test_normal_form_is_idempotent_and_redex_free(word):
    nf = normal_form(word)
    assert is_normal(nf)
    assert normal_form(nf) == nf


@given(words)
def test_normal_form_agrees_with_every_reduction_order(word):
    assert reachable_normal_forms(word) == frozenset([normal_form(word)])


def test_is_normal():
    assert is_normal(w("a b"))
    assert is_normal(())
    assert not is_normal(w("a a'"))
    assert not is_normal(w("b a' a b"))


def test_mul_examples():
    assert mul(w("a b"), w("b' a")) == w("a a")
    assert mul(w("a"), w("a'")) == ()
    assert mul((), w("a")) == w("a")


def test_inv_examples():
    assert inv(w("a b'")) == w("b a'")
    assert inv(()) == ()
    assert inv(w("a")) == w("a'")


def test_equal_items_share_one_object():
    # parse_word and inv build each distinct item once per call; that
    # sharing is what keeps the library-long benchmark workload fast
    word = w("a b a' a")
    assert word[0] is word[3]
    inverse = inv(word)
    assert inverse == w("a' a b' a'")
    assert inverse[0] is inverse[3]


def test_eq_examples():
    assert eq(w("a b b'"), w("a"))
    assert not eq(w("a"), w("b"))
    assert eq((), w("a a'"))


def test_cons_is_raw():
    assert cons(signed("a"), w("a' b")) == w("a a' b")
    assert cons(signed("b", NEGATIVE), ()) == w("b'")


@given(items, words)
def test_cons_then_inverse_cancels_under_nf(item, word):
    assert normal_form(cons(item, cons(invert(item), word))) == normal_form(word)


@given(words, words, words)
def test_mul_associative(u, v, x):
    assert mul(mul(u, v), x) == mul(u, mul(v, x))


@given(words)
def test_mul_unit(u):
    nf = normal_form(u)
    assert mul((), u) == nf
    assert mul(u, ()) == nf


@given(words)
def test_mul_inverse(u):
    assert mul(u, inv(u)) == ()
    assert mul(inv(u), u) == ()


@given(words)
def test_inv_preserves_normality(u):
    assert is_normal(inv(normal_form(u)))


@given(words, words)
def test_eq_is_normal_form_comparison(u, v):
    assert eq(u, v) == (normal_form(u) == normal_form(v))


def test_abelianize_examples():
    assert abelianize(w("a b a b' a'")) == {"a": 1}
    assert abelianize(()) == {}
    assert abelianize(w("b a")) == {"a": 1, "b": 1}
    assert abelianize(w("a' a'")) == {"a": -2}


def test_abelianize_keys_sorted():
    assert list(abelianize(w("c b a")).keys()) == ["a", "b", "c"]


@given(words)
def test_abelianize_invariant_under_reduction(word):
    expected = abelianize(word)
    for p in find_redexes(word):
        assert abelianize(apply_step(word, p)) == expected
    assert abelianize(normal_form(word)) == expected


@given(words, words)
def test_abelianize_is_additive(u, v):
    total = abelianize(mul(u, v))
    lhs, rhs = abelianize(u), abelianize(v)
    names = set(lhs) | set(rhs)
    combined = {
        name: lhs.get(name, 0) + rhs.get(name, 0)
        for name in sorted(names)
        if lhs.get(name, 0) + rhs.get(name, 0) != 0
    }
    assert total == combined


def word_of(k):
    if k >= 0:
        return tuple([signed("a")] * k)
    return tuple([signed("a", NEGATIVE)] * (-k))


def test_one_generator_group_is_the_integers_small():
    for i in range(-5, 6):
        for j in range(-5, 6):
            assert mul(word_of(i), word_of(j)) == word_of(i + j)
            assert abelianize(mul(word_of(i), word_of(j))).get("a", 0) == i + j
    for k in range(-5, 6):
        assert inv(word_of(k)) == word_of(-k)


@given(words)
def test_greedy_reduction_replays_leftmost_steps_to_the_normal_form(word):
    positions, reduced = greedy_reduction(word)
    current = word
    for p in positions:
        assert p == find_redexes(current)[0]
        current = apply_step(current, p)
    assert current == reduced
    assert find_redexes(reduced) == []
