"""Correctness references of the benchmark, independent of freeword.

Words are handled here as plain tuples of ``(name, sign)`` pairs, which
compare equal to freeword's ``SignedGenerator`` named tuples, or as
strings with one character per item (``a`` for a, ``A`` for a').  None
of this code imports the package under test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial


def inverse_item(item: tuple[str, int]) -> tuple[str, int]:
    return (item[0], -item[1])


@lru_cache(maxsize=None)
def _forest_weight(w: tuple) -> Fraction:
    # Sum over the non-crossing cancelling matchings of w of
    # prod 1/(size of the subtree under each matched pair).  The first
    # item is matched with some later item l; the pair's subtree holds
    # the pairs strictly inside it plus itself.
    if not w:
        return Fraction(1)
    total = Fraction(0)
    head = inverse_item(w[0])
    for l in range(1, len(w), 2):
        if w[l] == head:
            inner = _forest_weight(w[1:l])
            if inner:
                rest = _forest_weight(w[l + 1:])
                if rest:
                    total += inner * rest / ((l + 1) // 2)
    return total


def count_sequences(w) -> int:
    """Number of complete reduction sequences of w.

    A sequence is a non-crossing matching of cancelling items plus an
    order of the pairs that removes inner pairs before outer ones; for a
    fixed matching there are k!/prod(subtree sizes) such orders (the
    forest hook-length formula).
    """
    w = tuple(w)
    if len(w) % 2:
        return 0
    count = factorial(len(w) // 2) * _forest_weight(w)
    assert count.denominator == 1
    return int(count)


def expected_pairs(sequences: int) -> int:
    """Pairs check_corpus verifies for a word with this many sequences,
    at its defaults: every ordered pair up to 200 sequences, 50 sampled
    pairs beyond."""
    if sequences == 0:
        return 0
    return sequences * sequences if sequences <= 200 else 50


def chain_bound(k: int) -> int:
    """Longest chain transform_to may return for a word of k pairs."""
    return k * (k + 1) // 2 + k


def to_chars(w) -> str:
    return "".join(name if sign > 0 else name.upper() for name, sign in w)


def from_chars(text: str) -> tuple:
    return tuple((c.lower(), 1 if c.islower() else -1) for c in text)


def naive_normal_form(text: str) -> str:
    """Delete adjacent inverse pairs until none is left: quadratic, and
    deliberately unlike freeword's one-pass stack."""
    pairs = {c + c.swapcase() for c in set(text.lower())}
    pairs |= {p.swapcase() for p in pairs}
    while True:
        shorter = text
        for pair in pairs:
            shorter = shorter.replace(pair, "")
        if shorter == text:
            return text
        text = shorter


def naive_inverse(text: str) -> str:
    return text[::-1].swapcase()


def exponent_sums(text: str) -> dict[str, int]:
    sums = {}
    for name in set(text.lower()):
        total = text.count(name) - text.count(name.upper())
        if total:
            sums[name] = total
    return sums


def is_complete_reduction(w, steps) -> bool:
    """True iff every step removes an inverse pair of the current word
    and the steps leave nothing behind."""
    current = list(w)
    for p in steps:
        if not (0 <= p < len(current) - 1) or current[p + 1] != inverse_item(current[p]):
            return False
        del current[p:p + 2]
    return not current
