"""The free group over an alphabet, computed on normal forms.

A normal form is a word without redexes.  It is the canonical
representative of its group element, so deciding equality means
normalising and comparing tuples.
"""

from __future__ import annotations

from .core import SignedGenerator, Word, cancels, find_redexes, invert


def greedy_reduction(w: Word) -> tuple[tuple[int, ...], Word]:
    """Cancel the leftmost redex until none is left, in one left-to-right
    stack pass: every cancellation happens at the top of the reduced
    prefix.  Returns the positions of those steps, each in the word it
    acts on, and the normal form.  Linear time."""
    out: list[SignedGenerator] = []
    positions = []
    for item in w:
        if out and cancels(out[-1], item):
            out.pop()
            positions.append(len(out))
        else:
            out.append(item)
    return tuple(positions), tuple(out)


def normal_form(w: Word) -> Word:
    """The word left by cancelling everything.  Idempotent, and the
    result has no redex."""
    return greedy_reduction(w)[1]


def is_normal(w: Word) -> bool:
    """True iff w contains no redex."""
    return not find_redexes(w)


def mul(u: Word, v: Word) -> Word:
    """Group product: concatenate and renormalise."""
    return normal_form(u + v)


def inv(u: Word) -> Word:
    """Group inverse: reverse the word and flip every sign.

    Sends normal forms to normal forms, no renormalisation needed: a
    redex in the output would mirror a redex in the input.
    """
    inverse = {item: invert(item) for item in set(u)}
    return tuple(map(inverse.__getitem__, reversed(u)))


def eq(u: Word, v: Word) -> bool:
    """Do two words name the same group element?"""
    return normal_form(u) == normal_form(v)


def cons(item: SignedGenerator, w: Word) -> Word:
    """Prepend one signed generator, no cancellation.  The raw action
    whose normalised version multiplies by a length-1 word."""
    return (item,) + w


def abelianize(w: Word) -> dict[str, int]:
    """Exponent sum per generator name, zero sums dropped, keys sorted.

    Invariant under cancellation, and additive: the map of mul(u, v) is
    the pointwise sum of the maps of u and v.
    """
    sums: dict[str, int] = {}
    for item in w:
        sums[item.name] = sums.get(item.name, 0) + item.sign
    return {name: total for name, total in sorted(sums.items()) if total != 0}
