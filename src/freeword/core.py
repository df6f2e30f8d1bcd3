"""Signed generators, words over them, and redex detection.

A generator alphabet is just a set of names.  A word is a plain tuple
of :class:`SignedGenerator` items; tuples keep words immutable and
hashable, so they can be shared, compared item by item, and used as
dict keys without ceremony.

Word text format (used by the CLI and throughout the docs): tokens
separated by whitespace, a bare identifier is a positive generator and
a trailing apostrophe marks its inverse, e.g. ``a a' b c c' b'``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import InvalidArgument, ParseError

POSITIVE = 1
NEGATIVE = -1

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"\S+")


class SignedGenerator(NamedTuple):
    """A generator name with a sign, +1 for the generator itself and
    -1 for its formal inverse."""

    name: str
    sign: int

    def __str__(self) -> str:
        return self.name if self.sign == POSITIVE else self.name + "'"


Word = tuple[SignedGenerator, ...]


def signed(name: str, sign: int = POSITIVE) -> SignedGenerator:
    """Build a signed generator, validating the name and sign."""
    if not _IDENT.fullmatch(name):
        raise ParseError("not a valid generator name", token=name)
    if sign not in (POSITIVE, NEGATIVE):
        raise InvalidArgument(f"sign must be {POSITIVE} or {NEGATIVE}, got {sign!r}")
    return SignedGenerator(name, sign)


def invert(item: SignedGenerator) -> SignedGenerator:
    """Flip the sign, keep the name.  An involution: invert(invert(s)) == s."""
    return SignedGenerator(item.name, -item.sign)


def cancels(x: SignedGenerator, y: SignedGenerator) -> bool:
    """The one relation of the free group: x y cancels iff y is the
    inverse of x.  Symmetric, so it covers ``a a'`` and ``a' a``."""
    return x.name == y.name and x.sign == -y.sign


def is_redex_at(w: Word, p: int) -> bool:
    """True iff items p and p+1 exist and cancel each other.  Out-of-range
    positions are allowed and simply yield False."""
    return 0 <= p <= len(w) - 2 and cancels(w[p], w[p + 1])


def find_redexes(w: Word) -> list[int]:
    """All positions where a redex starts, in ascending order."""
    return [p for p in range(len(w) - 1) if is_redex_at(w, p)]


def parse_word(text: str) -> Word:
    """Parse the whitespace-separated word text format.

    Any character for which ``str.isspace()`` is true separates tokens.
    The empty (or all-whitespace) string is the empty word.  Rejects
    anything that is not ``identifier`` or ``identifier'`` with a
    ParseError carrying the first offending token and the character
    offset of its first occurrence.
    """
    tokens = text.split()
    # one item per distinct token: a long word over a few names reuses them
    table = {}
    for token in dict.fromkeys(tokens):
        if token.endswith("'"):
            name, sign = token[:-1], NEGATIVE
        else:
            name, sign = token, POSITIVE
        if not _IDENT.fullmatch(name):
            offset = next(m.start() for m in _TOKEN.finditer(text) if m.group() == token)
            raise ParseError("bad token in word", token=token, offset=offset)
        table[token] = SignedGenerator(name, sign)
    return tuple(map(table.__getitem__, tokens))


def render_word(w: Word) -> str:
    """Inverse of parse_word, up to whitespace normalisation."""
    rendered = {item: str(item) for item in set(w)}
    return " ".join(map(rendered.__getitem__, w))
