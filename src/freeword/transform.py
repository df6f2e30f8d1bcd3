"""Rerouting reduction sequences with move chains.

front_reduction brings the step consuming a chosen redex to the front;
transform_to connects any two sequences of the same word; the
extend_reduction / drop_redex pair inserts or removes a cancelling pair
while keeping the rest of the reduction intact.  Everything returns
explicit move chains, so each rewrite can be replayed and audited.
"""

from __future__ import annotations

from .core import SignedGenerator, Word, invert, is_redex_at
from .errors import IncompleteReduction, InvalidRedex, WordMismatch
from .moves import OVERLAP_LEFT, OVERLAP_RIGHT, SWAP, Move, MoveChain
from .reduction import ReductionSequence, apply_step, validate_sequence


def _front(word: Word, steps: list[int], p: int, lift: int) -> list[Move]:
    """Edit steps, the positions of a complete reduction of word, in
    place so that its first step removes the redex at p; return the
    moves doing that, their step indices lifted by ``lift``.

    x is the position of item p in the word each step acts on, and item
    p+1 is at x+1 until k, the first step to take either: at x it takes
    both and is bubbled to the front with adjacent swaps; at x+1 or x-1
    one overlap switch first retargets it onto the marked pair.  steps
    is complete, validated by the callers and kept valid by every move,
    so item p is consumed and the scan always stops.  In an overlap the
    third item cancels the same item as the marked one, so the two are
    equal.  The bubbled step takes two items adjacent in word, so it is
    never nested over an earlier step, and the swaps land it on p.
    """
    if not is_redex_at(word, p):
        raise InvalidRedex(p, word)
    if steps[0] == p:
        # already in front: the scan would stop at k = 0 with no moves
        return []
    x = p
    for k, q in enumerate(steps):
        if q == x:
            moves = []
            break
        if q == x + 1 or q == x - 1:
            # item p+1 is cancelled rightwards, or item p leftwards,
            # first: pull the step onto (p, p+1)
            steps[k] = x
            moves = [Move(OVERLAP_LEFT if q > x else OVERLAP_RIGHT, k + lift)]
            break
        if q < x:
            x -= 2
    for i in range(k - 1, -1, -1):
        a, b = steps[i], steps[i + 1]
        steps[i], steps[i + 1] = (b, a - 2) if b <= a - 2 else (b + 2, a)
        moves.append(Move(SWAP, i + lift))
    return moves


def front_reduction(r: ReductionSequence, p: int) -> tuple[MoveChain, ReductionSequence]:
    """Rewrite r so that its first step removes the redex at p.

    Returns the move chain together with the rewritten sequence;
    replaying the chain on r yields exactly that sequence.  The chain is
    at most one overlap switch, on the first step to consume item p or
    p+1, followed by the swaps bubbling that step to the front, so its
    length is at most the number of steps.

    r is validated whole on the way in, so a hand-built r raises what
    validate_sequence raises on it: InvalidRedex naming the first step
    that is not a redex, or IncompleteReduction if the steps run out,
    even where the bad step comes after the one consuming p.
    """
    validate_sequence(r.word, r.steps)
    steps = list(r.steps)
    moves = _front(r.word, steps, p, 0)
    return tuple(moves), ReductionSequence(r.word, tuple(steps))


# The previous successful transform_to call, published by one assignment:
# (start, target steps, chain, levels, tails, shared).  levels[j] is
# (steps, word, chain length) after j levels, up to the last level the
# call reached, so a next call from the same start can resume.  tails is
# the table of one word: it maps the sub-problem ((word, steps),
# target[j:]) after j levels to the rest of the chain, its moves lifted
# by j.  Only a call resuming from the previous start consults it, at the
# level it resumes from and at each level it computes, and only such a
# call that succeeds adds the levels it computed: at most one entry per
# _front call since the word last changed.  Level 0, whose tail is the
# whole chain of one pair, and the last level, which makes no moves, are
# neither looked up nor stored.  shared keeps one object per distinct
# state, suffix and tail of the table.  These are pairs of tuples, tuples
# of ints and tuples of moves, so no two kinds are equal but (), which is
# one object anyway.  A fresh start keeps both while the word stays the
# same and drops them for another word.  Every other part is never
# mutated.  Keys and values are tuples, and a value is a pure function of
# its key, so racing threads store equal values.
_memo: tuple | None = None


def transform_to(r: ReductionSequence, s: ReductionSequence) -> MoveChain:
    """A move chain rewriting r into s.

    Both sequences must reduce the same word.  Level by level, on one
    list of r's step positions: front the redex that s removes next,
    drop the now-identical first step, and continue on the shorter word.
    Moves found at level j apply past the j fixed steps, so their step
    indices are lifted by j.  The chain is correct, not minimal:
    apply_chain(r, result) == s, with length at most k(k-1)/2 for k
    steps, since a level with m steps left makes at most m-1 moves (an
    overlap needs three items, so it is never on the last step).
    r == s may return a nonempty chain that replays to r itself.  r is
    validated whole on the way in, as by front_reduction; a step of s
    that is not a redex raises InvalidRedex, and steps of s that stop
    early raise IncompleteReduction.

    The state after level j depends only on r and the first j steps of
    s, so one slot keeps the previous successful call, with a snapshot
    after every level it reached.  A call from the same start resumes
    after the deepest level its target shares with the stored target,
    keeping the chain up to there.  The rest of the chain from level j
    depends only on the word and steps after j levels and on target[j:],
    so the slot also holds a table of such tails for the current word,
    keyed by ((word, steps), target[j:]) and shared by all starts.  A
    resumed call looks up each level before computing it, but the first
    and the last, and on a hit appends the stored tail and stops; a call
    from a new start neither reads nor fills the table.  Entries are
    immutable and each is a pure function of its key, so threads racing
    on the table store equal values.  Results and errors are those of a
    call from scratch.
    """
    global _memo
    if r.word != s.word:
        raise WordMismatch(
            f"sequences reduce different words ({len(r.word)} and {len(s.word)} items)"
        )
    target = s.steps
    memo = _memo
    resumed = memo is not None and memo[0] == r
    if resumed:
        # the same start was validated by a call that completed
        _, previous, old_chain, levels, tails, shared = memo
    else:
        validate_sequence(r.word, r.steps)
        previous, old_chain, levels = (), (), [(r.steps, r.word, 0)]
        same_word = memo is not None and memo[4] and memo[0].word == r.word
        tails, shared = memo[4:] if same_word else ({}, {})
    start = 0
    limit = min(len(target), len(previous), len(levels) - 1)
    while start < limit and target[start] == previous[start]:
        start += 1
    levels = levels[:start + 1]  # a copy: published levels never change
    kept, word, length = levels[start]
    steps, chain = list(kept), list(old_chain[:length])
    for level in range(start, len(target)):
        if resumed and level and len(steps) > 1:
            tail = tails.get(((word, kept), target[level:]))
            if tail is not None:
                # stored by a call that completed, so this one completes
                chain += tail
                break
        p = target[level]
        chain += _front(word, steps, p, level)
        word = word[:p] + word[p + 2:]
        del steps[0]
        kept = tuple(steps)
        levels.append((kept, word, len(chain)))
    else:
        if word:
            raise IncompleteReduction(word)
    result = tuple(chain)
    if resumed:
        for level in range(start, len(levels) - 1):
            kept, word, length = levels[level]
            if level and len(kept) > 1:
                state, suffix, tail = (word, kept), target[level:], result[length:]
                key = (shared.setdefault(state, state), shared.setdefault(suffix, suffix))
                tails[key] = shared.setdefault(tail, tail)
    _memo = (r, target, result, levels, tails, shared)
    return result


def extend_reduction(
    y: Word, item: SignedGenerator, z: Word, r: ReductionSequence
) -> ReductionSequence:
    """Insert a cancelling pair and reduce it first.

    Given r reducing y ++ z, returns the sequence over
    y ++ (item, item') ++ z whose first step removes the inserted pair
    at position len(y) and whose remaining steps are exactly r's.
    """
    if r.word != y + z:
        raise WordMismatch("sequence does not reduce the concatenation of the given parts")
    word = y + (item, invert(item)) + z
    return ReductionSequence(word, (len(y),) + r.steps)


def drop_redex(r: ReductionSequence, p: int) -> ReductionSequence:
    """Remove the redex at p from r's word and keep a reduction of the rest.

    front_reduction rewrites r so step 0 consumes exactly that pair;
    dropping the step leaves a complete reduction of the shorter word.
    Exact inverse of extend_reduction: extending y, z with a pair at
    len(y) and dropping position len(y) returns the original sequence.
    """
    _, fronted = front_reduction(r, p)
    return ReductionSequence(apply_step(r.word, p), fronted.steps[1:])
