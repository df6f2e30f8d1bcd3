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


# transform_to's memo, published by one assignment: None when cold, else
# (start, root, graph) for the last start validated.  graph maps each
# state of start's word, the word left after j levels and the fronted
# steps, to its node.  A node maps None to its state and a next target
# step p to the edge (that level's moves lifted by j, the next node).  A
# state with m steps is reached only at level k - m, so its lift is
# fixed; edges lead to shorter words, so nodes form no cycle.  root is
# start's own node, not in graph.  An edge is a pure function of its
# node's state and p, so every edge is stored as it is made, by calls
# that fail too, and threads racing on a node store equal moves; a state
# two threads create at once gets two equivalent nodes.  The graph is
# dropped at a call on another word, or at any call once its states
# times the word's length, counted as at least 12, exceed
# _MAX_STATE_LETTERS: a state holds a word and steps of up to that
# length, and a shorter one costs about as much.  So a word of up to 12
# letters keeps up to 2^14 states, and an 80-letter one up to 2,457.
_memo: tuple | None = None
_MAX_STATE_LETTERS = 12 * 2**14


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

    After level j the chain depends only on the state, the word left and
    the fronted steps, and on target[j:], so the memo keeps one graph of
    states per word, shared by all its starts.  Every call walks its
    target from its start's node with one lookup keyed by a step per
    level, fronts only where an edge is missing, and stores that edge at
    once.  A start other than the previous call's is validated and gets
    a new node.  Results and errors are those of a call from scratch.
    """
    global _memo
    if r.word != s.word:
        raise WordMismatch(
            f"sequences reduce different words ({len(r.word)} and {len(s.word)} items)"
        )
    memo = _memo
    if memo is not None and len(memo[2]) * max(len(memo[0].word), 12) > _MAX_STATE_LETTERS:
        memo = None
    if memo is None or memo[0] != r:
        validate_sequence(r.word, r.steps)
        graph = memo[2] if memo is not None and memo[0].word == r.word else {}
        memo = _memo = (r, {None: (r.word, r.steps)}, graph)
    _, node, graph = memo
    chain = []
    for level, p in enumerate(s.steps):
        edge = node.get(p)
        if edge is None:
            word, kept = node[None]
            steps = list(kept)
            moves = tuple(_front(word, steps, p, level))
            state = (word[:p] + word[p + 2:], tuple(steps[1:]))
            edge = node[p] = (moves, graph.setdefault(state, {None: state}))
        moves, node = edge
        chain += moves
    word = node[None][0]
    if word:
        raise IncompleteReduction(word)
    return tuple(chain)


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
