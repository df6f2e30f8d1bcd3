"""Word calculus for free groups over a concrete generator alphabet.

Words are tuples of signed generators.  The package computes normal
forms and group operations, represents complete reduction sequences and
the elementary moves between them (swaps and overlap switches), reroutes
sequences with explicit move chains, and ships a brute-force oracle that
checks the advertised properties exhaustively on small words.
"""

from types import ModuleType as _ModuleType

from .core import (
    NEGATIVE,
    POSITIVE,
    SignedGenerator,
    Word,
    cancels,
    find_redexes,
    invert,
    is_redex_at,
    parse_word,
    render_word,
    signed,
)
from .errors import (
    CapExceeded,
    FreewordError,
    IncompleteReduction,
    IndexOutOfRange,
    InvalidArgument,
    InvalidRedex,
    NoOverlap,
    NotIndependent,
    ParseError,
    WordMismatch,
)
from .group import abelianize, cons, eq, greedy_reduction, inv, is_normal, mul, normal_form
from .moves import (
    LEFT,
    OVERLAP_LEFT,
    OVERLAP_RIGHT,
    RIGHT,
    SWAP,
    Move,
    MoveChain,
    applicable_moves,
    apply_chain,
    apply_move,
    overlap_switch,
    parse_chain,
    parse_move,
    render_chain,
    swap,
)
from .oracle import (
    DEFAULT_CAP,
    CorpusReport,
    MoveGraph,
    TransformFailure,
    TransformReport,
    all_words,
    build_move_graph,
    check_connected,
    check_corpus,
    check_pairs,
    enumerate_sequences,
    random_reducible_word,
    signed_alphabet,
)
from .reduction import (
    ReductionSequence,
    apply_step,
    parse_steps,
    render_steps,
    run_sequence,
    validate_sequence,
)
from .transform import drop_redex, extend_reduction, front_reduction, transform_to

__version__ = "0.1.0"

# every public name imported above; submodules and _names stay out
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
