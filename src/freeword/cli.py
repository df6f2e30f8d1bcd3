"""Command line front end.

One subcommand per operation; --json switches any of them to a single
machine-readable JSON object with a top-level schema tag.  Exit codes:
0 success (for eq: equal), 1 semantic no (unequal, or a failed check),
2 error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .core import Word, find_redexes, parse_word, render_word, signed
from .errors import CapExceeded, FreewordError, ParseError
from .group import abelianize, eq, inv, mul, normal_form
from .moves import apply_move, render_chain
from .oracle import (
    DEFAULT_CAP,
    all_words,
    build_move_graph,
    check_connected,
    check_corpus,
    enumerate_sequences,
    random_reducible_word,
)
from .reduction import apply_step, parse_steps, render_steps, validate_sequence
from .transform import transform_to

SCHEMA = "1"


def _display(w: Word) -> str:
    return render_word(w) or "nil"


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def cmd_nf(args) -> int:
    w = parse_word(args.word)
    result = normal_form(w)
    if args.json:
        _emit({"schema": SCHEMA, "word": render_word(w), "normal_form": render_word(result)})
    else:
        print(_display(result))
    return 0


def cmd_mul(args) -> int:
    u, v = parse_word(args.left), parse_word(args.right)
    product = mul(u, v)
    if args.json:
        _emit({
            "schema": SCHEMA,
            "left": render_word(u),
            "right": render_word(v),
            "product": render_word(product),
        })
    else:
        print(_display(product))
    return 0


def cmd_inv(args) -> int:
    w = parse_word(args.word)
    result = inv(w)
    if args.json:
        _emit({"schema": SCHEMA, "word": render_word(w), "inverse": render_word(result)})
    else:
        print(_display(result))
    return 0


def cmd_eq(args) -> int:
    u, v = parse_word(args.left), parse_word(args.right)
    equal = eq(u, v)
    if args.json:
        _emit({
            "schema": SCHEMA,
            "left": render_word(u),
            "right": render_word(v),
            "equal": equal,
        })
    else:
        print("equal" if equal else "unequal")
    return 0 if equal else 1


def cmd_abel(args) -> int:
    w = parse_word(args.word)
    _emit({"schema": SCHEMA, "word": render_word(w), "exponents": abelianize(w)})
    return 0


def _greedy_positions(w: Word) -> list[int]:
    # leftmost redex each time; lands on the normal form
    positions = []
    current = w
    redexes = find_redexes(current)
    while redexes:
        positions.append(redexes[0])
        current = apply_step(current, redexes[0])
        redexes = find_redexes(current)
    return positions


def cmd_reduce(args) -> int:
    w = parse_word(args.word)
    if args.steps is not None:
        positions = validate_sequence(w, parse_steps(args.steps)).steps
    else:
        positions = _greedy_positions(w)
    trace = [w]
    annotations = []
    for p in positions:
        annotations.append(f"{trace[-1][p]} {trace[-1][p + 1]}")
        trace.append(apply_step(trace[-1], p))
    result = trace[-1]
    if args.json:
        _emit({
            "schema": SCHEMA,
            "word": render_word(w),
            "steps": list(positions),
            "trace": [render_word(step) for step in trace],
            "annotations": annotations,
            "result": render_word(result),
        })
    elif args.trace:
        print(_display(trace[0]))
        for note, after in zip(annotations, trace[1:]):
            print(f"  --[{note}]--> {_display(after)}")
    else:
        print(_display(result))
    return 0


def cmd_sequences(args) -> int:
    w = parse_word(args.word)
    sequences = enumerate_sequences(w, cap=args.cap)
    if args.json:
        _emit({
            "schema": SCHEMA,
            "word": render_word(w),
            "count": len(sequences),
            "sequences": [list(seq.steps) for seq in sequences],
        })
    else:
        for seq in sequences:
            print(render_steps(seq.steps))
    return 0


def cmd_connect(args) -> int:
    w = parse_word(args.word)
    r = validate_sequence(w, parse_steps(args.start))
    s = validate_sequence(w, parse_steps(args.target))
    chain = transform_to(r, s)
    replay = [r.steps]
    current = r
    for move in chain:
        current = apply_move(current, move)
        replay.append(current.steps)
    if args.json:
        _emit({
            "schema": SCHEMA,
            "word": render_word(w),
            "start": list(r.steps),
            "target": list(s.steps),
            "chain": [str(move) for move in chain],
            "replay": [list(steps) for steps in replay],
        })
    else:
        print(render_chain(chain))
    return 0


def _node_id(steps) -> str:
    return render_steps(steps) or "nil"


def cmd_graph(args) -> int:
    w = parse_word(args.word)
    graph = build_move_graph(w, cap=args.cap)
    connected = check_connected(graph)
    edges = graph.edges()
    if args.dot:
        lines = ["graph reductions {", f'  label="{render_word(w)}";']
        for node in graph.nodes:
            lines.append(f'  "{_node_id(node)}";')
        for src, dst, move in edges:
            lines.append(f'  "{_node_id(src)}" -- "{_node_id(dst)}" [label="{move}"];')
        lines.append("}")
        print("\n".join(lines))
    elif args.json:
        _emit({
            "schema": SCHEMA,
            "word": render_word(w),
            "node_count": len(graph.nodes),
            "edge_count": len(edges),
            "connected": connected,
            "nodes": [list(node) for node in graph.nodes],
            "edges": [
                {"from": list(src), "to": list(dst), "move": str(move)}
                for src, dst, move in edges
            ],
        })
    else:
        print(f"nodes {len(graph.nodes)} edges {len(edges)} connected "
              + ("yes" if connected else "no"))
    return 0


def cmd_check(args) -> int:
    names = tuple(part for part in args.alphabet.split(",") if part)
    if not names:
        raise ParseError("alphabet must name at least one generator", token=args.alphabet)
    for name in names:
        signed(name)
    # a corpus of no words would pass vacuously
    if args.max_len < 0:
        raise ParseError("--max-len must not be negative", token=str(args.max_len))
    if args.samples is not None and args.samples < 1:
        raise ParseError("--samples must be at least 1", token=str(args.samples))
    if args.max_len > args.cap:
        raise CapExceeded(args.max_len, args.cap)
    if args.samples is not None:
        rng = random.Random(args.seed)
        max_pairs = max(args.max_len // 2, 1)
        words = [
            random_reducible_word(names, rng.randint(1, max_pairs), rng)
            for _ in range(args.samples)
        ]
        mode = "samples"
    else:
        words = [w for length in range(args.max_len + 1) for w in all_words(names, length)]
        mode = "exhaustive"
    report = check_corpus(words, cap=args.cap)
    if args.json:
        _emit({
            "schema": SCHEMA,
            "mode": mode,
            "alphabet": list(names),
            "max_len": args.max_len,
            "seed": args.seed,
            "words_checked": report.words_checked,
            "sequences_enumerated": report.sequences_enumerated,
            "pairs_verified": report.pairs_verified,
            "max_chain_length": report.max_chain_length,
            "max_bfs_distance": report.max_bfs_distance,
            "ok": report.ok,
            "failures": {
                "disconnected": [render_word(w) for w in report.disconnected],
                "mismatched": [render_word(w) for w in report.mismatched],
                "transform": [
                    {
                        "word": render_word(f.word),
                        "start": list(f.start),
                        "target": list(f.target),
                        "move_index": f.move_index,
                        "reason": f.reason,
                    }
                    for f in report.transform_failures
                ],
            },
        })
    else:
        print(f"mode                 {mode}")
        print(f"words checked        {report.words_checked}")
        print(f"sequences enumerated {report.sequences_enumerated}")
        print(f"pairs verified       {report.pairs_verified}")
        print(f"max chain length     {report.max_chain_length}")
        print(f"max bfs distance     {report.max_bfs_distance}")
        for w in report.disconnected:
            print(f"disconnected: {_display(w)}")
        for w in report.mismatched:
            print(f"reducibility mismatch: {_display(w)}")
        for f in report.transform_failures:
            print(
                f"transform failure: {_display(f.word)} "
                f"{render_steps(f.start)} -> {render_steps(f.target)}: {f.reason}"
            )
        print("result               " + ("ok" if report.ok else "FAILED"))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeword",
        description="Free group word calculus: normal forms, reduction sequences, moves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("nf", parents=[shared], help="normal form of a word")
    p.add_argument("word")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("mul", parents=[shared], help="product of two words")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("inv", parents=[shared], help="group inverse of a word")
    p.add_argument("word")
    p.set_defaults(func=cmd_inv)

    p = sub.add_parser("eq", parents=[shared],
                       help="same group element? exit 0 yes, 1 no")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("abel", parents=[shared], help="exponent sums per generator")
    p.add_argument("word")
    p.set_defaults(func=cmd_abel)

    p = sub.add_parser("reduce", parents=[shared],
                       help="run a reduction sequence, or reduce to normal form")
    p.add_argument("word")
    p.add_argument("--steps", "-s", help="sequence to run, e.g. 3,0,0")
    p.add_argument("--trace", action="store_true", help="print every intermediate word")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("sequences", parents=[shared],
                       help="enumerate all complete reductions of a word")
    p.add_argument("word")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="refuse words longer than this (default %(default)s)")
    p.set_defaults(func=cmd_sequences)

    p = sub.add_parser("connect", parents=[shared],
                       help="move chain turning one reduction into another")
    p.add_argument("word")
    p.add_argument("start", help="sequence to start from, e.g. 0,0")
    p.add_argument("target", help="sequence to reach")
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("graph", parents=[shared],
                       help="move graph of all reductions of a word")
    p.add_argument("word")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="refuse words longer than this (default %(default)s)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("check", parents=[shared],
                       help="sweep a corpus of words through the oracle checks")
    p.add_argument("--alphabet", default="a,b", help="comma separated names (default a,b)")
    p.add_argument("--max-len", type=int, default=6, dest="max_len",
                   help="maximum word length (default %(default)s)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true",
                       help="every word up to max-len (the default)")
    group.add_argument("--samples", type=int, default=None,
                       help="check this many random fully reducible words instead")
    p.add_argument("--seed", type=int, default=0, help="rng seed for --samples")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="enumeration length cap (default %(default)s)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FreewordError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
