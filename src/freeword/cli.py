"""Command line front end.

One subcommand per operation.  Each returns (payload, lines, exit
code): the JSON object without its schema tag (tuples print as arrays)
and the text output.  main alone prints: the lines, or with --json (and
for abel, which has no text form) the payload as one JSON object with a
top-level schema tag.  graph --dot has no payload and prints DOT either
way.  reduce without --trace or --json has no payload either, since its
trace is quadratic in the word's length.  Exit codes: 0 success (for
eq: equal), 1 semantic no (unequal, or a failed check), 2 error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
from dataclasses import asdict

from .core import parse_word, render_word
from .errors import FreewordError, ParseError
from .group import abelianize, eq, greedy_reduction, inv, mul, normal_form
from .moves import apply_move, render_chain
from .oracle import (
    DEFAULT_CAP,
    all_words,
    build_move_graph,
    check_connected,
    check_corpus,
    enumerate_sequences,
    guard_cap,
    random_reducible_word,
    signed_alphabet,
)
from .reduction import (
    ReductionSequence,
    parse_steps,
    render_steps,
    run_sequence,
    validate_sequence,
)
from .transform import transform_to

SCHEMA = "1"

CommandResult = tuple[dict | None, list[str] | None, int]


def _or_nil(text: str) -> str:
    # the text form of a rendered word, or of rendered steps, that is empty
    return text or "nil"


def cmd_unary(args) -> CommandResult:
    # nf and inv: one word in, one word out, under args.key in JSON
    w = parse_word(args.word)
    result = render_word(args.op(w))
    return {"word": render_word(w), args.key: result}, [_or_nil(result)], 0


def cmd_mul(args) -> CommandResult:
    u, v = parse_word(args.left), parse_word(args.right)
    product = render_word(mul(u, v))
    payload = {"left": render_word(u), "right": render_word(v), "product": product}
    return payload, [_or_nil(product)], 0


def cmd_eq(args) -> CommandResult:
    u, v = parse_word(args.left), parse_word(args.right)
    equal = eq(u, v)
    payload = {"left": render_word(u), "right": render_word(v), "equal": equal}
    return payload, ["equal" if equal else "unequal"], 0 if equal else 1


def cmd_abel(args) -> CommandResult:
    w = parse_word(args.word)
    return {"word": render_word(w), "exponents": abelianize(w)}, None, 0


def cmd_reduce(args) -> CommandResult:
    w = parse_word(args.word)
    if args.steps is not None:
        positions, result = validate_sequence(w, parse_steps(args.steps)).steps, ()
    else:
        positions, result = greedy_reduction(w)
    if not (args.trace or args.json):
        # one line, no payload: the trace is quadratic in len(w)
        return None, [_or_nil(render_word(result))], 0
    words = run_sequence(ReductionSequence(w, positions))
    trace = [render_word(step) for step in words]
    annotations = [f"{before[p]} {before[p + 1]}" for before, p in zip(words, positions)]
    payload = {
        "word": trace[0],
        "steps": positions,
        "trace": trace,
        "annotations": annotations,
        "result": trace[-1],
    }
    steps = [f"  --[{note}]--> {_or_nil(after)}" for note, after in zip(annotations, trace[1:])]
    return payload, [_or_nil(trace[0]), *steps], 0


def cmd_sequences(args) -> CommandResult:
    w = parse_word(args.word)
    sequences = enumerate_sequences(w, cap=args.cap)
    payload = {
        "word": render_word(w),
        "count": len(sequences),
        "sequences": [seq.steps for seq in sequences],
    }
    return payload, [render_steps(seq.steps) for seq in sequences], 0


def cmd_connect(args) -> CommandResult:
    w = parse_word(args.word)
    r = validate_sequence(w, parse_steps(args.start))
    s = validate_sequence(w, parse_steps(args.target))
    chain = transform_to(r, s)
    replay = itertools.accumulate(chain, apply_move, initial=r)
    payload = {
        "word": render_word(w),
        "start": r.steps,
        "target": s.steps,
        "chain": [str(move) for move in chain],
        "replay": [seq.steps for seq in replay],
    }
    return payload, [render_chain(chain)], 0


def cmd_graph(args) -> CommandResult:
    w = parse_word(args.word)
    graph = build_move_graph(w, cap=args.cap)
    edges = graph.edges()
    if args.dot:
        # index numbers every steps tuple an edge reaches, non-nodes too
        ids = {node: _or_nil(render_steps(node)) for node in graph.index}
        return None, [
            "graph reductions {",
            f'  label="{render_word(w)}";',
            *(f'  "{ids[node]}";' for node in graph.nodes),
            *(f'  "{ids[src]}" -- "{ids[dst]}" [label="{move}"];' for src, dst, move in edges),
            "}",
        ], 0
    connected = check_connected(graph)
    payload = {
        "word": render_word(w),
        "node_count": len(graph.nodes),
        "edge_count": len(edges),
        "connected": connected,
        "nodes": graph.nodes,
        "edges": [{"from": src, "to": dst, "move": str(move)} for src, dst, move in edges],
    }
    yes_no = "yes" if connected else "no"
    return payload, [f"nodes {len(graph.nodes)} edges {len(edges)} connected {yes_no}"], 0


def cmd_check(args) -> CommandResult:
    names = tuple(part for part in args.alphabet.split(",") if part)
    if not names:
        raise ParseError("alphabet must name at least one generator", token=args.alphabet)
    signed_alphabet(names)
    # a corpus of no words would pass vacuously
    if args.max_len < 0:
        raise ParseError("--max-len must not be negative", token=str(args.max_len))
    if args.samples is not None and args.samples < 1:
        raise ParseError("--samples must be at least 1", token=str(args.samples))
    if args.samples is not None and args.max_len < 2:
        # a sampled word has at least one cancelling pair
        raise ParseError("--max-len must be at least 2 with --samples", token=str(args.max_len))
    guard_cap(args.max_len, args.cap)
    if args.samples is not None:
        rng = random.Random(args.seed)
        words = [
            random_reducible_word(names, rng.randint(1, args.max_len // 2), rng)
            for _ in range(args.samples)
        ]
        mode = "samples"
    else:
        words = [w for length in range(args.max_len + 1) for w in all_words(names, length)]
        mode = "exhaustive"
    report = check_corpus(words, cap=args.cap)
    payload = {
        "mode": mode,
        "alphabet": names,
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
                {**asdict(f), "word": render_word(f.word)} for f in report.transform_failures
            ],
        },
    }
    summary = ("mode", "words_checked", "sequences_enumerated", "pairs_verified",
               "max_chain_length", "max_bfs_distance")
    lines = [f"{key.replace('_', ' '):<20} {payload[key]}" for key in summary]
    failures = payload["failures"]
    lines += [f"disconnected: {_or_nil(w)}" for w in failures["disconnected"]]
    lines += [f"reducibility mismatch: {_or_nil(w)}" for w in failures["mismatched"]]
    lines += [
        f"transform failure: {_or_nil(f['word'])} "
        f"{render_steps(f['start'])} -> {render_steps(f['target'])}: {f['reason']}"
        for f in failures["transform"]
    ]
    lines.append(f"{'result':<20} " + ("ok" if report.ok else "FAILED"))
    return payload, lines, 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged,
    # and help text is formatted when it is printed
    parser = argparse.ArgumentParser(
        prog="freeword",
        description="Free group word calculus: normal forms, reduction sequences, moves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit one JSON object")
    one_word = argparse.ArgumentParser(add_help=False, parents=[shared])
    one_word.add_argument("word")
    two_words = argparse.ArgumentParser(add_help=False, parents=[shared])
    two_words.add_argument("left")
    two_words.add_argument("right")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="refuse words longer than this (default %(default)s)")

    p = sub.add_parser("nf", parents=[one_word], help="normal form of a word")
    p.set_defaults(func=cmd_unary, op=normal_form, key="normal_form")

    p = sub.add_parser("mul", parents=[two_words], help="product of two words")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("inv", parents=[one_word], help="group inverse of a word")
    p.set_defaults(func=cmd_unary, op=inv, key="inverse")

    p = sub.add_parser("eq", parents=[two_words],
                       help="same group element? exit 0 yes, 1 no")
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("abel", parents=[one_word], help="exponent sums per generator")
    p.set_defaults(func=cmd_abel)

    p = sub.add_parser("reduce", parents=[one_word],
                       help="run a reduction sequence, or reduce to normal form")
    p.add_argument("--steps", "-s", help="sequence to run, e.g. 3,0,0")
    p.add_argument("--trace", action="store_true", help="print every intermediate word")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("sequences", parents=[one_word, capped],
                       help="enumerate all complete reductions of a word")
    p.set_defaults(func=cmd_sequences)

    p = sub.add_parser("connect", parents=[one_word],
                       help="move chain turning one reduction into another")
    p.add_argument("start", help="sequence to start from, e.g. 0,0")
    p.add_argument("target", help="sequence to reach")
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("graph", parents=[one_word, capped],
                       help="move graph of all reductions of a word")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("check", parents=[shared, capped],
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
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(args)
    except FreewordError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if payload is not None and (args.json or lines is None):
            print(json.dumps({"schema": SCHEMA, **payload}))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: send what is still buffered to devnull,
        # so the flush at interpreter exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    return code
