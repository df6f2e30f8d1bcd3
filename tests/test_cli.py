import argparse
import contextlib
import hashlib
import io
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeword import moves, oracle
from freeword.cli import build_parser, main
from freeword.core import parse_word, render_word
from freeword.errors import NotIndependent
from freeword.moves import apply_move, neighbour_maps
from freeword.reduction import ReductionSequence, render_steps
from freeword.transform import transform_to


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    payload = json.loads(out)
    assert payload["schema"] == "1"
    return code, payload


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "a b b' c")
    assert code == 0
    assert out == "a c\n"


def test_nf_empty_prints_nil(capsys):
    code, out, _ = run(capsys, "nf", "a a'")
    assert code == 0
    assert out == "nil\n"


def test_nf_json(capsys):
    code, payload = run_json(capsys, "nf", "a  b b'   c")
    assert code == 0
    assert payload == {"schema": "1", "word": "a b b' c", "normal_form": "a c"}


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "a b", "b' a")
    assert code == 0
    assert out == "a a\n"


def test_inv(capsys):
    code, out, _ = run(capsys, "inv", "a b'")
    assert code == 0
    assert out == "b a'\n"


def test_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "eq", "a b b'", "a")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, "eq", "a", "b")
    assert (code, out) == (1, "unequal\n")


def test_eq_json_keeps_exit_code(capsys):
    code, payload = run_json(capsys, "eq", "a", "b")
    assert code == 1
    assert payload["equal"] is False


def test_parse_error_exit_code_and_message(capsys):
    code, out, err = run(capsys, "nf", "a''")
    assert code == 2
    assert out == ""
    assert "a''" in err


def test_abel(capsys):
    code, out, _ = run(capsys, "abel", "a b a b' a'")
    assert code == 0
    assert json.loads(out) == {"schema": "1", "word": "a b a b' a'", "exponents": {"a": 1}}


def test_reduce_trace_worked_example(capsys):
    code, out, _ = run(capsys, "reduce", "a a' b c c' b'", "--steps", "3,0,0", "--trace")
    assert code == 0
    assert out.splitlines() == [
        "a a' b c c' b'",
        "  --[c c']--> a a' b b'",
        "  --[a a']--> b b'",
        "  --[b b']--> nil",
    ]


def test_reduce_with_steps_no_trace_prints_result(capsys):
    code, out, _ = run(capsys, "reduce", "a a'", "--steps", "0")
    assert (code, out) == (0, "nil\n")


def test_reduce_invalid_sequence_reports_step(capsys):
    code, out, err = run(capsys, "reduce", "a a' b c c' b'", "--steps", "0,0,0")
    assert code == 2
    assert "step 1" in err


def test_reduce_incomplete_sequence(capsys):
    code, _, err = run(capsys, "reduce", "a a' b b'", "--steps", "0")
    assert code == 2
    assert "b b'" in err


def test_reduce_without_steps_normalises(capsys):
    code, out, _ = run(capsys, "reduce", "a b b' c")
    assert (code, out) == (0, "a c\n")


def test_reduce_json(capsys):
    code, payload = run_json(capsys, "reduce", "a a' b c c' b'", "--steps", "3,0,0")
    assert code == 0
    assert payload["steps"] == [3, 0, 0]
    assert payload["trace"] == ["a a' b c c' b'", "a a' b b'", "b b'", ""]
    assert payload["annotations"] == ["c c'", "a a'", "b b'"]
    assert payload["result"] == ""


DEEP_WORD = " ".join(["a"] * 6000 + ["a'"] * 6000)


@pytest.mark.parametrize("steps", [[], ["--steps", ",".join(map(str, range(5999, -1, -1)))]])
def test_reduce_answers_in_linear_memory(capsys, steps):
    # the trace of this word holds 36 million items; the one-line answer
    # needs none of it
    tracemalloc.start()
    try:
        code = main(["reduce", DEEP_WORD, *steps])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, "nil\n")
    assert peak < 10_000_000


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


# random words over a, b of up to 12 letters, and as many fully
# reducible ones, which random words seldom are
REDUCE_WORDS = st.one_of(
    st.lists(st.sampled_from(["a", "a'", "b", "b'"]), max_size=12).map(" ".join),
    st.builds(lambda pairs, seed: render_word(
        oracle.random_reducible_word(("a", "b"), pairs, random.Random(seed))),
        st.integers(1, 6), st.integers(0, 10 ** 6)),
)


@settings(max_examples=150, deadline=None)
@given(REDUCE_WORDS)
def test_reduce_prints_what_nf_prints(word):
    assert _stdout("reduce", word) == _stdout("nf", word)
    for r in oracle.enumerate_sequences(parse_word(word)):
        assert _stdout("reduce", word, "--steps", render_steps(r.steps)) == "nil\n"


def test_sequences(capsys):
    code, out, _ = run(capsys, "sequences", "a a' a a'")
    assert code == 0
    assert out.splitlines() == ["0,0", "1,0", "2,0"]


def test_sequences_json(capsys):
    code, payload = run_json(capsys, "sequences", "a a' a a'")
    assert code == 0
    assert payload["count"] == 3
    assert payload["sequences"] == [[0, 0], [1, 0], [2, 0]]


def test_sequences_cap(capsys):
    word = " ".join(["a"] * 13)
    code, _, err = run(capsys, "sequences", word)
    assert code == 2
    assert "cap" in err
    code, out, _ = run(capsys, "sequences", word, "--cap", "13")
    assert (code, out) == (0, "")


def test_capped_commands_share_one_cap_option():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    caps = [next(a for a in commands.choices[name]._actions if "--cap" in a.option_strings)
            for name in ("sequences", "graph", "check")]
    assert caps[0] is caps[1] is caps[2]
    assert caps[0].default == oracle.DEFAULT_CAP


def test_connect(capsys):
    code, out, _ = run(capsys, "connect", "a a' b b'", "0,0", "2,0")
    assert (code, out) == (0, "swap@0\n")


def test_connect_json_replay(capsys):
    code, payload = run_json(capsys, "connect", "a a' a a'", "0,0", "2,0")
    assert code == 0
    assert payload["chain"] == ["swap@0"]
    assert payload["replay"] == [[0, 0], [2, 0]]


def test_connect_rejects_invalid_sequence(capsys):
    code, _, err = run(capsys, "connect", "a a' b b'", "1,0", "2,0")
    assert code == 2
    assert "step 0" in err


def test_graph_summary(capsys):
    code, out, _ = run(capsys, "graph", "a a' a a'")
    assert (code, out) == (0, "nodes 3 edges 3 connected yes\n")


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "a a' a a'", "--dot")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph reductions {"
    assert '  "0,0";' in lines
    assert '  "0,0" -- "2,0" [label="swap@0"];' in lines
    assert lines[-1] == "}"


def test_graph_json(capsys):
    code, payload = run_json(capsys, "graph", "a a' b b'")
    assert code == 0
    assert payload["node_count"] == 2
    assert payload["edge_count"] == 1
    assert payload["connected"] is True
    assert payload["edges"] == [{"from": [0, 0], "to": [2, 0], "move": "swap@0"}]


def test_graph_json_lists_an_edge_to_a_non_node(capsys, monkeypatch):
    # a faulty swap reaches steps that are no reduction of the word.
    # Such an edge is listed, and counted, when the non-node's steps are
    # the larger: (0, 0, 0) from (0, 0) is, (0, 2, 0) from (2, 0) is not
    monkeypatch.setattr(moves, "swap",
                        lambda r, i: ReductionSequence(r.word, r.steps[::-1] + (i,)))
    code, payload = run_json(capsys, "graph", "a a' a a'")
    assert code == 0
    assert (payload["node_count"], payload["edge_count"], payload["connected"]) == (3, 3, False)
    assert payload["edges"] == [
        {"from": [0, 0], "to": [0, 0, 0], "move": "swap@0"},
        {"from": [0, 0], "to": [1, 0], "move": "ovr@0"},
        {"from": [1, 0], "to": [2, 0], "move": "ovr@0"},
    ]


def test_graph_deterministic(capsys):
    first = run(capsys, "graph", "a a' b c c' b'", "--dot")
    second = run(capsys, "graph", "a a' b c c' b'", "--dot")
    assert first == second


def test_check_exhaustive_small(capsys):
    code, out, _ = run(capsys, "check", "--alphabet", "a,b", "--max-len", "4")
    assert code == 0
    assert "words checked        341" in out
    assert "result               ok" in out


def test_check_json(capsys):
    code, payload = run_json(capsys, "check", "--alphabet", "a", "--max-len", "4")
    assert code == 0
    assert payload["ok"] is True
    assert payload["words_checked"] == 1 + 2 + 4 + 8 + 16
    assert payload["failures"] == {"disconnected": [], "mismatched": [], "transform": []}


def test_check_samples_deterministic(capsys):
    args = ("check", "--samples", "25", "--seed", "9", "--alphabet", "a,b,c",
            "--max-len", "10", "--json")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    assert first[0] == 0
    assert json.loads(first[1])["words_checked"] == 25


def test_check_rejects_max_len_beyond_cap(capsys):
    code, _, err = run(capsys, "check", "--max-len", "13")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ("reduce", "a a'", "--steps", "\u00b2"),
    ("connect", "a a'", "0", "\u00b2"),
    # beyond the digits int() converts: a bare ValueError, exit 1; a
    # position is now at most 18 digits, so these fail before int()
    ("reduce", "a a'", "--steps", "1" * 5000),
    ("connect", "a a'", "0", "1" * 5000),
    # within int()'s default limit: an InvalidRedex echoing all 4,000 digits
    ("reduce", "a a'", "--steps", "1" * 4000),
    ("connect", "a a'", "0", "1" * 4000),
])
def test_non_ascii_step_digits_are_a_parse_error(capsys, argv):
    # used to pass str.isdigit and crash in int() with a traceback, exit 1
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad step position")
    assert len(err) < 100  # a long token is echoed only in part


@pytest.mark.parametrize("option,value", [
    ("--samples", "-3"),
    ("--samples", "0"),
    ("--max-len", "-2"),
])
def test_check_rejects_an_empty_corpus(capsys, option, value):
    # each used to check 0 words and report ok: a vacuous pass
    code, out, err = run(capsys, "check", option, value)
    assert code == 2
    assert out == ""
    assert option in err


def test_check_accepts_max_len_zero(capsys):
    # the empty word alone is a corpus of one word, not a vacuous pass
    code, payload = run_json(capsys, "check", "--max-len", "0")
    assert code == 0
    assert payload["words_checked"] == 1
    assert payload["ok"] is True


@pytest.mark.parametrize("argv", [
    ("--samples", "2", "--max-len", "0", "--json"),
    ("--samples", "1", "--max-len", "1", "--cap", "1"),
])
def test_check_samples_need_max_len_two(capsys, argv):
    # a sampled word has at least one cancelling pair; these used to
    # check two-letter words, or to blame one against --cap 1
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert out == ""
    assert "--max-len" in err


def test_check_rejects_empty_alphabet(capsys):
    code, _, err = run(capsys, "check", "--alphabet", ",")
    assert code == 2


def test_check_rejects_a_repeated_alphabet_name(capsys):
    # used to count the 7 distinct words over a as 21 and exit 0
    code, out, err = run(capsys, "check", "--alphabet", "a,a", "--max-len", "2")
    assert code == 2
    assert out == ""
    assert err == "error: alphabet names must be distinct: 'a'\n"


@pytest.mark.parametrize("command,first_line", [
    ("sequences", "1199,1198,"),
    ("graph", "nodes 1 edges 0 connected yes"),
])
def test_deep_word_enumerates_without_recursion(capsys, command, first_line):
    # one stack frame per cancelled pair used to end in a RecursionError
    word = " ".join(["a"] * 1200 + ["a'"] * 1200)
    code, out, err = run(capsys, command, word, "--cap", "3000")
    assert code == 0
    assert err == ""
    assert out.startswith(first_line)


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "freeword", "nf", "a a'"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "nil\n"


def test_reader_closing_stdout_early_exits_2_without_a_traceback():
    import subprocess
    import sys

    # 10,395 lines, more than the pipe holds, so printing hits the closed end
    word = " ".join(["a a'"] * 6)
    child = subprocess.Popen(
        [sys.executable, "-m", "freeword", "sequences", word],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"0,0,0,0,0,0\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 2
    assert err == b""


# Byte-for-byte pin of the whole CLI surface: every subcommand in text
# and --json, the error exits, and check exhaustive and sampled.  Each
# row is (argv, exit code, sha256 of stdout + NUL + stderr, first 16 hex
# digits).  The digests were recorded from the CLI as it stood before its
# commands shared one output path in main; a refactor must keep them all.

def _pin(code, out, err):
    return code, hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()[:16]


PINNED_ARGV = [
    ("nf", "a b b' c"),
    ("nf", "a a'"),
    ("nf", "a''"),
    ("mul", "a b", "b' a"),
    ("mul", "a", "a'"),
    ("inv", "a b'"),
    ("inv", ""),
    ("eq", "a b b'", "a"),
    ("eq", "a", "b"),
    ("abel", "a b a b' a'"),
    ("abel", ""),
    ("reduce", "a a' b c c' b'", "--steps", "3,0,0", "--trace"),
    ("reduce", "a a' b c c' b'", "--steps", "3,0,0"),
    ("reduce", "a b b' c"),
    ("reduce", "a b b' c", "--trace"),
    ("reduce", ""),
    ("reduce", "", "--trace"),
    ("reduce", "a a' b c c' b'", "--steps", "0,0,0"),
    ("reduce", "a a' b b'", "--steps", "0"),
    ("reduce", "a a'", "--steps", "\u00b2"),
    ("sequences", "a a' a a'"),
    ("sequences", ""),
    ("sequences", "a b"),
    ("sequences", " ".join(["a"] * 13)),
    ("sequences", " ".join(["a"] * 13), "--cap", "13"),
    ("connect", "a a' a a'", "0,0", "2,0"),
    ("connect", "a a' a a' a a'", "0,0,0", "4,2,0"),
    ("connect", "", "", ""),
    ("connect", "a a' b b'", "1,0", "2,0"),
    ("graph", "a a' a a'"),
    ("graph", "a a' a a'", "--dot"),
    ("graph", "a a' b c c' b'", "--dot"),
    ("graph", "a b"),
    ("graph", "a b", "--dot"),
    ("graph", ""),
    ("graph", "", "--cap", "-1"),
    ("check", "--alphabet", "a,b", "--max-len", "4"),
    ("check", "--alphabet", "a,b,c", "--max-len", "8", "--samples", "5", "--seed", "3"),
    ("check", "--max-len", "0"),
    ("check", "--max-len", "13"),
    ("check", "--samples", "0"),
    ("check", "--max-len", "-2"),
    ("check", "--alphabet", ","),
    ("check", "--alphabet", "a,b''"),
]

PINNED = {
    ('nf', "a b b' c"): (0, '3e3d633736148ca8'),
    ('nf', "a b b' c", '--json'): (0, 'b078161fb2719de3'),
    ('nf', "a a'"): (0, 'c4203ed91717907c'),
    ('nf', "a a'", '--json'): (0, '8832b7f963ce43c0'),
    ('nf', "a''"): (2, '14ae22b962246694'),
    ('nf', "a''", '--json'): (2, '14ae22b962246694'),
    ('mul', 'a b', "b' a"): (0, '914cc10754137fd8'),
    ('mul', 'a b', "b' a", '--json'): (0, '9bb8dc36d0eed320'),
    ('mul', 'a', "a'"): (0, 'c4203ed91717907c'),
    ('mul', 'a', "a'", '--json'): (0, 'd5fc0e88c58376da'),
    ('inv', "a b'"): (0, '983778bd83b73b13'),
    ('inv', "a b'", '--json'): (0, '82b661657b50c13e'),
    ('inv', ''): (0, 'c4203ed91717907c'),
    ('inv', '', '--json'): (0, '982316e66e7f2494'),
    ('eq', "a b b'", 'a'): (0, '14c7eb11d048c085'),
    ('eq', "a b b'", 'a', '--json'): (0, '1198243f776ea6e8'),
    ('eq', 'a', 'b'): (1, 'ce22a4bc1f595c19'),
    ('eq', 'a', 'b', '--json'): (1, '1754b8efab68e10c'),
    ('abel', "a b a b' a'"): (0, '4984acbd542be60d'),
    ('abel', "a b a b' a'", '--json'): (0, '4984acbd542be60d'),
    ('abel', ''): (0, '20c3d40e9256a137'),
    ('abel', '', '--json'): (0, '20c3d40e9256a137'),
    ('reduce', "a a' b c c' b'", '--steps', '3,0,0', '--trace'): (0, '838b8bdec4845845'),
    ('reduce', "a a' b c c' b'", '--steps', '3,0,0', '--trace', '--json'): (0, 'e4d6863016b46306'),
    ('reduce', "a a' b c c' b'", '--steps', '3,0,0'): (0, 'c4203ed91717907c'),
    ('reduce', "a a' b c c' b'", '--steps', '3,0,0', '--json'): (0, 'e4d6863016b46306'),
    ('reduce', "a b b' c"): (0, '3e3d633736148ca8'),
    ('reduce', "a b b' c", '--json'): (0, 'f63a6874b8b1140a'),
    ('reduce', "a b b' c", '--trace'): (0, '2acaee2f241da8ca'),
    ('reduce', "a b b' c", '--trace', '--json'): (0, 'f63a6874b8b1140a'),
    ('reduce', ''): (0, 'c4203ed91717907c'),
    ('reduce', '', '--json'): (0, 'a6d229e348d57795'),
    ('reduce', '', '--trace'): (0, 'c4203ed91717907c'),
    ('reduce', '', '--trace', '--json'): (0, 'a6d229e348d57795'),
    ('reduce', "a a' b c c' b'", '--steps', '0,0,0'): (2, '5b5079795fc11004'),
    ('reduce', "a a' b c c' b'", '--steps', '0,0,0', '--json'): (2, '5b5079795fc11004'),
    ('reduce', "a a' b b'", '--steps', '0'): (2, '98ca42b6abf1ea67'),
    ('reduce', "a a' b b'", '--steps', '0', '--json'): (2, '98ca42b6abf1ea67'),
    ('reduce', "a a'", '--steps', '\u00b2'): (2, 'bcaf831b779c0402'),
    ('reduce', "a a'", '--steps', '\u00b2', '--json'): (2, 'bcaf831b779c0402'),
    ('sequences', "a a' a a'"): (0, '848d3d849252bcda'),
    ('sequences', "a a' a a'", '--json'): (0, 'adcc6439cf040926'),
    ('sequences', ''): (0, '102b51b9765a56a3'),
    ('sequences', '', '--json'): (0, 'b73ddd3784f7cd8a'),
    ('sequences', 'a b'): (0, '6e340b9cffb37a98'),
    ('sequences', 'a b', '--json'): (0, '0b484c1ab2009da9'),
    ('sequences', 'a a a a a a a a a a a a a'): (2, '26ecf99b67949374'),
    ('sequences', 'a a a a a a a a a a a a a', '--json'): (2, '26ecf99b67949374'),
    ('sequences', 'a a a a a a a a a a a a a', '--cap', '13'): (0, '6e340b9cffb37a98'),
    ('sequences', 'a a a a a a a a a a a a a', '--cap', '13', '--json'): (0, '7340e7f66fc612d8'),
    ('connect', "a a' a a'", '0,0', '2,0'): (0, '8b02f9272917d5e4'),
    ('connect', "a a' a a'", '0,0', '2,0', '--json'): (0, 'a2446ae51f082249'),
    ('connect', "a a' a a' a a'", '0,0,0', '4,2,0'): (0, '0f235f10dbd66d5f'),
    ('connect', "a a' a a' a a'", '0,0,0', '4,2,0', '--json'): (0, '9e50c540321b4c4c'),
    ('connect', '', '', ''): (0, '102b51b9765a56a3'),
    ('connect', '', '', '', '--json'): (0, 'dafc00b75160df02'),
    ('connect', "a a' b b'", '1,0', '2,0'): (2, '16b7aa2fb1db5dc9'),
    ('connect', "a a' b b'", '1,0', '2,0', '--json'): (2, '16b7aa2fb1db5dc9'),
    ('graph', "a a' a a'"): (0, '8e7a253bc937053e'),
    ('graph', "a a' a a'", '--json'): (0, '7b3c20f8d23ea92b'),
    ('graph', "a a' a a'", '--dot'): (0, '0f58bd1aac031d9e'),
    ('graph', "a a' a a'", '--dot', '--json'): (0, '0f58bd1aac031d9e'),
    ('graph', "a a' b c c' b'", '--dot'): (0, '25b6c0c510ce894d'),
    ('graph', "a a' b c c' b'", '--dot', '--json'): (0, '25b6c0c510ce894d'),
    ('graph', 'a b'): (0, 'fbca61b39934b5a7'),
    ('graph', 'a b', '--json'): (0, '8dbb4d3944504d57'),
    ('graph', 'a b', '--dot'): (0, '79d37f66895432ef'),
    ('graph', 'a b', '--dot', '--json'): (0, '79d37f66895432ef'),
    ('graph', ''): (0, 'a83e20bf4d5089aa'),
    ('graph', '', '--json'): (0, 'c2b30808fd11a29e'),
    ('graph', '', '--cap', '-1'): (2, '10af72ff23626e8c'),
    ('graph', '', '--cap', '-1', '--json'): (2, '10af72ff23626e8c'),
    ('check', '--alphabet', 'a,b', '--max-len', '4'): (0, '8820f04e76e0d6a3'),
    ('check', '--alphabet', 'a,b', '--max-len', '4', '--json'): (0, 'be2c9c944a938f16'),
    ('check', '--alphabet', 'a,b,c', '--max-len', '8', '--samples', '5', '--seed', '3'):
        (0, '41c932977cbebe05'),
    ('check', '--alphabet', 'a,b,c', '--max-len', '8', '--samples', '5', '--seed', '3', '--json'):
        (0, '1ffc39c9f3a736c8'),
    ('check', '--max-len', '0'): (0, '98416cb30d9bde1d'),
    ('check', '--max-len', '0', '--json'): (0, 'a87c31368a55eb27'),
    ('check', '--max-len', '13'): (2, '26ecf99b67949374'),
    ('check', '--max-len', '13', '--json'): (2, '26ecf99b67949374'),
    ('check', '--samples', '0'): (2, '104bfbdb63090ebf'),
    ('check', '--samples', '0', '--json'): (2, '104bfbdb63090ebf'),
    ('check', '--max-len', '-2'): (2, '7fccceed7e31ccc1'),
    ('check', '--max-len', '-2', '--json'): (2, '7fccceed7e31ccc1'),
    ('check', '--alphabet', ','): (2, 'b5b1f4921274e131'),
    ('check', '--alphabet', ',', '--json'): (2, 'b5b1f4921274e131'),
    ('check', '--alphabet', "a,b''"): (2, '8b8d7e6497f4a64f'),
    ('check', '--alphabet', "a,b''", '--json'): (2, '8b8d7e6497f4a64f'),
    ('seeded', 'check', '--alphabet', 'a', '--max-len', '4'): (1, '82e2514e50b663c0'),
    ('seeded', 'check', '--alphabet', 'a', '--max-len', '4', '--json'): (1, '8f69897d4222e9bb'),
}


def _seed_defects(monkeypatch):
    # a truncated chain, a move graph without edges and a wrong normal
    # form: each failure kind of a check report shows up
    monkeypatch.setattr(oracle, "transform_to", lambda r, s: transform_to(r, s)[:-1])
    def edgeless(seqs):
        maps, index = neighbour_maps(seqs)
        return {i: {} for i in maps}, index

    monkeypatch.setattr(oracle, "neighbour_maps", edgeless)
    monkeypatch.setattr(oracle, "normal_form", lambda w: ())


SEEDED_ARGV = ("check", "--alphabet", "a", "--max-len", "4")


def test_cli_outputs_are_pinned(capsys, monkeypatch):
    table = [argv + flag for argv in PINNED_ARGV for flag in ((), ("--json",))]
    got = {argv: _pin(*run(capsys, *argv)) for argv in table}
    _seed_defects(monkeypatch)
    for flag in ((), ("--json",)):
        argv = ("seeded",) + SEEDED_ARGV + flag
        got[argv] = _pin(*run(capsys, *argv[1:]))
    assert got == PINNED


def test_check_reports_a_transform_to_that_raises(capsys, monkeypatch):
    # a FreewordError used to exit 2, the code for bad input, on a defect
    # of the program, and any other error to end in a traceback; neither
    # ends the sweep, and only the second is named by its type
    cases = [
        (NotIndependent(0, 1, 0), "steps 0 and 1 are nested"),
        (IndexError("tuple index out of range"), "IndexError: tuple index out of range"),
    ]
    for error, reason in cases:
        def raising(r, s):
            if s.steps == (2, 0):
                raise error
            return transform_to(r, s)

        monkeypatch.setattr(oracle, "transform_to", raising)
        code, out, err = run(capsys, *SEEDED_ARGV)
        assert code == 1
        assert err == ""
        assert f"transform failure: a a' a a' 0,0 -> 2,0: {reason}" in out


def test_check_reports_a_replayed_move_that_raises(capsys, monkeypatch):
    # an error of any type from apply_move during the replay is that
    # pair's failure, named as a transform_to error is, and the sweep
    # goes on
    def raising(r, move):
        if r.steps == (2, 0):
            raise IndexError("tuple index out of range")
        return apply_move(r, move)

    monkeypatch.setattr(oracle, "apply_move", raising)
    code, out, err = run(capsys, *SEEDED_ARGV)
    assert code == 1
    assert err == ""
    assert "Traceback" not in out
    assert "transform failure: a a' a a' 2,0 -> 0,0: IndexError: tuple index out of range" in out


# Exit-code contract: whatever the argv, main ends in 0, 1 or 2 (argparse
# usage errors count as 2) and never in an exception.  Words stay at most
# eight items and check at most --max-len 4 and --samples 3, so every
# example runs in milliseconds.  No subcommand reads move text; step
# arguments get move-like characters instead.

WORD_TEXT = st.one_of(
    st.lists(st.sampled_from(["a", "a'", "b", "b'"]), max_size=8).map(" ".join),
    st.text(st.sampled_from(list("ab' _,1\u00b2")), max_size=16),
)
STEP_TEXT = st.one_of(
    st.lists(st.integers(0, 6), max_size=4).map(lambda steps: ",".join(map(str, steps))),
    st.text(st.sampled_from(list("0123 ,-x@\u00b2")), max_size=8),
)


def number_text(low, high):
    return st.one_of(st.integers(low, high).map(str), st.sampled_from(["", "x", "\u00b2", "1.5"]))


ALPHABET_TEXT = st.one_of(
    st.sampled_from(["a", "a,b"]), st.text(st.sampled_from(list("ab,'")), max_size=4)
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["nf", "inv", "abel", "sequences", "mul", "eq", "reduce", "connect", "graph", "check"]
    ))
    if command in ("mul", "eq"):
        argv = [command, draw(WORD_TEXT), draw(WORD_TEXT)]
    elif command == "connect":
        argv = [command, draw(WORD_TEXT), draw(STEP_TEXT), draw(STEP_TEXT)]
    elif command == "reduce":
        argv = [command, draw(WORD_TEXT)]
        argv += draw(st.sampled_from([[], ["--steps", draw(STEP_TEXT)]]))
        argv += draw(st.sampled_from([[], ["--trace"]]))
    elif command == "graph":
        argv = [command, draw(WORD_TEXT)] + draw(st.sampled_from([[], ["--dot"]]))
    elif command == "check":
        argv = [command, "--alphabet", draw(ALPHABET_TEXT), "--max-len", draw(number_text(-2, 4)),
                "--seed", str(draw(st.integers(0, 99)))]
        samples = ["--samples", draw(number_text(-1, 3))]
        argv += draw(st.sampled_from([[], ["--exhaustive"], samples]))
    else:
        argv = [command, draw(WORD_TEXT)]
    return argv + draw(st.sampled_from([[], ["--json"]]))


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_every_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    assert code in (0, 1, 2)
    if code != 2 and "--json" in argv and "--dot" not in argv:
        assert json.loads(out.getvalue())["schema"] == "1"
