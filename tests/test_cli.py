import json

import pytest

from freeword.cli import main


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
])
def test_non_ascii_step_digits_are_a_parse_error(capsys, argv):
    # used to pass str.isdigit and crash in int() with a traceback, exit 1
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad step position")


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


def test_check_rejects_empty_alphabet(capsys):
    code, _, err = run(capsys, "check", "--alphabet", ",")
    assert code == 2


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "freeword", "nf", "a a'"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "nil\n"
