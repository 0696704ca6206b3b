"""Adversarial inputs through the command line, in process: long chains,
a wide graph literal, and every nesting kind at the depth bound and one
level past it.  Whatever the shape, `check`, `reduce`, `lts` and `bisim`
must exit 0, 1 or 2 with no `RecursionError` and no traceback, and every
exit 2 must name a `MAX_...=` budget or be a `file: line:col:` parse
error."""

import re

import pytest

from vccts.cli import main
from vccts.parser import MAX_PARSE_DEPTH

COMMANDS = ["check", "reduce", "lts", "bisim"]
LONG = 1200


def chain(op, operand, n):
    return (" %s " % op).join([operand] * n)


def run(tmp_path, capsys, command, process):
    """(exit code, stdout, stderr) of `command` on a file holding
    `process P = process`; a file that fails to load exits through
    SystemExit when a command other than check reads it."""
    path = tmp_path / "p.vccts"
    path.write_text("symbol u/1;\nprocess P = %s;\n" % process)
    argv = [command, str(path)] + (["P", "P"] if command == "bisim" else [])
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "RecursionError" not in out + err and "Traceback" not in err
    if code == 2:
        assert re.search(r"MAX_\w+=\d", out + err) \
            or re.match(re.escape(str(path)) + r": \d+:\d+: ", err), (out, err)
    return code, out, err


SHAPES = {
    "sum": chain("+", "~u(0).(0)", LONG),
    "sum-in-a-graph": "graph { v: %s }" % chain("+", "u(x).(0)", LONG),
    "oplus": chain("(+)", "~u(0).(0)", LONG),
    # a | chain has n(n - 1)/2 links, so its operands do nothing
    "par": chain("|", "0", 600),
    "par-and-oplus": " | ".join(chain("(+)", "0", 2) for _ in range(300)),
    "graph-literal": "graph { %s; edges { %s } }" % (
        "; ".join("v%d: 0" % i for i in range(5000)),
        ", ".join("v%d -- v%d" % (i, i + 1) for i in range(4999))),
    "restrict": "~u(0).(0)" + " restrict {u}" * LONG,
    "payload": "~u(%s).(0)" % chain("+", "1", LONG),
    "guard": "if %s then 0 else 0" % chain("and", "true", LONG),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_long_chains_and_wide_graphs(tmp_path, capsys, shape, command):
    code, out, err = run(tmp_path, capsys, command, SHAPES[shape])
    if shape in ("restrict", "payload", "guard"):
        assert code == 2 and "MAX_PARSE_DEPTH=%d" % MAX_PARSE_DEPTH in err
    elif command in ("check", "lts") or shape.startswith("sum"):
        assert code == 0
    else:
        # more locations than an exact canonical form takes
        assert code == 2 and "MAX_CANON_VERTICES=24" in out + err


# Each builds a process of exactly `n` levels as the parser counts them;
# an output's payload opens the first level of its expression.
NESTING = {
    "parentheses": lambda n: "(" * n + "0" + ")" * n,
    "inputs": lambda n: "u(x).(" * n + "0" + ")" * n,
    "outputs": lambda n: "~u(0).(" * n + "0" + ")" * n,
    "graph-places": lambda n: "graph { v: " * n + "0" + " }" * n,
    "conditionals": lambda n: "if true then " * n + "0" + " else 0" * n,
    "restrictions": lambda n: "0" + " restrict {u}" * n,
    "negations": lambda n: "if %strue then 0 else 0" % ("not " * n),
    "guard-chain": lambda n: "if %s then 0 else 0" % chain("or", "false", n + 1),
    "payload-chain": lambda n: "~u(%s).(0)" % chain("*", "1", n),
    "payload-parentheses": lambda n: "~u(%s1%s).(0)" % ("(" * (n - 1), ")" * (n - 1)),
    "lists": lambda n: "~u(%s1%s).(0)" % ("[" * (n - 1), "]" * (n - 1)),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kind", NESTING)
def test_every_nesting_kind_at_the_bound_and_past_it(tmp_path, capsys, kind, command):
    _code, out, err = run(tmp_path, capsys, command, NESTING[kind](MAX_PARSE_DEPTH))
    assert "MAX_PARSE_DEPTH" not in out + err
    code, _out, err = run(tmp_path, capsys, command, NESTING[kind](MAX_PARSE_DEPTH + 1))
    assert code == 2 and "nested deeper than MAX_PARSE_DEPTH=%d" % MAX_PARSE_DEPTH in err
