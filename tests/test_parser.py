import random
import sys

import pytest

from gen import base_env, random_process_term
from vccts.cli import main
from vccts.parser import (
    MAX_PARSE_DEPTH, ParseError, canonicality_report, parse_source, parse_term_src,
)
from vccts.syntax import (
    Canon, Cond, DefEnv, GraphTerm, IDLE, Input, NIL, NotCanonical, Output,
    Restrict, Sum, SyntaxError_, children, graph_term, map_children, oplus, par,
    term_str, validate_term,
)
from vccts.values import Atom, Bin, Lit, ListE, PairE, Un, Var


def test_basic_definitions():
    env = parse_source("""
        # a tiny system
        symbol f/2;
        symbol g/1;
        def A(x, y) = f(z).(A(x, y), 0) + if x = y then * else ~g(x + 1).(0);
        process Main = graph { v1: A(1, 2); v2: ~g(0).(*); edges { v1 -- v2 } };
    """)
    assert env.sig["f"] == 2 and env.sig["g"] == 1
    params, body = env.defs["A"]
    assert params == ("x", "y")
    assert isinstance(body, Sum) and len(body.summands) == 2
    assert isinstance(body.summands[0], Input) and body.summands[0].sym == "f"
    assert isinstance(body.summands[1], Cond)
    main = env.processes["Main"]
    assert isinstance(main, GraphTerm)
    assert ("v1", "v2") in main.links


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_source("symbol f/2;\ndef A = f(x.(0);\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_source("process P = @;")
    assert "unexpected character" in str(err.value)


def test_arity_and_resolution_errors():
    with pytest.raises(Exception):
        parse_source("symbol f/2; process P = f(x).(0);")   # wrong child count
    with pytest.raises(Exception):
        parse_source("process P = Undefined(1);")
    with pytest.raises(Exception):
        parse_source("symbol f/1; def B = B; process P = B;")   # unguarded


def test_restrict_and_compose_sugar():
    env = parse_source("""
        symbol f/1;
        process P = (f(x).(0) | ~f(1).(0)) restrict {f};
        process Q = f(x).(0) (+) ~f(1).(0);
    """)
    assert isinstance(env.processes["P"], Restrict)
    q = env.processes["Q"]
    assert isinstance(q, GraphTerm) and not q.links


def test_expressions():
    env = parse_source("symbol f/1;"
                       "process P = ~f(append([1, 2], fst((Ack, !0)))).(0);")
    out = env.processes["P"]
    assert isinstance(out, Output)
    e = out.expr
    assert isinstance(e, Bin) and e.op == "append"
    assert e.left == ListE((Lit(1), Lit(2)))


def test_atoms_vs_variables():
    env = parse_source("symbol f/1; def C(x) = ~f((End, x)).(0);")
    _params, body = env.defs["C"]
    pair = body.expr
    assert pair == PairE(Lit(Atom("End")), Var("x"))


def test_term_parsing_against_env():
    env = parse_source("symbol f/1; def A = f(x).(A);")
    t = parse_term_src("A | f(y).(*)", env)
    assert isinstance(t, GraphTerm)
    with pytest.raises(ParseError):
        parse_term_src("A | ", env)


def test_greedy_else_and_parens():
    env = parse_source("""
        symbol f/1;
        process P = f(x).(0) + if x = 0 then 0 else f(y).(0) + *;
        process Q = f(x).(0) + (if x = 0 then 0 else f(y).(0)) + *;
    """)
    p = env.processes["P"]
    # greedy else: the trailing * belongs to the conditional's else branch
    assert isinstance(p, Sum) and isinstance(p.summands[-1], Cond)
    q = env.processes["Q"]
    assert isinstance(q, Sum) and q.summands[-1] == IDLE


def test_primed_identifiers():
    env = parse_source("symbol f'/1; process P = f'(x).(0);")
    assert "f'" in env.sig


def test_canonicality_report_rows():
    env = parse_source("""
        symbol f/1;
        def A = f(x).(A);
        def Bad = A + f(x).(0);
        process Main = graph { v: A };
    """)
    rows = {name: cls for _kind, name, cls in canonicality_report(env)}
    assert rows["A"] is Canon.CGS
    assert isinstance(rows["Bad"], NotCanonical)
    assert rows["Main"] is Canon.CP


def test_comments_and_empty():
    env = parse_source("# nothing here\n")
    assert not env.defs and not env.processes


# -- error messages and positions ---------------------------------------------

# Recorded with the recursive-descent parser that preceded the one-scan
# parser: (source, line, column, message).
PARSE_ERRORS = {
    "unexpected character": ("process P = @;", 1, 13, "unexpected character '@'"),
    "missing )": ("symbol f/2;\ndef A = f(x.(0);\n", 2, 12, "expected ')' (got '.')"),
    "missing ) in expr": ("symbol f/1;\nprocess P = ~f((1 + 2).(0);\n", 2, 23,
                          "expected ')' (got '.')"),
    "end of input": ("process P = (0", 1, 15, "expected ')' (got 'end of input')"),
    "end of input after name(": ("process P = A(", 1, 15,
                                "expected an expression (got 'end of input')"),
    "end of input after name(x": ("symbol f/1;\nprocess P = f(x", 2, 16,
                                  "expected ')' (got 'end of input')"),
    "end of input after name(x)": ("symbol f/1;\nprocess P = f(x)", 2, 17,
                                   "expected ';' (got 'end of input')"),
    "end of input after newline":("symbol f/1;\nprocess P = f(x).(0\n\n", 4, 1,
                                   "expected ')' (got 'end of input')"),
    "keyword as process name": ("process if = 0;", 1, 9, "expected process name (got 'if')"),
    "keyword as constant name": ("def graph = 0;", 1, 5,
                                 "expected constant name (got 'graph')"),
    "keyword as parameter": ("def A(x, then) = 0;", 1, 10, "expected parameter (got 'then')"),
    "arity zero": ("symbol f/0;", 1, 10, "declared symbols need arity >= 1"),
    "arity missing": ("symbol f/;", 1, 10, "expected an arity (got ';')"),
    "duplicate symbol": ("symbol f/1;\nsymbol f/2;", 2, 10, "symbol f declared twice"),
    "duplicate constant": ("def A = 0;\ndef A = *;", 2, 5, "constant A defined twice"),
    "duplicate process": ("process P = 0;\n  process P = *;", 2, 11,
                          "process P defined twice"),
    "tabs": ("\tprocess P =\t\t@;", 1, 15, "unexpected character '@'"),
    "tab before end": ("process\tP\t=\t(0\t", 1, 16, "expected ')' (got 'end of input')"),
    "crlf": ("symbol f/1;\r\nprocess P = f(x).(0;\r\n", 2, 20, "expected ')' (got ';')"),
    "crlf at end": ("symbol f/1;\r\nprocess P = (0\r\n", 3, 1,
                    "expected ')' (got 'end of input')"),
    "comment at eof": ("process P = (0 # open", 1, 16, "expected ')' (got 'end of input')"),
    "comment at eof after tokens": ("symbol f/1;\n  process P = f(x).(0)   # trailing", 2, 26,
                                    "expected ';' (got 'end of input')"),
    "comment then newline": ("process P = (0 # open\n", 2, 1,
                             "expected ')' (got 'end of input')"),
    "oplus token": ("process P = 0 (+) *;\nprocess Q = 0 ( + ) *;", 2, 15,
                    "expected ';' (got '(')"),
    "oplus alone": ("process P = (+);", 1, 13, "expected a process term (got '(+)')"),
    "double dash edge": ("process P = graph { a: 0; b: 0; edges { a - - b } };", 1, 43,
                         "expected '--' (got '-')"),
    "double dash in expr": ("symbol f/1;\nprocess P = ~f(1--1).(0);", 2, 17,
                            "expected ')' (got '--')"),
    "bare integer": ("process P = 1;", 1, 13,
                     "only 0 is a process; other integers are expressions (got '1')"),
    "eq chain": ("symbol f/1;\nprocess P = ~f(1 = 2 = 3).(0);", 2, 22, "expected ')' (got '=')"),
    "not after eq": ("symbol f/1;\nprocess P = ~f(1 = not 2).(0);", 2, 20,
                     "expected an expression (got 'not')"),
    "bitneg not": ("symbol f/1;\nprocess P = ~f(!not 1).(0);", 2, 17,
                   "expected an expression (got 'not')"),
    "not chain eq": ("symbol f/1;\nprocess P = ~f(not 1 = 2 = 3).(0);", 2, 26,
                     "expected ')' (got '=')"),
    "missing then": ("symbol f/1;\nprocess P = if true 0 else 0;", 2, 21,
                     "expected 'then' (got '0')"),
    "graph duplicate vertex": ("process P = graph { a: 0; a: * };", 1, 33,
                               "duplicate vertex name in graph literal (got ';')"),
    "graph unknown edge": ("process P = graph { a: 0; edges { a -- b } };", 1, 45,
                           "edge a -- b mentions unknown vertex (got ';')"),
    "graph missing brace": ("process P = graph { a: 0 b: * };", 1, 26, "expected '}' (got 'b')"),
    "trailing after term": ("process P = 0 0;", 1, 15, "expected ';' (got '0')"),
    "expected top level": ("symbol f/1; 0", 1, 13,
                           "expected 'symbol', 'def' or 'process' (got '0')"),
    "restrict unclosed": ("symbol f/1;\nprocess P = 0 restrict {f,", 2, 27,
                          "expected symbol (got 'end of input')"),
    "vertical tab": ("process P = 0;\x0b", 1, 15, "unexpected character '\\x0b'"),
    "no-break space": ("process P =\xa00;", 1, 12, "unexpected character '\\xa0'"),
}


@pytest.mark.parametrize("src, line, col, message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
def test_parse_error_messages_and_positions(src, line, col, message):
    with pytest.raises(ParseError) as err:
        parse_source(src)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value) == "%d:%d: %s" % (line, col, message)


# Recorded with the validation that built every node's path eagerly.
INVALID = {
    "arity": ("symbol f/2;\nprocess P = graph { v: f(x).(0) };",
              "process P.v: f expects 2 children, got 1"),
    "nested": ("symbol f/1;\nsymbol g/2;\nprocess P = (graph { a: f(x).(0); "
               "b: * + (if true then f(y).(g(z).(0)) else 0) }) restrict {f};",
               "process P.body.b.+1.then.f[0]: g expects 2 children, got 1"),
    "constant arguments": ("symbol f/1;\ndef A(x) = f(y).(A(y));\n"
                           "process P = graph { v: f(x).(A(1, 2)) };",
                           "process P.v.f[0]: A takes 1 parameters, got 2"),
    "undeclared restriction": ("process P = 0 restrict {idle};", "undeclared symbol idle"),
    "undeclared symbol": ("process P = g(x).(0);", "undeclared symbol g"),
    "primed symbol": ("symbol f'/1;\nprocess P = f''(x).(0);", "undeclared symbol f''"),
    "unresolved constant": ("process P = B;", "unresolved constant B"),
}


@pytest.mark.parametrize("src, message", INVALID.values(), ids=INVALID)
def test_validation_paths(src, message):
    with pytest.raises(SyntaxError_) as err:
        parse_source(src)
    assert str(err.value) == message


def test_validation_paths_of_built_terms():
    env = DefEnv({"f": 1})
    idle_restricted = Restrict(graph_term((("a", NIL), ("v", Restrict(NIL, frozenset("*"))))),
                               frozenset())
    with pytest.raises(SyntaxError_, match=r"^t\.body\.v: cannot restrict the idle symbol$"):
        validate_term(idle_restricted, env, "t")
    idle_prefix = Input("f", "x", (Sum(IDLE, Cond(Lit(True), NIL, Output("*", Lit(0), ()))),))
    with pytest.raises(SyntaxError_, match=r"^t\.f\[0\]\.\+1\.else: prefix on the idle symbol$"):
        validate_term(idle_prefix, env, "t")


def test_keyword_as_input_variable_is_refused():
    # a keyword can never be used as a variable, so it cannot bind one
    for keyword in ("else", "true", "if"):
        with pytest.raises(ParseError) as err:
            parse_source("symbol f/1;\nprocess P = f(%s).(0);" % keyword)
        assert (err.value.line, err.value.col) == (2, 15)
        assert str(err.value) == "2:15: expected input variable (got %r)" % keyword


def test_unicode_names_and_unreadable_integer_literals():
    env = parse_source("symbol é/1;\nprocess P = é(x½).(0);")
    assert env.processes["P"] == Input("é", "x½", (NIL,))
    for literal in ("9" * 5000, "²", "1²"):
        with pytest.raises(ParseError, match="^2:16: unreadable integer literal") as err:
            parse_source("symbol u/1;\nprocess P = ~u(%s).(0);" % literal)
        assert (err.value.line, err.value.col) == (2, 16)
    with pytest.raises(ParseError, match="^1:10: unreadable integer literal"):
        parse_source("symbol u/²;")
    with pytest.raises(ParseError, match="^1:13: unexpected character '½'"):
        parse_source("process P = ½;")


def test_unreadable_integer_literal_is_a_cli_parse_error(tmp_path, capsys):
    path = tmp_path / "big.vccts"
    path.write_text("symbol u/1;\nprocess P = ~u(%s).(0);\n" % ("9" * 5000))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("%s: 2:16: unreadable integer literal" % path)
    assert "ValueError" not in err and "Traceback" not in err


# -- nesting depth --------------------------------------------------------------

def _exit_code(argv):
    """`main`'s exit code; a file that fails to load exits through SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


NESTED = {
    "prefixes": lambda n: "~u(1).(" * n + "0" + ")" * n,
    "graphs": lambda n: "graph { v: " * n + "0" + " }" * n,
    "parentheses": lambda n: "(" * n + "0" + ")" * n,
    "restrictions": lambda n: "(" * n + "0" + ") restrict {u}" * n,
    "conditionals": lambda n: "if true then " * n + "0" + " else 0" * n,
    "negations": lambda n: "~u(" + "not " * (n - 1) + "true).(0)",
}


@pytest.mark.parametrize("command", ["check", "reduce", "lts"])
@pytest.mark.parametrize("shape", NESTED)
def test_nesting_is_bounded_by_a_named_parse_error(tmp_path, capsys, shape, command):
    path = tmp_path / "deep.vccts"
    path.write_text("symbol u/1;\nprocess P = %s;\n" % NESTED[shape](MAX_PARSE_DEPTH))
    assert _exit_code([command, str(path)]) == 0
    capsys.readouterr()
    path.write_text("symbol u/1;\nprocess P = %s;\n" % NESTED[shape](MAX_PARSE_DEPTH + 1))
    assert _exit_code([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "MAX_PARSE_DEPTH=200" in err and err.count("\n") == 1
    assert "RecursionError" not in err


def test_depth_error_points_at_the_first_token_too_deep():
    src = "process P = " + "(" * (MAX_PARSE_DEPTH + 1) + "0" + ")" * (MAX_PARSE_DEPTH + 1) + ";"
    with pytest.raises(ParseError) as err:
        parse_source(src)
    assert (err.value.line, err.value.col) == (1, 13 + MAX_PARSE_DEPTH + 1)
    lists = "[" * MAX_PARSE_DEPTH + "1" + "]" * MAX_PARSE_DEPTH
    with pytest.raises(ParseError, match="MAX_PARSE_DEPTH=200"):
        parse_source("symbol u/1;\nprocess P = ~u(%s).(0);" % lists)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("shape", NESTED)
def test_a_nesting_level_costs_at_most_four_frames(shape):
    src = "symbol u/1;\nprocess P = %s;\n" % NESTED[shape](MAX_PARSE_DEPTH)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 4 * MAX_PARSE_DEPTH + 30)
    try:
        parse_source(src)
    finally:
        sys.setrecursionlimit(old)


# -- round trip -----------------------------------------------------------------

BINARY = ("add", "sub", "mul", "eq", "and", "or", "append")
UNARY = ("not", "bitneg", "head", "tail", "null", "fst", "snd")
LEAVES = (Var("x"), Var("y'"), Lit(0), Lit(7), Lit(True), Lit(False), Lit(Atom("Ack")))


def random_expr(rng, depth, not_ok=True):
    """An expression `expr_str` prints so that it parses back: `not e`
    never stands as an operand of an infix operator or of `!`."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(LEAVES)
    roll = rng.random()
    if roll < 0.4:
        op = rng.choice(BINARY)
        call = op == "append"           # printed as append(a, b)
        return Bin(op, random_expr(rng, depth - 1, call), random_expr(rng, depth - 1, call))
    if roll < 0.75:
        op = rng.choice(UNARY if not_ok else UNARY[1:])
        return Un(op, random_expr(rng, depth - 1, op != "bitneg"))
    if roll < 0.85:
        return PairE(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return ListE(tuple(random_expr(rng, depth - 1) for _ in range(rng.randint(0, 2))))


def dress(term, rng):
    """`term` with random expressions on its outputs, and each prefix child
    turned with some chance into a conditional, a restriction, a graph, a
    parallel composition or a juxtaposition around it."""
    if isinstance(term, Output):
        term = Output(term.sym, random_expr(rng, 3), term.children)
    term = map_children(term, lambda c: dress(c, rng))
    if not isinstance(term, (Input, Output)):
        return term
    kids = []
    for c in term.children:
        roll = rng.random()
        if roll < 0.2:
            c = Cond(random_expr(rng, 3), c, rng.choice((IDLE, NIL, c)))
        elif roll < 0.35:
            c = Restrict(c, frozenset(s for s in ("k", "u", "w") if rng.random() < 0.5))
        elif roll < 0.45:
            c = graph_term((("a", c), ("b", IDLE)), (("a", "b"),) if rng.random() < 0.5 else ())
        elif roll < 0.55:
            c = rng.choice((par, oplus))(c, NIL)
        kids.append(c)
    if isinstance(term, Input):
        return Input(term.sym, term.var, tuple(kids))
    return Output(term.sym, term.expr, tuple(kids))


def _ops(e):
    """The operators of expression `e`."""
    if isinstance(e, Un):
        return {e.op} | _ops(e.arg)
    if isinstance(e, Bin):
        return {e.op} | _ops(e.left) | _ops(e.right)
    if isinstance(e, PairE):
        return _ops(e.fst) | _ops(e.snd)
    if isinstance(e, ListE):
        return set().union(*map(_ops, e.items))
    return set()


def _nodes(term):
    yield term
    for c in children(term):
        yield from _nodes(c)


@pytest.mark.parametrize("seed", [1, 2])
def test_printed_terms_parse_back(seed):
    rng = random.Random(seed)
    env = base_env()
    shapes, ops = set(), set()
    for _ in range(500):
        term = random_process_term(rng, allow_recursion=rng.random() < 0.3)
        term = GraphTerm(tuple((v, dress(t, rng)) for v, t in term.places), term.links)
        if rng.random() < 0.3:
            term = Restrict(term, frozenset({"u"}))
        assert parse_term_src(term_str(term), env) == term
        for node in _nodes(term):
            shapes.add(type(node).__name__)
            ops |= _ops(getattr(node, "expr", None) or getattr(node, "cond", None))
    assert shapes >= {"GraphTerm", "Restrict", "Cond", "Sum", "Input", "Output", "Const"}
    assert ops == set(BINARY) | set(UNARY)
