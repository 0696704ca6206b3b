import random

import pytest

from vccts.syntax import (
    Canon, Cond, Const, DefEnv, GraphTerm, IDLE, Input, NIL, NotCanonical,
    Output, PSym, Restrict, Sum, SyntaxError_, check_canonical,
    check_guarded, children, free_data_vars, graph_term, oplus, par,
    rename_symbols, sort_of, subst_value, term_str, validate_term,
)
from vccts.parser import parse_source
from vccts.values import Bin, Lit, Var

from gen import base_env, random_guarded_sum


@pytest.fixture
def env():
    return DefEnv({"f": 1, "g": 1, "k": 2})


def test_dual_is_involution():
    for name in ("f", "g", "k"):
        for co in (False, True):
            s = PSym(name, co)
            assert s.dual().dual() == s
            assert s.dual() != s
    idle = PSym("*")
    assert idle.dual() == idle


def test_classification_examples(env):
    s = Sum(Input("f", "x", (NIL,)), Output("g", Lit(1), (IDLE,)))
    assert check_canonical(s, env) is Canon.CGS
    assert check_canonical(IDLE, env) is Canon.CGS
    one_vertex = graph_term((("v", IDLE),))
    assert check_canonical(one_vertex, env) is Canon.CP
    bad = Sum(one_vertex, Input("f", "x", (NIL,)))
    r = check_canonical(bad, env)
    assert isinstance(r, NotCanonical)
    assert "sum" in r.reason


def test_constant_classification():
    env = DefEnv({"f": 1}, defs={
        "A": ((), Input("f", "x", (Const("A", ()),))),
        "G": ((), graph_term((("v", IDLE),))),
    })
    assert check_canonical(Const("A", ()), env) is Canon.RCGS
    assert check_canonical(Const("G", ()), env) is Canon.CP
    # constants are not guarded sums, so they cannot be summands
    r = check_canonical(Sum(Const("A", ()), NIL), env)
    assert isinstance(r, NotCanonical)


def test_conditional_is_guarded_sum(env):
    c = Cond(Lit(True), Input("f", "x", (NIL,)), NIL)
    assert check_canonical(c, env) is Canon.CGS
    assert check_canonical(Sum(c, IDLE), env) is Canon.CGS


def test_arity_validation(env):
    with pytest.raises(SyntaxError_):
        validate_term(Input("k", "x", (NIL,)), env)
    with pytest.raises(SyntaxError_):
        validate_term(Input("undeclared", "x", (NIL,)), env)
    validate_term(Input("k", "x", (NIL, IDLE)), env)


def test_graph_literal_shape():
    with pytest.raises(SyntaxError_):
        graph_term((("v", IDLE),), (("v", "v"),))
    with pytest.raises(SyntaxError_):
        graph_term((("v", IDLE), ("v", NIL)))
    g = graph_term((("a", IDLE), ("b", NIL)), (("b", "a"),))
    assert ("a", "b") in g.links


def test_subst_value_examples(env):
    t = Output("f", Var("x"), (IDLE,))
    assert subst_value(t, "x", 3) == Output("f", Lit(3), (IDLE,))
    # binder shadows
    t2 = Input("f", "x", (Output("g", Var("x"), (IDLE,)),))
    assert subst_value(t2, "x", 1) == t2
    # different binder lets the substitution through
    t3 = Input("f", "y", (Output("g", Var("x"), (IDLE,)),))
    assert subst_value(t3, "x", 1) == Input("f", "y", (Output("g", Lit(1), (IDLE,)),))


def test_parser_constructors_and_substitution_build_one_term():
    env = parse_source("symbol f/1;\nsymbol g/2;\n"
                       "def A(y) = f(x).(~g(y + 1).(0, *)) + (if y = 2 then * else 0);\n"
                       "process P = f(x).(~g(2 + 1).(0, *)) + (if 2 = 2 then * else 0);\n")
    def built(y):
        return Sum(Input("f", "x", (Output("g", Bin("add", y, Lit(1)), (NIL, IDLE)),)),
                   Cond(Bin("eq", y, Lit(2)), IDLE, NIL))
    params, body = env.defs["A"]
    assert body is built(Var("y"))
    assert subst_value(body, "y", 2) is built(Lit(2)) is env.processes["P"]
    # the binder x shadows: substituting for it changes nothing
    assert subst_value(body.summands[0], "x", 5) is body.summands[0]
    assert subst_value(body, "y", True) is not subst_value(body, "y", 1)


def test_extended_compares_constant_bodies():
    env = parse_source("symbol f/1;\ndef A(y) = ~f(y).(A(y + 1));\n")
    same = Output("f", Var("y"), (Const("A", (Bin("add", Var("y"), Lit(1)),)),))
    assert env.extended(defs={"A": (("y",), same)}).defs["A"] == env.defs["A"]
    other = Output("f", Var("y"), (Const("A", (Bin("add", Var("y"), Lit(True)),)),))
    with pytest.raises(SyntaxError_, match="constant A already defined"):
        env.extended(defs={"A": (("y",), other)})


def test_subst_value_idempotent_when_absent(env):
    rng = random.Random(7)
    for _ in range(50):
        t = random_guarded_sum(rng, 2)
        if "zz" not in free_data_vars(t):
            assert subst_value(t, "zz", 9) == t


def test_sort_examples(env):
    assert sort_of(IDLE, env) == frozenset()
    t = Input("f", "x", (Output("g", Lit(1), (IDLE,)),))
    assert sort_of(t, env) == {"f", "g"}
    r = Restrict(graph_term((("v", Input("f", "x", (IDLE,))),)), frozenset({"f"}))
    assert sort_of(r, env) == frozenset()


def test_sort_through_recursive_constants():
    env = DefEnv({"f": 1, "g": 1}, defs={
        "A": ((), Sum(Input("f", "x", (Const("A", ()),)),
                      Output("g", Lit(0), (NIL,)))),
    })
    assert sort_of(Const("A", ()), env) == {"f", "g"}


def test_guardedness():
    bad = DefEnv({"f": 1}, defs={"B": ((), Const("B", ()))})
    with pytest.raises(SyntaxError_):
        check_guarded(bad)
    ok = DefEnv({"f": 1}, defs={"A": ((), Input("f", "x", (Const("A", ()),)))})
    check_guarded(ok)
    mutual = DefEnv({"f": 1}, defs={
        "A": ((), Cond(Lit(True), Const("B", ()), NIL)),
        "B": ((), Const("A", ())),
    })
    with pytest.raises(SyntaxError_):
        check_guarded(mutual)


def test_guardedness_refuses_open_definitions():
    # built in Python, directly or by extension, as the parser would refuse it
    body = Input("k", "y", (Output("w", Var("x"), (NIL,)),))
    closed = DefEnv({"k": 1, "w": 1}, defs={"B": (("x",), body)})
    check_guarded(closed)
    for env in (DefEnv({"k": 1, "w": 1}, defs={"B": ((), body)}),
                closed.extended(defs={"C": (("y",), body)})):
        with pytest.raises(SyntaxError_, match="^definition [BC] has free data variable x$"):
            check_guarded(env)


def test_term_str_parses_back(env):
    rng = random.Random(3)
    from vccts.parser import parse_term_src
    env2 = base_env()
    for _ in range(40):
        t = random_guarded_sum(rng, 2)
        assert parse_term_src(term_str(t), env2) == t


def test_par_and_oplus_wrappers(env):
    p = par(IDLE, NIL)
    assert isinstance(p, GraphTerm) and p.links
    o = oplus(IDLE, NIL)
    assert isinstance(o, GraphTerm) and not o.links


def _all_constructors(x, f="f", g="g", restricted="g"):
    """A term using all nine constructors; `x` fills the data positions
    outside the shadowing input."""
    return graph_term((
        ("a", Input(f, "x", (Output(g, Var("x"), (IDLE,)),))),
        ("b", Sum(Output(f, x, (NIL,)),
                  Cond(Bin("eq", x, Lit(0)), Input("k", "y", (NIL, IDLE)), NIL))),
        ("c", Restrict(graph_term((("v", Output(g, Var("y"), (Const("A", (x,)),))),)),
                       frozenset({restricted}))),
    ), (("a", "b"),))


def test_walks_cover_every_constructor():
    env = DefEnv({"f": 1, "g": 1, "h": 1, "k": 2},
                 defs={"A": (("n",), Input("g", "z", (Const("A", (Var("n"),)),)))})
    term = _all_constructors(Var("x"))
    validate_term(term, env)
    assert free_data_vars(term) == {"x", "y"}
    assert sort_of(term, env) == {"f", "g", "k"}
    # the input binder shadows x in vertex a only
    assert subst_value(term, "x", 5) == _all_constructors(Lit(5))
    assert rename_symbols(term, {"f": "h", "g": "f"}) \
        == _all_constructors(Var("x"), f="h", g="f", restricted="f")
    prefix = term.places[0][1]
    assert children(prefix) is prefix.children
    bad_arity = Output("g", Lit(0), (Input("k", "x", (NIL,)),))
    with pytest.raises(SyntaxError_, match=r"^\.a\.g\[0\]: k expects 2"):
        validate_term(graph_term((("a", bad_arity),)), env)


def test_walks_reject_non_terms():
    env = DefEnv({"f": 1})
    bad = Sum(IDLE, Lit(0))
    for walk in (lambda: subst_value(bad, "x", 1),
                 lambda: rename_symbols(bad, {"f": "g"}),
                 lambda: free_data_vars(bad),
                 lambda: sort_of(bad, env),
                 lambda: validate_term(bad, env),
                 lambda: check_guarded(DefEnv({"f": 1}, defs={"B": ((), bad)}))):
        with pytest.raises(SyntaxError_, match="not a process term"):
            walk()
    r = check_canonical(bad, env)
    assert isinstance(r, NotCanonical) and "not a process term" in r.reason
