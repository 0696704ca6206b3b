import random
import sys

import pytest

from vccts import graphs, syntax
from vccts.netstate import (
    GuardError, SymbolFreshener, as_part, barb_signature, barbs_of_component, cs_head, flatten,
    has_barb, join, normalize_component, satisfiable_barbs, state_to_json_str,
)
from vccts.syntax import (
    Cond, Const, DefEnv, IDLE, Input, NIL, Output, PSym, Restrict, Sum,
    SyntaxError_, compose, graph_term, oplus, par,
)
from vccts.values import Bin, Lit, Var

from gen import base_env, random_process_term


@pytest.fixture
def env():
    return DefEnv({"f": 2, "g": 2, "h": 1})


def ex1_state(env):
    # two binary outputs side by side, fully connected
    return flatten(par(Output("f", Lit(3), (IDLE, IDLE)),
                       Output("g", Lit(4), (IDLE, IDLE))), env)


def test_flatten_parallel(env):
    s = ex1_state(env)
    assert len(s.graph.vertices) == 2
    assert len(s.graph.edges) == 1
    assert s.restricted == frozenset()


def test_flatten_renames_clashing_restrictions(env):
    p = Restrict(graph_term((("v", Input("h", "x", (IDLE,))),)), frozenset({"h"}))
    q = Restrict(graph_term((("v", Output("h", Lit(1), (IDLE,))),)), frozenset({"h"}))
    s = flatten(oplus(p, q), env)
    assert s.restricted == {"h", "h'"}
    comps = sorted(str(t) for t in s.comp.values())
    assert any("h'" in c for c in comps)
    assert len(s.graph.edges) == 0


def test_join_rejects_bad_pairs(env):
    # the assembler checks every link it wires, as `make_graph` does
    s = ex1_state(env)
    a, b = s.locations()
    part, locs = as_part(s)
    freshener = SymbolFreshener(lambda: set())
    comp, edges, _restricted, _residual, _spawned = join(
        {None: [part]}, [(b, a)], env, freshener, mint=iter(locs))
    assert set(edges) == {(a, b)} and set(comp) == {a, b}
    with pytest.raises(graphs.GraphError, match="self-loop"):
        join({None: [part]}, [(a, a)], env, freshener, mint=iter(locs))
    with pytest.raises(graphs.GraphError, match="outside the vertex set"):
        join({None: [part]}, [(a, b + 1)], env, freshener, mint=iter(locs))
    with pytest.raises(graphs.GraphError, match="outside the vertex set"):
        join({}, [(a, b)], env, freshener, kept={a: s.comp[a]})


def test_flatten_renames_against_free_occurrence(env):
    p = Restrict(graph_term((("v", Input("h", "x", (IDLE,))),)), frozenset({"h"}))
    q = Output("h", Lit(1), (IDLE,))
    s = flatten(par(p, q), env)
    # the free h stays; the bound one moves out of the way
    assert s.restricted == {"h'"}


def test_flatten_example_local_connections():
    env = DefEnv({"f": 1}, defs={
        "A1": ((), Output("f", Lit(5), (Const("A1", ()),))),
        "A2": ((), Input("f", "x", (Const("A2", ()),))),
        "A3": ((), Input("f", "x", (Const("A3", ()),))),
    })
    s = flatten(oplus(par(Const("A1", ()), Const("A2", ())), Const("A3", ())), env)
    assert len(s.graph.vertices) == 3
    assert len(s.graph.edges) == 1


def test_flatten_requires_closed(env):
    with pytest.raises(SyntaxError_):
        flatten(Output("h", Var("x"), (IDLE,)), env)


def test_flatten_idempotent_keys(env):
    rng = random.Random(23)
    env2 = base_env()
    for _ in range(25):
        t = random_process_term(rng)
        assert flatten(t, env2).key() == flatten(t, env2).key()


def test_cs_head_examples():
    env = DefEnv({"f": 1}, defs={"A": (("x",), Output("f", Bin("add", Var("x"), Lit(1)),
                                                      (IDLE,)))})
    s = Cond(Lit(True), Sum(Input("f", "x", (NIL,)), IDLE), NIL)
    assert cs_head(s, env) == (Input("f", "x", (NIL,)), IDLE)
    # an unfolded payload is evaluated to a literal, as in a stored component
    heads = cs_head(Const("A", (Lit(5),)), env)
    assert heads == (Output("f", Lit(6), (IDLE,)),)
    assert cs_head(NIL, env) == (NIL,)
    # a constant inside a sum, whose body is itself a sum, unfolds in place
    env = DefEnv({"f": 1, "g": 1}, defs={
        "B": ((), Sum(Output("g", Lit(2), (IDLE,)), Sum(NIL, Input("g", "y", (IDLE,)))))})
    s = Sum(Input("f", "x", (NIL,)), Sum(Const("B", ()), IDLE))
    assert cs_head(s, env) == (Input("f", "x", (NIL,)), Output("g", Lit(2), (IDLE,)),
                               NIL, Input("g", "y", (IDLE,)), IDLE)


def test_a_long_sum_is_hashed_and_resolved_without_recursion():
    # 2,000 summands built in Python: interning, hashing and head
    # resolution walk no nesting level, under the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    env = DefEnv({"u": 1})
    first = chain = Input("u", "x", (NIL,))
    for i in range(1, 2000):
        chain = Sum(chain, Output("u", Lit(i), (NIL,)))
    assert {chain: 1}[chain] == 1 and hash(chain) == hash(Sum(*chain.summands))
    assert len(chain.summands) == 2000 and chain is Sum(first, Sum(*chain.summands[1:]))
    heads = cs_head(chain, env)
    assert len(heads) == 2000 and heads[0] is first
    assert heads[-1] is chain.summands[-1] and heads[-1].expr is Lit(1999)


def test_cs_head_guard_fuel(monkeypatch):
    # an unguarded constant must fail loudly, never loop
    env = DefEnv({"f": 1}, defs={"B": ((), Const("B", ()))})
    with pytest.raises(GuardError):
        cs_head(Const("B", ()), env)
    # the fuel counts constant unfoldings, not summands
    monkeypatch.setattr("vccts.netstate.CS_FUEL", 3)
    long_sum = IDLE
    for _ in range(10):
        long_sum = Sum(long_sum, Input("f", "x", (NIL,)))
    assert len(cs_head(long_sum, env)) == 11
    with pytest.raises(GuardError):
        cs_head(Const("B", ()), env)


def test_normalize_component():
    env = DefEnv({"f": 1}, defs={"A": (("x",), Output("f", Var("x"), (IDLE,)))})
    out = Output("f", Bin("add", Lit(1), Lit(2)), (IDLE,))
    # conditionals decided, payloads evaluated
    assert normalize_component(Cond(Bin("eq", Lit(1), Lit(2)), NIL, out), env) == \
        Output("f", Lit(3), (IDLE,))
    # nested sums make one sum, in source order
    inp = Input("f", "x", (NIL,))
    assert normalize_component(Sum(inp, Cond(Lit(True), Sum(NIL, IDLE), NIL), inp), env) \
        .summands == (inp, NIL, IDLE, inp)
    # constant arguments evaluated, the constant itself not unfolded
    assert normalize_component(Sum(Const("A", (Bin("add", Lit(2), Lit(2)),)), NIL), env) == \
        Sum(Const("A", (Lit(4),)), NIL)
    with pytest.raises(SyntaxError_):
        normalize_component(par(NIL, NIL), env)


def test_component_barbs():
    env = DefEnv({"f": 2, "g": 1})
    assert barbs_of_component(Output("f", Lit(3), (IDLE, IDLE)), env) == {PSym("f", True)}
    assert barbs_of_component(NIL, env) == frozenset()
    both = Sum(Input("f", "x", (IDLE, IDLE)), Output("g", Lit(1), (IDLE,)))
    assert barbs_of_component(both, env) == {PSym("f"), PSym("g", True)}


def test_has_barb_example(env):
    s = ex1_state(env)
    fbar, gbar = PSym("f", True), PSym("g", True)
    assert has_barb(s, set(), env)
    assert has_barb(s, {fbar}, env)
    assert has_barb(s, {gbar}, env)
    assert has_barb(s, {fbar, gbar}, env)
    assert not has_barb(s, {PSym("f")}, env)


def test_has_barb_respects_restriction(env):
    t = Restrict(par(Output("f", Lit(3), (IDLE, IDLE)),
                     Output("g", Lit(4), (IDLE, IDLE))), frozenset({"f"}))
    s = flatten(t, env)
    assert not has_barb(s, {PSym("f", True)}, env)
    assert has_barb(s, {PSym("g", True)}, env)


def test_barb_needs_distinct_locations(env):
    one = flatten(graph_term((("v", Sum(Input("f", "x", (IDLE, IDLE)),
                                        Output("g", Lit(1), (IDLE, IDLE)))),)), env)
    assert has_barb(one, {PSym("f")}, env)
    assert has_barb(one, {PSym("g", True)}, env)
    assert not has_barb(one, {PSym("f"), PSym("g", True)}, env)


def test_barb_signature_example(env):
    s = ex1_state(env)
    fam = barb_signature(s, env)
    assert sorted(map(sorted, (map(repr, f) for f in fam))) == [["~f"], ["~g"]]
    idle = flatten(par(IDLE, IDLE), env)
    assert barb_signature(idle, env) == [frozenset(), frozenset()]


def test_has_barb_monotone(env):
    rng = random.Random(9)
    env2 = base_env()
    for _ in range(30):
        s = flatten(random_process_term(rng), env2)
        sats = satisfiable_barbs(s, env2)
        for b in sats:
            for smaller in (frozenset(list(b)[:-1]),):
                assert smaller in sats
        assert frozenset() in sats


def test_json_dump_roundtrip(env):
    from vccts.parser import parse_term_src
    import json
    s = ex1_state(env)
    payload = json.loads(state_to_json_str(s))
    places = [("v%s" % p, parse_term_src(src, env))
              for p, src in payload["components"].items()]
    links = [("v%s" % a, "v%s" % b) for a, b in payload["edges"]]
    rebuilt = graph_term(places, links)
    t = Restrict(rebuilt, frozenset(payload["restricted"])) if payload["restricted"] \
        else rebuilt
    assert flatten(t, env).key() == s.key()


def _count_calls(monkeypatch, module, *names):
    """Count calls of the named functions of module made through any
    vccts module, recursive and nested calls included."""
    calls = []
    for name in names:
        real = getattr(module, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(None)
            return _real(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("vccts") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return calls


def test_flatten_checks_canonicity_once(monkeypatch):
    n = 200
    env = DefEnv({"f": 1})
    term = compose([Output("f", Lit(i), (IDLE,)) for i in range(n)], ["|"] * (n - 1))
    calls = _count_calls(monkeypatch, syntax, "check_canonical")
    s = flatten(term, env)
    assert len(s.graph.vertices) == n
    assert len(calls) <= 5 * n


def test_non_canonical_errors_unchanged(env):
    unguarded = Sum(Input("h", "x", (IDLE,)), par(IDLE, IDLE))
    nested = par(IDLE, Output("h", Lit(1), (unguarded,)))
    for term, path in ((unguarded, ".+1"), (nested, ".r.h[0].+1")):
        with pytest.raises(SyntaxError_) as info:
            flatten(term, env)
        assert str(info.value) == "not canonical at %s: unguarded graph in sum" % path


def test_state_searches_once(monkeypatch, env):
    s = ex1_state(env)
    # every canonical entry point of graphs: one call is one search
    entries = [name for name in vars(graphs) if name.startswith("canonical")]
    calls = _count_calls(monkeypatch, graphs, *entries)
    assert s.key() == s.key()
    assert len(calls) == 1
