import random
import sys

import pytest

from vccts import syntax
from vccts.equivalence import compose_states
from vccts.llts import multi_transitions
from vccts.netstate import (
    barbs_of_component, cs_head, flatten, has_barb, normalize_component,
)
from vccts.parser import parse_source
from vccts.reduction import (
    comm_redexes, fire_comm, fire_prefix, internal_steps, reachable, reduces_to_idle,
    trace_to,
)
from vccts.syntax import (
    Cond, Const, DefEnv, IDLE, Input, NIL, Output, PSym, Restrict, Sum, graph_term,
    compose, oplus, par,
)
from vccts.values import Bin, Lit, Var

from gen import base_env, random_process_term


def test_basic_reaction_clause_b():
    env = DefEnv({"f": 1})
    s = flatten(par(Input("f", "x", (IDLE,)), Output("f", Lit(3), (IDLE,))), env)
    steps = internal_steps(s, env)
    assert len(steps) == 1
    t = steps[0].target
    assert len(t.graph.vertices) == 2
    assert len(t.graph.edges) == 1          # input child joined to output child
    assert t.is_idle(env)
    p, q, sym, v, i, j = steps[0].fired
    assert sym == "f" and v == 3


def test_no_reaction_without_duals():
    env = DefEnv({"f": 1})
    s = flatten(oplus(IDLE, IDLE), env)
    assert internal_steps(s, env) == []


def test_no_reaction_without_edge():
    env = DefEnv({"f": 1})
    s = flatten(oplus(Input("f", "x", (IDLE,)), Output("f", Lit(3), (IDLE,))), env)
    assert internal_steps(s, env) == []


def test_vertex_accounting_and_residual():
    env = DefEnv({"k": 2})
    s = flatten(par(Input("k", "x", (IDLE, NIL)), Output("k", Lit(0), (NIL, IDLE))), env)
    (step,) = internal_steps(s, env)
    # 2 removed, 2+2 single-vertex children spawned
    assert len(step.target.graph.vertices) == len(s.graph.vertices) - 2 + 4
    assert set(step.residual) == set(step.target.graph.vertices)
    assert set(step.residual.values()) <= set(s.graph.vertices)


def test_clause_b_complete_bipartite_and_clause_c():
    env = DefEnv({"k": 2, "f": 1})
    bystander = Input("f", "x", (IDLE,))
    t = par(par(Input("k", "x", (IDLE, NIL)), Output("k", Lit(0), (NIL, IDLE))),
            bystander)
    s = flatten(t, env)
    steps = [st for st in internal_steps(s, env) if st.fired[2] == "k"]
    (step,) = steps
    p, q = step.fired[0], step.fired[1]
    ins = [l for l in step.target.graph.vertices if step.residual[l] == p]
    outs = [l for l in step.target.graph.vertices if step.residual[l] == q]
    olds = [l for l in step.target.graph.vertices if step.residual[l] == l]
    assert len(ins) == 2 and len(outs) == 2 and len(olds) == 1
    for a in ins:
        for b in outs:
            assert step.target.graph.has_edge(a, b)
    # children of one side are not joined to each other
    assert not step.target.graph.has_edge(ins[0], ins[1])
    assert not step.target.graph.has_edge(outs[0], outs[1])
    # clause (c): the bystander was adjacent to both partners
    for a in ins + outs:
        assert step.target.graph.has_edge(olds[0], a)


def test_summand_pairs_give_distinct_steps():
    env = DefEnv({"f": 1})
    both = Sum(Input("f", "x", (IDLE,)), Input("f", "x", (NIL,)))
    s = flatten(par(both, Output("f", Lit(1), (IDLE,))), env)
    steps = internal_steps(s, env)
    assert len(steps) == 2
    keys = {st.target.key() for st in steps}
    assert len(keys) == 2


def test_restriction_never_blocks_internal_reaction():
    env = DefEnv({"f": 1})
    t = Restrict(par(Input("f", "x", (IDLE,)), Output("f", Lit(3), (IDLE,))),
                 frozenset({"f"}))
    s = flatten(t, env)
    assert len(internal_steps(s, env)) == 1


def test_reachable_two_states():
    env = DefEnv({"f": 1})
    s = flatten(par(Input("f", "x", (IDLE,)), Output("f", Lit(3), (IDLE,))), env)
    r = reachable(s, env)
    assert len(r.states) == 2 and r.status == "complete"
    idle_key = [k for k, st in r.states.items() if st.is_idle(env)]
    assert len(idle_key) == 1
    assert len(trace_to(r, idle_key[0])) == 1


def test_reachable_self_loop_quotient():
    env = DefEnv({"f": 1}, defs={
        "A1": ((), Output("f", Lit(5), (Const("A1", ()),))),
        "A2": ((), Input("f", "x", (Const("A2", ()),))),
        "A3": ((), Input("f", "x", (Const("A3", ()),))),
    })
    s = flatten(oplus(par(Const("A1", ()), Const("A2", ())), Const("A3", ())), env)
    r = reachable(s, env)
    assert len(r.states) == 1 and r.status == "complete"


def test_truncation_is_reported():
    env = DefEnv({"f": 1}, defs={
        "Pump": ((), Output("f", Lit(0), (Const("Pump", ()),))),
        "Grow": ((), Input("f", "x", (par(Const("Grow", ()), Const("Grow", ())),))),
    })
    # every round doubles the receivers: genuinely infinite-state
    s = flatten(par(Const("Pump", ()), Const("Grow", ())), env)
    r = reachable(s, env, max_states=5)
    assert r.status == "truncated"


def test_truncated_reachability_lists_only_stored_states():
    # the counter steps C(0) -> C(1) -> ... one reduction at a time
    env = parse_source("""symbol u/1;
symbol w/1;
def C(n) = if n = 6 then ~w(1).(0) else ~u(n).(C(n + 1));
def S = u(x).(S);
process L = C(0) | S;
""")
    r = reachable(flatten(env.processes["L"], env), env, max_states=3)
    assert r.status == "truncated" and len(r.states) == 3
    listed = set().union(*r.successors.values())
    assert listed <= set(r.states)


def test_reduces_to_idle_examples():
    env = DefEnv({"f": 1})
    ok, trace, status = reduces_to_idle(
        flatten(par(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,))), env), env)
    assert ok and status == "complete" and len(trace) == 1

    no, _t, _s = reduces_to_idle(flatten(graph_term((("v", NIL),)), env), env)
    assert not no

    blocked = par(Restrict(graph_term((("v", Input("f", "x", (IDLE,))),)),
                           frozenset({"f"})),
                  Output("f", Lit(1), (IDLE,)))
    no2, _t, _s = reduces_to_idle(flatten(blocked, env), env)
    assert not no2


def test_step_targets_satisfy_state_invariants():
    rng = random.Random(31)
    env = base_env()
    from vccts.syntax import check_canonical, NotCanonical

    def assert_normal(state, env):
        for comp in state.comp.values():
            assert normalize_component(comp, env) == comp

    # right-nested sums, a conditional and computed payloads: only
    # normalization puts these in shape
    unshaped = Sum(Output("u", Bin("add", Lit(1), Lit(1)), (IDLE,)),
                   Sum(Input("u", "x", (Cond(Bin("eq", Var("x"), Lit(0)), NIL, Output(
                       "w", Bin("add", Var("x"), Lit(1)), (IDLE,))),)), NIL))
    inputs = [(random_process_term(rng), env) for _ in range(40)]
    inputs += [(par(unshaped, unshaped), env), (clash_term(), CLASH_ENV),
               (Restrict(clash_term(), frozenset({"g"})), CLASH_ENV)]
    for term, env in inputs:
        s = flatten(term, env)
        assert_normal(s, env)
        assert_normal(compose_states(s, flatten(term, env), "all", env), env)
        for lstep in multi_transitions(s, env, (0, 1)):
            assert_normal(lstep.target, env)
        for step in internal_steps(s, env):
            t = step.target
            assert_normal(t, env)
            for a, b in t.graph.edges:
                assert a != b
                assert a in t.graph.vertices and b in t.graph.vertices
            for comp in t.comp.values():
                assert not isinstance(check_canonical(comp, env), NotCanonical)
            assert set(step.residual) == set(t.graph.vertices)


CLASH_ENV = DefEnv({"f": 1, "g": 1})


def clash_term():
    """Two f receivers, each spawning a child that restricts g, a sender
    of two f outputs, and a bystander offering a free ~g."""
    receiver = Input("f", "x", (Restrict(Input("g", "y", (IDLE,)), frozenset({"g"})),))
    sender = Output("f", Lit(1), (Output("f", Lit(1), (IDLE,)),))
    return compose([receiver, receiver, sender, Output("g", Lit(0), (IDLE,))], ["|"] * 3)


def fire_receiver(state, env, how):
    """Fire one f receiver, by reaction with the sender or on its own."""
    if how == "comm":
        return next(st.target for st in internal_steps(state, env) if st.fired[2] == "f")
    p = next(p for p in state.locations()
             if barbs_of_component(state.comp[p], env) == {PSym("f", False)})
    return fire_prefix(state, p, cs_head(state.comp[p], env)[0], 1, env)[0]


@pytest.mark.parametrize("how", ["comm", "prefix"])
def test_firing_renames_hoisted_restrictions_apart(how):
    # the spawned g must move away from the bystander's free ~g, and the
    # second spawned g away from the first, already hoisted one
    s = flatten(clash_term(), CLASH_ENV)
    restricted = []
    for _ in range(2):
        s = fire_receiver(s, CLASH_ENV, how)
        restricted.append(s.restricted)
        assert has_barb(s, {PSym("g", True)}, CLASH_ENV)
    assert restricted == [{"g'"}, {"g'", "g''"}]


def test_firing_without_restriction_computes_no_sort(monkeypatch):
    # three components and no restriction anywhere: splicing the children
    # in needs no sort, since there is no restricted name to rename apart
    env = DefEnv({"f": 1, "g": 1})
    s = flatten(compose([Input("f", "x", (Output("g", Var("x"), (IDLE,)),)),
                         Output("f", Lit(1), (IDLE,)),
                         Input("g", "y", (IDLE,))], ["|", "|"]), env)
    calls = []
    real = syntax.sort_of

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("vccts") and getattr(module, "sort_of", None) is real:
            monkeypatch.setattr(module, "sort_of", counting)
    (p, q, i, j, _sym, _v), = comm_redexes(s, env)
    fire_comm(s, p, q, i, j, env)
    counts = [len(calls)]
    fire_prefix(s, p, cs_head(s.comp[p], env)[i], 0, env)
    counts.append(len(calls) - counts[0])
    assert counts == [0, 0]
