import itertools
import random
from collections import Counter

import pytest

from vccts import graphs, llts, netstate, reduction, syntax
from vccts.graphs import identity_residual
from vccts.llts import (
    Action, Multiset, TAU, VisLabel, action_key, decompose_check, diamond_check,
    multi_transitions, sequence_firer,
    state_key_with_residual, steps_by_actions, tau_closure, visible_steps,
    weak_transitions,
)
from vccts.netstate import cs_head, flatten
from vccts.parser import ParseError, parse_source
from vccts.reduction import internal_steps, reachable
from vccts.syntax import (
    Const, DefEnv, GraphTerm, IDLE, Input, NIL, Output, Restrict, Sum, graph_term,
    oplus, par,
)
from vccts.values import Lit, Var, value_key

from gen import BASE_SIG, base_env, random_process_term
from reference import cross_edges, punrel, visible
from verdict_dump import CLASH, map_prefix_children


def lbl(loc, sym, co, value, *locsets):
    return VisLabel(loc, Action(sym, co, value), tuple(frozenset(s) for s in locsets))


def test_multiset_algebra():
    pair = Multiset([TAU, TAU])
    assert pair.count(TAU) == 2 and len(pair.elements()) == 2
    assert pair == Multiset([TAU, TAU]) != Multiset([TAU])
    assert hash(pair) == hash(Multiset([TAU, TAU]))


def test_punrel_examples():
    assert punrel(Multiset([TAU, TAU]))
    # dual polarities are distinct symbols of the polarized alphabet
    assert punrel(Multiset([lbl(1, "f", False, 1, {5}), lbl(2, "f", True, 1, {6})]))
    assert punrel(Multiset([lbl(1, "f1", False, 1, {5}),
                            lbl(2, "f2", False, 2, {6}, {7})]))
    assert not punrel(Multiset([lbl(1, "f", False, 1, {5}), lbl(2, "f", False, 2, {6})]))
    # same location pairs are exempt
    assert punrel(Multiset([lbl(1, "f", False, 1, {5}), lbl(1, "f", False, 2, {6})]))


def test_single_transitions_output_and_recursion():
    env = DefEnv({"f": 1}, defs={"A1": ((), Output("f", Lit(5), (Const("A1", ()),)))})
    s = flatten(graph_term((("v", Const("A1", ())),)), env)
    steps = multi_transitions(s, env, (0, 1), max_width=1)
    assert len(steps) == 1
    (step,) = steps
    (label,) = step.labels.elements()
    assert label.action == Action("f", True, 5)
    assert len(label.lvec) == 1 and len(label.lvec[0]) == 1
    assert step.target.key() == s.key()      # fresh copy of the same loop


def test_early_input_branching():
    env = DefEnv({"f": 1})
    s = flatten(graph_term((("v", Input("f", "x", (IDLE,))),)), env)
    for universe in ((0,), (0, 1), (0, 1, 2)):
        steps = multi_transitions(s, env, universe, max_width=1)
        assert len(steps) == len(universe)
        values = {l.action.value for st in steps for l in st.labels.elements()}
        assert values == set(universe)


def test_restriction_blocks_visible_not_tau():
    env = DefEnv({"f": 1})
    t = Restrict(graph_term((("v", Input("f", "x", (IDLE,))),)), frozenset({"f"}))
    s = flatten(t, env)
    assert multi_transitions(s, env, (0, 1), max_width=1) == []
    closed = Restrict(par(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,))),
                      frozenset({"f"}))
    s2 = flatten(closed, env)
    steps = multi_transitions(s2, env, (0, 1), max_width=1)
    assert len(steps) == 1
    assert steps[0].labels == Multiset([TAU])


def test_tau_agrees_with_internal_steps():
    rng = random.Random(17)
    env = base_env()
    for _ in range(30):
        s = flatten(random_process_term(rng), env)
        tau_targets = sorted(st.target.key()
                             for st in multi_transitions(s, env, (0,), max_width=1)
                             if st.labels.count(TAU))
        red_targets = sorted(st.target.key() for st in internal_steps(s, env))
        assert tau_targets == red_targets


def shape(step):
    """Step identity without the allocation-specific child locations."""
    acts = sorted((str(l.loc), repr(l.action)) if isinstance(l, VisLabel) else ("", "tau")
                  for l in step.labels.elements())
    return (tuple(acts), step.target.key())


def test_multi_width_one_equals_singles():
    rng = random.Random(29)
    env = base_env()
    for _ in range(20):
        s = flatten(random_process_term(rng), env)
        singles = sorted(shape(st) for st in multi_transitions(s, env, (0, 1))
                         if len(st.firings) == 1)
        multis = sorted(map(shape, multi_transitions(s, env, (0, 1), 1)))
        assert singles == multis


def test_produced_multisets_are_unrelated_and_tau_counted():
    rng = random.Random(37)
    env = base_env()
    for _ in range(25):
        s = flatten(random_process_term(rng), env)
        for step in multi_transitions(s, env, (0, 1)):
            assert punrel(step.labels)
            n_comm = sum(1 for f in step.firings if not hasattr(f, "action"))
            assert step.labels.count(TAU) == n_comm


def test_no_restricted_symbol_escapes():
    rng = random.Random(41)
    env = base_env()
    for _ in range(25):
        t = Restrict(random_process_term(rng), frozenset({"u"}))
        s = flatten(t, env)
        for step in multi_transitions(s, env, (0, 1)):
            for l in visible(step.labels):
                assert l.action.sym not in s.restricted


def test_dual_same_value_across_edge_must_communicate():
    env = DefEnv({"f": 1})
    s = flatten(par(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,))), env)
    for step in multi_transitions(s, env, (1,), 2):
        vis = visible(step.labels)
        if len(vis) == 2:
            acts = {(l.action.sym, l.action.co, l.action.value) for l in vis}
            assert acts != {("f", False, 1), ("f", True, 1)}
    # without the edge both stay visible
    s2 = flatten(oplus(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,))), env)
    pairs = [step for step in multi_transitions(s2, env, (1,), 2)
             if len(visible(step.labels)) == 2]
    assert pairs


def test_example3_multiset_and_composition():
    env = DefEnv({"f1": 1, "g1": 1, "f2": 2})
    P = oplus(Input("f1", "x", (Output("g1", Var("x"), (IDLE,)),)),
              Input("f2", "y", (IDLE, IDLE)))
    Q = oplus(Output("f1", Lit(1), (IDLE,)), Output("f2", Lit(2), (IDLE, IDLE)))
    sp, sq = flatten(P, env), flatten(Q, env)
    wanted = Counter({Action("f1", False, 1): 1, Action("f2", False, 2): 1})
    hits = [st for st in multi_transitions(sp, env, (1, 2), 2)
            if Counter(l.action for l in visible(st.labels)) == wanted]
    assert hits

    from vccts.equivalence import compose_states
    pl, ql = sp.locations(), sq.locations()
    comp = compose_states(sp, sq, [(pl[0], ql[0]), (pl[1], ql[1])], env)
    tautau = [st for st in multi_transitions(comp, env, (1, 2), 2)
              if st.labels == Multiset([TAU, TAU])]
    assert len(tautau) == 1
    dprime = cross_edges(tautau[0], pl, ql)
    assert len(dprime) == 5
    # one singleton bridge plus a complete 2x2 block
    degree = Counter()
    for a, b in dprime:
        degree[a] += 1
        degree[b] += 1
    assert sorted(degree.values()) == [1, 1, 2, 2, 2, 2]


def lookups(env, universe=(0, 1)):
    """Plain closure and step-index lookups for `weak_transitions`."""
    return (lambda s: tau_closure(s, env),
            lambda s: steps_by_actions(visible_steps(s, env, universe, len(s.graph.vertices))))


def test_visible_steps_are_the_pure_visible_multi_steps():
    rng = random.Random(47)
    env = base_env()
    checked = 0
    for _ in range(20):
        s = flatten(random_process_term(rng), env)
        want = [(sorted(((l.action, l.loc) for l in step.labels.elements()),
                        key=lambda t: (repr(t[0]), str(t[1]))), step.target.key())
                for step in multi_transitions(s, env, (0, 1), 3)
                if TAU not in step.labels.elements()]
        got = [(list(pairs), target.key())
               for pairs, target in visible_steps(s, env, (0, 1), 3)]
        assert got == want
        checked += len(got)
    assert checked > 20


def test_step_index_is_the_action_multiset_filter():
    # the index a weak answer reads holds, per action multiset, the
    # targets of the steps with that multiset, in step order
    f1, g2 = Action("f", True, 1), Action("g", False, 2)
    assert action_key([f1, g2]) == action_key([g2, f1]) != action_key([f1])
    assert action_key([Action("f", False, 1)]) != action_key([Action("f", False, True)])
    rng = random.Random(61)
    env = base_env()
    for _ in range(20):
        s = flatten(random_process_term(rng), env)
        steps = visible_steps(s, env, (0, 1), 3)
        index = steps_by_actions(steps)
        assert sum(map(len, index.values())) == len(steps)
        for pairs, _target in steps:
            wanted = Counter(a for a, _loc in pairs)
            assert index[action_key(wanted.elements())] == [
                t for other, t in steps if Counter(a for a, _loc in other) == wanted]


def test_weak_transitions_empty_multiset_is_tau_closure():
    env = DefEnv({"f": 1})
    s = flatten(par(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,))), env)
    targets, status = weak_transitions(s, (), *lookups(env))
    closure, closure_status = tau_closure(s, env)
    assert status == closure_status == "complete"
    keys = [t.key() for t in targets]
    assert keys == [st.key() for st in closure]
    assert s.key() in keys and len(set(keys)) == 2


def test_weak_transitions_empty_multiset_reuses_the_closure(monkeypatch):
    # six internal steps in a row: the empty multiset must hand back the
    # closure's classes without keying any state again
    env = parse_source("symbol u/1;\nsymbol w/1;\ndef S = u(x).(S);\n"
                       "def C(n) = if n = 5 then ~w(1).(0) else ~u(n).(C(n + 1));\n"
                       "process P = C(0) | S;\n")
    s = flatten(env.processes["P"], env)
    s.key()
    calls = []
    real = netstate.canonical_key
    monkeypatch.setattr(netstate, "canonical_key",
                        lambda *args: calls.append(args) or real(*args))
    closure, status = tau_closure(s, env)
    closure_calls = len(calls)
    targets, weak_status = weak_transitions(s, [], *lookups(env))
    assert len(closure) == 6 and weak_status == status == "complete"
    # each run fires into fresh states, each keyed once
    assert closure_calls and len(calls) == 2 * closure_calls
    assert [t.key() for t in targets] == [st.key() for st in closure]


def test_weak_transitions_through_tau_loop():
    env = DefEnv({"f": 1}, defs={
        "A1": ((), Output("f", Lit(5), (Const("A1", ()),))),
        "A2": ((), Input("f", "x", (Const("A2", ()),))),
        "A3": ((), Input("f", "x", (Const("A3", ()),))),
    })
    s = flatten(oplus(par(Const("A1", ()), Const("A2", ())), Const("A3", ())), env)
    take = Action("f", False, 5)
    targets, status = weak_transitions(s, [take], *lookups(env, (5,)))
    assert status == "complete" and targets
    # both receivers can take the input visibly; the sender cannot
    direct = [st for st in multi_transitions(s, env, (5,), max_width=1)
              if visible(st.labels) and visible(st.labels)[0].action == take]
    assert len({visible(st.labels)[0].loc for st in direct}) == 2
    want = {t.key() for st in direct for t in tau_closure(st.target, env)[0]}
    assert sorted(t.key() for t in targets) == sorted(want)
    sender = flatten(Const("A1", ()), env)
    assert weak_transitions(sender, [take], *lookups(env, (5,))) == ([], "complete")


def test_weak_transitions_example5_shapes():
    env = DefEnv({"f": 1, "g": 1})
    lhs = flatten(par(Output("f", Lit(1), (NIL,)), Output("g", Lit(2), (NIL,))), env)
    rhs = flatten(graph_term((("v", Sum(Output("f", Lit(1), (Output("g", Lit(2), (NIL,)),)),
                                        Output("g", Lit(2), (Output("f", Lit(1), (NIL,)),)))),)),
                  env)
    actions = [Action("f", True, 1), Action("g", True, 2)]
    got, _ = weak_transitions(lhs, actions, *lookups(env))
    assert got
    none, _ = weak_transitions(rhs, actions, *lookups(env))
    assert none == []


def test_diamond_and_decomposition_random():
    rng = random.Random(43)
    env = base_env()
    checked = 0
    for _ in range(30):
        s = flatten(random_process_term(rng), env)
        rep = diamond_check(s, env, (0, 1))
        assert rep.counterexamples == []
        checked += rep.checked
        n, fails = decompose_check(s, env, (0, 1))
        assert fails == []
    assert checked > 20


def joint_order(step):
    """The order `multi_transitions` fires a step's firings in."""
    return tuple(sorted(step.firings, key=llts._fire_sort_key))


def test_step_surgery_is_deterministic():
    # a firer answers a step's own joint order from its memo, so the
    # checks cannot see whether surgery repeats itself: a fresh firer
    # must fire the same sequence to the same target and residual
    rng = random.Random(47)
    env = base_env()
    checked = 0
    for _ in range(30):
        s = flatten(random_process_term(rng), env)
        for step in multi_transitions(s, env, (0, 1)):
            target, residual, _labels = sequence_firer(s, env)(joint_order(step))
            assert state_key_with_residual(target, residual) \
                == state_key_with_residual(step.target, step.residual)
            checked += 1
    assert checked > 100


def test_decompose_check_fires_each_prefix_once(monkeypatch):
    # the enumeration fires each step in its joint order, and the check
    # every order of each 2- and 3-label step: one surgery per distinct
    # ordered prefix of all of those
    env = parse_source("symbol f/1;\nsymbol g/1;\n"
                       "process P = f(x).(~g(x).(0)) | ~f(1).(0) | g(y).(0);\n")
    s = flatten(env.processes["P"], env)
    # enumerated in a copy of the environment, so that the check starts
    # with no stored spawn
    steps = multi_transitions(s, env.extended(), (0, 1))
    asked = {joint_order(step) for step in steps}
    for step in steps:
        if len(step.firings) >= 2:
            asked.update(itertools.permutations(step.firings))
    prefixes = {seq[:k] for seq in asked for k in range(1, len(seq) + 1)}
    assert any(len(step.firings) == 3 for step in steps)
    assert any(not hasattr(f, "action") for step in steps for f in step.firings)
    # each fired prefix spawns the children of its last firing's heads
    spawns = []
    for seq in prefixes:
        f = seq[-1]
        if hasattr(f, "action"):
            fired_heads = [(cs_head(s.comp[f.loc], env)[f.index], f.action.value)]
        else:
            fired_heads = [(cs_head(s.comp[f.p], env)[f.i], f.value),
                           (cs_head(s.comp[f.q], env)[f.j], None)]
        spawns += [(child, value_key(v) if isinstance(head, Input) else None)
                   for head, v in fired_heads for child in head.children]
    fired, heads, flattened = [], [], []
    for name in ("fire_prefix", "fire_comm"):
        real = getattr(llts, name)
        monkeypatch.setattr(llts, name, lambda *a, _name=name, _real=real:
                            fired.append(_name) or _real(*a))
    for module in (llts, reduction):
        monkeypatch.setattr(module, "cs_head", lambda *a, _real=cs_head:
                            heads.append(a) or _real(*a))
    real_flatten = reduction.flatten_part
    monkeypatch.setattr(reduction, "flatten_part",
                        lambda *a: flattened.append(a) or real_flatten(*a))
    n, fails = decompose_check(s, env, (0, 1))
    assert fails == [] and n == sum(len(step.firings) >= 2 for step in steps)
    assert len(fired) == len(prefixes) == 36
    # heads are resolved while candidates and redexes are enumerated, once
    # per location each, and by each communication for its two partners;
    # a visible firing carries its head
    comms = fired.count("fire_comm")
    assert comms and len(heads) == 2 * len(s.graph.vertices) + 2 * comms
    # a child is flattened once per value it spawns under
    assert len(flattened) == len(set(spawns)) < len(spawns)


def test_decompose_check_reverses_four_label_steps(monkeypatch):
    # a step of four labels is checked in one order, the reverse of its
    # joint order, which shares no prefix with it
    env = parse_source("symbol f/1;\nsymbol g/1;\nsymbol h/1;\nsymbol k/1;\n"
                       "process P = ~f(1).(0) | g(x).(~h(x).(0)) | ~k(0).(0) | h(y).(0);\n")
    s = flatten(env.processes["P"], env)
    fours = [step for step in multi_transitions(s, env, (0, 1)) if len(step.firings) == 4]
    assert fours
    asked = set()
    real = llts._fired
    monkeypatch.setattr(llts, "_fired", lambda memo, e, firings:
                        asked.add(firings) or real(memo, e, firings))
    n, fails = decompose_check(s, env, (0, 1))
    assert fails == [] and n > len(fours)
    assert all(joint_order(step)[::-1] in asked for step in fours)


def test_anchored_forms_agree_with_canonical_keys(monkeypatch):
    # oracle: every comparison of two firing orders the checks make is
    # decided by the anchored forms alone, and forms that agree name
    # targets whose canonical keys agree
    env = base_env()
    fallbacks, compared = [], []
    real_key = llts.state_key_with_residual
    monkeypatch.setattr(llts, "state_key_with_residual",
                        lambda *args: fallbacks.append(args) or real_key(*args))
    real_checker = llts._residual_keys

    def recording(state, env):
        fire, same = real_checker(state, env)
        return fire, lambda a, b: compared.append((fire(a), fire(b))) or same(a, b)

    monkeypatch.setattr(llts, "_residual_keys", recording)
    widths = Counter()
    for seed in (53, 59):
        rng = random.Random(seed)
        for _ in range(60):
            s = flatten(random_process_term(rng, max_components=4), env)
            widths[len(s.graph.vertices)] += 1
            assert diamond_check(s, env, (0, 1)).counterexamples == []
            assert decompose_check(s, env, (0, 1))[1] == []
    assert widths[4] >= 10 and len(compared) > 1000
    assert fallbacks == []
    for (t1, r1, _l1), (t2, r2, _l2) in compared:
        assert llts._anchored(t1, r1) == llts._anchored(t2, r2)
        assert real_key(t1, r1) == real_key(t2, r2)


def relabeled(state, residual, swap, move_edges=True):
    """`state` and `residual` with the locations in `swap` exchanged; the
    edges stay where they were unless `move_edges`."""
    a, b = swap
    rename = {v: {a: b, b: a}.get(v, v) for v in state.graph.vertices}
    edges = [(rename[x], rename[y]) for x, y in state.graph.edges] if move_edges \
        else state.graph.edges
    return (netstate.NetState(netstate.make_graph(state.graph.vertices, edges),
                              {rename[v]: t for v, t in state.comp.items()},
                              state.restricted),
            {rename[v]: r for v, r in residual.items()})


def checker_answer(monkeypatch, fire, order, joint, replaced):
    """`same(order, joint)` of the checks' comparison over the firer
    `fire`, when firing `order` lands on `replaced` instead."""
    monkeypatch.setattr(llts, "sequence_firer", lambda *_args: lambda firings: (
        replaced + fire(firings)[2:] if firings == order else fire(firings)))
    _fire, same = llts._residual_keys(None, None)
    return same(order, joint)


def test_canonical_keys_decide_when_anchored_forms_disagree(monkeypatch):
    env = parse_source("symbol k/2;\nsymbol g/1;\n"
                       "process P = k(x).(~g(1).(0), 0) | ~g(0).(0);\n")
    s = flatten(env.processes["P"], env)
    (step,) = [st for st in multi_transitions(s, env, (0,), 2) if len(st.firings) == 2]
    joint = joint_order(step)
    order = joint[::-1]
    fire = sequence_firer(s, env)
    target, residual, _labels = fire(order)
    (p,) = [f.loc for f in step.firings if f.action.sym == "k"]
    kids = sorted(v for v in target.graph.vertices if residual[v] == p)
    assert len(kids) == 2 and target.comp[kids[0]] != target.comp[kids[1]]
    joint_form = llts._anchored(*fire(joint)[:2])
    assert llts._anchored(target, residual) == joint_form
    # the two children are twins: exchanging them is an isomorphism
    twins = relabeled(target, residual, kids)
    assert llts._anchored(*twins) != joint_form
    assert state_key_with_residual(*twins) == state_key_with_residual(*fire(joint)[:2])
    assert checker_answer(monkeypatch, fire, order, joint, twins)
    # a child exchanged with its neighbour while the edges stay put is not
    (other,) = set(target.graph.vertices) - set(kids)
    broken = relabeled(target, residual, (kids[0], other), move_edges=False)
    assert state_key_with_residual(*broken) != state_key_with_residual(*fire(joint)[:2])
    assert not checker_answer(monkeypatch, fire, order, joint, broken)


def drop_edge_unless_least(real):
    """`real` surgery that drops an inherited edge unless it fires the
    state's least location, so the order of the firings shows."""
    def lossy(state, p, head, value, env):
        target, residual, lvec = real(state, p, head, value, env)
        inherited = sorted(e for e in target.graph.edges
                           if (residual[e[0]] == p) != (residual[e[1]] == p))
        if p == min(state.graph.vertices) or not inherited:
            return target, residual, lvec
        graph = netstate.make_graph(target.graph.vertices, target.graph.edges - {inherited[0]})
        return netstate.NetState(graph, target.comp, target.restricted), residual, lvec
    return lossy


def test_checks_catch_order_dependent_surgery(monkeypatch):
    # surgery that drops an inherited edge unless it fires the state's
    # least location: firing the least location last loses the edge
    env = parse_source("symbol f/1;\nsymbol g/1;\nprocess P = ~f(1).(0) | ~g(2).(0);\n")
    s = flatten(env.processes["P"], env)
    monkeypatch.setattr(llts, "fire_prefix", drop_edge_unless_least(llts.fire_prefix))
    report = diamond_check(s, env, (0, 1))
    assert report.checked == 1
    ((step, order, why),) = report.counterexamples
    assert order == joint_order(step)[::-1]
    assert why == "interleaving disagrees with the joint step"
    n, failures = decompose_check(s, env, (0, 1))
    assert n == 1 and [why for _step, _order, why in failures] == [
        "interleaving disagrees with the joint step"]


def test_diamond_report_is_the_two_label_slice(monkeypatch):
    # the diamond report lists the 2-label failures of the decomposition
    # pass, and checks each 2-label step once, with sound surgery and
    # with surgery that depends on the firing order
    env = base_env()

    def slices(states):
        checked = failed = 0
        for s in states:
            report = diamond_check(s, env, (0, 1))
            _n, failures = decompose_check(s, env, (0, 1))
            assert [(st.firings, order, why) for st, order, why in report.counterexamples] \
                == [(st.firings, order, why) for st, order, why in failures
                    if len(st.firings) == 2]
            assert report.checked == sum(len(st.firings) == 2
                                         for st in multi_transitions(s, env, (0, 1)))
            checked += report.checked
            failed += len(report.counterexamples)
        return checked, failed

    rng = random.Random(79)
    states = []
    while len(states) < 30:
        s = flatten(random_process_term(rng, max_components=4), env)
        if len(s.graph.vertices) >= 3:
            states.append(s)
    checked, failed = slices(states)
    assert checked > 100 and failed == 0
    monkeypatch.setattr(llts, "fire_prefix", drop_edge_unless_least(llts.fire_prefix))
    checked, failed = slices(states)
    assert checked > 100 and failed > 50


def test_four_label_step_fails_once(monkeypatch):
    # a step of four labels is compared in one order, so a disagreeing
    # reverse order is its one failure
    env = parse_source("symbol f/1;\nsymbol g/1;\nsymbol h/1;\nsymbol k/1;\n"
                       "process P = ~f(1).(0) | ~g(2).(0) | ~h(3).(0) | ~k(4).(0);\n")
    s = flatten(env.processes["P"], env)
    monkeypatch.setattr(llts, "fire_prefix", drop_edge_unless_least(llts.fire_prefix))
    _n, failures = decompose_check(s, env, (0, 1))
    fours = [(step, order, why) for step, order, why in failures if len(step.firings) == 4]
    ((step, order, why),) = fours
    assert order == joint_order(step)[::-1]
    assert why == "interleaving disagrees with the joint step"


def test_checks_list_orders_past_the_canonical_budget(monkeypatch):
    # when anchored forms disagree and the canonical key is over its
    # budget, the order is listed as undecided by both checks
    env = parse_source("symbol f/1;\nsymbol g/1;\nprocess P = ~f(1).(0) | ~g(2).(0);\n")
    s = flatten(env.processes["P"], env)
    monkeypatch.setattr(llts, "_anchored", lambda target, residual: object())
    monkeypatch.setattr(graphs, "MAX_CANON_VERTICES", 1)
    report = diamond_check(s, env, (0, 1))
    ((step, order, why),) = report.counterexamples
    assert report.checked == 1 and order == joint_order(step)[::-1]
    assert why == ("undecided, canonical search over budget: "
                   "graph with 2 vertices exceeds the exact bound (MAX_CANON_VERTICES=1)")
    n, failures = decompose_check(s, env, (0, 1))
    assert n == 1 and [why for _step, _order, why in failures] == [why]


def test_tau_closure_is_reachable_class_set():
    env = DefEnv({"f": 1}, defs={
        "A1": ((), Output("f", Lit(5), (Const("A1", ()),))),
        "A2": ((), Input("f", "x", (Const("A2", ()),))),
    })
    s = flatten(par(Const("A1", ()), Const("A2", ())), env)
    items, status = tau_closure(s, env, max_states=100)
    reach = reachable(s, env, max_states=100)
    assert status == reach.status == "complete"
    assert [st.key() for st in items] == list(reach.states)


def test_action_value_types_stay_distinct():
    assert Action("f", False, 1) != Action("f", False, True)
    assert Action("f", False, 0) != Action("f", False, False)
    assert len({Action("f", False, 1), Action("f", False, True)}) == 2
    env = DefEnv({"f": 1})
    # a boolean payload must not satisfy an integer input challenge
    s = flatten(graph_term((("v", Output("f", Lit(True), (NIL,))),)), env)
    (step,) = multi_transitions(s, env, (), max_width=1)
    (label,) = step.labels.elements()
    assert label.action == Action("f", True, True)
    assert label.action != Action("f", True, 1)


def test_same_symbol_communications_fire_together():
    # two disjoint f-exchanges match pairwise-early in a nested
    # composition, so the joint {tau, tau} step is derivable
    env = DefEnv({"f": 1})
    t = graph_term(
        (("a", Input("f", "x", (IDLE,))), ("b", Output("f", Lit(1), (IDLE,))),
         ("c", Input("f", "x", (IDLE,))), ("d", Output("f", Lit(2), (IDLE,)))),
        (("a", "b"), ("c", "d")))
    s = flatten(t, env)
    tautau = [st for st in multi_transitions(s, env, (1, 2), 2)
              if st.labels == Multiset([TAU, TAU])]
    assert len(tautau) == 1
    rep = diamond_check(s, env, (1, 2))
    assert rep.counterexamples == []


def test_restriction_hoisted_from_spawned_children():
    env = DefEnv({"f": 1, "g": 1})
    inner = Restrict(graph_term((("v", Input("g", "y", (IDLE,))),)), frozenset({"g"}))
    s = flatten(graph_term((("v", Input("f", "x", (inner,))),)), env)
    assert s.restricted == frozenset()
    (step,) = multi_transitions(s, env, (0,), max_width=1)
    target = step.target
    assert target.restricted == {"g"}
    # the hoisted restriction silences the inner offer
    assert multi_transitions(target, env, (0,), max_width=1) == []


def renumbered(target, residual):
    """A fired target's JSON and residual with the target's locations
    numbered by first appearance in sorted order."""
    ids = {p: i for i, p in enumerate(target.locations())}
    js = target.to_json()
    return ({"edges": [[ids[a], ids[b]] for a, b in js["edges"]],
             "components": [js["components"][str(p)] for p in target.locations()],
             "restricted": js["restricted"]},
            sorted((ids[t], r) for t, r in residual.items()))


def fired_afresh(state, env, order):
    """`order` fired from `state` in a fresh copy of `env`, whose table
    of spawned parts starts empty, through no firer."""
    env = env.extended()
    out = (state, identity_residual(state.graph), ())
    for f in order:
        out = out and llts._fire_one(*out, f, env)
    return out


def echoing(term):
    """`term` with each child c of a top-level input prefix made
    c | ~w(x).(0), x its binder, so that the child's part depends on the
    value received."""
    if isinstance(term, Sum):
        return Sum(*map(echoing, term.summands))
    if isinstance(term, Input):
        return Input(term.sym, term.var, tuple(par(c, Output("w", Var(term.var), (NIL,)))
                                               for c in term.children))
    return term


class CountingTable(dict):
    """A table of spawned parts that records the parts it hands out."""

    def __init__(self):
        super().__init__()
        self.hits = []

    def get(self, key, default=None):
        part = super().get(key, default)
        if part is not None:
            self.hits.append(part)
        return part


def test_spawn_memo_copies_equal_fresh_flattening():
    # oracle: every order the checks fire, fired through an environment
    # whose table of spawned parts the checks of other processes have
    # filled, lands on the target and residual that firing the same order
    # in a fresh copy of the environment does, up to location numbers
    env = base_env()
    env._spawns = table = CountingTable()
    rng = random.Random(73)
    for _ in range(20):
        decompose_check(flatten(random_process_term(rng), env), env, (0, 1))
    assert table
    compared = restricting = 0
    for seed in (67, 71):
        rng = random.Random(seed)
        for _ in range(50):
            term = random_process_term(rng, allow_recursion=rng.random() < 0.3)
            kind = rng.random()
            if kind < 0.35:
                syms = frozenset(s for s in sorted(BASE_SIG)
                                 if rng.random() < 0.5) or frozenset({"u"})
                term = Restrict(GraphTerm(
                    tuple((v, map_prefix_children(t, lambda c: Restrict(c, syms), syntax))
                          for v, t in term.places), term.links), syms)
            elif kind < 0.7:
                # each prefix child c becomes c | 0: a spawned part has two locations
                term = GraphTerm(tuple((v, map_prefix_children(t, lambda c: par(c, NIL), syntax))
                                       for v, t in term.places), term.links)
            elif kind < 0.85:
                term = GraphTerm(tuple((v, echoing(t)) for v, t in term.places), term.links)
            s = flatten(term, env)
            fire = sequence_firer(s, env)
            for step in multi_transitions(s, env, (0, 1), fire=fire):
                joint = joint_order(step)
                orders = [joint] + (list(itertools.permutations(joint))
                                    if len(joint) <= 3 else [joint[::-1]])
                for order in orders:
                    memoized, fresh = fire(order), fired_afresh(s, env, order)
                    assert (memoized is None) == (fresh is None)
                    if memoized is not None:
                        assert renumbered(*memoized[:2]) == renumbered(*fresh[:2])
                        restricting += bool(memoized[0].restricted)
                        compared += 1
            assert not any(part.restricted for part in table.values())
    assert compared > 1000 and restricting > 100 and len(table.hits) > 1000
    assert any(len(part.comps) == 2 for part in table.hits)


def test_one_closed_child_under_two_inputs_is_flattened_once():
    # both inputs bind x and spawn ~w(1).(0), so the child is one term
    # under one binder and one entry of the table: the second spawn copies it
    env = parse_source("symbol u/1;\nsymbol k/1;\nsymbol w/1;\n"
                       "process P = u(x).(~w(1).(0)) | k(x).(~w(1).(0));\n")
    s = flatten(env.processes["P"], env)
    env._spawns = table = CountingTable()
    inputs = [f for f in llts._vis_candidates(s, env, (1,)) if not f.action.co]
    assert len(inputs) == 2 and inputs[0].head.children == inputs[1].head.children
    fire = sequence_firer(s, env)
    for order in (tuple(inputs), tuple(inputs[::-1])):
        target, residual, _labels = fire(order)
        assert renumbered(target, residual) == renumbered(*fired_afresh(s, env, order)[:2])
    assert len(table) == 1 and len(table.hits) == 3


def test_a_child_is_stored_under_its_binder():
    # the definition body of B is not data-closed: its child ~w(x).(0) is
    # the child of u(x) too, but under k(y) its x stays free, so firing
    # k fails however often u has filled the table first.  The parser
    # refuses B, so the environment is built in Python.
    with pytest.raises(ParseError, match="definition B has free data variable x"):
        parse_source("symbol k/1;\nsymbol w/1;\ndef B = k(y).(~w(x).(0));\n")
    echo = (Output("w", Var("x"), (NIL,)),)
    env = DefEnv({"u": 1, "k": 1, "w": 1}, defs={"B": ((), Input("k", "y", echo))})
    s = flatten(par(Input("u", "x", echo), Const("B", ())), env)
    inputs = llts._vis_candidates(s, env, (1,))
    assert [f.action.sym for f in inputs] == ["u", "k"]
    assert inputs[0].head.children == inputs[1].head.children
    start = (s, identity_residual(s.graph), ())
    for f in inputs + inputs[::-1] + inputs:
        warm, fresh = llts._fire_one(*start, f, env), fired_afresh(s, env, (f,))
        assert (warm is None) == (fresh is None) == (f.action.sym == "k")
        if warm is not None:
            assert renumbered(*warm[:2]) == renumbered(*fresh[:2])
    assert len(env._spawns) == 1


@pytest.mark.xfail(strict=True, reason="interleavings are compared with restricted names "
                   "by spelling: firing ~g first leaves a spawned restricted name g, and "
                   "the joint order primes it to g'")
def test_clash_interleavings_agree_up_to_restricted_names():
    env = parse_source(CLASH)
    s = flatten(env.processes["P"], env)
    assert diamond_check(s, env, (0, 1)).counterexamples == []


def test_restricted_spawns_are_renamed_apart_every_time():
    # both receivers spawn a child restricting g beside a free ~g: fired
    # in either order through one firer, each spawn is renamed apart anew
    env = parse_source(CLASH)
    s = flatten(env.processes["P"], env)
    receivers = [f for f in llts._vis_candidates(s, env, (1,))
                 if f.action == Action("f", False, 1)]
    assert len(receivers) == 2
    fire = sequence_firer(s, env)
    for order in (tuple(receivers), tuple(receivers[::-1])):
        target, residual, _labels = fire(order)
        fresh_target, fresh_residual, _ = fired_afresh(s, env, order)
        assert target.restricted == fresh_target.restricted == {"g'", "g''"}
        assert renumbered(target, residual) == renumbered(fresh_target, fresh_residual)
    assert not any(part.restricted for part in env._spawns.values())
