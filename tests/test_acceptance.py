"""Acceptance suite: one test per criterion, each printing a pass line
with its timing.  Budgets are asserted, so a slow regression fails."""

import itertools
import random
import time

from vccts.encodings import (
    abp_success_components, abp_system, automaton_to_process,
    example_counter_instance, expansion_law_pair, recognizes, tree_to_process,
)
from vccts.equivalence import (
    GameConfig, compose_states, distinguishing_context,
    stabilized_stratified_verdict, weak_barbed_bisim, weak_bisim,
)
from vccts.llts import Multiset, TAU, decompose_check, diamond_check, \
    multi_transitions
from vccts.netstate import flatten, has_barb
from vccts.reduction import internal_steps, reachable, reduces_to_idle
from vccts.syntax import (
    Const, DefEnv, IDLE, Input, NIL, Output, PSym, graph_term, oplus, par,
    term_fingerprint,
)
from vccts.values import Lit, Var

from gen import (
    base_env, random_dag_automaton, random_pair, random_process_term,
    random_recognized_tree,
)
from reference import cross_edges


def report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print("%s criterion %2d: %s (%.2fs)" % (status, num, detail, time.time() - t0))
    assert ok, detail


def test_criterion_01_barbs_example():
    t0 = time.time()
    env = DefEnv({"f": 2, "g": 2})
    P = flatten(par(Output("f", Lit(3), (IDLE, IDLE)),
                    Output("g", Lit(4), (IDLE, IDLE))), env)
    alphabet = [PSym("f"), PSym("f", True), PSym("g"), PSym("g", True)]
    expected = {frozenset(), frozenset({PSym("f", True)}),
                frozenset({PSym("g", True)}),
                frozenset({PSym("f", True), PSym("g", True)})}
    got = set()
    for r in range(len(alphabet) + 1):
        for combo in itertools.combinations(alphabet, r):
            if has_barb(P, set(combo), env):
                got.add(frozenset(combo))
    ok = got == expected and time.time() - t0 < 1.0
    report(1, ok, "barbs of the two-output example are exactly "
                  "{}, {~f}, {~g}, {~f,~g}", t0)


def local_connections_state():
    env = DefEnv({"f": 1}, defs={
        "A1": ((), Output("f", Lit(5), (Const("A1", ()),))),
        "A2": ((), Input("f", "x", (Const("A2", ()),))),
        "A3": ((), Input("f", "x", (Const("A3", ()),))),
    })
    s = flatten(oplus(par(Const("A1", ()), Const("A2", ())), Const("A3", ())), env)
    return s, env


def test_criterion_02_local_connections():
    t0 = time.time()
    s, env = local_connections_state()
    steps = internal_steps(s, env)
    loop = len(steps) == 1 and steps[0].target.key() == s.key()
    r = reachable(s, env)
    closed = len(r.states) == 1 and r.status == "complete"
    # the isolated receiver never fires
    by_comp = {term_fingerprint(t): p for p, t in s.comp.items()}
    a1, a3 = by_comp["k!A1()"], by_comp["k!A3()"]
    fired = {steps[0].fired[0], steps[0].fired[1]}
    no_a3 = a3 not in fired and a1 in fired
    ok = loop and closed and no_a3 and time.time() - t0 < 1.0
    report(2, ok, "transmitter system loops on itself; reachable set is a "
                  "single state; the out-of-range receiver stays silent", t0)


def test_criterion_03_simultaneous_communications():
    t0 = time.time()
    env = DefEnv({"f1": 1, "g1": 1, "f2": 2})
    P = oplus(Input("f1", "x", (Output("g1", Var("x"), (IDLE,)),)),
              Input("f2", "y", (IDLE, IDLE)))
    Q = oplus(Output("f1", Lit(1), (IDLE,)), Output("f2", Lit(2), (IDLE, IDLE)))
    sp, sq = flatten(P, env), flatten(Q, env)
    pl, ql = sp.locations(), sq.locations()
    comp = compose_states(sp, sq, [(pl[0], ql[0]), (pl[1], ql[1])], env)
    tautau = [st for st in multi_transitions(comp, env, (1, 2), 2)
              if st.labels == Multiset([TAU, TAU])]
    ok = len(tautau) == 1
    dprime = set()
    if ok:
        step = tautau[0]
        dprime = cross_edges(step, pl, ql)
        # children of the unary exchange give one bridge; children of the
        # binary exchange a complete 2x2 block
        fam = lambda src: {v for v in step.target.graph.vertices
                           if step.residual[v] == src}
        expected = {(min(a, b), max(a, b))
                    for a in fam(pl[0]) for b in fam(ql[0])} | \
                   {(min(a, b), max(a, b))
                    for a in fam(pl[1]) for b in fam(ql[1])}
        got = {(min(a, b), max(a, b)) for a, b in dprime}
        ok = len(dprime) == 5 and got == expected
    ok = ok and time.time() - t0 < 1.0
    report(3, ok, "the two communications fire together; the composed "
                  "cross-edge record has the 5-edge shape", t0)


def test_criterion_04_diamond_property():
    t0 = time.time()
    rng = random.Random(101)
    env = base_env()
    total_pairs = 0
    total_multi = 0
    for _ in range(200):
        s = flatten(random_process_term(rng, max_components=4, depth=1), env)
        rep = diamond_check(s, env, (0, 1))
        assert rep.counterexamples == [], rep.counterexamples[:1]
        total_pairs += rep.checked
        n, fails = decompose_check(s, env, (0, 1))
        assert fails == [], fails[:1]
        total_multi += n
    elapsed = time.time() - t0
    ok = total_pairs >= 200 and elapsed < 60
    report(4, ok, "0 diamond counterexamples over %d simultaneous pairs; "
                  "%d multi-steps decompose with composing residuals"
                  % (total_pairs, total_multi), t0)


def test_criterion_05_expansion_law():
    t0 = time.time()
    lhs, rhs, env = expansion_law_pair(DefEnv())
    cfg = GameConfig(universe=(1, 2))
    w = weak_bisim(lhs, rhs, env, cfg)
    witness_ok = w.result == "not" and w.witness \
        and w.witness[0][1] == "vis" and len(w.witness[0][2]) == 2
    b = weak_barbed_bisim(lhs, rhs, env, cfg)
    barb_ok = b.result == "not" and b.witness \
        and b.witness[-1][0] == "barb" \
        and {repr(x) for x in b.witness[-1][1]} == {"~f", "~g"}
    ok = witness_ok and barb_ok and time.time() - t0 < 5
    report(5, ok, "parallel outputs vs interleaved sum: weak verdict 'not' "
                  "with a size-2 multiset, barbed verdict 'not' with {~f,~g}", t0)


def test_criterion_06_idle_composition():
    t0 = time.time()
    rng = random.Random(103)
    cfg = GameConfig(universe=(0, 1))
    checked = 0
    while checked < 50:
        env = base_env()
        term = random_process_term(rng, max_components=2, depth=1)
        P = flatten(term, env)
        star = flatten(IDLE, env)
        cross = [(p, star.locations()[0])
                 for p in P.locations() if rng.random() < 0.5]
        Q = compose_states(P, star, cross, env)
        base = flatten(term, env)
        w = weak_bisim(base, Q, env, cfg)
        assert w.result == "bisimilar", (term, w.result)
        bb = weak_barbed_bisim(base, Q, env, cfg)
        assert bb.result == "bisimilar", (term, bb.result)
        checked += 1
    elapsed = time.time() - t0
    ok = checked >= 50 and elapsed < 60
    report(6, ok, "composing an idle vertex is invisible to both relations "
                  "on %d generated processes" % checked, t0)


def _finitely_branching_pairs(rng, count):
    out = []
    while len(out) < count:
        P, Q, env = random_pair(rng)
        out.append((P, Q, env))
    return out


def test_criterion_07_stratification_agrees():
    t0 = time.time()
    rng = random.Random(107)
    cfg = GameConfig(universe=(0, 1))
    agreed = 0
    for P, Q, env in _finitely_branching_pairs(rng, 30):
        fix = weak_bisim(P, Q, env, cfg)
        strat = stabilized_stratified_verdict(P, Q, env, cfg)
        assert fix.result != "inconclusive" and strat.result != "inconclusive"
        assert fix.result == strat.result, (fix.result, strat.result)
        agreed += 1
    elapsed = time.time() - t0
    ok = agreed >= 30 and elapsed < 120
    report(7, ok, "stabilized approximants equal the fixpoint verdict on "
                  "%d finitely-branching pairs" % agreed, t0)


def test_criterion_08_soundness_direction():
    t0 = time.time()
    rng = random.Random(109)
    cfg = GameConfig(universe=(0, 1))
    bisimilar = 0
    for P, Q, env in _finitely_branching_pairs(rng, 25):
        if weak_bisim(P, Q, env, cfg).result == "bisimilar":
            bisimilar += 1
            assert weak_barbed_bisim(P, Q, env, cfg).result == "bisimilar"
    ok = bisimilar >= 5
    report(8, ok, "weak bisimilarity implied barbed bisimilarity on all %d "
                  "bisimilar samples" % bisimilar, t0)


def test_criterion_09_tree_recognition():
    t0 = time.time()
    rng = random.Random(113)
    done = 0
    while done < 100:
        aut = random_dag_automaton(rng)
        q0 = sorted(aut.states)[0]
        t = random_recognized_tree(rng, aut, q0)
        assert recognizes(aut, q0, t)
        entry, env = automaton_to_process(aut, q0, DefEnv())
        s = flatten(par(entry, tree_to_process(t, rng.choice((0, 1)))), env)
        ok, _trace, status = reduces_to_idle(s, env, max_states=4000)
        assert status == "complete" and ok
        done += 1
    aut, q0, t = example_counter_instance()
    entry, env = automaton_to_process(aut, q0, DefEnv())
    s = flatten(par(entry, tree_to_process(t, 1)), env)
    idle, _trace, status = reduces_to_idle(s, env)
    shipped = idle and status == "complete" and not recognizes(aut, q0, t)
    elapsed = time.time() - t0
    ok = done >= 100 and shipped and elapsed < 60
    report(9, ok, "%d recognized trees all reduce to idle; the shipped "
                  "counterexample reduces to idle yet is not recognized" % done, t0)


def test_criterion_10_abp_delivery():
    t0 = time.time()
    for msgs in ((), (1,), (1, 2), (1, 2, 3)):
        state, env, _init = abp_system(msgs, 0)
        r = reachable(state, env, max_states=20000)
        assert r.status == "complete"
        wanted = sorted(term_fingerprint(t) for t in abp_success_components(msgs))
        hits = [k for k, st in r.states.items()
                if sorted(term_fingerprint(t) for t in st.comp.values()) == wanted]
        assert hits, "success state missing for %r" % (msgs,)
        # an unconnected bystander must not disturb delivery
        bystander = flatten(Output("send", Lit(9), (NIL,)), env)
        composed = compose_states(state, bystander, [], env)
        r2 = reachable(composed, env, max_states=20000)
        assert r2.status == "complete"
        hits2 = [k for k, st in r2.states.items()
                 if sorted(fp for fp in (term_fingerprint(t) for t in st.comp.values())
                           if fp in wanted) == wanted]
        assert hits2, "bystander broke delivery for %r" % (msgs,)
    elapsed = time.time() - t0
    ok = elapsed < 60
    report(10, ok, "every message list is fully delivered, with and without "
                   "an unconnected bystander", t0)


def test_criterion_11_distinguishing_contexts():
    t0 = time.time()
    lhs, rhs, env = expansion_law_pair(DefEnv())
    cfg = GameConfig(universe=(1, 2))
    rep1 = distinguishing_context(lhs, rhs, env, cfg, 1)
    assert rep1.verified, rep1.failures

    env2 = DefEnv({"f": 1})
    P = flatten(graph_term((("v", Output("f", Lit(7), (NIL,))),)), env2)
    Q = flatten(graph_term((("v", NIL),)), env2)
    cfg2 = GameConfig(universe=(7,))
    rep2 = distinguishing_context(P, Q, env2, cfg2, 1)
    assert rep2.verified, rep2.failures
    elapsed = time.time() - t0
    ok = rep1.verified and rep2.verified and elapsed < 120
    report(11, ok, "constructed contexts separate the expansion-law pair and "
                   "a single-output pair under the barbed checker", t0)
