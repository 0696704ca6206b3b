import random
import time

import pytest

from vccts.encodings import expansion_law_pair
from vccts.equivalence import (
    BisimGame, GameConfig, compose_states, distinguishing_context,
    stabilized_stratified_verdict, stratified_bisim,
    weak_barbed_bisim, weak_bisim,
)
from vccts.netstate import flatten
from vccts.parser import parse_source
from vccts.syntax import (
    Const, DefEnv, IDLE, Input, NIL, Output, graph_term, par, term_str,
)
from vccts.values import Lit

from gen import random_pair

CFG = GameConfig(universe=(0, 1))


def test_reflexivity_both_ways():
    env = DefEnv({"f": 1})
    s = flatten(par(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,))), env)
    t = flatten(par(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,))), env)
    assert weak_bisim(s, t, env, CFG).result == "bisimilar"
    assert weak_barbed_bisim(s, t, env, CFG).result == "bisimilar"


def test_idle_composition_invisible():
    env = DefEnv({"f": 1})
    term = par(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,)))
    for shape in ("none", "one", "all"):
        left = flatten(term, env)
        star = flatten(IDLE, env)
        cross = {"none": [],
                 "one": [(left.locations()[0], star.locations()[0])],
                 "all": [(p, star.locations()[0]) for p in left.locations()]}[shape]
        Q = compose_states(left, star, cross, env)
        base = flatten(term, env)
        assert weak_bisim(base, Q, env, CFG).result == "bisimilar"
        assert weak_barbed_bisim(base, Q, env, CFG).result == "bisimilar"


def test_expansion_law_fails():
    lhs, rhs, env = expansion_law_pair(DefEnv())
    cfg = GameConfig(universe=(1, 2))
    w = weak_bisim(lhs, rhs, env, cfg)
    assert w.result == "not"
    side, kind, label = w.witness[0]
    assert kind == "vis" and len(label) == 2
    b = weak_barbed_bisim(lhs, rhs, env, cfg)
    assert b.result == "not"
    assert b.witness[-1][0] == "barb"
    assert {repr(x) for x in b.witness[-1][1]} == {"~f", "~g"}


def test_verdicts_symmetric_under_swap():
    rng = random.Random(51)
    for _ in range(12):
        P, Q, env = random_pair(rng)
        assert weak_bisim(P, Q, env, CFG).result == weak_bisim(Q, P, env, CFG).result
        assert weak_barbed_bisim(P, Q, env, CFG).result == \
            weak_barbed_bisim(Q, P, env, CFG).result


def test_weak_implies_barbed():
    rng = random.Random(53)
    for _ in range(20):
        P, Q, env = random_pair(rng)
        if weak_bisim(P, Q, env, CFG).result == "bisimilar":
            assert weak_barbed_bisim(P, Q, env, CFG).result == "bisimilar"


def test_stratification_examples():
    lhs, rhs, env = expansion_law_pair(DefEnv())
    cfg = GameConfig(universe=(1, 2))
    vec, truncated = stratified_bisim(lhs, rhs, env, cfg, 3)
    assert not truncated
    assert vec[0] is True
    assert vec[1] is False and vec[2] is False


def test_approximants_monotone():
    rng = random.Random(59)
    for _ in range(12):
        P, Q, env = random_pair(rng)
        vec, truncated = stratified_bisim(P, Q, env, CFG, 5)
        if truncated:
            continue
        for earlier, later in zip(vec, vec[1:]):
            if later:
                assert earlier


def _stabilized_cases():
    rng = random.Random(61)
    for _ in range(15):
        yield random_pair(rng)
    # told apart only deep in the game: a cycle of n outputs against the
    # constant loop first differs at its n-th step
    for n in (8, 12):
        env = parse_source(CYCLE_400.replace("399", str(n - 1)))
        yield flatten(env.processes["L"], env), flatten(env.processes["R"], env), env


def test_stabilized_equals_fixpoint():
    decided = []
    for P, Q, env in _stabilized_cases():
        fix = weak_bisim(P, Q, env, CFG)
        strat = stabilized_stratified_verdict(P, Q, env, CFG)
        if fix.result == "inconclusive" or strat.result == "inconclusive":
            continue
        assert fix.result == strat.result
        # both verdicts read one table: check the stratified one against
        # the recursive approximant at the depth it stabilized at
        game = BisimGame(env, CFG)
        root = game.root(P, Q)
        game.explore(root)
        depth = len(game.triples) + 1
        assert strat.detail == "stabilized at depth <= %d" % depth
        memo = {}
        holds = _reference_holds(game, root, depth, memo)
        assert strat.result == ("bisimilar" if holds else "not")
        decided.append((strat.result, depth, _reference_holds(game, root, 2, memo)))
    assert {result for result, _depth, _shallow in decided} == {"bisimilar", "not"}
    assert max(depth for _result, depth, _shallow in decided) > 5
    # some pair judged `not` still holds at level 2, so a verdict read
    # there would be wrong
    assert any(result == "not" and shallow for result, _depth, shallow in decided)


def _reference_holds(game, tid, n, memo):
    """The approximant definition, recursively: level n holds when every
    challenge has a defender option that holds at level n - 1."""
    if n == 0:
        return True
    if (tid, n) not in memo:
        memo[tid, n] = all(
            any(_reference_holds(game, s, n - 1, memo) for s in succs)
            for _side, _kind, _label, succs in game.triples[tid].challenges)
    return memo[tid, n]


def test_approximant_table_matches_recursive_reference():
    rng = random.Random(67)
    seen = set()
    for _ in range(30):
        P, Q, env = random_pair(rng)
        game = BisimGame(env, CFG)
        root = game.root(P, Q)
        vec = game.stratified(root, 5)
        memo = {}
        assert vec == [_reference_holds(game, root, d, memo) for d in range(6)]
        for t in list(game.triples):
            assert game.stratified(t.tid, 5) == \
                [_reference_holds(game, t.tid, d, memo) for d in range(6)]
        seen.add(vec[5])
    assert seen == {True, False}


CYCLE_400 = """symbol u/1;
def Cyc(n) = if n = 399 then ~u(1).(Cyc(0)) else ~u(0).(Cyc(n + 1));
def K = ~u(0).(K);
process L = Cyc(0);
process R = K;
"""


def test_deep_cycle_game_needs_no_recursion():
    # the distinction needs 400 approximant levels: deeper than the
    # interpreter stack a level-per-frame recursion could use
    env = parse_source(CYCLE_400)

    def pair():
        return flatten(env.processes["L"], env), flatten(env.processes["R"], env)

    verdict = weak_bisim(*pair(), env, CFG)
    assert verdict.result == "not" and len(verdict.witness) == 400
    assert stabilized_stratified_verdict(*pair(), env, CFG).result == "not"
    vec, truncated = stratified_bisim(*pair(), env, CFG, 401)
    assert not truncated and vec.index(False) == 400


COUNTER_200 = """symbol u/1;
symbol w/1;
def C(n) = if n = 200 then ~w(1).(0) else ~u(n).(C(n + 1));
def D(n) = if n = 200 then ~w(1).(0) else ~u(n).(D(n + 1));
def S = u(x).(S);
process L = C(0) | S;
process R = D(0) | S;
"""


def test_barbed_counter_game_scales():
    # 201 states a side: one pass over all 40k state pairs per round is too slow
    env = parse_source(COUNTER_200)
    L, R = flatten(env.processes["L"], env), flatten(env.processes["R"], env)
    t0 = time.perf_counter()
    assert weak_barbed_bisim(L, R, env, CFG).result == "bisimilar"
    assert time.perf_counter() - t0 < 3.0


def test_barbed_counter_game_expands_each_barb_family_once(monkeypatch):
    # 402 states, but only two barb families: C(n) | S offers ~u beside u,
    # and C(200) | S offers ~w beside u
    from collections import Counter
    from vccts import equivalence
    from vccts.netstate import barb_signature
    from vccts.reduction import reachable
    env = parse_source(COUNTER_200)
    L, R = flatten(env.processes["L"], env), flatten(env.processes["R"], env)
    states = [s for side in (L, R) for s in reachable(side, env).states.values()]
    families = {frozenset(Counter(barb_signature(s, env)).items()) for s in states}
    calls = []
    real = equivalence.satisfiable_barbs
    monkeypatch.setattr(equivalence, "satisfiable_barbs",
                        lambda s, env: calls.append(s) or real(s, env))
    assert weak_barbed_bisim(L, R, env, CFG).result == "bisimilar"
    assert len(states) == 402 and len(families) == len(calls) == 2


def test_components_close_in_reverse_topological_order():
    # one component per mutually reachable set, each numbered after every
    # component it reaches; a 20,000-state chain does not recurse
    from vccts.equivalence import _components
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 9)
        succ = [sorted(rng.sample(range(n), rng.randint(0, min(n, 3)))) for _ in range(n)]
        below = [{i} for i in range(n)]
        for _ in range(n):
            for i in range(n):
                for j in succ[i]:
                    below[i] |= below[j]
        comp = _components(succ)
        for i in range(n):
            for j in range(n):
                assert (comp[i] == comp[j]) == (j in below[i] and i in below[j])
                assert j not in below[i] or comp[j] <= comp[i]
    n = 20_000
    assert _components([[i + 1] for i in range(n - 1)] + [[]]) == list(range(n))[::-1]


def test_barbed_names_the_barb_set_bound():
    # 20 distinct outputs under (+) can show 2^20 barb sets
    from vccts.netstate import MAX_BARB_SETS
    src = "".join("symbol u%d/1;\n" % i for i in range(20)) + \
        "process L = %s;\n" % " (+) ".join("~u%d(0).(0)" % i for i in range(20))
    env = parse_source(src)
    L = flatten(env.processes["L"], env)
    R = flatten(env.processes["L"], env)
    t0 = time.perf_counter()
    verdict = weak_barbed_bisim(L, R, env, CFG)
    assert time.perf_counter() - t0 < 1.0
    assert verdict.result == "inconclusive"
    assert "MAX_BARB_SETS=%d" % MAX_BARB_SETS in verdict.detail


def test_explore_does_not_revisit_triples_without_challenges(monkeypatch):
    env = DefEnv({"f": 1})
    P = flatten(graph_term((("v", NIL),)), env)
    Q = flatten(graph_term((("v", NIL),)), env)
    game = BisimGame(env, CFG)
    calls = []
    real = BisimGame._challenges
    monkeypatch.setattr(BisimGame, "_challenges",
                        lambda self, ls: calls.append(ls) or real(self, ls))
    root = game.root(P, Q)
    game.explore(root)
    assert len(calls) == 2 and game.triples[root].challenges == []
    game.explore(root)
    assert game.stratified(root, 3) == [True] * 4
    assert game.failing_challenge(root, 1) is None
    assert len(calls) == 2


def test_weak_bisim_keeps_one_and_true_apart_in_the_universe():
    # a defender must find inputs for both 1 and true, not just one of them
    env = DefEnv({"u": 1, "w": 1})
    two_inputs = graph_term((("a", Input("u", "x", (IDLE,))),
                             ("b", Input("w", "x", (IDLE,)))))
    P, Q = flatten(two_inputs, env), flatten(two_inputs, env)
    assert weak_bisim(P, Q, env, GameConfig(universe=(1, True))).result == "bisimilar"


def test_distinguishing_context_single_output():
    env = DefEnv({"f": 1})
    P = flatten(graph_term((("v", Output("f", Lit(7), (NIL,))),)), env)
    Q = flatten(graph_term((("v", NIL),)), env)
    cfg = GameConfig(universe=(7,))
    vec, _ = stratified_bisim(P, Q, env, cfg, 1)
    assert vec[1] is False
    rep = distinguishing_context(P, Q, env, cfg, 1)
    assert rep.verified, rep.failures
    # the single-output case answers with an input prefix on the same symbol
    assert "f(x)" in term_str(rep.term)
    # context symbols are minted by priming, like hoisted restrictions
    assert {"d'", "c'", "g'"} <= set(rep.env.sig) and "DPump'" in rep.env.defs


def test_distinguishing_context_expansion_law():
    lhs, rhs, env = expansion_law_pair(DefEnv())
    cfg = GameConfig(universe=(1, 2))
    rep = distinguishing_context(lhs, rhs, env, cfg, 1)
    assert rep.verified, rep.failures
    assert rep.checked >= 1


def test_distinguishing_context_requires_inequivalence():
    env = DefEnv({"f": 1})
    P = flatten(graph_term((("v", IDLE),)), env)
    Q = flatten(graph_term((("v", IDLE),)), env)
    with pytest.raises(ValueError):
        distinguishing_context(P, Q, env, CFG, 2)


def test_deeper_distinguishing_context():
    # silence after one output vs a second output behind the first:
    # distinguished only at depth 2
    env = DefEnv({"f": 1, "g": 1})
    P = flatten(graph_term((("v", Output("f", Lit(1), (Output("g", Lit(2), (NIL,)),))),)),
                env)
    Q = flatten(graph_term((("v", Output("f", Lit(1), (NIL,))),)), env)
    cfg = GameConfig(universe=(1, 2))
    vec, _ = stratified_bisim(P, Q, env, cfg, 3)
    assert vec[1] is True and vec[2] is False
    rep = distinguishing_context(P, Q, env, cfg, 2)
    assert rep.verified, rep.failures


def test_inconclusive_on_truncation():
    env = DefEnv({"f": 1}, defs={
        "Pump": ((), Output("f", Lit(0), (Const("Pump", ()),))),
        "Grow": ((), Input("f", "x", (par(Const("Grow", ()), Const("Grow", ())),))),
    })
    P = flatten(par(Const("Pump", ()), Const("Grow", ())), env)
    Q = flatten(par(Const("Pump", ()), Const("Grow", ())), env)
    tiny = GameConfig(universe=(0,), max_states=4, max_tau_states=4, max_triples=6)
    barbed = weak_barbed_bisim(P, Q, env, tiny)
    assert barbed.result == "inconclusive"
    assert barbed.detail == "budget max_states=4 exhausted by the left reachable set"
    stuck = flatten(graph_term((("v", NIL),)), env)
    assert weak_barbed_bisim(stuck, Q, env, tiny).detail == \
        "budget max_states=4 exhausted by the right reachable set"
    weak = weak_bisim(P, Q, env, tiny)
    assert weak.result == "inconclusive" and "max_tau_states" in weak.detail
    stable = stabilized_stratified_verdict(P, Q, env, tiny)
    assert stable.result == "inconclusive" and "max_tau_states" in stable.detail
    assert stratified_bisim(P, Q, env, tiny, 2)[1] == "max_tau_states"
    # a triple budget trips on a game whose tau closures are all small
    env = parse_source(CYCLE_400.replace("399", "9"))
    L, R = flatten(env.processes["L"], env), flatten(env.processes["R"], env)
    few = GameConfig(universe=(0, 1), max_triples=3)
    weak = weak_bisim(L, R, env, few)
    assert weak.result == "inconclusive" and "max_triples" in weak.detail
    stable = stabilized_stratified_verdict(L, R, env, few)
    assert stable.result == "inconclusive" and "max_triples" in stable.detail


def test_triple_store_relabeling_invariant():
    from vccts.equivalence import BisimGame, joint_triple_key
    env = DefEnv({"f": 1})
    game = BisimGame(env, CFG)
    a1 = flatten(par(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,))), env)
    a2 = flatten(par(Input("f", "x", (IDLE,)), Output("f", Lit(1), (IDLE,))), env)
    b = flatten(graph_term((("v", NIL),)), env)
    full1 = frozenset((p, q) for p in a1.graph.vertices for q in b.graph.vertices)
    full2 = frozenset((p, q) for p in a2.graph.vertices for q in b.graph.vertices)
    assert joint_triple_key(a1, full1, b) == joint_triple_key(a2, full2, b)
    assert game.intern(a1, b) == game.intern(a2, b)
    # the pair is ordered: swapping the sides is another position
    assert game.intern(a1, b) != game.intern(b, a1)


def _triangles(k):
    triangles = " (+) ".join(["(~u(0).(*) | ~u(0).(*) | ~u(0).(*))"] * k)
    env = parse_source("symbol u/1;\nprocess P = %s;\n" % triangles)
    return flatten(env.processes["P"], env), env


def _weak_answers(game):
    """The memo's weak answers: its questions that are action multisets."""
    return [a for k, a in game._answers.items() if isinstance(k[1], tuple)]


def test_weak_answers_hold_one_target_per_class(monkeypatch):
    # six triangles under (+): the game keeps no location relation, so a
    # weak answer needs no residual and holds each target class once
    from vccts import llts
    P, env = _triangles(6)
    game = BisimGame(env, CFG)
    root = game.root(P, P)
    assert root not in game.greatest_fixpoint(root) and len(game.triples) == 500
    answers = _weak_answers(game)
    assert len(answers) == 83
    assert sum(len(targets) for targets, _status in answers) == 168
    calls = []
    real = llts.state_key_with_residual
    monkeypatch.setattr(llts, "state_key_with_residual",
                        lambda *args: calls.append(args) or real(*args))
    assert weak_bisim(P, P, env, CFG).result == "bisimilar"
    assert calls == []


def test_weak_bisim_asks_each_class_once(monkeypatch):
    # six triangles under (+): challenges and weak answers read one tau
    # closure and one list of visible steps per class, and every step
    # the game fires is one it keeps
    from vccts import equivalence, llts
    P, env = _triangles(6)
    asked = {"tau_closure": [], "visible_steps": [], "multi_transitions": []}
    for name, calls in asked.items():
        real = getattr(llts, name)
        for module in (m for m in (llts, equivalence) if hasattr(m, name)):
            monkeypatch.setattr(module, name, lambda s, *args, _calls=calls, _real=real:
                                _calls.append(s.key()) or _real(s, *args))
    fired = []
    real_fire = llts.fire_prefix
    monkeypatch.setattr(llts, "fire_prefix",
                        lambda *args: fired.append(args) or real_fire(*args))
    games = []

    class Recorded(BisimGame):
        def __init__(self, *args):
            super().__init__(*args)
            games.append(self)

    monkeypatch.setattr(equivalence, "BisimGame", Recorded)
    assert weak_bisim(P, P, env, CFG).result == "bisimilar"
    assert asked["multi_transitions"] == []
    for name in ("tau_closure", "visible_steps"):
        assert len(asked[name]) == len(set(asked[name]))
    assert len(asked["tau_closure"]) == 84
    (game,) = games
    kept = [steps for k, steps in game._answers.items() if k[1] == "visible"]
    assert len(fired) == sum(len(pairs) for steps in kept for pairs, _t in steps)
    answers = _weak_answers(game)
    assert len(answers) == 83
    assert sum(len(targets) for targets, _status in answers) == 168


def test_universe_repeats_and_order_do_not_change_verdicts():
    # weak answers enumerate early inputs over the configured universe,
    # so a repeated value must not repeat a step and the order of the
    # values must not change a verdict
    rng = random.Random(71)
    seen = set()
    for _ in range(40):
        P, Q, env = random_pair(rng)
        plain = weak_bisim(P, Q, env, GameConfig(universe=(0, 1)))
        twice = weak_bisim(P, Q, env, GameConfig(universe=(0, 0, 1, 1)))
        assert (twice.result, twice.detail) == (plain.result, plain.detail)
        assert weak_bisim(P, Q, env, GameConfig(universe=(1, 0))).result == plain.result
        seen.add(plain.result)
    assert {"bisimilar", "not"} <= seen


def test_compose_states_renames_clashing_restrictions():
    from vccts.syntax import Restrict
    env = DefEnv({"f": 1})
    left = flatten(Restrict(graph_term((("v", Input("f", "x", (IDLE,))),)),
                            frozenset({"f"})), env)
    right = flatten(Restrict(graph_term((("v", Output("f", Lit(1), (IDLE,))),)),
                             frozenset({"f"})), env)
    both = compose_states(left, right, "all", env)
    assert both.restricted == {"f", "f'"}
    # renamed apart: the once-blocked pair must stay inert
    from vccts.reduction import internal_steps
    assert internal_steps(both, env) == []


def test_barb_family_equality_helper():
    from vccts.netstate import satisfiable_barbs
    from vccts.syntax import Sum
    env = DefEnv({"f": 1, "g": 1})
    two = flatten(par(Output("f", Lit(1), (NIL,)), Output("g", Lit(2), (NIL,))), env)
    one = flatten(graph_term((("v", Sum(Output("f", Lit(1), (NIL,)),
                                        Output("g", Lit(2), (NIL,)))),)), env)
    assert satisfiable_barbs(two, env) != satisfiable_barbs(one, env)
    again = flatten(par(Output("f", Lit(1), (NIL,)), Output("g", Lit(2), (NIL,))), env)
    assert satisfiable_barbs(two, env) == satisfiable_barbs(again, env)


def test_receiver_count_distinguished_weakly_not_barbed():
    # an extra out-of-range receiver changes nothing for reductions and
    # barbs, but the simultaneous send+receive multiset exists only with
    # the unconnected receiver (an adjacent dual pair must communicate)
    env = DefEnv({"f": 1}, defs={
        "A1": ((), Output("f", Lit(5), (Const("A1", ()),))),
        "A2": ((), Input("f", "x", (Const("A2", ()),))),
        "A3": ((), Input("f", "x", (Const("A3", ()),))),
    })
    from vccts.syntax import oplus
    three = flatten(oplus(par(Const("A1", ()), Const("A2", ())), Const("A3", ())), env)
    two = flatten(par(Const("A1", ()), Const("A2", ())), env)
    cfg = GameConfig(universe=(5,))
    assert weak_barbed_bisim(three, two, env, cfg).result == "bisimilar"
    w = weak_bisim(three, two, env, cfg)
    assert w.result == "not"
    side, kind, label = w.witness[0]
    assert kind == "vis" and len(label) == 2
