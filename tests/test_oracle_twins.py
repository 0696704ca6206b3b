"""Oracle for orbit enumeration: `reachable`, the game's tau challenges
and `visible_steps` fire one move per orbit of twin swaps
(`NetState.twins`), and must lose nothing a full enumeration finds.

The reference twins are found by brute force: two locations hold one
term, the transposition of the two maps the edge set onto itself, and
the term restricts no name anywhere (a child that restricts a name
is spelled by firing order).  An orbit under swaps of twins is known by
its signature: the firings at locations outside every class as they
are, and per class the multiset of its members' choices.  So the
reference keeps the first move of each signature, in the full
enumeration's order, and checks that every move it drops carries the
same actions to the same class as the kept one, and that the first move
of each (actions, target class) group is kept.  Moves related by other
symmetries, such as two equal summands at one location, or two
isomorphic blocks of copies that are not twins, are all kept.
"""

import random
from collections import Counter

import pytest

from vccts import reduction
from vccts.equivalence import GameConfig, stratified_bisim, weak_barbed_bisim, weak_bisim
from vccts.llts import TAU, action_key, multi_transitions, visible_steps
from vccts.netstate import NetState, flatten
from vccts.reduction import comm_redexes, internal_steps, reachable
from vccts.syntax import IDLE, Const, Input, Output, Sum, graph_term, term_str
from vccts.values import Lit

from gen import random_twin_term, twin_env, twin_pair

SEEDS = (1, 2)
UNIVERSE = (0, 1)


def reference_twins(state):
    """Location -> its class, by brute force over transpositions."""
    edges = state.graph.edges

    def swap_fixes_edges(p, q):
        swap = {p: q, q: p}
        return {tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in edges} == edges

    out = {}
    for p in state.locations():
        cls = tuple(q for q in state.locations()
                    if state.comp[q] is state.comp[p] and (q == p or swap_fixes_edges(p, q))
                    and "restrict" not in term_str(state.comp[p]))
        if len(cls) > 1:
            out[p] = cls
    return out


def twin_states():
    """Loop/Sink and three copies of a sum that talks to itself, linked
    and unlinked, then 100 `random_twin_term` states per seed."""
    env = twin_env()
    talker = Sum(Input("u", "x", (IDLE,)), Output("u", Lit(1), (IDLE,)))
    for comps in ([Const("Loop", ()), Const("Sink", ())] * 2, [talker] * 3):
        places = [("v%d" % i, t) for i, t in enumerate(comps)]
        names = [v for v, _t in places]
        for links in ([(a, b) for i, a in enumerate(names) for b in names[i + 1:]], []):
            yield flatten(graph_term(places, links), env), env
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(100):
            yield flatten(random_twin_term(rng), env), env


def _first_per(items, signature):
    """The items whose signature no earlier item has, in order."""
    seen = set()
    return [x for x in items if not (signature(x) in seen or seen.add(signature(x)))]


def test_visible_steps_fire_one_step_per_orbit():
    reduced = 0
    for s, env in twin_states():
        twins = reference_twins(s)
        width = min(4, len(s.comp))
        full = [st for st in multi_transitions(s, env, UNIVERSE, width)
                if TAU not in st.labels.elements()]

        def orbit(step):
            fixed = frozenset((f.loc, f.index, f.action) for f in step.firings
                              if f.loc not in twins)
            moved = Counter((twins[f.loc], f.index, f.action) for f in step.firings
                            if f.loc in twins)
            return fixed, frozenset(moved.items())

        def group(step):
            return action_key(f.action for f in step.firings), step.target.key()

        kept = _first_per(full, orbit)
        first_of = {}
        for step in full:
            first_of.setdefault(orbit(step), step)
            assert group(first_of[orbit(step)]) == group(step)

        def shape(pairs, target):
            return sorted(pairs, key=lambda t: (repr(t[0]), str(t[1]))), target.key()

        got = [shape(pairs, target) for pairs, target in visible_steps(s, env, UNIVERSE, width)]
        assert got == [shape([(f.action, f.loc) for f in st.firings], st.target) for st in kept]
        # the first step of each (action multiset, target class) group is kept
        kept_ids = set(map(id, kept))
        assert all(id(step) in kept_ids for step in _first_per(full, group))
        reduced += len(full) - len(kept)
    assert reduced > 1000


def test_reachable_fires_one_redex_per_orbit(monkeypatch):
    fired = []
    real = reduction.fire_comm
    monkeypatch.setattr(reduction, "fire_comm", lambda state, p, q, i, j, env: (
        fired.append((state, (p, q, i, j))) or real(state, p, q, i, j, env)))
    dropped = 0
    for s, env in twin_states():
        fired.clear()
        reach = reachable(s, env, 60)
        by_state = {}
        for state, redex in fired:
            by_state.setdefault(id(state), []).append(redex)
        for state in reach.states.values():
            twins = reference_twins(state)
            redexes = [r[:4] for r in comm_redexes(state, env)]
            target = {r: real(state, *r, env)[0].key() for r in redexes}

            def orbit(r):
                p, q, i, j = r
                return twins.get(p, p), twins.get(q, q), i, j

            kept = _first_per(redexes, orbit)
            assert by_state.get(id(state), []) == kept
            for r in redexes:
                assert target[r] == target[next(k for k in kept if orbit(k) == orbit(r))]
            # the first redex of each target class is fired
            assert set(_first_per(redexes, target.get)) <= set(kept)
            dropped += len(redexes) - len(kept)
    assert dropped > 100


def full_reachable(state, env, max_states):
    """`reachable` firing every internal step."""
    states, successors, parents = {state.key(): state}, {}, {state.key(): None}
    frontier, status = [state.key()], "complete"
    for key in frontier:
        succ = set()
        for step in internal_steps(states[key], env):
            tk = step.target.key()
            if tk not in states:
                if len(states) >= max_states:
                    status = "truncated"
                    continue
                states[tk] = step.target
                parents[tk] = (key, step.fired)
                frontier.append(tk)
            succ.add(tk)
        successors[key] = sorted(succ)
    return states, successors, parents, status


def test_reachable_equals_the_full_enumeration():
    for s, env in twin_states():
        for bound in (7, 60):
            reach = reachable(s, env, bound)
            states, successors, parents, status = full_reachable(s, env, bound)
            assert list(reach.states) == list(states)
            assert [st.to_json() for st in reach.states.values()] == \
                [st.to_json() for st in states.values()]
            assert (reach.successors, reach.parents, reach.status) == \
                (successors, parents, status)


def _verdicts(P, Q, env, cfg):
    out = []
    for decide in (weak_bisim, weak_barbed_bisim):
        v = decide(P, Q, env, cfg)
        out.append((v.result, v.detail, v.witness))
    out.append(stratified_bisim(P, Q, env, cfg, 4))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_game_verdicts_do_not_depend_on_orbits(seed, monkeypatch):
    rng = random.Random(seed)
    cfg = GameConfig(universe=UNIVERSE, max_width=2, max_tau_states=40, max_states=40,
                     max_triples=60)
    pairs = [twin_pair(rng) for _ in range(50)]
    with_orbits = [_verdicts(P, Q, env, cfg) for P, Q, env in pairs]
    monkeypatch.setattr(NetState, "twins", lambda self, env: {})
    assert with_orbits == [_verdicts(P, Q, env, cfg) for P, Q, env in pairs]
    assert {v[0][0] for v in with_orbits} >= {"bisimilar", "not"}
