"""Differential check of the game decider against a naive reference: a
greatest fixpoint over plain state pairs where a challenger move is a tau
step or a pure-visible multiset and the defender answers with a weak
(tau* . multiset . tau*) composite carrying the same action multiset.
The decider plays over pairs of class representatives, since from the
full location relation the localized side condition never restricts
anything (residual maps are total); the reference shares no code with it
beyond the step functions, so the two must agree on every verdict."""

import random
from collections import Counter

from vccts.llts import TAU, multi_transitions
from vccts.equivalence import GameConfig, weak_bisim
from vccts.reduction import internal_steps

from gen import random_pair


def _tau_successors(state, env, store):
    out = set()
    for step in internal_steps(state, env):
        key = step.target.key()
        store.setdefault(key, step.target)
        out.add(key)
    return out


def _tau_star(key, env, store, bound=400):
    seen = {key}
    frontier = [key]
    while frontier:
        cur = frontier.pop()
        for nxt in _tau_successors(store[cur], env, store):
            if nxt not in seen:
                if len(seen) >= bound:
                    raise RuntimeError("oracle bound hit")
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def _visible_moves(key, env, store, universe, width):
    """(action multiset, target key) for every pure-visible multi-step."""
    state = store[key]
    out = []
    for step in multi_transitions(state, env, universe,
                                  min(width, len(state.graph.vertices))):
        labels = step.labels.elements()
        if any(l is TAU for l in labels):
            continue
        acts = frozenset(Counter(l.action for l in labels).items())
        tk = step.target.key()
        store.setdefault(tk, step.target)
        out.append((acts, tk))
    return out


def reference_weak_bisim(P, Q, env, universe=(0, 1), width=4):
    store = {P.key(): P, Q.key(): Q}
    stars = {}
    vises = {}

    def star(key):
        if key not in stars:
            stars[key] = frozenset(_tau_star(key, env, store))
        return stars[key]

    def vis(key):
        if key not in vises:
            vises[key] = _visible_moves(key, env, store, universe, width)
        return vises[key]

    def weak_answers(key, acts):
        """All targets of tau* . acts-multiset . tau* from key."""
        outs = set()
        for mid in star(key):
            for got, tk in vis(mid):
                if got == acts:
                    outs |= star(tk)
        return outs

    # explore both sides fully first
    left = set(star(P.key()))
    right = set(star(Q.key()))
    grew = True
    while grew:
        grew = False
        for side in (left, right):
            for key in list(side):
                for _acts, tk in vis(key):
                    closure = star(tk)
                    if not closure <= side:
                        side |= closure
                        grew = True

    alive = {(a, b): True for a in left for b in right}

    def ok(a, b):
        # tau challenges
        for a2 in _tau_successors(store[a], env, store):
            if not any(alive.get((a2, b2), False) for b2 in star(b)):
                return False
        for b2 in _tau_successors(store[b], env, store):
            if not any(alive.get((a2, b2), False) for a2 in star(a)):
                return False
        # visible multiset challenges
        for acts, a2 in vis(a):
            if not any(alive.get((a2, b2), False) for b2 in weak_answers(b, acts)):
                return False
        for acts, b2 in vis(b):
            if not any(alive.get((a2, b2), False) for a2 in weak_answers(a, acts)):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair, live in list(alive.items()):
            if live and not ok(*pair):
                alive[pair] = False
                changed = True
    return alive.get((P.key(), Q.key()), False)


def test_reference_agrees_on_random_pairs():
    rng = random.Random(211)
    cfg = GameConfig(universe=(0, 1))
    agreements = 0
    for _ in range(40):
        P, Q, env = random_pair(rng)
        got = weak_bisim(P, Q, env, cfg)
        assert got.result in ("bisimilar", "not")
        want = reference_weak_bisim(P, Q, env)
        assert (got.result == "bisimilar") == want, (got.result, want)
        agreements += 1
    assert agreements == 40


def test_reference_agrees_on_known_examples():
    from vccts.encodings import expansion_law_pair, vccs_compose
    from vccts.syntax import DefEnv, NIL, Output
    from vccts.values import Lit
    lhs, rhs, env = expansion_law_pair(DefEnv())
    assert reference_weak_bisim(lhs, rhs, env, universe=(1, 2)) is False
    env2 = DefEnv({"f": 1, "g": 1})
    mk = lambda: vccs_compose([Output("f", Lit(1), (NIL,)),
                               Output("g", Lit(2), (NIL,))], (), env2)
    assert reference_weak_bisim(mk(), mk(), env2, universe=(1, 2)) is True
