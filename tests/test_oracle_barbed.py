"""Differential check of the refinement decider for weak barbed
bisimilarity against the pairwise rescan it replaced: start from every
pair of states whose reachable barb sets agree, then drop a pair while
some descendant of one side has no surviving partner among the other
side's descendants.  Both compute the greatest weak barbed bisimulation
between the two reachable sets, so they must agree on every verdict."""

import random

from vccts.equivalence import GameConfig, weak_barbed_bisim
from vccts.netstate import flatten, satisfiable_barbs
from vccts.parser import parse_source
from vccts.reduction import reachable

from gen import base_env, random_pair, random_process_term

CFG = GameConfig(universe=(0, 1))


def reference_barbed_verdict(P, Q, env, cfg=CFG):
    sides = []
    for state in (P, Q):
        r = reachable(state, env, cfg.max_states)
        assert r.status == "complete"
        desc, sat = {}, {}
        for key in r.states:
            seen, stack = {key}, [key]
            while stack:
                for nxt in r.successors[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            desc[key] = seen
        for key in r.states:
            sat[key] = frozenset().union(
                *(satisfiable_barbs(r.states[d], env) for d in desc[key]))
        sides.append((r.initial, desc, sat))
    (p0, desc_p, sat_p), (q0, desc_q, sat_q) = sides
    alive = {(a, b) for a in desc_p for b in desc_q if sat_p[a] == sat_q[b]}
    changed = True
    while changed:
        changed = False
        for a, b in list(alive):
            left = any(all((a2, b2) not in alive for b2 in desc_q[b]) for a2 in desc_p[a])
            right = any(all((a2, b2) not in alive for a2 in desc_p[a]) for b2 in desc_q[b])
            if left or right:
                alive.discard((a, b))
                changed = True
    return "bisimilar" if (p0, q0) in alive else "not"


def _check(P, Q, env):
    verdict = weak_barbed_bisim(P, Q, env, CFG)
    assert verdict.result == reference_barbed_verdict(P, Q, env)
    if verdict.result == "not":
        play = verdict.witness
        assert play[-1][0] == "barb" and play[-1][1]
        assert all(step == ("moves", "left") or step == ("moves", "right")
                   for step in play[:-1])
    return verdict


def test_refinement_agrees_with_rescan_on_generated_pairs():
    seen = []
    for seed in (71, 73):
        rng = random.Random(seed)
        for i in range(80):
            if i % 4 == 3:
                # unrelated processes, some recursive
                env = base_env()
                P, Q = (flatten(random_process_term(rng, max_components=2, depth=2,
                                                    allow_recursion=True), env)
                        for _ in range(2))
            else:
                P, Q, env = random_pair(rng)
            seen.append(_check(P, Q, env).result)
            assert _check(Q, P, env).result == seen[-1]
    assert len(seen) >= 150 and set(seen) == {"bisimilar", "not"}


def counter_src(m, n):
    """C(0) | S against D(0) | S, where C counts to m and D to n before
    the barb ~w."""
    def counter(name, k):
        return ("def %s(n) = if n = %d then ~w(1).(0) else ~u(n).(%s(n + 1));\n"
                % (name, k, name))
    return ("symbol u/1;\nsymbol w/1;\n" + counter("C", m) + counter("D", n)
            + "def S = u(x).(S);\n"
            + "process L = C(0) | S;\nprocess R = D(0) | S;\n")


def _pair(src):
    env = parse_source(src)
    return flatten(env.processes["L"], env), flatten(env.processes["R"], env), env


def test_refinement_agrees_with_rescan_on_counters():
    for m, n in [(k, k) for k in range(11)] + [(0, 3), (2, 5), (4, 9), (10, 1)]:
        P, Q, env = _pair(counter_src(m, n))
        _check(P, Q, env)
        _check(Q, P, env)


MOVE_DECIDED = """symbol u/1;
symbol f/1;
symbol g/1;
process L = graph { v: ~u(0).(*); w: u(x).(~f(1).(0)) + u(x).(~g(1).(0));
                    edges { v -- w } };
process R = graph { v: ~u(0).(*); w: u(x).(~f(1).(0) + ~g(1).(0));
                    edges { v -- w } };
"""


def test_move_decided_pair_plays_one_move_then_a_barb():
    # the roots show the same barbs; only choosing a branch early tells
    # them apart, so the play starts with a move
    P, Q, env = _pair(MOVE_DECIDED)
    for left, right, barb in ((P, Q, "(~g,)"), (Q, P, "(u,)")):
        play = _check(left, right, env).witness
        assert repr(play) == "[('moves', 'left'), ('barb', %s)]" % barb


def ring(name, size, exit_at=None, exit_to="~w(1).(0)"):
    """Constant name(n) stepping around a ring of size states by outputs
    on u; at position exit_at it may instead leave the ring for exit_to."""
    arms = []
    for k in range(size):
        arm = "~u(%d).(%s(%d))" % (k, name, (k + 1) % size)
        arms.append(arm + (" + ~u(9).(%s)" % exit_to if k == exit_at else ""))
    body = arms[-1]
    for k in reversed(range(size - 1)):
        body = "if n = %d then %s else %s" % (k, arms[k], body)
    return "def %s(n) = %s;\n" % (name, body)


def ring_pair(left, right):
    """Each side is (definitions, process) run beside the receiver Sink."""
    return _pair("symbol u/1;\nsymbol w/1;\ndef Sink = u(x).(Sink);\n"
                 + left[0] + (right[0] if right != left else "")
                 + "process L = %s | Sink;\nprocess R = %s | Sink;\n"
                 % (left[1], right[1]))


def test_refinement_agrees_with_rescan_on_rings():
    # reduction graphs whose strongly connected components hold 2 to 12
    # states: rings, rings with one exit to the barb ~w or to a dead end,
    # two rings side by side, and counters that end in ~w
    sides = [(ring("A", 2), "A(0)"), (ring("B", 3), "B(0)"),
             (ring("C", 3, 0), "C(0)"), (ring("E", 4, 2), "E(0)"),
             (ring("F", 3, 1, "0"), "F(0)"), (ring("G", 2, 1, "0"), "G(0)"),
             (ring("H", 2) + ring("I", 3, 2), "H(0) | I(0)"),
             (ring("J", 4) + ring("K", 3), "J(0) | K(0)")]
    for n in (0, 5, 12):
        sides.append(("def D%d(n) = if n = %d then ~w(1).(0) else ~u(n).(D%d(n + 1));\n"
                      % (n, n, n), "D%d(0)" % n))
    results, plays = set(), []
    for i, left in enumerate(sides):
        for right in sides[i:]:
            P, Q, env = ring_pair(left, right)
            for verdict in (_check(P, Q, env), _check(Q, P, env)):
                results.add(verdict.result)
                plays.append(verdict.witness or [])
    assert results == {"bisimilar", "not"}
    assert any(len(play) > 1 for play in plays)
