"""Differential check of pair interning: `BisimGame.intern` looks each
side up by its class representative's key.  The joint-graph key, which
joins both sides by the full location relation |left| x |right| and keys
the result as one graph, is the reference: every incoming pair must get
the id of a stored pair with the same joint key, and no two stored pairs
may share one."""

import random

from vccts.equivalence import BisimGame, GameConfig, joint_triple_key
from vccts.netstate import flatten
from vccts.parser import parse_source

from gen import random_pair

CFG = GameConfig(universe=(0, 1))

LOOP_SINK = """\
symbol k/2;
symbol u/1;
symbol w/1;
def Loop = ~u(1).(Loop);
def Sink = u(x).(Sink);
process Par = %s;
process Oplus = %s;
"""

CYCLE = """\
symbol u/1;
def Cyc(n) = if n = %d then ~u(1).(Cyc(0)) else ~u(0).(Cyc(n + 1));
def K = ~u(0).(K);
process L = Cyc(0);
process R = K;
"""


def _parsed(src, left, right):
    env = parse_source(src)
    return (flatten(env.processes[left], env), flatten(env.processes[right], env), env)


def families():
    rng = {seed: random.Random(seed) for seed in (13, 17)}
    yield "random", [random_pair(rng[seed]) for seed in (13, 17) for _ in range(30)]
    loop_sink = []
    for n in (3, 4):
        names = [("Loop", "Sink")[i % 2] for i in range(n)]
        src = LOOP_SINK % (" | ".join(names), " (+) ".join(names))
        loop_sink += [_parsed(src, "Par", "Par"), _parsed(src, "Par", "Oplus")]
    yield "loop-sink", loop_sink
    yield "cycle", [_parsed(CYCLE % (n - 1), "L", "R") for n in (5, 40)]


def _full(left, right):
    return {(p, q) for p in left.graph.vertices for q in right.graph.vertices}


def test_intern_ids_equal_joint_graph_classes(monkeypatch):
    calls = []
    real = BisimGame.intern

    def spy(game, left, right):
        tid = real(game, left, right)
        calls.append((joint_triple_key(left, _full(left, right), right), tid))
        return tid

    monkeypatch.setattr(BisimGame, "intern", spy)
    for family, pairs in families():
        for P, Q, env in pairs:
            calls.clear()
            game = BisimGame(env, CFG)
            game.greatest_fixpoint(game.root(P, Q))
            assert game.truncated is None, family
            stored = [joint_triple_key(t.left, _full(t.left, t.right), t.right)
                      for t in game.triples]
            assert len(set(stored)) == len(stored), family
            assert len(calls) >= len(stored), family
            for key, tid in calls:
                assert key == stored[tid], family
