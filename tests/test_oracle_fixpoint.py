"""Reference oracle for the weak bisimulation game solver: the plain
greatest-fixpoint rescan, which marks a triple dead once one of its
challenges has no live defender option and repeats until nothing
changes.  The solver's failure table must leave out exactly the
triples the rescan keeps alive."""

import math
import random

from vccts.equivalence import BisimGame, GameConfig
from vccts.netstate import flatten
from vccts.parser import parse_source

from gen import random_pair

CFG = GameConfig(universe=(0, 1))


def rescan(game):
    alive = {t.tid: True for t in game.triples}
    changed = True
    while changed:
        changed = False
        for t in game.triples:
            if not alive[t.tid]:
                continue
            for _side, _kind, _label, succs in t.challenges:
                if not any(alive[s] for s in succs):
                    alive[t.tid] = False
                    changed = True
                    break
    return alive


def cycle_src(n):
    return ("symbol u/1;\n"
            "def Cyc(n) = if n = %d then ~u(1).(Cyc(0)) else ~u(0).(Cyc(n + 1));\n"
            "def K = ~u(0).(K);\n"
            "process L = Cyc(0);\nprocess R = K;\n" % (n - 1))


def loop_sink_src(n):
    names = [("Loop", "Sink")[i % 2] for i in range(n)]
    return ("symbol k/2;\nsymbol u/1;\nsymbol w/1;\n"
            "def Loop = ~u(1).(Loop);\ndef Sink = u(x).(Sink);\n"
            "process Par = %s;\n" % " | ".join(names)
            + "process Oplus = %s;\n" % " (+) ".join(names))


def named_pair(src, left, right):
    env = parse_source(src)
    return flatten(env.processes[left], env), flatten(env.processes[right], env), env


def pairs():
    for seed in (83, 89):
        rng = random.Random(seed)
        for _ in range(30):
            yield random_pair(rng)
    for n in (5, 10, 40):
        yield named_pair(cycle_src(n), "L", "R")
    for n in (3, 4):
        yield named_pair(loop_sink_src(n), "Par", "Par")
        yield named_pair(loop_sink_src(n), "Par", "Oplus")


def test_failure_table_matches_rescan():
    verdicts = set()
    for P, Q, env in pairs():
        game = BisimGame(env, CFG)
        root = game.root(P, Q)
        fail_at = game.greatest_fixpoint(root)
        assert not game.truncated
        alive = rescan(game)
        for t in game.triples:
            assert alive[t.tid] == (t.tid not in fail_at)
            # a failing triple fails one level above its cheapest challenge
            levels = [1 + max((fail_at.get(s, math.inf) for s in succs), default=0)
                      for _side, _kind, _label, succs in t.challenges]
            assert fail_at.get(t.tid, math.inf) == min(levels, default=math.inf)
        verdicts.add(alive[root])
    assert verdicts == {True, False}
