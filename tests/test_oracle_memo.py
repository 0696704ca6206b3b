"""Differential check of the game memo: an answer carried to an isomorphic
state through the zip of the two canonical orders must equal the answer
computed afresh on that state.  Targets are compared up to isomorphism
that respects their residual into the asking state, so a wrong location
map shows up as a different key."""

import random
from collections import defaultdict

from vccts.equivalence import BisimGame, GameConfig
from vccts.llts import state_key_with_residual, weak_transitions
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


def _weak_set(results):
    return {(state_key_with_residual(r.target, r.residual),
             tuple(sorted(r.matched, key=lambda t: (repr(t[0]), t[1]))))
            for r in results}


def _challenge_set(challenges):
    return {(kind, pairs, state_key_with_residual(target, lam))
            for kind, pairs, lam, target in challenges}


def carried_questions(game):
    """Triple sides whose stored answers were computed on another state."""
    stored = defaultdict(list)
    for key, value in game._answers.items():
        if isinstance(key, tuple) and len(key) == 2:
            stored[key[0]].append((key[1], value[0]))
    sides = {id(s): s for t in game.triples for s in (t.left, t.right)}
    for s in sides.values():
        for question, src in stored[s.key()]:
            if src is not s:
                yield s, question


def test_carried_answers_equal_fresh_ones():
    for family, pairs in families():
        carried = 0
        for P, Q, env in pairs:
            game = BisimGame(env, CFG)
            game.greatest_fixpoint(game.root(P, Q))
            assert game.truncated is None, family
            for s, question in carried_questions(game):
                carried += 1
                if question == "challenges":
                    assert _challenge_set(game._challenges(s)) == \
                        _challenge_set(game._challenges_of(s)), family
                    continue
                results, status = game._weak(s, list(question))
                fresh, fresh_status = weak_transitions(s, env, list(question),
                                                       CFG.max_tau_states)
                assert status == fresh_status, family
                assert _weak_set(results) == _weak_set(fresh), family
        assert carried, family
