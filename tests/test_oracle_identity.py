"""Differential check of the rule that decides a pair `bisimilar` without
a game when its two sides are one class up to inert locations (locations
whose every head is idle or nil).

Pairs: a random process against a copy with its places shuffled and
renamed, against its places with fewer links, and against an unrelated
random process; each side gets 0-2 inert places
(`*`, `0`, `* + 0`) wired at random.  Wherever the rule fires, the
reference pair-game of `test_oracle_bisim` must say bisimilar, and so
must the barbed refinement run with the rule switched off.  Then the
in-game rule on a position whose two sides are one representative, and
the scale rows the rule decides at the root."""

import random
import time

import pytest

from vccts import equivalence
from vccts.equivalence import (
    BisimGame, GameConfig, stratified_bisim, weak_barbed_bisim, weak_bisim,
)
from vccts.netstate import flatten
from vccts.parser import parse_source
from vccts.syntax import GraphTerm, IDLE, NIL, Sum

from gen import base_env, random_process_term
from test_oracle_bisim import reference_weak_bisim

CFG = GameConfig(universe=(0, 1))
INERT = (IDLE, NIL, Sum(IDLE, NIL))


def padded(term, rng, shuffle):
    """`term` with 0-2 inert places added and wired at random, its places
    renamed and, if `shuffle`, listed in random order."""
    names = {v: "p%d" % i for i, (v, _t) in enumerate(term.places)}
    places = [(names[v], t) for v, t in term.places]
    links = {(names[a], names[b]) for a, b in term.links}
    for i in range(rng.randint(0, 2)):
        inert = "i%d" % i
        links |= {(inert, v) for v, _t in places if rng.random() < 0.5}
        places.append((inert, rng.choice(INERT)))
    if shuffle:
        rng.shuffle(places)
    return GraphTerm(tuple(places), frozenset(links))


def pairs(seed, count):
    rng = random.Random(seed)
    env = base_env()
    for _ in range(count):
        left = random_process_term(rng, max_components=2, depth=1,
                                   allow_recursion=rng.random() < 0.3)
        roll = rng.random()
        if roll < 0.6:
            right = left
        elif roll < 0.8:
            # the same places, wired at random
            right = GraphTerm(left.places, frozenset(
                link for link in left.links if rng.random() < 0.5))
        else:
            right = random_process_term(rng, max_components=2, depth=1,
                                        allow_recursion=rng.random() < 0.3)
        yield (flatten(padded(left, rng, False), env),
               flatten(padded(right, rng, True), env), env)


@pytest.mark.parametrize("seed", (5, 7))
def test_every_hit_is_bisimilar(seed, monkeypatch):
    hits = []
    for P, Q, env in pairs(seed, 180):
        if equivalence._one_class(P, Q, env):
            hits.append((P, Q, env))
    assert len(hits) >= 100
    monkeypatch.setattr(equivalence, "_one_class", lambda P, Q, env: None)
    for P, Q, env in hits:
        assert reference_weak_bisim(P, Q, env), (P.pretty(), Q.pretty())
        assert weak_barbed_bisim(P, Q, env, CFG).result == "bisimilar"


def test_hits_name_the_rule_and_skip_the_game(monkeypatch):
    P, Q, env = next((P, Q, env) for P, Q, env in pairs(5, 100)
                     if P.key() != Q.key() and equivalence._one_class(P, Q, env))
    monkeypatch.setattr(equivalence, "BisimGame", None)     # neither game
    monkeypatch.setattr(equivalence, "reachable", None)     # nor refinement runs
    for verdict in (weak_bisim(P, Q, env, CFG), weak_barbed_bisim(P, Q, env, CFG)):
        assert (verdict.result, verdict.detail) == \
            ("bisimilar", "one class up to inert locations")
    assert stratified_bisim(P, Q, env, CFG, 3) == ([True] * 4, None)


LOOPS = """\
symbol u/1;
symbol w/1;
def Loop = ~u(1).(Loop);
process L = w(x).(Loop) + w(x).(Loop | *);
process R = w(x).(Loop);
"""


def test_identical_position_has_no_challenges():
    env = parse_source(LOOPS)
    L, R = flatten(env.processes["L"], env), flatten(env.processes["R"], env)
    game = BisimGame(env, CFG)
    root = game.root(L, R)
    fail_at = game.greatest_fixpoint(root)
    same = [t for t in game.triples if t.left is t.right]
    assert same and all(t.challenges == [] and t.tid not in fail_at for t in same)
    assert any(t.challenges for t in game.triples)
    assert (weak_bisim(L, R, env, CFG).result == "bisimilar") == \
        reference_weak_bisim(L, R, env)


def _scale_rows():
    triangle = "(~u(0).(*) | ~u(0).(*) | ~u(0).(*))"
    pair = "(~u(0).(0) | u(x).(0))"
    src = "symbol u/1;\nprocess T = %s;\nprocess Ts = %s;\nprocess K = %s;\n" % (
        " (+) ".join([triangle] * 16), " (+) ".join([triangle] * 16 + ["*"]),
        " (+) ".join([pair] * 12))
    env = parse_source(src)
    T, Ts, K = (flatten(env.processes[n], env) for n in ("T", "Ts", "K"))
    return [(T, Ts, env), (K, flatten(env.processes["K"], env), env)]


@pytest.mark.parametrize("decider", (weak_bisim, weak_barbed_bisim))
def test_scale_rows_are_decided_at_the_root(decider):
    for P, Q, env in _scale_rows():
        t0 = time.perf_counter()
        verdict = decider(P, Q, env, CFG)
        assert time.perf_counter() - t0 < 1.0
        assert verdict.result == "bisimilar", verdict.detail
