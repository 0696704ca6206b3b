"""The completeness half of full abstraction, as a differential oracle:
for every pair that weak bisimilarity tells apart, the distinguishing
context built at the root's least failing level must separate the pair
under weak barbed bisimilarity against every derivative of the defender."""

import random

from vccts.equivalence import (
    BisimGame, GameConfig, distinguishing_context, weak_bisim,
)

from gen import output_chain_pair, random_pair

CFG = GameConfig(universe=(0, 1))


def pairs():
    for seed in (5, 7):
        rng = random.Random(seed)
        for _ in range(50):
            yield random_pair(rng)
    for n in range(2, 6):
        yield output_chain_pair(n)


def test_every_distinction_has_a_verified_context():
    results, depths = [], set()
    for P, Q, env in pairs():
        verdict = weak_bisim(P, Q, env, CFG)
        results.append(verdict.result)
        if verdict.result != "not":
            continue
        game = BisimGame(env, CFG)
        root = game.root(P, Q)
        depth = game.greatest_fixpoint(root)[root]
        depths.add(depth)
        report = distinguishing_context(P, Q, env, CFG, depth)
        assert report.verified, (depth, report.failures)
    assert results.count("inconclusive") == 0
    assert results.count("not") >= 40 and results.count("bisimilar") >= 20
    assert depths >= {1, 2, 3, 4, 5}
