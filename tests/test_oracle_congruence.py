"""The soundness half of full abstraction, as a differential oracle: weak
bisimilarity is a congruence, so every pair it calls bisimilar must stay
weak barbed bisimilar inside the same context R, whether R is linked to
every location of the pair (the | composition) or to none (oplus)."""

import random

from vccts.equivalence import GameConfig, compose_states, weak_barbed_bisim, weak_bisim
from vccts.netstate import flatten

from gen import random_pair, random_process_term

CFG = GameConfig(universe=(0, 1))


def test_bisimilar_pairs_stay_barbed_bisimilar_in_every_context():
    checks = 0
    for seed in (5, 7):
        rng, contexts = random.Random(seed), random.Random(seed + 1000)
        for _ in range(50):
            P, Q, env = random_pair(rng)
            if weak_bisim(P, Q, env, CFG).result != "bisimilar":
                continue
            R = random_process_term(contexts, max_components=2, depth=1,
                                    allow_recursion=True)
            for cross in ("all", ()):
                left = compose_states(P, flatten(R, env), cross, env)
                right = compose_states(Q, flatten(R, env), cross, env)
                verdict = weak_barbed_bisim(left, right, env, CFG)
                assert verdict.result == "bisimilar", (seed, cross, verdict.detail)
                checks += 1
    assert checks >= 40
