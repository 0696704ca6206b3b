"""Golden digest of the location numbers that firing, checking, exploring
and composing mint, so that a change to how parts are assembled cannot
renumber the states it builds unnoticed.

Every number is taken as an offset from the process-wide location
counter's value at the start of the test, so the digest does not depend
on what ran before it."""

import hashlib
import random

from vccts import netstate, syntax
from vccts.equivalence import compose_states
from vccts.llts import VisLabel, decompose_check, multi_transitions
from vccts.netstate import flatten
from vccts.reduction import reachable

from gen import base_env, random_process_term
from verdict_dump import map_prefix_children, widened

DIGEST = "64ff36b9cb03b56f2d2c58d81a0c2ddd00e14a5086c3e2aed06a026aa83de540"


def location_digest() -> str:
    base = next(netstate._location_counter)
    out = []

    def state(s):
        out.append(sorted(p - base for p in s.graph.vertices))
        out.append(sorted((a - base, b - base) for a, b in s.graph.edges))

    env = base_env()
    for seed in (83, 89):
        rng = random.Random(seed)
        for _ in range(150):
            term = random_process_term(rng)
            if rng.random() < 0.5:
                # spawned parts of several locations, linked inside
                term = syntax.GraphTerm(
                    tuple((v, map_prefix_children(t, lambda c: widened(c, rng, syntax), syntax))
                          for v, t in term.places), term.links)
            s = flatten(term, env)
            state(s)
            for step in multi_transitions(s, env, (0, 1)):
                state(step.target)
                out.append(sorted((p - base, r - base) for p, r in step.residual.items()))
                out.append(sorted([sorted(x - base for x in locs) for locs in label.lvec]
                                  for label in step.labels.elements()
                                  if isinstance(label, VisLabel)))
            checked, failures = decompose_check(s, env, (0, 1))
            out.append((checked, len(failures), next(netstate._location_counter) - base))
            for t in reachable(s, env, max_states=50).states.values():
                state(t)
            state(compose_states(s, flatten(term, env), "all", env))
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_location_numbers_are_unchanged():
    assert location_digest() == DIGEST
