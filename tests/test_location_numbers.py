"""Golden digest of the location numbers that firing, checking, exploring
and composing mint, so that a change to how parts are assembled cannot
renumber the states it builds unnoticed.

Each state numbers its own locations: a flattened state 1, 2, ..., a
firing's children from one past the largest location of the state it
fires, and a composition's right-hand state after its left-hand one.
The digest changed when locations stopped coming from one process-wide
counter: every number is now a function of its query alone, so the
numbers are read as they are, and the count of locations a decompose
check minted, which only that counter could tell, left the digest."""

import hashlib
import random

from vccts import syntax
from vccts.equivalence import compose_states
from vccts.llts import VisLabel, decompose_check, multi_transitions
from vccts.netstate import flatten
from vccts.reduction import reachable

from gen import base_env, random_process_term
from verdict_dump import map_prefix_children, widened

DIGEST = "0a5e288f72deee88f138aaf1b75acaf0828532f32c0af14505d13aa53baa1014"


def location_digest() -> str:
    out = []

    def state(s):
        out.append(sorted(s.graph.vertices))
        out.append(sorted(s.graph.edges))

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
                out.append(sorted(step.residual.items()))
                out.append(sorted([sorted(locs) for locs in label.lvec]
                                  for label in step.labels.elements()
                                  if isinstance(label, VisLabel)))
            checked, failures = decompose_check(s, env, (0, 1))
            out.append((checked, len(failures)))
            for t in reachable(s, env, max_states=50).states.values():
                state(t)
            state(compose_states(s, flatten(term, env), "all", env))
    return hashlib.sha256(repr(out).encode()).hexdigest()


def test_location_numbers_are_unchanged():
    assert location_digest() == DIGEST
