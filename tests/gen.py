"""Seeded generators for the property suites: small finite-state
canonical processes, runtime states, and recognized tree/automaton
instances."""

from __future__ import annotations

import random

from vccts.encodings import LEAF, SigmaTree, tree_automaton
from vccts.netstate import flatten
from vccts.syntax import (
    Const, DefEnv, GraphTerm, IDLE, Input, NIL, Output, Restrict, Sum, graph_term,
)
from vccts.values import Lit

BASE_SIG = {"u": 1, "w": 1, "k": 2}


def base_env() -> DefEnv:
    return DefEnv(BASE_SIG, defs={
        "Loop": ((), Output("u", Lit(1), (Const("Loop", ()),))),
        "Sink": ((), Input("u", "x", (Const("Sink", ()),))),
    })


def random_child(rng: random.Random, depth: int):
    if depth <= 0:
        return rng.choice((IDLE, IDLE, NIL))
    return random_guarded_sum(rng, depth - 1, allow_sum=False)


def random_prefix(rng: random.Random, depth: int):
    sym = rng.choice(sorted(BASE_SIG))
    arity = BASE_SIG[sym]
    children = tuple(random_child(rng, depth) for _ in range(arity))
    if rng.random() < 0.5:
        return Input(sym, "x", children)
    return Output(sym, Lit(rng.choice((0, 1))), children)


def random_guarded_sum(rng: random.Random, depth: int, allow_sum=True):
    term = random_prefix(rng, depth)
    if allow_sum and rng.random() < 0.3:
        term = Sum(term, random_prefix(rng, depth))
    if rng.random() < 0.1:
        term = Sum(term, rng.choice((IDLE, NIL)))
    return term


def random_process_term(rng: random.Random, max_components=3, depth=2,
                        allow_recursion=False):
    n = rng.randint(1, max_components)
    places = []
    for i in range(n):
        if allow_recursion and rng.random() < 0.2:
            places.append(("v%d" % i, Const(rng.choice(("Loop", "Sink")), ())))
        else:
            places.append(("v%d" % i, random_guarded_sum(rng, depth)))
    links = []
    names = [v for v, _t in places]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                links.append((names[i], names[j]))
    return graph_term(places, links)


def random_state(rng: random.Random, env=None, **kw):
    env = env or base_env()
    return flatten(random_process_term(rng, **kw), env), env


def random_pair(rng: random.Random, env=None):
    """A pair for equivalence testing: related shapes often enough that
    both verdicts show up."""
    env = env or base_env()
    left = random_process_term(rng, max_components=2, depth=1,
                               allow_recursion=rng.random() < 0.3)
    roll = rng.random()
    if roll < 0.35:
        right = left
    elif roll < 0.55:
        # same components, different wiring
        right = GraphTerm(left.places, frozenset())
    else:
        right = random_process_term(rng, max_components=2, depth=1,
                                    allow_recursion=rng.random() < 0.3)
    return flatten(left, env), flatten(right, env), env


def twin_env() -> DefEnv:
    """`base_env` with the symbol g that `RESTRICTING` restricts."""
    env = base_env()
    return DefEnv({**BASE_SIG, "g": 1}, env.defs)


# u(x).((g(y).(*)) restrict {g}) + w(x).((~g(1).(*)) restrict {g}): two
# copies that fire u and w in one step can spawn their g's in either order.
RESTRICTING = Sum(Input("u", "x", (Restrict(Input("g", "y", (IDLE,)), frozenset({"g"})),)),
                  Input("w", "x", (Restrict(Output("g", Lit(1), (IDLE,)), frozenset({"g"})),)))


def random_twin_term(rng: random.Random, depth=2):
    """Up to 3 copies each of 1-2 components, a quarter of the time one
    of them `RESTRICTING`, with each block of copies, and each pair of
    blocks, all linked or all unlinked, so that copies are twins.  A
    third of the terms then list their places shuffled, or lose one link."""
    comps = [random_guarded_sum(rng, depth) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.25:
        comps[0] = RESTRICTING
    blocks = [["v%d_%d" % (b, i) for i in range(rng.randint(1, 3))] for b in range(len(comps))]
    links = [(a, c) for b, names in enumerate(blocks) if rng.random() < 0.5
             for i, a in enumerate(names) for c in names[i + 1:]]
    if len(blocks) == 2 and rng.random() < 0.5:
        links += [(a, c) for a in blocks[0] for c in blocks[1]]
    places = [(v, comp) for comp, names in zip(comps, blocks) for v in names]
    roll = rng.random()
    if roll < 1 / 6:
        rng.shuffle(places)
    elif roll < 1 / 3 and links:
        links.remove(rng.choice(links))
    return graph_term(places, links)


def twin_pair(rng: random.Random, env=None):
    """A pair of twin-heavy states: a `random_twin_term` against itself,
    against its places unlinked or with one copy fewer, or against
    another one."""
    env = env or twin_env()
    left = random_twin_term(rng, depth=1)
    roll = rng.random()
    if roll < 0.25:
        right = left
    elif roll < 0.5:
        right = GraphTerm(left.places, frozenset())
    elif roll < 0.75 and len(left.places) > 1:
        gone = left.places[-1][0]
        right = graph_term(left.places[:-1], [l for l in left.links if gone not in l])
    else:
        right = random_twin_term(rng, depth=1)
    return flatten(left, env), flatten(right, env), env


def output_chain_pair(n: int, env=None):
    """~u(0) chains of length n and n - 1 ending in the idle process: the
    longer one's last output is answered by nothing, so the least level
    at which the pair fails is n."""
    env = env or base_env()

    def chain(k):
        term = IDLE
        for _ in range(k):
            term = Output("u", Lit(0), (term,))
        return graph_term((("v", term),))
    return flatten(chain(n), env), flatten(chain(n - 1), env), env


def random_dag_automaton(rng: random.Random, max_states=5):
    """Acyclic automaton: transitions only reach strictly later states,
    so unrolling terminates at transition-less states."""
    n = rng.randint(2, max_states)
    states = ["Q%d" % i for i in range(n)]
    sig = {"a": 1, "b": 2}
    transitions = []
    for i in range(n - 1):
        for _ in range(rng.randint(0, 2)):
            f = rng.choice(sorted(sig))
            targets = tuple(states[rng.randint(i + 1, n - 1)]
                            for _ in range(sig[f]))
            transitions.append((states[i], f, targets))
    return tree_automaton(states, sig, transitions)


def random_recognized_tree(rng: random.Random, aut, state) -> SigmaTree:
    """Unroll transitions from `state`; exhausted states become leaves."""
    options = aut.from_state(state)
    if not options:
        return LEAF
    _q, f, qs = rng.choice(options)
    return SigmaTree(f, "x", tuple(random_recognized_tree(rng, aut, q2)
                                   for q2 in qs))
