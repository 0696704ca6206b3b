"""Internal reductions: communication on dual symbols along edges, with
full graph surgery and residual maps, plus bounded reachability.

A reaction removes the two partner locations, splices in the freshly
located children of both prefixes, wires every input-side child to
every output-side child, and lets children inherit their parent's other
neighbours.  Restriction never blocks an internal reaction.  Each
spawned child is flattened once per binder, value and definition
environment into a location-free template, which `join` copies at fresh
locations every time the child spawns (`_splice`), in every firing:
communications, visible steps, `reachable` and the tau closures alike.
The children are numbered from one past the largest location of the
state that fires, so a target's numbers depend only on its source.

`reachable`, so every tau closure, fires only the first step of each
orbit of twin swaps (`orbit_steps`); `comm_redexes` and `internal_steps`
stay complete.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .netstate import (
    NetState, SymbolFreshener, cs_head, flatten_part, join, make_state, state_symbol_names,
)
from .syntax import Input, Output, subst_value
from .values import value_key


@dataclass
class ReductionStep:
    source: NetState
    target: NetState
    fired: tuple            # (p, q, symbol, value, summand_i, summand_j)
    residual: dict          # |target| -> |source|


def _splice(state: NetState, fired, env):
    """Replace each fired location by the children of its prefix.

    `fired` maps a location to (children, value substitution or None),
    in spawn order.  Each child becomes a part, whose restrictions are
    hoisted and renamed apart from everything else in the state, and
    `join` copies it at locations numbered from one past the largest
    location of `state`, fired ones included: the paper's freshness
    condition, so no child reuses a number of the state it fires.  Every
    child inherits each edge of its parent, so an edge between two fired
    locations becomes all cross pairs of their children.  Kept components follow the order of
    `state.comp`.  Returns (target, residual, per fired location the
    list of its children's locations, child by child).

    `env._spawns` keeps each child's part by (child, (binder, value
    key)), so a child is flattened once per binder and value in a
    definition environment.  Parsed definitions are data-closed
    (`syntax.check_closed`), but an environment built in Python and never
    passed to `check_guarded` may hold an open body, where one binder
    binds a child's free variable that another leaves free; so the key
    names the binder.  A part that restricts a name is not stored, since
    flattening it reserves and renames names.
    """
    freshener = SymbolFreshener(lambda: state_symbol_names(state, env))
    spawns = env._spawns
    parts = {}
    for p, (children, value_subst) in fired.items():
        bound = None if value_subst is None else (value_subst[0], value_key(value_subst[1]))
        parts[p] = group = []
        for child in children:
            part = spawns.get((child, bound))
            if part is None:
                part = flatten_part(child if value_subst is None
                                    else subst_value(child, *value_subst), env, freshener)
                if not part.restricted:
                    spawns[child, bound] = part
            group.append(part)
    kept = {r: t for r, t in state.comp.items() if r not in fired}
    comp, edges, restricted, residual, spawned = join(
        parts, state.graph.edges, env, freshener, itertools.count(max(state.comp) + 1),
        kept, state.restricted)
    return make_state(comp, edges, restricted, env), residual, spawned


def fire_comm(state: NetState, p, q, i, j, env):
    """React input summand i at p with output summand j at q; returns
    (target, residual)."""
    hp = cs_head(state.comp[p], env)[i]
    hq = cs_head(state.comp[q], env)[j]
    assert isinstance(hp, Input) and isinstance(hq, Output)
    assert hp.sym == hq.sym
    target, residual, _spawned = _splice(
        state, {p: (hp.children, (hp.var, hq.expr.value)), q: (hq.children, None)}, env)
    return target, residual


def fire_prefix(state: NetState, p, head, value, env):
    """Fire one prefix summand at p on its own (the visible-step surgery).

    For an input head the received value is substituted into the
    children; for an output head `value` must equal the evaluated
    payload.  Returns (target, residual, lvec) with lvec the per-child
    location sets in child order.
    """
    if isinstance(head, Input):
        subst = (head.var, value)
    else:
        assert isinstance(head, Output) and value == head.expr.value
        subst = None
    target, residual, spawned = _splice(state, {p: (head.children, subst)}, env)
    return target, residual, tuple(map(frozenset, spawned[p]))


def comm_redexes(state: NetState, env):
    """All (p, q, i, j, symbol, value) with p input / q output on dual
    symbols across an edge, in deterministic order."""
    out = []
    locs = state.locations()
    heads = {p: cs_head(state.comp[p], env) for p in locs}
    for p in locs:
        for q in sorted(state.graph.neighbors(p)):
            for i, hp in enumerate(heads[p]):
                if not isinstance(hp, Input):
                    continue
                for j, hq in enumerate(heads[q]):
                    if isinstance(hq, Output) and hq.sym == hp.sym:
                        out.append((p, q, i, j, hp.sym, hq.expr.value))
    return out


def internal_steps(state: NetState, env) -> list:
    """One ReductionStep per communication redex.  Distinct summand
    pairs give distinct steps; the empty list means no redex."""
    return _steps(state, env, comm_redexes(state, env))


def orbit_steps(state: NetState, env) -> list:
    """The `internal_steps` of the redexes first in their orbits under
    swaps of twins (`NetState.twins`); a dropped step reaches the class of
    an earlier kept one.  A lone redex is its own orbit."""
    redexes = comm_redexes(state, env)
    twins = len(redexes) > 1 and state.twins(env)
    if twins:
        redexes = [r for r in redexes if _first_of_orbit(twins, r[0], r[1])]
    return _steps(state, env, redexes)


def _first_of_orbit(twins, p, q) -> bool:
    """Does p lead its twin class, and q its own, or come second in it
    when it is p's?"""
    cp, cq = twins.get(p, (p,)), twins.get(q, (q,))
    return p == cp[0] and q == cq[p in cq]


def _steps(state, env, redexes) -> list:
    steps = []
    for p, q, i, j, sym, v in redexes:
        target, residual = fire_comm(state, p, q, i, j, env)
        steps.append(ReductionStep(state, target, (p, q, sym, v, i, j), residual))
    return steps


@dataclass
class Reachability:
    states: dict            # canonical key -> NetState
    initial: str
    successors: dict        # key -> sorted list of its stored successors' keys
    status: str             # "complete" | "truncated"
    parents: dict           # key -> (parent key, fired) for witness traces


def reachable(state: NetState, env, max_states=2000) -> Reachability:
    """BFS over internal steps, quotiented by canonical keys.  It fires
    only `orbit_steps`, each first in its orbit, so its states,
    successors and parents are those of firing every step."""
    k0 = state.key()
    states = {k0: state}
    successors = {}
    parents = {k0: None}
    frontier = deque([k0])
    status = "complete"
    while frontier:
        key = frontier.popleft()
        succ = set()
        for step in orbit_steps(states[key], env):
            tk = step.target.key()
            if tk not in states:
                if len(states) >= max_states:
                    status = "truncated"
                    continue
                states[tk] = step.target
                parents[tk] = (key, step.fired)
                frontier.append(tk)
            succ.add(tk)
        successors[key] = sorted(succ)
    return Reachability(states, k0, successors, status, parents)


def trace_to(reach: Reachability, key) -> list:
    """Witness step sequence from the initial state to `key`."""
    out = []
    cur = key
    while reach.parents.get(cur) is not None:
        parent, fired = reach.parents[cur]
        out.append(fired)
        cur = parent
    out.reverse()
    return out


def reduces_to_idle(state: NetState, env, max_states=2000):
    """Search for a reachable state whose components are all idle.

    Returns (found, witness_trace, status); a truncated search that
    found nothing reports found=False with status 'truncated'.
    """
    reach = reachable(state, env, max_states)
    for key, st in reach.states.items():
        if st.is_idle(env):
            return True, trace_to(reach, key), reach.status
    return False, None, reach.status
