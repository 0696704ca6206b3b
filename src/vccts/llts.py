"""The localized labelled transition system.

Labels are either tau or `p : action . (L1,...,Ln)` where the L_i are
the location sets of the spawned children.  Several labels may fire in
one step when the multiset is pairwise unrelated: visible labels at
distinct locations must use distinct symbols of the polarized alphabet
(a symbol and its co-symbol are distinct, so dual actions may fire
together; matched dual pairs across an edge become taus).

Input transitions use early semantics: one step per value drawn from a
finite, per-run value universe; a value that makes a spawned child fail
to evaluate gives no step.

A firing carries the head its candidate resolved: a location's
component is carried into every later state by reference until that
location fires, and a step fires each location once.  A
`sequence_firer` fires each ordered prefix of firings once per
enumeration or check: a multi-step extends a smaller one's prefix, and
an interleaving reuses the enumeration's.  Firing surgery is
`reduction`'s, so a child flattened under a value in one definition
environment is joined at fresh locations from its stored part whenever
it spawns again, whichever state, firer or check fires it.

Diamond property support: firing a step's unrelated labels one at a
time must reach the same state.  `_interleavings` checks this in one
pass over the steps of two or more firings, through the enumeration's
firer, comparing each order with the joint one by their targets
numbered in residual order, and searching canonical keys only when
those disagree.  The diamond property (`diamond_check`) is its 2-label
slice; `decompose_check` reads it at full width.

`visible_steps` is the one enumeration of pure-visible multi-steps.  A
weak transition tau* . alpha . tau* is known by its target's class
alone; `weak_transitions` composes it from a closure lookup, whose
every tau* phase is `reduction.reachable`, and a lookup of visible-step
targets by `action_key`, so a caller that keeps both per class computes
each once.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass, field

from .graphs import CanonicalizationError, canonical_key, compose_residuals, identity_residual
from .netstate import NetState, cs_head
from .reduction import comm_redexes, fire_comm, fire_prefix, reachable
from .syntax import Input, Output, PSym
from .values import EvalError, value_key, value_str


@dataclass(frozen=True, eq=False)
class Action:
    sym: str
    co: bool
    value: object

    def __post_init__(self):
        object.__setattr__(self, "_key", (self.sym, self.co, value_key(self.value)))

    def psym(self) -> PSym:
        return PSym(self.sym, self.co)

    def __eq__(self, other):
        return isinstance(other, Action) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "%s%s%s" % ("~" if self.co else "", self.sym, value_str(self.value))


@dataclass(frozen=True)
class VisLabel:
    loc: object
    action: Action
    lvec: tuple          # one frozenset of locations per child

    def __repr__(self):
        vec = ", ".join("{%s}" % ", ".join(map(str, sorted(s))) for s in self.lvec)
        return "%s:%s.(%s)" % (self.loc, self.action, vec)


class Tau:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "tau"


TAU = Tau()


class Multiset:
    """Multiset of labels."""

    def __init__(self, items=()):
        self._c = Counter(items)

    def count(self, item) -> int:
        return self._c.get(item, 0)

    def items(self):
        return self._c.items()

    def elements(self):
        return list(self._c.elements())

    def __eq__(self, other):
        return isinstance(other, Multiset) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        return "{%s}" % ", ".join(repr(l) for l in sorted(
            self.elements(), key=lambda x: (isinstance(x, VisLabel), repr(x))))


# ---------------------------------------------------------------------------
# Firings: the atoms a (multi-)step is assembled from.
# ---------------------------------------------------------------------------

class _Firing:
    """Firings are equal and hashed by `sort_key`, which is set once, at
    construction, with `locs`, the locations a firing uses: the
    enumeration treats firings with equal sort keys as one."""

    def __eq__(self, other):
        return isinstance(other, _Firing) and self.sort_key == other.sort_key

    def __hash__(self):
        return self._hash


@dataclass(eq=False)
class VisFire(_Firing):
    loc: object
    index: int           # summand index at loc
    action: Action
    head: object = field(repr=False)   # as the candidate resolved it

    def __post_init__(self):
        self.sort_key = (0, self.loc, self.index, repr(self.action))
        self.locs, self._hash = frozenset((self.loc,)), hash(self.sort_key)


@dataclass(eq=False)
class CommFire(_Firing):
    p: object            # input side
    q: object            # output side
    i: int
    j: int
    sym: str
    value: object

    def __post_init__(self):
        self.sort_key = (1, self.p, self.q, self.i, self.j)
        self.locs, self._hash = frozenset((self.p, self.q)), hash(self.sort_key)


@dataclass
class LabeledStep:
    source: NetState
    target: NetState
    labels: Multiset
    residual: dict
    firings: tuple

    def describe(self) -> str:
        return "%r" % self.labels


def _vis_candidates(state: NetState, env, universe):
    """All visible firings: one input per universe value per input head,
    one output per output head; restricted symbols produce nothing."""
    out = []
    for p in state.locations():
        for idx, head in enumerate(cs_head(state.comp[p], env)):
            if isinstance(head, Input) and head.sym not in state.restricted:
                out += (VisFire(p, idx, Action(head.sym, False, v), head) for v in universe)
            elif isinstance(head, Output) and head.sym not in state.restricted:
                out.append(VisFire(p, idx, Action(head.sym, True, head.expr.value), head))
    return out


def _comm_candidates(state: NetState, env):
    return [CommFire(p, q, i, j, sym, v)
            for p, q, i, j, sym, v in comm_redexes(state, env)]


def _admissible_with(state, fire, locs, vis) -> bool:
    """Does `fire` join a simultaneous step whose firings use `locs` and
    include the visible firings `vis`?

    Visible labels persist through every level of a nested composition,
    so they must be pairwise unrelated.  Communications can always be
    matched pairwise-early (compose their two endpoints first), so they
    impose no symbol constraints of their own.  A dual visible pair with
    the same value across an edge is forcibly matched at the level where
    the endpoints meet and can never stay visible.
    """
    if not locs.isdisjoint(fire.locs):
        return False
    if isinstance(fire, CommFire):
        return True
    sym, co, value = fire.action._key
    for other in vis:
        osym, oco, ovalue = other.action._key
        if osym == sym and (oco == co or (ovalue == value and
                                          state.graph.has_edge(fire.loc, other.loc))):
            return False
    return True


def _fire_one(cur, residual, labels, f, env):
    """Extend a fired sequence by `f`; None if that is no transition."""
    if isinstance(f, VisFire):
        try:
            cur, res, lvec = fire_prefix(cur, f.loc, f.head, f.action.value, env)
        except EvalError:
            if isinstance(f.head, Output):
                raise
            return None
        label = VisLabel(f.loc, f.action, lvec)
    else:
        cur, res, _v, _inl, _outl = fire_comm(cur, f.p, f.q, f.i, f.j, env)
        label = TAU
    return cur, compose_residuals(residual, res), labels + (label,)


def _fired(memo, env, firings):
    """`memo[firings]`, filled in prefix by prefix."""
    if firings not in memo:
        before = _fired(memo, env, firings[:-1])
        memo[firings] = before and _fire_one(*before, firings[-1], env)
    return memo[firings]


def sequence_firer(state: NetState, env):
    """`fire(firings)` fires a tuple of firings from `state` in order: the
    (target, residual back to `state`, labels), or None if an early input's
    value makes a child fail.  Each distinct ordered prefix is fired once,
    on top of the one before it, for as long as `fire` lives."""
    return functools.partial(_fired, {(): (state, identity_residual(state.graph), ())}, env)


def _fire_sort_key(f):
    return f.sort_key


def _admissible_combos(state: NetState, candidates, max_width) -> list:
    """Every admissible set of 1..max_width candidate firings, once each,
    in depth-first candidate order.  Of equal candidates, which have
    equal sort keys, only the first takes part."""
    candidates = list(dict.fromkeys(candidates))
    combos = []

    def grow(start, combo, locs, vis):
        if combo:
            combos.append(combo)
        if len(combo) >= max_width:
            return
        for k in range(start, len(candidates)):
            f = candidates[k]
            if _admissible_with(state, f, locs, vis):
                grow(k + 1, combo + [f], locs | f.locs,
                     vis + (f,) if isinstance(f, VisFire) else vis)

    grow(0, [], frozenset(), ())
    return combos


def _ordered(combo) -> tuple:
    """The firing order of a step; a fixed one keeps locations deterministic."""
    return tuple(sorted(combo, key=_fire_sort_key))


def _fire_combos(combos, fire):
    """Fire each combo as one step: yields (combo, (target, residual,
    labels)), skipping a combo that is no transition."""
    for combo in combos:
        fired = fire(_ordered(combo))
        if fired is not None:
            yield combo, fired


def multi_transitions(state: NetState, env, universe, max_width=None, fire=None) -> list:
    """All pairwise-unrelated multi-steps of size up to max_width
    (default: the number of components), fired by `fire`, a
    `sequence_firer` of `state` (default: a fresh one)."""
    if max_width is None:
        max_width = len(state.graph.vertices)
    candidates = _vis_candidates(state, env, universe) + _comm_candidates(state, env)
    combos = _admissible_combos(state, candidates, max_width)
    fired = _fire_combos(combos, fire or sequence_firer(state, env))
    return [LabeledStep(state, target, Multiset(labels), residual, tuple(combo))
            for combo, (target, residual, labels) in fired]


# ---------------------------------------------------------------------------
# Weak transitions
# ---------------------------------------------------------------------------

def state_key_with_residual(state: NetState, residual: dict) -> str:
    colors = {p: "%s@%s" % (fp, residual[p])
              for p, fp in state.coloring().items()}
    return canonical_key(state.graph, colors)[0] + "!R{%s}" % ",".join(sorted(state.restricted))


def tau_closure(state: NetState, env, max_states=2000):
    """The tau closure of `state`: the states of `reduction.reachable`,
    one per isomorphism class, and its status."""
    # a breadth-first depth stays below the number of states stored
    reach = reachable(state, env, max_states, max_depth=max_states)
    return list(reach.states.values()), reach.status


def visible_steps(state: NetState, env, universe, max_width) -> list:
    """Every pure-visible multi-step of 1..max_width labels, inputs drawn
    from `universe`: (its (action, location) pairs, sorted, target)."""
    combos = _admissible_combos(state, _vis_candidates(state, env, universe), max_width)
    return [(tuple(sorted(((f.action, f.loc) for f in combo),
                          key=lambda t: (repr(t[0]), str(t[1])))), fired[0])
            for combo, fired in _fire_combos(combos, sequence_firer(state, env))]


def action_key(actions) -> tuple:
    """The action multiset as a sorted tuple of action keys."""
    return tuple(sorted(a._key for a in actions))


def steps_by_actions(steps) -> dict:
    """`visible_steps` output as {action key: [targets]}, in step order."""
    index = {}
    for pairs, target in steps:
        index.setdefault(action_key(a for a, _loc in pairs), []).append(target)
    return index


def weak_transitions(state: NetState, actions, closure, steps):
    """The weak transitions tau* . alpha . tau* of `state` whose visible
    multi-step alpha carries the given action multiset at any locations.
    They are composed from two lookups: `closure(s)` answers as
    `tau_closure(s, ...)` does, and `steps(s)` as `steps_by_actions` of
    `visible_steps(s, ...)`.

    Returns (targets, status): one target state per isomorphism class,
    and "truncated" when some tau* phase was truncated, else "complete".
    An empty multiset gives the closure itself.
    """
    wanted = action_key(actions)
    phase1, status = closure(state)
    if not wanted:
        return phase1, status
    targets = {}
    for mid in phase1:
        for target1 in steps(mid).get(wanted, ()):
            phase3, st3 = closure(target1)
            if st3 == "truncated":
                status = "truncated"
            for final in phase3:
                targets.setdefault(final.key(), final)
    return list(targets.values()), status


# ---------------------------------------------------------------------------
# Diamond property support: one interleaving pass
# ---------------------------------------------------------------------------

@dataclass
class DiamondReport:
    checked: int
    counterexamples: list


def _anchored(target: NetState, residual: dict):
    """`target` with its locations numbered in `(residual, location)`
    order: each one's residual and component, the edges between those
    numbers, and the restricted names."""
    order = sorted(target.graph.vertices, key=lambda v: (residual[v], v))
    index = {v: i for i, v in enumerate(order)}
    edges = frozenset((min(index[a], index[b]), max(index[a], index[b]))
                      for a, b in target.graph.edges)
    return tuple((residual[v], target.comp[v]) for v in order), edges, target.restricted


def _residual_keys(state: NetState, env):
    """A `sequence_firer` of `state`, and `same(a, b)`: do sequences a and
    b land on one state up to a residual-preserving renaming?  `_splice`
    numbers a location's children alike whatever fired before, so equal
    `_anchored` forms decide in practice, and `state_key_with_residual`
    the rest.  Each form and key is made once per sequence."""
    fire = sequence_firer(state, env)

    def fired(firings):
        out = fire(firings)
        if out is None:
            raise EvalError("an input value makes a child fail to evaluate")
        return out[:2]

    form = functools.lru_cache(maxsize=None)(lambda firings: _anchored(*fired(firings)))
    key = functools.lru_cache(maxsize=None)(
        lambda firings: state_key_with_residual(*fired(firings)))
    return fire, lambda a, b: form(a) == form(b) or key(a) == key(b)


def _interleavings(state: NetState, env, universe, max_width=None):
    """The steps of two or more firings, up to `max_width` of them, and
    the interleavings that fail them: (steps, failures), each failure
    (step, order, why).  A step of two or three labels compares every
    order but its joint one with the joint one; a step of four or more,
    one order: the reverse.  An order needing a canonical key past its
    budget is listed as undecided."""
    failures = []
    fire, same = _residual_keys(state, env)
    steps = [st for st in multi_transitions(state, env, universe, max_width, fire)
             if len(st.firings) >= 2]
    for step in steps:
        joint = _ordered(step.firings)
        orders = [o for o in itertools.permutations(step.firings) if o != joint] \
            if len(joint) <= 3 else [joint[::-1]]
        for order in orders:
            try:
                if not same(order, joint):
                    failures.append((step, order, "interleaving disagrees with the joint step"))
            except EvalError as exc:
                failures.append((step, order, "a later step is not enabled: %s" % exc))
            except CanonicalizationError as exc:
                failures.append((step, order, "undecided, canonical search over budget: %s" % exc))
    return steps, failures


def diamond_check(state: NetState, env, universe) -> DiamondReport:
    """For every size-2 unrelated multi-step, both sequential
    interleavings must exist, land on the same state up to isomorphism,
    and compose to the same residual: the 2-label slice of
    `decompose_check`."""
    steps, failures = _interleavings(state, env, universe, max_width=2)
    return DiamondReport(len(steps), failures)


def decompose_check(state: NetState, env, universe):
    """Every multi-step must be realizable as single steps enumerating
    its labels with residuals composing to the joint residual.  Steps of
    four or more labels try one order: the reverse of the joint step's.
    Returns (steps checked, failures)."""
    steps, failures = _interleavings(state, env, universe)
    return len(steps), failures
