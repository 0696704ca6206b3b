"""Runtime states: a location graph, one guarded sum per location, and a
single global set of restricted symbols.

This module is the one assembler of runtime states.  `flatten_part`
turns a term into a part, minting each location from one process-wide
counter (so separately flattened parts never share one) and normalizing
its component there; `relocate` copies an unrestricted part at fresh
locations as flattening its term again would number them.  `join` puts
parts side by side in one pass, renaming restricted symbols apart only
when some part restricts one, and `make_state` prunes unused restricted
symbols and seals the result without copying or checking it again.
Graph terms, firings (`reduction`) and compositions (`equivalence`) are
all joined this way.
`_summands` decides conditionals and flattens sums; on top of it
`cs_head` unfolds constants to reach a component's head summands, and
`normalize_component` evaluates payloads and constant arguments.  Both
give summands as `_stored` writes them, so a head is a summand term.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property

from .graphs import GraphError, LocGraph, canonical_key, has_matching, make_graph  # noqa: F401
from .syntax import (
    Cond, Const, DefEnv, GraphTerm, Idle, Input, Nil,
    NotCanonical, Output, PSym, ProcVar, Restrict, Sum, SyntaxError_,
    check_canonical, children, free_data_vars, rename_symbols, sort_of,
    subst_values, term_fingerprint, term_str,
)
from .values import Lit, eval_bexpr, eval_expr

CS_FUEL = 10_000
MAX_BARB_SETS = 4096     # satisfiable barb sets one state may have

_location_counter = itertools.count(1)


class GuardError(Exception):
    """A constant unfolded forever without reaching a prefix head."""


class BarbBudgetError(Exception):
    """A state has more satisfiable barb sets than the bound it names."""


def _summands(term) -> list:
    """The summands of a component in left-to-right source order, with
    conditionals decided and nested sums flattened.  Constants are left
    in place."""
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack += (t.right, t.left)
        elif isinstance(t, Cond):
            stack.append(t.then if eval_bexpr(t.cond) else t.other)
        else:
            out.append(t)
    return out


def _stored(t):
    """A summand in the form a stored component holds it: output payloads
    and constant arguments evaluated to literals."""
    if isinstance(t, Output):
        return Output(t.sym, Lit(eval_expr(t.expr)), t.children)
    if isinstance(t, Const):
        return Const(t.name, tuple(Lit(eval_expr(a)) for a in t.args))
    if isinstance(t, (Idle, Nil, Input)):
        return t
    raise SyntaxError_("not a guarded sum: %s" % term_str(t))


def cs_head(term, env: DefEnv):
    """Resolve a recursive canonical guarded sum to its head summands.

    Conditionals are decided with the evaluator, constants are unfolded
    with their arguments substituted, and nested sums are flattened in
    left-to-right source order.  The result is a tuple of the summands
    themselves, as a stored component holds them (`_stored`): `Input`,
    `Nil`, `Idle`, and `Output` with its payload evaluated to a `Lit`.
    """
    cached = env._cs_cache.get(term)
    if cached is not None:
        return cached
    heads = []
    fuel = CS_FUEL          # constant unfoldings, so only unguarded recursion trips it
    stack = _summands(term)[::-1]
    while stack:
        t = stack.pop()
        if isinstance(t, Const):
            fuel -= 1
            if fuel < 0:
                raise GuardError(
                    "guarded-sum resolution did not terminate (unguarded recursion?)")
            params, body = env.lookup(t.name)
            if len(params) != len(t.args):
                raise SyntaxError_("constant %s arity mismatch" % t.name)
            vals = [eval_expr(a) for a in t.args]
            stack += _summands(subst_values(body, params, vals))[::-1]
        else:
            heads.append(_stored(t))
    out = env._cs_cache[term] = tuple(heads)
    return out


def normalize_component(term, env: DefEnv):
    """Canonical shape for a stored component: conditionals decided,
    nested sums rebuilt left-nested, output payloads and constant
    arguments evaluated to literals.  Constants are not unfolded, so
    indicator constants keep their name and parameters in dumps."""
    out = None
    for t in map(_stored, _summands(term)):
        out = t if out is None else Sum(out, t)
    return out


def barbs_of_component(term, env: DefEnv) -> frozenset:
    """Offered symbols-with-polarity at the head of one component."""
    out = set()
    for h in cs_head(term, env):
        if isinstance(h, Input):
            out.add(PSym(h.sym, False))
        elif isinstance(h, Output):
            out.add(PSym(h.sym, True))
    return frozenset(out)


def component_is_idle(term, env: DefEnv) -> bool:
    heads = cs_head(term, env)
    return bool(heads) and all(isinstance(h, Idle) for h in heads)


# ---------------------------------------------------------------------------
# NetState
# ---------------------------------------------------------------------------

class NetState:
    """Immutable runtime state.  Identity is by canonical key."""

    __slots__ = ("graph", "comp", "restricted", "_coloring", "_key")

    def __init__(self, graph: LocGraph, comp: dict, restricted=frozenset()):
        if set(comp) != set(graph.vertices):
            raise SyntaxError_("component map not total on the vertex set")
        self.graph = graph
        self.comp = dict(comp)
        self.restricted = frozenset(restricted)
        self._coloring = None
        self._key = None

    def locations(self):
        return sorted(self.graph.vertices)

    def coloring(self):
        """Location -> fingerprint of its component; shared, so read only."""
        if self._coloring is None:
            self._coloring = {p: term_fingerprint(t) for p, t in self.comp.items()}
        return self._coloring

    def key(self) -> str:
        """Canonical key: equal exactly for states equal up to location
        renaming with the same restricted names; one search, on first use."""
        if self._key is None:
            self._key = canonical_key(self.graph, self.coloring())[0] + \
                "!R{%s}" % ",".join(sorted(self.restricted))
        return self._key

    def is_idle(self, env) -> bool:
        return all(component_is_idle(t, env) for t in self.comp.values())

    def pretty(self, env=None) -> str:
        lines = []
        for p in self.locations():
            lines.append("%4s: %s" % (p, term_str(self.comp[p])))
        if self.graph.edges:
            lines.append("edges: " + ", ".join("%s--%s" % e for e in self.graph.edge_pairs()))
        if self.restricted:
            lines.append("restricted: {%s}" % ", ".join(sorted(self.restricted)))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "vertices": self.locations(),
            "edges": [list(e) for e in self.graph.edge_pairs()],
            "components": {str(p): term_str(self.comp[p]) for p in self.locations()},
            "restricted": sorted(self.restricted),
        }

    def __repr__(self):
        return "<NetState %d locs, %d edges>" % (len(self.graph.vertices),
                                                 len(self.graph.edges))


def _sealed(graph, comp, restricted) -> NetState:
    """A state owning `comp` as given, unchecked: for the assemblers,
    whose component maps are total on the vertices by construction."""
    state = NetState.__new__(NetState)
    state.graph, state.comp, state.restricted = graph, comp, restricted
    state._coloring = state._key = None
    return state


def make_state(graph, comp, restricted, env) -> NetState:
    """Seal what `join` assembled, dropping restricted symbols that occur
    nowhere in it.  Its components arrive normalized: `flatten_part`
    normalizes each one where it mints its location.  The state takes
    `comp` as its own, so the caller must not change it afterwards."""
    if restricted:
        restricted = frozenset(restricted) & _comp_sort(comp, env)
    return _sealed(graph, comp, restricted)


# ---------------------------------------------------------------------------
# Assembly: flattening, renaming apart and joining
# ---------------------------------------------------------------------------

def _const_sorts(term, env) -> frozenset:
    """Union of the sorts of constants referenced inside a term."""
    if isinstance(term, Const):
        return sort_of(term, env)
    out = frozenset()
    for c in children(term):
        out |= _const_sorts(c, env)
    return out


class SymbolFreshener:
    """Mints unused symbol and constant names by priming: f', f'', ...

    `names` is a function giving the names already in use.  It is called
    at the first reservation, so an assembly that restricts nothing never
    computes them."""

    def __init__(self, names):
        self._names = names

    @cached_property
    def taken(self) -> set:
        return set(self._names())

    def reserve(self, name):
        self.taken.add(name)

    def fresh_like(self, name):
        cand = name + "'"
        while cand in self.taken:
            cand += "'"
        self.taken.add(cand)
        return cand


def _comp_sort(comp, env) -> frozenset:
    """Union of the sorts of a location -> component map's components."""
    out = frozenset()
    for t in comp.values():
        out |= sort_of(t, env)
    return out


def _rename_part(part: NetState, mapping, env) -> NetState:
    for t in part.comp.values():
        clash = _const_sorts(t, env) & set(mapping)
        if clash:
            raise SyntaxError_(
                "cannot alpha-convert restricted symbol(s) %s: they occur in "
                "recursive constant definitions; rename them in the source"
                % ", ".join(sorted(clash)))
    comp = {p: rename_symbols(t, mapping) for p, t in part.comp.items()}
    restricted = frozenset(mapping.get(s, s) for s in part.restricted)
    return _sealed(part.graph, comp, restricted)


def _rename_apart(parts, env, freshener, kept) -> list:
    """Resolve restricted-name clashes between sibling parts.

    A part's restricted name must move out of the way when it occurs
    free in any sibling or in a kept component, or when an earlier part
    already claimed it.
    """
    external = _comp_sort(kept, env)
    free_sorts = [_comp_sort(p.comp, env) - p.restricted for p in parts]
    taken = set()
    out = []
    for i, part in enumerate(parts):
        mapping = {}
        others_free = external.union(*(fs for j, fs in enumerate(free_sorts) if j != i))
        for s in sorted(part.restricted):
            if s in others_free or s in taken:
                mapping[s] = freshener.fresh_like(s)
            else:
                freshener.reserve(s)
        if mapping:
            part = _rename_part(part, mapping, env)
        taken |= part.restricted
        out.append(part)
    return out


def join(parts, pairs, env, freshener, kept=None, restricted=frozenset()):
    """Put parts side by side in one state: the one place where states
    are assembled.

    `kept` maps untouched locations to their components; `restricted`
    names the restriction whose scope covers them and the parts alike.
    Restricted names of the parts are renamed apart (see
    `_rename_apart`); unless some part restricts a name, nothing is
    computed for that.  One pass collects the components, whose keys are
    the vertices, and the parts' edges; every location pair in `pairs`
    is checked and normalized as it becomes an edge.  Returns (graph,
    comp, restricted) with the restriction not yet pruned.
    """
    kept = kept or {}
    if any(p.restricted for p in parts):
        parts = _rename_apart(parts, env, freshener, kept)
    comp = {}
    edges = set()
    restricted = set(restricted)
    for part in parts:
        comp.update(part.comp)
        edges |= part.graph.edges
        restricted |= part.restricted
    comp.update(kept)
    for a, b in pairs:
        if a == b:
            raise GraphError("self-loop at %r" % (a,))
        if a not in comp or b not in comp:
            raise GraphError("edge (%r, %r) outside the vertex set" % (a, b))
        edges.add((a, b) if a < b else (b, a))
    return LocGraph(frozenset(comp), frozenset(edges)), comp, frozenset(restricted)


def flatten_part(term, env, freshener) -> NetState:
    """Flatten a canonical term at fresh locations into a part for `join`,
    normalizing each component where its location is minted.  The part's
    restriction is not pruned: a restricted name that occurs nowhere
    still makes a sibling's equal name move.

    The term is not checked again: `flatten` checks the whole term once,
    and the children a firing spawns lie inside checked components.  A
    constant unfolds when its chain of constant bodies ends in a graph, a
    restriction or a variable; any other constant, like any other term
    that is none of these, is a guarded sum and stays a component."""
    if isinstance(term, GraphTerm):
        subs = {v: flatten_part(t, env, freshener) for v, t in term.places}
        pairs = [(p, q) for a, b in term.links
                 for p in subs[a].graph.vertices for q in subs[b].graph.vertices]
        return _sealed(*join(list(subs.values()), pairs, env, freshener))
    if isinstance(term, Restrict):
        sub = flatten_part(term.body, env, freshener)
        mapping = {s: freshener.fresh_like(s) for s in sorted(sub.restricted & term.syms)}
        if mapping:
            sub = _rename_part(sub, mapping, env)
        for s in term.syms:
            freshener.reserve(s)
        return _sealed(sub.graph, sub.comp, sub.restricted | term.syms)
    if isinstance(term, ProcVar):
        raise SyntaxError_("cannot flatten an open process variable %s" % term.name)
    if isinstance(term, Const) and _is_process_constant(term, env):
        params, body = env.lookup(term.name)
        vals = [eval_expr(a) for a in term.args]
        return flatten_part(subst_values(body, params, vals), env, freshener)
    p = next(_location_counter)
    return _sealed(LocGraph(frozenset((p,)), frozenset()),
                   {p: normalize_component(term, env)}, frozenset())


def relocate(part: NetState) -> NetState:
    """A copy of an unrestricted part at fresh locations, minted in the
    order `flatten_part` minted its own (ascending), so it is numbered as
    flattening its term again would; edges stay normalized."""
    fresh = {p: next(_location_counter) for p in sorted(part.comp)}
    graph = LocGraph(frozenset(fresh.values()),
                     frozenset((fresh[a], fresh[b]) for a, b in part.graph.edges))
    return _sealed(graph, {fresh[p]: t for p, t in part.comp.items()}, part.restricted)


def _is_process_constant(term, env) -> bool:
    """Does the chain of constant bodies from `term` end in a graph, a
    restriction or a variable?  A cycle of constants does not."""
    seen = set()
    while isinstance(term, Const) and term.name not in seen:
        seen.add(term.name)
        term = env.lookup(term.name)[1]
    return isinstance(term, (GraphTerm, Restrict, ProcVar))


def flatten(term, env: DefEnv) -> NetState:
    """Flatten a data-closed canonical process into a runtime state."""
    fv = free_data_vars(term)
    if fv:
        raise SyntaxError_("process is not data-closed: free %s" % ", ".join(sorted(fv)))
    cls = check_canonical(term, env)
    if isinstance(cls, NotCanonical):
        raise SyntaxError_("not canonical at %s: %s" % (cls.path or "<root>", cls.reason))
    freshener = SymbolFreshener(lambda: _all_symbol_names(term, env))
    part = flatten_part(term, env, freshener)
    return make_state(part.graph, part.comp, part.restricted, env)


def _all_symbol_names(term, env) -> set:
    names = set(env.symbol_names())

    def walk(t):
        if isinstance(t, (Input, Output)):
            names.add(t.sym)
        elif isinstance(t, Restrict):
            names.update(t.syms)
        for c in children(t):
            walk(c)
    walk(term)
    return names


def state_symbol_names(state: NetState, env) -> set:
    return set(env.symbol_names()) | state.restricted | _comp_sort(state.comp, env)


# ---------------------------------------------------------------------------
# Barbs
# ---------------------------------------------------------------------------

def barb_signature(state: NetState, env: DefEnv):
    """Per-location offered symbol sets, with restricted symbols removed.

    Any barb query is decidable from this family: a finite set B is a
    barb iff B has a system of distinct representatives among these
    per-location sets.
    """
    fam = []
    for p in state.locations():
        offered = barbs_of_component(state.comp[p], env)
        offered = frozenset(b for b in offered if b.name not in state.restricted)
        fam.append(offered)
    return fam


def has_barb(state: NetState, barbs, env: DefEnv) -> bool:
    """True iff pairwise-distinct locations offer every element of B and
    none of them is restricted."""
    bs = list(barbs)
    for b in bs:
        if not isinstance(b, PSym):
            raise SyntaxError_("barb elements must be polarized symbols")
        if b.name in state.restricted:
            return False
    fam = barb_signature(state, env)
    return has_matching(len(bs), len(fam), lambda i, j: bs[i] in fam[j])


def satisfiable_barbs(state: NetState, env: DefEnv, alphabet=None) -> frozenset:
    """All satisfiable barb sets B over the given alphabet (default: the
    symbols the state actually offers); more than `MAX_BARB_SETS` of them
    raise `BarbBudgetError`."""
    fam = barb_signature(state, env)
    offered = set()
    for f in fam:
        offered |= f
    if alphabet is not None:
        offered &= set(alphabet)
    offered = sorted(offered, key=lambda b: (b.name, b.co))
    out = set()
    limit = len(fam)
    def grow(idx, chosen):
        out.add(frozenset(chosen))
        if len(out) > MAX_BARB_SETS:
            raise BarbBudgetError("MAX_BARB_SETS=%d" % MAX_BARB_SETS)
        if len(chosen) >= limit:
            return
        for k in range(idx, len(offered)):
            chosen.append(offered[k])
            if has_matching(len(chosen), limit, lambda i, j: chosen[i] in fam[j]):
                grow(k + 1, chosen)
            chosen.pop()
    grow(0, [])
    return frozenset(out)


def state_to_json_str(state: NetState) -> str:
    return json.dumps(state.to_json(), indent=2, sort_keys=True)
