"""Runtime states: a location graph, one guarded sum per location, and a
single global set of restricted symbols.

This module is the one assembler of runtime states.  `flatten_part`
turns a term into a `Part`, a location-free template: its normalized
components in the order their locations are minted, its edges as pairs
of their indices, and the names it restricts.  `join` is the one place
where locations are minted: in one pass it copies each part at
locations drawn in order from its caller's `mint`, renames restricted
symbols apart only when some part restricts one, and wires the links
between the parts' origins.  Each state numbers its own locations:
`flatten` numbers a state 1, 2, ..., and a firing numbers its children
from one past the largest location of the state it fires, so they are
fresh for that state and every number is a function of the query.  A
graph term's own part is joined the same way, at the indices 0, 1, ...
in place of locations.  `make_state` prunes unused restricted symbols
and seals the result without copying or checking it again.
Flattening, firings (`reduction`) and compositions (`equivalence`) are
all joined this way; a firing joins the unrestricted parts its children
flattened to, kept per definition environment, as often as they spawn.
`_summands` decides conditionals and reads sums; on top of it `cs_head`
unfolds constants to reach a component's head summands, and
`normalize_component` evaluates payloads and constant arguments into
one `Sum`.  Both give summands as `_stored` writes them, so a head is a
summand term.
"""

from __future__ import annotations

import itertools
import json
from functools import cached_property
from typing import NamedTuple

from .graphs import GraphError, LocGraph, canonical_key, has_matching, make_graph  # noqa: F401
from .graphs import twin_classes
from .syntax import (
    Cond, Const, DefEnv, GraphTerm, Idle, Input, Nil,
    NotCanonical, Output, PSym, Restrict, Sum, SyntaxError_,
    check_canonical, children, free_data_vars, rename_symbols, sort_of,
    subst_values, term_fingerprint, term_str,
)
from .values import Lit, eval_bexpr, eval_expr

CS_FUEL = 10_000
MAX_BARB_SETS = 4096     # satisfiable barb sets one state may have


class GuardError(Exception):
    """A constant unfolded forever without reaching a prefix head."""


class BarbBudgetError(Exception):
    """A state has more satisfiable barb sets than the bound it names."""


def _summands(term) -> list:
    """The summands of a component in left-to-right source order, with
    conditionals decided and the sums in their branches read.  Constants
    are left in place."""
    out = []
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack += reversed(t.summands)
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
    with their arguments substituted, and summands are listed in
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
    output payloads and constant arguments evaluated to literals, and the
    summands in one `Sum`.  Constants are not unfolded, so indicator
    constants keep their name and parameters in dumps."""
    return Sum(*map(_stored, _summands(term)))


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

    __slots__ = ("graph", "comp", "restricted", "_coloring", "_key", "_twins")

    def __init__(self, graph: LocGraph, comp: dict, restricted=frozenset()):
        if set(comp) != set(graph.vertices):
            raise SyntaxError_("component map not total on the vertex set")
        self.graph = graph
        self.comp = dict(comp)
        self.restricted = frozenset(restricted)
        self._coloring = self._key = self._twins = None

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

    def twins(self, env) -> dict:
        """Location -> its twin class (`graphs.twin_classes`) by component
        term, whose swaps are automorphisms; found once and shared, so read
        only, and at once empty when no two locations share a term.  Only a
        component that fires has twins, and not one whose children restrict
        a name: firing order spells those names."""
        if self._twins is None:
            comp, terms = self.comp, set(self.comp.values())
            self._twins = {}
            if len(terms) < len(comp):
                terms = {t for t in terms if _may_twin(t, env)}
                self._twins = twin_classes(self.graph,
                                           {p: t for p, t in comp.items() if t in terms})
        return self._twins

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


def make_state(comp, edges, restricted, env) -> NetState:
    """Seal what `join` assembled into a state on the locations of `comp`,
    dropping restricted symbols that occur nowhere in it, without
    checking it again: `join` checked and normalized its edges, and its
    components arrive normalized (`flatten_part` normalizes each one).
    The state takes `comp` as its own, so the caller must not change it
    afterwards."""
    if restricted:
        restricted = frozenset(restricted) & _comp_sort(comp.values(), env)
    state = NetState.__new__(NetState)
    state.graph = LocGraph(frozenset(comp), frozenset(edges))
    state.comp, state.restricted = comp, restricted
    state._coloring = state._key = state._twins = None
    return state


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


def _comp_sort(comps, env) -> frozenset:
    """Union of the sorts of some components."""
    out = frozenset()
    for t in comps:
        out |= sort_of(t, env)
    return out


class Part(NamedTuple):
    """A flattened term as a location-free template: its components in
    the order `join` mints their locations, its edges as pairs (i, j),
    i < j, of indices into `comps`, and the names it restricts."""
    comps: tuple
    edges: tuple
    restricted: frozenset = frozenset()


def _rename_part(part: Part, mapping, env) -> Part:
    for t in part.comps:
        clash = _const_sorts(t, env) & set(mapping)
        if clash:
            raise SyntaxError_(
                "cannot alpha-convert restricted symbol(s) %s: they occur in "
                "recursive constant definitions; rename them in the source"
                % ", ".join(sorted(clash)))
    return Part(tuple(rename_symbols(t, mapping) for t in part.comps), part.edges,
                frozenset(mapping.get(s, s) for s in part.restricted))


def _rename_apart(parts, env, freshener, kept) -> dict:
    """Resolve restricted-name clashes between sibling parts.

    A part's restricted name must move out of the way when it occurs
    free in any sibling or in a kept component, or when an earlier part
    already claimed it.
    """
    external = _comp_sort(kept.values(), env)
    flat = [part for group in parts.values() for part in group]
    free_sorts = [_comp_sort(p.comps, env) - p.restricted for p in flat]
    taken = set()
    out = []
    for i, part in enumerate(flat):
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
    renamed = iter(out)
    return {origin: [next(renamed) for _ in group] for origin, group in parts.items()}


def join(parts, links, env, freshener, mint, kept=None, restricted=frozenset()):
    """Put parts side by side in one state: the one place where states
    are assembled and locations minted.

    `parts` maps an origin to its list of `Part`s, whose locations are
    drawn in order from the iterator `mint`, which must not yield a
    location of `kept`.  `kept` maps untouched locations to their
    components, and `restricted` is the restriction over them and the
    parts alike.  The parts' restricted names are renamed apart
    (`_rename_apart`) only when some part restricts one.  A link (a, b)
    is checked and wired between every location of origin a and every
    location of origin b; a name that is no origin is a location.
    Returns (comp, edges, restricted, residual, spawned): the components
    by location, the edges, the restriction not yet pruned, each
    location's origin (a kept one is its own), and per origin its parts'
    location lists.
    """
    kept = kept or {}
    if any(part.restricted for group in parts.values() for part in group):
        parts = _rename_apart(parts, env, freshener, kept)
    comp, residual, heirs, spawned, edges = {}, {}, {}, {}, []
    for origin, group in parts.items():
        spawned[origin] = lists = []
        for comps, index_edges, part_restricted in group:
            locs = list(itertools.islice(mint, len(comps)))
            comp.update(zip(locs, comps))
            for a, b in index_edges:
                edges.append((locs[a], locs[b]))
            if part_restricted:
                restricted = restricted | part_restricted
            lists.append(locs)
        heirs[origin] = mine = list(itertools.chain.from_iterable(lists))
        residual.update(dict.fromkeys(mine, origin))
    comp.update(kept)
    residual.update(zip(kept, kept))
    for a, b in links:
        if a == b:
            raise GraphError("self-loop at %r" % (a,))
        if not (a in heirs or a in comp) or not (b in heirs or b in comp):
            raise GraphError("edge (%r, %r) outside the vertex set" % (a, b))
        for x in heirs.get(a, (a,)):
            for y in heirs.get(b, (b,)):
                edges.append((x, y) if x < y else (y, x))
    return comp, edges, restricted, residual, spawned


def as_part(state: NetState):
    """`state` as a part, and its locations in ascending order: joined
    with those locations as `mint`, the part is `state` again."""
    order = sorted(state.comp)
    index = {p: i for i, p in enumerate(order)}
    return Part(tuple(state.comp[p] for p in order),
                tuple((index[a], index[b]) for a, b in state.graph.edges),
                state.restricted), order


def flatten_part(term, env, freshener) -> Part:
    """Flatten a canonical term into a part for `join`, normalizing each
    component; a graph term joins its places' parts at the indices 0, 1,
    ... in place of locations, with its links between the places.  The
    part's restriction is not pruned: a restricted name that occurs
    nowhere still makes a sibling's equal name move.

    The term is not checked again: `flatten` checks the whole term once,
    and the children a firing spawns lie inside checked components.  A
    constant unfolds when its chain of constant bodies ends in a graph or
    a restriction; any other constant, like any other term that is
    neither, is a guarded sum and stays a component."""
    if isinstance(term, GraphTerm):
        comps, edges, restricted, _res, _spawned = join(
            {v: [flatten_part(t, env, freshener)] for v, t in term.places},
            term.links, env, freshener, mint=itertools.count())
        return Part(tuple(comps.values()), tuple(edges), restricted)
    if isinstance(term, Restrict):
        sub = flatten_part(term.body, env, freshener)
        mapping = {s: freshener.fresh_like(s) for s in sorted(sub.restricted & term.syms)}
        if mapping:
            sub = _rename_part(sub, mapping, env)
        for s in term.syms:
            freshener.reserve(s)
        return sub._replace(restricted=sub.restricted | term.syms)
    if isinstance(term, Const) and _is_process_constant(term, env):
        params, body = env.lookup(term.name)
        vals = [eval_expr(a) for a in term.args]
        return flatten_part(subst_values(body, params, vals), env, freshener)
    return Part((normalize_component(term, env),), ())


def _is_process_constant(term, env) -> bool:
    """Does the chain of constant bodies from `term` end in a graph or a
    restriction?  A cycle of constants does not."""
    seen = set()
    while isinstance(term, Const) and term.name not in seen:
        seen.add(term.name)
        term = env.lookup(term.name)[1]
    return isinstance(term, (GraphTerm, Restrict))


def _may_twin(term, env) -> bool:
    """Has the component `term` a prefix head, and no child of one that
    restricts a name once `flatten_part` flattens it?"""
    heads = [h for h in cs_head(term, env) if isinstance(h, (Input, Output))]
    return bool(heads) and not any(_restricts(c, env) for h in heads for c in h.children)


def _restricts(t, env) -> bool:
    """Does flattening `t` restrict a name?"""
    while isinstance(t, Const) and _is_process_constant(t, env):
        t = env.lookup(t.name)[1]
    return isinstance(t, Restrict) or isinstance(t, GraphTerm) and any(
        _restricts(u, env) for _v, u in t.places)


def flatten(term, env: DefEnv) -> NetState:
    """Flatten a data-closed canonical process into a runtime state."""
    fv = free_data_vars(term)
    if fv:
        raise SyntaxError_("process is not data-closed: free %s" % ", ".join(sorted(fv)))
    cls = check_canonical(term, env)
    if isinstance(cls, NotCanonical):
        raise SyntaxError_("not canonical at %s: %s" % (cls.path or "<root>", cls.reason))
    freshener = SymbolFreshener(lambda: _all_symbol_names(term, env))
    comp, edges, restricted, _res, _spawned = join(
        {None: [flatten_part(term, env, freshener)]}, (), env, freshener, itertools.count(1))
    return make_state(comp, edges, restricted, env)


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
    return set(env.symbol_names()) | state.restricted | _comp_sort(state.comp.values(), env)


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


def satisfiable_barbs(state: NetState, env: DefEnv) -> frozenset:
    """All satisfiable barb sets B over the symbols the state offers;
    more than `MAX_BARB_SETS` of them raise `BarbBudgetError`."""
    fam = barb_signature(state, env)
    offered = set()
    for f in fam:
        offered |= f
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
