"""Finite location graphs, residual maps, canonical forms, and the
bipartite matching behind barb and label checks.

Locations are integers that each state numbers for itself (see
`netstate.join`), so two states may share numbers.
`canonical_key` gives state identity up to location renaming: a key
two colored graphs share exactly when a color-preserving isomorphism
exists, and a vertex order that zips one onto the other.  It keys the
unions and joins that `(+)` and `|` flatten to part by part, searches
only parts that split neither way, and rejects graphs past desk scale.
`twin_classes` finds the twins its search prunes, for `NetState.twins`:
`reachable`, the game's tau challenges and `visible_steps` fire one move
per orbit of twin swaps, while `comm_redexes`, `internal_steps` and
`multi_transitions` stay complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class GraphError(Exception):
    pass


class CanonicalizationError(GraphError):
    """Graph exceeds an exact-canonicalization bound, named in `budget`
    and at the end of the message."""

    def __init__(self, message, budget):
        super().__init__("%s (%s)" % (message, budget))
        self.budget = budget


@dataclass(frozen=True)
class LocGraph:
    vertices: frozenset
    edges: frozenset        # normalized pairs (a, b) with a < b

    @cached_property
    def adjacency(self) -> dict:
        """Vertex -> frozenset of its neighbors, built on first use."""
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(s) for v, s in adj.items()}

    def has_edge(self, p, q) -> bool:
        if p == q:
            return False
        return (min(p, q), max(p, q)) in self.edges

    def neighbors(self, p) -> frozenset:
        return self.adjacency[p]

    def edge_pairs(self):
        return sorted(self.edges)


def make_graph(vertices, edges=()) -> LocGraph:
    vs = frozenset(vertices)
    norm = set()
    for a, b in edges:
        if a == b:
            raise GraphError("self-loop at %r" % (a,))
        if a not in vs or b not in vs:
            raise GraphError("edge (%r, %r) outside the vertex set" % (a, b))
        norm.add((a, b) if a < b else (b, a))
    return LocGraph(vs, frozenset(norm))


def graph_subst(g: LocGraph, p, h: LocGraph) -> LocGraph:
    """Replace vertex p of g by the whole of h; every former neighbor of
    p becomes a neighbor of every vertex of h."""
    if p not in g.vertices:
        raise GraphError("vertex %r not in graph" % (p,))
    if g.vertices & h.vertices:
        raise GraphError("vertex collision: %r" % (g.vertices & h.vertices,))
    kept = [e for e in g.edges if p not in e]
    inherited = [(q, r) for q in g.neighbors(p) for r in h.vertices]
    return make_graph((g.vertices - {p}) | h.vertices, kept + list(h.edges) + inherited)


def oplus_graph(g: LocGraph, h: LocGraph, cross=()) -> LocGraph:
    """Disjoint union with the given cross pairs added as edges."""
    if g.vertices & h.vertices:
        raise GraphError("vertex collision: %r" % (g.vertices & h.vertices,))
    cross = list(cross)
    for p, q in cross:
        if p not in g.vertices or q not in h.vertices:
            raise GraphError("cross pair (%r, %r) out of range" % (p, q))
    return make_graph(g.vertices | h.vertices, [*g.edges, *h.edges, *cross])


# ---------------------------------------------------------------------------
# Residual maps: total maps from successor-state locations back to
# predecessor-state locations.
# ---------------------------------------------------------------------------

def compose_residuals(earlier: dict, later: dict) -> dict:
    """earlier: |P1|->|P0|, later: |P2|->|P1|; result maps |P2|->|P0|."""
    return {k: earlier[v] for k, v in later.items()}


def identity_residual(graph: LocGraph) -> dict:
    return {v: v for v in graph.vertices}


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

MAX_CANON_VERTICES = 24
MAX_CANON_NODES = 400_000


def canonical_key(graph: LocGraph, coloring: dict):
    """Canonical form of a vertex-colored graph: (key, order).

    Equal keys iff there is a color-preserving isomorphism; for equal
    keys, zipping the two orders gives one.  A plain key `colors#rows`
    lists the colors along the order, then each vertex's 0/1 adjacency
    to the ones before it.  A one-location graph, or one that refinement
    makes discrete, is read off in class order.  Else a graph that splits
    into components (tag P) or complement components (tag S) gets the
    composite key `(tag len:key len:key ...)` of its parts' sorted keys,
    and their orders in that order; no plain key ends like it, and no
    coloring makes it ambiguous.  Only a part that splits neither way is
    searched for its least placement, with twin pruning.
    `MAX_CANON_VERTICES` bounds the whole graph, and `MAX_CANON_NODES`
    the search nodes over all its parts.
    """
    vs = sorted(graph.vertices)
    if not graph.vertices <= coloring.keys():
        raise GraphError("coloring not total on the vertex set")
    n = len(vs)
    if n > MAX_CANON_VERTICES:
        raise CanonicalizationError("graph with %d vertices exceeds the exact bound" % n,
                                    "MAX_CANON_VERTICES=%d" % MAX_CANON_VERTICES)
    return _part_key(vs, graph.adjacency, coloring, [MAX_CANON_NODES])


def _part_key(vs, nbrs, coloring, budget):
    """`canonical_key` of the sorted vertices `vs`, whose neighbors
    `nbrs` all lie among them; `budget[0]` search nodes are left."""
    n = len(vs)
    if n == 1:
        return str(coloring[vs[0]]) + "#", vs
    # Refinement: split classes by their neighbors' class multisets.  The
    # first round ranks the colors themselves, and classes are numbered in
    # sorted-signature order, so class order extends color order.
    sig = {v: str(coloring[v]) for v in vs}
    count = None
    while True:
        classes = sorted(set(sig.values()))
        if len(classes) == count:
            break
        count = len(classes)
        number = {s: i for i, s in enumerate(classes)}
        rank = {v: number[sig[v]] for v in vs}
        if count == n:
            break
        sig = {v: (rank[v], tuple(sorted(rank[u] for u in nbrs[v]))) for v in vs}

    best_rows = best_order = None

    def extend(placed, placed_set, rows):
        nonlocal best_rows, best_order
        budget[0] -= 1
        if budget[0] < 0:
            raise CanonicalizationError("canonical search budget exhausted",
                                        "MAX_CANON_NODES=%d" % MAX_CANON_NODES)
        if len(placed) == n:
            if best_rows is None or rows < best_rows:
                best_rows, best_order = list(rows), list(placed)
            return
        if best_rows is not None and rows > best_rows[:len(rows)]:
            return
        scored = []
        for v in vs:
            if v not in placed_set:
                nb = nbrs[v]
                scored.append(((rank[v], "".join("1" if u in nb else "0" for u in placed)), v))
        least = min(s for s, _v in scored)
        # Twin pruning: twins of one class are interchangeable.
        pruned = []
        for s, v in scored:
            if s == least and not any(rank[u] == rank[v] and _twins(nbrs, u, v) for u in pruned):
                pruned.append(v)
        for v in pruned:
            placed.append(v)
            placed_set.add(v)
            rows.append(least)
            extend(placed, placed_set, rows)
            rows.pop()
            placed_set.remove(v)
            placed.pop()

    if count == n:
        # Discrete: the search would place the vertices in class order.
        best_order = sorted(vs, key=rank.__getitem__)
    else:
        for tag, linked in (("P", lambda v, unseen: nbrs[v] & unseen),
                            ("S", lambda v, unseen: unseen - nbrs[v])):
            parts = _components(vs, linked)
            if len(parts) > 1:
                keyed = sorted(_part_key(p, {v: nbrs[v].intersection(p) for v in p},
                                         coloring, budget) for p in parts)
                return ("(%s%s)" % (tag, "".join("%d:%s" % (len(k), k) for k, _o in keyed)),
                        [v for _k, o in keyed for v in o])
        extend([], set(), [])
    rows = ("".join("1" if u in nbrs[v] else "0" for u in best_order[:i])
            for i, v in enumerate(best_order))
    return "|".join(str(coloring[v]) for v in best_order) + "#" + ",".join(rows), best_order


def _twins(nbrs, u, v) -> bool:
    """Does swapping u and v preserve the edges?"""
    return nbrs[u] - {v} == nbrs[v] - {u}


def twin_classes(graph: LocGraph, color: dict) -> dict:
    """Vertex -> its class, a sorted tuple, for each vertex of `color`
    with a twin there: one of the same color and `_twins`.  No vertex has
    both a linked and an unlinked twin, so twinship is an equivalence."""
    classes = []
    for v in sorted(color):
        for c in classes:
            if color[c[0]] == color[v] and _twins(graph.adjacency, c[0], v):
                c.append(v)
                break
        else:
            classes.append([v])
    return {v: tuple(c) for c in classes if len(c) > 1 for v in c}


def _components(vs, linked):
    """The sorted vertex sets that `linked(v, unseen)` connects."""
    unseen, parts = set(vs), []
    while unseen:
        part = [unseen.pop()]
        for v in part:              # grows as the loop reaches new vertices
            found = linked(v, unseen)
            unseen -= found
            part.extend(found)
        parts.append(sorted(part))
    return parts


# ---------------------------------------------------------------------------
# Bipartite matching
# ---------------------------------------------------------------------------

def has_matching(n, m, compatible) -> bool:
    """Can each of n items take a distinct one of m slots, where
    compatible(i, j) says item i fits slot j?  Kuhn's augmenting paths."""
    owner = {}

    def augment(i, seen):
        for j in range(m):
            if j in seen or not compatible(i, j):
                continue
            seen.add(j)
            if j not in owner or augment(owner[j], seen):
                owner[j] = i
                return True
        return False

    return all(augment(i, set()) for i in range(n))
