"""Finite location graphs, residual maps, canonical forms, and the
bipartite matching behind barb and label checks.

Locations are integers minted from one process-wide counter in
`netstate`, so separately flattened states never share one.  Canonical keys give state identity up to location renaming: two colored
graphs get equal keys exactly when a color-preserving isomorphism
exists.  The search is exact and meant for desk-scale graphs; a size
guard rejects anything bigger.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphError(Exception):
    pass


class CanonicalizationError(GraphError):
    """Graph exceeds an exact-canonicalization bound, named in `budget`."""

    def __init__(self, message, budget):
        super().__init__(message)
        self.budget = budget


@dataclass(frozen=True)
class LocGraph:
    vertices: frozenset
    edges: frozenset        # normalized pairs (a, b) with a < b

    def has_edge(self, p, q) -> bool:
        if p == q:
            return False
        return (min(p, q), max(p, q)) in self.edges

    def neighbors(self, p):
        out = set()
        for a, b in self.edges:
            if a == p:
                out.add(b)
            elif b == p:
                out.add(a)
        return out

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
    vs = (g.vertices - {p}) | h.vertices
    edges = set(h.edges)
    nbrs = g.neighbors(p)
    for a, b in g.edges:
        if a != p and b != p:
            edges.add((a, b))
    for q in nbrs:
        for r in h.vertices:
            edges.add((min(q, r), max(q, r)))
    return LocGraph(frozenset(vs), frozenset(edges))


def oplus_graph(g: LocGraph, h: LocGraph, cross=()) -> LocGraph:
    """Disjoint union with the given cross pairs added as edges."""
    if g.vertices & h.vertices:
        raise GraphError("vertex collision: %r" % (g.vertices & h.vertices,))
    edges = set(g.edges) | set(h.edges)
    for p, q in cross:
        if p not in g.vertices or q not in h.vertices:
            raise GraphError("cross pair (%r, %r) out of range" % (p, q))
        edges.add((min(p, q), max(p, q)))
    return LocGraph(g.vertices | h.vertices, frozenset(edges))


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


def canonical_key(graph: LocGraph, coloring: dict, order=None) -> str:
    """Canonical string for a vertex-colored graph.

    Equal keys iff there is a color-preserving isomorphism.  Exact
    search: iterated neighborhood refinement, then lexicographically
    minimal placement with twin pruning and a node budget.  A canonical
    `order` already found for the same colored graph skips the search.
    """
    return _serialize(graph, coloring, order or canonical_order(graph, coloring))


def canonical_order(graph: LocGraph, coloring: dict):
    """One vertex order achieving the canonical serialization; for equal
    keys, zipping two orders gives a color-preserving isomorphism."""
    vs = sorted(graph.vertices)
    if set(coloring) < set(vs):
        raise GraphError("coloring not total on the vertex set")
    n = len(vs)
    if n == 0:
        return []
    if n > MAX_CANON_VERTICES:
        raise CanonicalizationError(
            "graph with %d vertices exceeds the exact bound (%d)"
            % (n, MAX_CANON_VERTICES), "MAX_CANON_VERTICES=%d" % MAX_CANON_VERTICES)

    nbrs = {v: frozenset(graph.neighbors(v)) for v in vs}

    # Iterated refinement: split color classes by neighbor color multisets.
    color = {v: str(coloring[v]) for v in vs}
    while True:
        sig = {v: (color[v], tuple(sorted(color[u] for u in nbrs[v]))) for v in vs}
        classes = sorted(set(sig.values()))
        new = {v: "c%d" % classes.index(sig[v]) for v in vs}
        if len(set(new.values())) == len(set(color.values())):
            break
        color = new
    # Keep the original color as the primary sort key so the final
    # serialization stays a pure function of the colored graph.
    rank = {v: (str(coloring[v]), color[v]) for v in vs}

    budget = [MAX_CANON_NODES]
    best = {"rows": None, "order": None}

    def rows_for(v, placed):
        adj = "".join("1" if u in nbrs[v] else "0" for u in placed)
        return (rank[v], adj)

    def extend(placed, placed_set, rows):
        budget[0] -= 1
        if budget[0] < 0:
            raise CanonicalizationError("canonical search budget exhausted",
                                        "MAX_CANON_NODES=%d" % MAX_CANON_NODES)
        if len(placed) == n:
            if best["rows"] is None or tuple(rows) < best["rows"]:
                best["rows"] = tuple(rows)
                best["order"] = list(placed)
            return
        if best["rows"] is not None and tuple(rows) > best["rows"][:len(rows)]:
            return
        remaining = [v for v in vs if v not in placed_set]
        scored = [(rows_for(v, placed), v) for v in remaining]
        least = min(s for s, _v in scored)
        candidates = [v for s, v in scored if s == least]
        # Twin pruning: vertices with identical colors and identical
        # neighborhoods (ignoring each other) are interchangeable.
        pruned = []
        for v in candidates:
            dup = False
            for u in pruned:
                if rank[u] == rank[v] and (nbrs[u] - {v}) == (nbrs[v] - {u}):
                    dup = True
                    break
            if not dup:
                pruned.append(v)
        for v in pruned:
            placed.append(v)
            placed_set.add(v)
            rows.append(least)
            extend(placed, placed_set, rows)
            rows.pop()
            placed_set.remove(v)
            placed.pop()

    extend([], set(), [])
    return best["order"]


def _serialize(graph: LocGraph, coloring: dict, order) -> str:
    idx = {v: i for i, v in enumerate(order)}
    cols = "|".join(str(coloring[v]) for v in order)
    bits = []
    for i, v in enumerate(order):
        nb = graph.neighbors(v)
        bits.append("".join("1" if order[j] in nb else "0" for j in range(i)))
    return cols + "#" + ",".join(bits)


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
