import itertools
import random

import pytest

from vccts.graphs import (
    CanonicalizationError, GraphError, canonical_key,
    compose_residuals, graph_subst, has_matching, identity_residual, make_graph,
    oplus_graph,
)
from vccts.netstate import flatten
from vccts.parser import parse_source
from vccts.syntax import PSym


def test_graph_subst_pure_replacement():
    g = make_graph([10])
    h = make_graph([20, 21], [(20, 21)])
    out = graph_subst(g, 10, h)
    assert out == h


def test_graph_subst_neighbor_inheritance():
    g = make_graph([1, 2], [(1, 2)])
    h = make_graph([30, 31])
    out = graph_subst(g, 1, h)
    assert out.vertices == {2, 30, 31}
    assert out.has_edge(2, 30) and out.has_edge(2, 31)
    assert not out.has_edge(30, 31)


def test_graph_subst_no_edge_no_inheritance():
    g = make_graph([1, 2, 3], [(1, 2)])
    h = make_graph([40])
    out = graph_subst(g, 1, h)
    assert out.vertices == {2, 3, 40}
    assert out.has_edge(2, 40)
    assert not out.has_edge(3, 40)
    assert not out.has_edge(2, 3)


def test_graph_subst_errors():
    g = make_graph([1])
    with pytest.raises(GraphError):
        graph_subst(g, 2, make_graph([5]))
    with pytest.raises(GraphError):
        graph_subst(g, 1, make_graph([1]))


def test_graph_subst_properties_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 6)
        vs = list(range(n))
        edges = [(a, b) for a in vs for b in vs if a < b and rng.random() < 0.4]
        g = make_graph(vs, edges)
        hn = rng.randint(1, 3)
        h = make_graph(range(100, 100 + hn),
                       [(a, b) for a in range(100, 100 + hn)
                        for b in range(100, 100 + hn) if a < b and rng.random() < 0.5])
        p = rng.choice(vs)
        out = graph_subst(g, p, h)
        assert len(out.vertices) == len(g.vertices) - 1 + len(h.vertices)
        for a, b in out.edges:
            assert a != b and a in out.vertices and b in out.vertices


def test_oplus_variants():
    g = make_graph([1, 2], [(1, 2)])
    h = make_graph([3, 4])
    disjoint = oplus_graph(g, h)
    assert disjoint.edges == g.edges
    full = oplus_graph(g, h, [(a, b) for a in (1, 2) for b in (3, 4)])
    assert len(full.edges) == 1 + 4
    single = oplus_graph(make_graph([1]), make_graph([2]), [(1, 2)])
    assert single.has_edge(1, 2)
    with pytest.raises(GraphError):
        oplus_graph(g, h, [(3, 1)])
    with pytest.raises(GraphError):
        oplus_graph(g, make_graph([1]))


def test_canonical_key_relabeling_invariance():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 7)
        vs = list(range(n))
        edges = [(a, b) for a in vs for b in vs if a < b and rng.random() < 0.4]
        colors = {v: rng.choice("xyz") for v in vs}
        g = make_graph(vs, edges)
        perm = list(range(100, 100 + n))
        rng.shuffle(perm)
        mapping = dict(zip(vs, perm))
        g2 = make_graph(perm, [(mapping[a], mapping[b]) for a, b in edges])
        colors2 = {mapping[v]: c for v, c in colors.items()}
        assert canonical_key(g, colors)[0] == canonical_key(g2, colors2)[0]


def test_canonical_key_distinguishes_colors():
    g1 = make_graph([1, 2], [(1, 2)])
    g2 = make_graph([7, 9], [(7, 9)])
    assert canonical_key(g1, {1: "a", 2: "b"})[0] == canonical_key(g2, {9: "a", 7: "b"})[0]
    assert canonical_key(g1, {1: "a", 2: "b"})[0] != canonical_key(g2, {9: "a", 7: "a"})[0]


def test_canonical_key_path_vs_triangle():
    path = make_graph([1, 2, 3], [(1, 2), (2, 3)])
    tri = make_graph([4, 5, 6], [(4, 5), (5, 6), (4, 6)])
    same = {v: "c" for v in range(1, 7)}
    assert canonical_key(path, same)[0] != canonical_key(tri, same)[0]


def test_canonical_key_oplus_commutes():
    g = make_graph([1, 2], [(1, 2)])
    h = make_graph([3])
    colors = {1: "a", 2: "b", 3: "c"}
    left = oplus_graph(g, h, [(1, 3)])
    right = oplus_graph(h, g, [(3, 1)]) if False else oplus_graph(
        make_graph([3]), g, [(3, 1)])
    assert canonical_key(left, colors)[0] == canonical_key(right, colors)[0]


def test_canonical_same_color_clouds():
    # complete and empty same-color graphs exercise the twin pruning
    for n in (5, 8):
        vs = list(range(n))
        colors = {v: "s" for v in vs}
        complete = make_graph(vs, [(a, b) for a in vs for b in vs if a < b])
        k1 = canonical_key(complete, colors)[0]
        vs2 = [v + 50 for v in vs]
        complete2 = make_graph(vs2, [(a, b) for a in vs2 for b in vs2 if a < b])
        assert k1 == canonical_key(complete2, {v: "s" for v in vs2})[0]
        empty = make_graph(vs)
        assert canonical_key(empty, colors)[0] != k1


def test_canonical_size_guard():
    vs = list(range(30))
    g = make_graph(vs)
    with pytest.raises(CanonicalizationError):
        canonical_key(g, {v: "c" for v in vs})


def test_residual_composition():
    g0 = make_graph([1, 2])
    lam1 = {10: 1, 11: 1, 2: 2}      # |P1| -> |P0|
    lam2 = {20: 10, 2: 2}            # |P2| -> |P1|
    total = compose_residuals(lam1, lam2)
    assert total == {20: 1, 2: 2}
    assert compose_residuals(identity_residual(g0), {5: 1}) == {5: 1}


def _brute_force_iso(g1, c1, g2, c2):
    import itertools as it
    v1, v2 = sorted(g1.vertices), sorted(g2.vertices)
    if len(v1) != len(v2):
        return False
    for perm in it.permutations(v2):
        m = dict(zip(v1, perm))
        if any(c1[v] != c2[m[v]] for v in v1):
            continue
        if all(g2.has_edge(m[a], m[b]) == g1.has_edge(a, b)
               for i, a in enumerate(v1) for b in v1[i + 1:]):
            return True
    return False


def test_canonical_key_matches_brute_force():
    rng = random.Random(71)
    for _ in range(150):
        n1, n2 = rng.randint(1, 5), rng.randint(1, 5)
        def mk(n, base):
            vs = list(range(base, base + n))
            edges = [(a, b) for a in vs for b in vs if a < b and rng.random() < 0.5]
            colors = {v: rng.choice("xy") for v in vs}
            return make_graph(vs, edges), colors
        g1, c1 = mk(n1, 0)
        g2, c2 = mk(n2, 10)
        keys_equal = canonical_key(g1, c1)[0] == canonical_key(g2, c2)[0]
        assert keys_equal == _brute_force_iso(g1, c1, g2, c2)
    # unions and joins, nested, around prime parts; colors that look like
    # keys must not make a composite key equal another one
    composites = 0
    for _ in range(200):
        vs, edges = _composed(rng, rng.randint(2, 7), itertools.count())
        colors = {v: rng.choice(["x", "y", "(P3:x#)", "1:x#"]) for v in vs}
        g1 = make_graph(vs, edges)
        rename = dict(zip(vs, rng.sample(range(100, 200), len(vs))))
        edges2 = {(rename[a], rename[b]) for a, b in edges}
        colors2 = {rename[v]: c for v, c in colors.items()}
        # half the time, one vertex pair or one color changes
        a, b = rng.sample(sorted(colors2), 2)
        if rng.random() < 0.25:
            pair = {(a, b), (b, a)}
            edges2 = edges2 - pair if edges2 & pair else edges2 | {(a, b)}
        elif rng.random() < 0.33:
            colors2[a] = rng.choice(["x", "y"])
        g2 = make_graph(rename.values(), edges2)
        key = canonical_key(g1, colors)[0]
        composites += key.startswith("(")
        assert (key == canonical_key(g2, colors2)[0]) == \
            _brute_force_iso(g1, colors, g2, colors2)
    assert composites > 50


def test_composite_keys_stay_apart_whatever_the_colors():
    # colors may hold any character: the parts of a composite key are
    # length-prefixed, and a composite key cannot end like a plain one
    one, two, four = make_graph([1]), make_graph([1, 2]), make_graph([1, 2, 3, 4])
    keys = [canonical_key(four, {1: "x", 2: "x", 3: "a", 4: "b#c"})[0],
            canonical_key(four, {1: "x", 2: "x", 3: "a#b", 4: "c"})[0],
            canonical_key(two, {1: "x", 2: "x"})[0],
            canonical_key(one, {1: "P2:x#2:x"})[0],
            canonical_key(make_graph([1, 2], [(1, 2)]), {1: "x", 2: "x"})[0]]
    assert len(set(keys)) == len(keys)
    assert keys[2:] == ["(P2:x#2:x#)", "P2:x#2:x#", "(S2:x#2:x#)"]


def _composed(rng, n, fresh):
    """Vertices and edges of a random graph on n vertices drawn from
    `fresh`: single vertices, P4s and small random graphs put together
    by disjoint union and by join."""
    if n == 1:
        return [next(fresh)], []
    if n <= 5 and rng.random() < 0.3:
        vs = [next(fresh) for _ in range(n)]
        if n == 4 and rng.random() < 0.5:
            return vs, list(zip(vs, vs[1:]))       # P4: splits neither way
        return vs, [(a, b) for a in vs for b in vs if a < b and rng.random() < 0.5]
    k = rng.randint(1, n - 1)
    va, ea = _composed(rng, k, fresh)
    vb, eb = _composed(rng, n - k, fresh)
    join = [(a, b) for a in va for b in vb] if rng.random() < 0.5 else []
    return va + vb, ea + eb + join


def _brute_force_matching(n, m, compatible):
    import itertools as it
    return any(all(compatible(i, slots[i]) for i in range(n))
               for slots in it.permutations(range(m), n))


def test_has_matching_matches_brute_force():
    rng = random.Random(29)
    alphabet = [PSym(s, co) for s in "fgh" for co in (False, True)]
    for _ in range(300):
        # offered-barb shape: barbs into per-location offer sets
        fam = [frozenset(rng.sample(alphabet, rng.randint(0, 3)))
               for _ in range(rng.randint(0, 4))]
        barbs = rng.sample(alphabet, rng.randint(0, 4))
        fits = lambda i, j: barbs[i] in fam[j]
        assert has_matching(len(barbs), len(fam), fits) \
            == _brute_force_matching(len(barbs), len(fam), fits)
        # label shape: challenger locations onto defender locations under E
        k = rng.randint(0, 4)
        lefts = rng.sample(range(10), k)
        rights = rng.sample(range(20, 30), k)
        rel = {(a, b) for a in lefts for b in rights if rng.random() < 0.4}
        fits = lambda i, j: (lefts[i], rights[j]) in rel
        assert has_matching(k, k, fits) == _brute_force_matching(k, k, fits)


def test_canonical_order_zips_relabeled_graphs_isomorphically():
    # the game renames isomorphic states onto one representative through
    # the zip of their canonical orders, so that zip must be a
    # color-preserving isomorphism, not just the keys equal
    rng = random.Random(23)
    for _ in range(200):
        _check_order_zip(rng, rng.randint(1, 10), "xyz"[:rng.randint(1, 3)])
    # past ten refinement classes, string and integer class order diverge
    for _ in range(60):
        _check_order_zip(rng, rng.randint(11, 24),
                         ["k%d" % i for i in range(rng.randint(1, 12))])
    # unions of joins of unions, and so on, around prime parts
    for _ in range(150):
        _check_order_zip(rng, rng.randint(2, 24), "xyz"[:rng.randint(1, 3)], composed=True)


def test_canonical_key_splits_disjoint_linked_pairs():
    # eight linked (Loop | Sink) pairs under (+): refinement cannot tell
    # the pairs apart, and a search over their placements exhausts the
    # node budget, but each pair is a connected component of its own
    src = ("symbol u/1;\ndef Loop = ~u(1).(Loop);\ndef Sink = u(x).(Sink);\n"
           "process P = %s;\n" % " (+) ".join(["(Loop | Sink)"] * 8))
    env = parse_source(src)
    state = flatten(env.processes["P"], env)
    assert len(state.graph.vertices) == 16
    _assert_zip_isomorphic(random.Random(8), state.graph, state.coloring())


def _check_order_zip(rng, n, palette, composed=False):
    if composed:
        vs, edges = _composed(rng, n, itertools.count())
    else:
        vs = list(range(n))
        density = rng.random()
        edges = [(a, b) for a in vs for b in vs if a < b and rng.random() < density]
    _assert_zip_isomorphic(rng, make_graph(vs, edges), {v: rng.choice(palette) for v in vs})


def _assert_zip_isomorphic(rng, g, colors):
    """A relabelled copy of g gets g's key, and zipping the two canonical
    orders maps g onto it."""
    vs, edges = sorted(g.vertices), sorted(g.edges)
    n = len(vs)
    image = rng.sample(range(1000), n)
    rename = dict(zip(vs, image))
    g2 = make_graph(image, [(rename[a], rename[b]) for a, b in edges])
    colors2 = {rename[v]: c for v, c in colors.items()}
    key, order = canonical_key(g, colors)
    key2, order2 = canonical_key(g2, colors2)
    assert key == key2
    phi = dict(zip(order, order2))
    assert sorted(phi) == vs and sorted(phi.values()) == sorted(image)
    assert all(colors[v] == colors2[phi[v]] for v in vs)
    assert {frozenset((phi[a], phi[b])) for a, b in g.edges} == \
        {frozenset(e) for e in g2.edges}


def test_canonical_key_needs_a_total_coloring():
    g = make_graph([1, 2], [(1, 2)])
    with pytest.raises(GraphError, match="coloring not total"):
        canonical_key(g, {1: "a", 99: "b"})
    with pytest.raises(GraphError, match="coloring not total"):
        canonical_key(g, {1: "a"})
