"""Seeded input generators for the benchmark.

Every generator returns definition-file source text (or, for the tree
automata and the alternating bit protocol, plain tuples), never program
objects, so set-up parses and flattens them through the program's own
front end.  The random families draw from `random.Random` in the order
of the property-suite generators they copy (one seed gives the same
processes here as there unless `components` fixes the vertex count);
they live here so that an edit to the test suite cannot silently change
a workload.
"""

from __future__ import annotations

# The signature and recursive constants of the property suites.
BASE_SIG = {"u": 1, "w": 1, "k": 2}
BASE_DEFS = """\
symbol k/2;
symbol u/1;
symbol w/1;
def Loop = ~u(1).(Loop);
def Sink = u(x).(Sink);
"""


def _children(kids):
    return "(%s)" % ", ".join(kids)


def random_child(rng, depth):
    if depth <= 0:
        return rng.choice(("*", "*", "0"))
    return random_guarded_sum(rng, depth - 1, allow_sum=False)


def random_prefix(rng, depth):
    sym = rng.choice(sorted(BASE_SIG))
    kids = [random_child(rng, depth) for _ in range(BASE_SIG[sym])]
    if rng.random() < 0.5:
        return "%s(x).%s" % (sym, _children(kids))
    return "~%s(%d).%s" % (sym, rng.choice((0, 1)), _children(kids))


def random_guarded_sum(rng, depth, allow_sum=True):
    term = random_prefix(rng, depth)
    if allow_sum and rng.random() < 0.3:
        term = "%s + %s" % (term, random_prefix(rng, depth))
    if rng.random() < 0.1:
        term = "%s + %s" % (term, rng.choice(("*", "0")))
    return term


def random_places(rng, max_components=3, depth=2, allow_recursion=False,
                  components=None):
    """(places, edges) of a random graph term: one guarded sum (or a
    Loop/Sink constant) per vertex, each pair linked with chance 0.6.
    `components` fixes the vertex count instead of drawing it uniformly
    from 1..max_components."""
    n = components or rng.randint(1, max_components)
    places = []
    for i in range(n):
        if allow_recursion and rng.random() < 0.2:
            places.append(("v%d" % i, rng.choice(("Loop", "Sink"))))
        else:
            places.append(("v%d" % i, random_guarded_sum(rng, depth)))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                edges.append((places[i][0], places[j][0]))
    return places, edges


def graph_src(places, edges):
    body = "; ".join("%s: %s" % (v, t) for v, t in places)
    links = ", ".join("%s -- %s" % e for e in edges)
    return "graph { %s; edges { %s } }" % (body, links)


def random_process(rng, **kw):
    return graph_src(*random_places(rng, **kw))


def random_pair(rng):
    """A pair for equivalence checks: identical with chance 0.35, the same
    components unwired with chance 0.2, otherwise unrelated.  Returns
    (left source, right source, identical?)."""
    allow = rng.random() < 0.3
    places, edges = random_places(rng, max_components=2, depth=1,
                                  allow_recursion=allow)
    left = graph_src(places, edges)
    roll = rng.random()
    if roll < 0.35:
        return left, left, True
    if roll < 0.55:
        return left, graph_src(places, []), not edges
    allow = rng.random() < 0.3
    return left, random_process(rng, max_components=2, depth=1,
                                allow_recursion=allow), False


def idle_composition(rng):
    """A 1-2 component process and the same process with one extra idle
    vertex wired to each original vertex with chance 0.5."""
    places, edges = random_places(rng, max_components=2, depth=1)
    cross = [(v, "vs") for v, _t in places if rng.random() < 0.5]
    return graph_src(places, edges), graph_src(places + [("vs", "*")],
                                               edges + cross)


def random_dag_automaton(rng, max_states):
    """Acyclic automaton over a/1, b/2: transitions only reach strictly
    later states.  Returns (states, signature, transitions)."""
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
    return states, sig, transitions


def random_recognized_tree(rng, transitions, state):
    """Unroll transitions from `state`; exhausted states become leaves.
    A tree is None (a leaf) or (symbol, children)."""
    options = sorted((t for t in transitions if t[0] == state),
                     key=lambda t: (t[1], t[2]))
    if not options:
        return None
    _q, f, qs = rng.choice(options)
    return f, tuple(random_recognized_tree(rng, transitions, q) for q in qs)


def counter_pair_src(n):
    """C(0) | S against its renamed copy D(0) | S: n internal steps, then
    the barb ~w.  The barbed rescan fixpoint costs about n^3 here."""
    def counter(name):
        return ("def %s(n) = if n = %d then ~w(1).(0) else ~u(n).(%s(n + 1));\n"
                % (name, n, name))
    return ("symbol u/1;\nsymbol w/1;\n" + counter("C") + counter("D")
            + "def S = u(x).(S);\n"
            + "process L = C(0) | S;\nprocess R = D(0) | S;\n")


def loop_sink_src(n):
    """n Loop/Sink components, all linked (Par) and all unlinked (Oplus)."""
    names = [("Loop", "Sink")[i % 2] for i in range(n)]
    return (BASE_DEFS + "process Par = %s;\n" % " | ".join(names)
            + "process Oplus = %s;\n" % " (+) ".join(names))


def cycle_src(n):
    """An n-state output cycle that emits 1 once per round, against the
    constant ~u(0) loop."""
    return ("symbol u/1;\n"
            "def Cyc(n) = if n = %d then ~u(1).(Cyc(0)) else ~u(0).(Cyc(n + 1));\n"
            "def K = ~u(0).(K);\n"
            "process L = Cyc(0);\nprocess R = K;\n" % (n - 1))


EXPANSION_LAW_SRC = """\
symbol f/1;
symbol g/1;
process L = ~f(1).(0) | ~g(2).(0);
process R = graph { v: ~f(1).(~g(2).(0)) + ~g(2).(~f(1).(0)) };
"""
