"""Differential verdict dump: one JSON record per pair and per state, for
comparing two source trees of vccts.

    python tests/verdict_dump.py SRC_DIR > dump.jsonl

imports `vccts` from SRC_DIR and prints, for every pair, the weak
bisimilarity verdict with its detail and witness, the weak barbed
bisimilarity verdict with its detail and witness (which names no
location, so it is printed as it is), the approximant vector
to depth 6 with the budget that tripped, the stabilized verdict, the
triple count and sorted failure levels of a fresh game, and,
for pairs told apart at depth 3 or less, the distinguishing context's
verified, checked and direction fields.  Witness locations are renumbered
by first appearance in each record, because raw location numbers come
from a process-wide counter and depend on what ran before.

The pairs: 120 `random_pair` pairs over seeds 5, 7 and 11, output chains
n = 2..5, Loop/Sink par against par and against oplus for n = 3..5,
output cycles n = 5, 40 and 120 against the constant loop, the expansion
law over the universe {1, 2}, and 20 `random_pair` pairs (seed 3) under
budgets of 3 triples and 3 tau states.

After the pairs come state records, which pin down how states are
assembled: the flattened state's JSON, the states of `reachable` (at
most 40) in discovery order with their restricted names, and the labels,
target JSON and residual of every `multi_transitions` step over the
universe {0, 1}.  Locations are renumbered here too, by first appearance
in sorted order, state by state.  A step's spawned locations are
numbered within that step, after the source state's, because steps that
share a firing prefix share its spawned locations.  Each state record
also holds the partition that equal `graphs.canonical_key` keys induce
on the states of `reachable` followed by the step targets, as blocks of
their indices in that order.  Unlike the keys, the partition survives a
change of key format, so the dumps of two source trees agree when their
keys identify the same states.  The states: 30 `random_process_term`
processes for each of seeds 13 and 17, about a third of them with a
restriction over the whole term and over every child of every top-level
prefix, so that both flattening and firing hoist and rename restricted
names; the clash scenario, where two receivers each spawn a child
restricting g beside a free ~g bystander; and 20 processes of at most 2
components for each of seeds 19 and 23 whose top-level prefixes spawn
several locations per child (`c | 0`, or a graph holding c twice), so
that the numbering of a spawned part's locations shows.  These last are
printed with `term_str` and parsed back before they are flattened, so
the dump also compares the parsers of the two trees.
"""

import json
import random
import sys

DEPTH = 6
CONTEXT_DEPTH = 3

LOOP_SINK = """\
symbol k/2;
symbol u/1;
symbol w/1;
def Loop = ~u(1).(Loop);
def Sink = u(x).(Sink);
process Par = %s;
process Oplus = %s;
"""

CYCLE = """\
symbol u/1;
def Cyc(n) = if n = %d then ~u(1).(Cyc(0)) else ~u(0).(Cyc(n + 1));
def K = ~u(0).(K);
process L = Cyc(0);
process R = K;
"""

CLASH = """\
symbol f/1;
symbol g/1;
process P = f(x).((g(y).(*)) restrict {g}) | f(x).((g(y).(*)) restrict {g})
    | ~f(1).(~f(1).(*)) | ~g(0).(*);
"""

EXPANSION_LAW = """\
symbol f/1;
symbol g/1;
process L = ~f(1).(0) | ~g(2).(0);
process R = graph { v: ~f(1).(~g(2).(0)) + ~g(2).(~f(1).(0)) };
"""


def pairs(vc, gen):
    """(family, P, Q, env, cfg) for every input, in a fixed order."""
    GameConfig = vc.equivalence.GameConfig
    cfg = GameConfig(universe=(0, 1))

    def parsed(src, left, right):
        env = vc.parser.parse_source(src)
        return (vc.netstate.flatten(env.processes[left], env),
                vc.netstate.flatten(env.processes[right], env), env)

    for seed in (5, 7, 11):
        rng = random.Random(seed)
        for _ in range(40):
            yield ("random-%d" % seed,) + gen.random_pair(rng) + (cfg,)
    for n in range(2, 6):
        yield ("chain-%d" % n,) + gen.output_chain_pair(n) + (cfg,)
    for n in range(3, 6):
        names = [("Loop", "Sink")[i % 2] for i in range(n)]
        src = LOOP_SINK % (" | ".join(names), " (+) ".join(names))
        yield ("loop-sink-par-%d" % n,) + parsed(src, "Par", "Par") + (cfg,)
        yield ("loop-sink-oplus-%d" % n,) + parsed(src, "Par", "Oplus") + (cfg,)
    for n in (5, 40, 120):
        yield ("cycle-%d" % n,) + parsed(CYCLE % (n - 1), "L", "R") + (cfg,)
    yield ("expansion-law",) + parsed(EXPANSION_LAW, "L", "R") \
        + (GameConfig(universe=(1, 2)),)
    rng = random.Random(3)
    small = GameConfig(universe=(0, 1), max_triples=3, max_tau_states=3)
    for _ in range(20):
        yield ("budget",) + gen.random_pair(rng) + (small,)


def map_prefix_children(term, fn, sx):
    """`term` with `fn` applied to every child of each top-level prefix."""
    if isinstance(term, sx.Sum):
        return sx.map_children(term, lambda t: map_prefix_children(t, fn, sx))
    kids = tuple(fn(c) for c in getattr(term, "children", ()))
    if isinstance(term, sx.Input):
        return sx.Input(term.sym, term.var, kids)
    if isinstance(term, sx.Output):
        return sx.Output(term.sym, term.expr, kids)
    return term


def widened(child, rng, sx):
    """`child | 0`, or a graph holding two copies of `child` (one of them
    linked to an idle vertex), so that firing spawns several locations."""
    if rng.random() < 0.5:
        return sx.par(child, sx.NIL)
    return sx.graph_term((("a", child), ("b", child), ("c", sx.IDLE)), (("b", "c"),))


def states(vc, gen):
    """(family, state, env) for every state record, in a fixed order."""
    sx = vc.syntax
    env = gen.base_env()
    for seed in (13, 17):
        rng = random.Random(seed)
        for _ in range(30):
            term = gen.random_process_term(rng, allow_recursion=rng.random() < 0.3)
            family = "state-%d" % seed
            if rng.random() < 0.35:
                syms = frozenset(s for s in sorted(gen.BASE_SIG)
                                 if rng.random() < 0.5) or frozenset({"u"})
                term = sx.Restrict(sx.GraphTerm(
                    tuple((v, map_prefix_children(t, lambda c: sx.Restrict(c, syms), sx))
                          for v, t in term.places), term.links), syms)
                family += "-restricted"
            yield family, vc.netstate.flatten(term, env), env
    clash = vc.parser.parse_source(CLASH)
    yield "clash", vc.netstate.flatten(clash.processes["P"], clash), clash
    for seed in (19, 23):
        rng = random.Random(seed)
        for _ in range(20):
            term = gen.random_process_term(rng, max_components=2,
                                           allow_recursion=rng.random() < 0.3)
            term = sx.GraphTerm(
                tuple((v, map_prefix_children(t, lambda c: widened(c, rng, sx), sx))
                      for v, t in term.places), term.links)
            term = vc.parser.parse_term_src(sx.term_str(term), env)
            yield "state-%d-wide" % seed, vc.netstate.flatten(term, env), env


def plain_state(state, ids):
    """A state's JSON with its locations renumbered."""
    for p in state.locations():
        ids.setdefault(p, len(ids))
    js = state.to_json()
    return {"vertices": [ids[p] for p in js["vertices"]],
            "edges": sorted(sorted([ids[a], ids[b]]) for a, b in js["edges"]),
            "components": sorted([ids[int(p)], t] for p, t in js["components"].items()),
            "restricted": js["restricted"]}


def plain_label(label, ids):
    if not hasattr(label, "lvec"):
        return repr(label)
    return [ids[label.loc], repr(label.action),
            [sorted(ids[p] for p in locs) for locs in label.lvec]]


def state_record(vc, family, state, env):
    ids = {}
    first = plain_state(state, ids)
    source_ids = dict(ids)
    reach = vc.reduction.reachable(state, env, max_states=40)
    reached = [plain_state(s, ids) for s in reach.states.values()]
    steps = []
    keyed = list(reach.states.values())
    for step in vc.llts.multi_transitions(state, env, (0, 1)):
        keyed.append(step.target)
        step_ids = dict(source_ids)
        target = plain_state(step.target, step_ids)
        labels = sorted((plain_label(l, step_ids) for l in step.labels.elements()),
                        key=json.dumps)
        residual = sorted([step_ids[t], step_ids[s]] for t, s in step.residual.items())
        steps.append({"labels": labels, "target": target, "residual": residual})
    blocks = {}
    for i, s in enumerate(keyed):
        blocks.setdefault(vc.graphs.canonical_key(s.graph, s.coloring())[0], []).append(i)
    return {"family": family, "state": first,
            "reachable": {"status": reach.status, "states": reached},
            "multi_transitions": steps,
            "key_partition": sorted(blocks.values())}


def plain_witness(play, ids):
    """A weak-game witness with its locations numbered by first appearance."""
    if play is None:
        return None
    return [[side, kind, None if label is None else
             [[repr(a), ids.setdefault(loc, len(ids))] for a, loc in label]]
            for side, kind, label in play]


def record(vc, family, P, Q, env, cfg):
    eq = vc.equivalence
    weak = eq.weak_bisim(P, Q, env, cfg)
    barbed = eq.weak_barbed_bisim(P, Q, env, cfg)
    vec, budget = eq.stratified_bisim(P, Q, env, cfg, DEPTH)
    stable = eq.stabilized_stratified_verdict(P, Q, env, cfg)
    game = eq.BisimGame(env, cfg)
    levels = sorted(game.greatest_fixpoint(game.root(P, Q)).values())
    context = None
    depth = vec.index(False) if False in vec else None
    if weak.result == "not" and depth is not None and depth <= CONTEXT_DEPTH:
        report = eq.distinguishing_context(P, Q, env, cfg, depth)
        context = {"depth": depth, "verified": report.verified,
                   "checked": report.checked, "direction": report.direction}
    return {"family": family,
            "weak": {"result": weak.result, "detail": weak.detail,
                     "witness": plain_witness(weak.witness, {})},
            "barbed": {"result": barbed.result, "detail": barbed.detail,
                       "witness": repr(barbed.witness)},
            "strata": {"vector": vec, "budget": budget},
            "stabilized": {"result": stable.result, "detail": stable.detail},
            "game": {"triples": len(game.triples), "levels": levels},
            "context": context}


def main(argv):
    if len(argv) != 2:
        print("usage: python tests/verdict_dump.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, argv[1])
    import vccts.equivalence
    import vccts.graphs
    import vccts.llts
    import vccts.netstate
    import vccts.parser
    import vccts.reduction
    import vccts.syntax
    import gen
    for family, P, Q, env, cfg in pairs(vccts, gen):
        print(json.dumps(record(vccts, family, P, Q, env, cfg), sort_keys=True))
    for family, state, env in states(vccts, gen):
        print(json.dumps(state_record(vccts, family, state, env), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
