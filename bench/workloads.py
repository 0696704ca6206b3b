"""The three workloads: their inputs, their queries and the known answers.

A query is one call a user would make: one verdict, one reachability
exploration, or one diamond/decomposition check of a process.  Queries
come in groups (one input, asked one or more ways); a round holds one
group per family, and set-up builds enough rounds that a run at today's
speed does not exhaust them.  Random families get fresh inputs in every
round; the scaling families are the same inputs in every round.

Throughput and latency are taken over whole rounds, so each recurring
query forms a block of equal latencies in the sorted samples.  A round
holds 5 mod 10 queries (or 3), so the median and the 90th percentile
fall inside a block rather than on the edge between two, where they
would jump with every random input that crosses over.

`build(name, vc, seed)` parses and flattens every input and returns the
rounds.  `vc` holds the freshly imported program modules and every call
goes through it at call time, so the traced mode's wrappers see it.
"""

from __future__ import annotations

import random

import gen

# Rounds built per workload, sized so that a 30 s run does not wrap
# around at today's speed.
ROUNDS = {"reduce": 100, "lts": 1000, "weak": 20}
# State budget of the reachability queries: the heaviest generated
# processes stop there (undecided) instead of taking seconds each.
REACH_MAX_STATES = 300


class Query:
    """`call()` returns the raw answer; `check(raw, seen)` returns
    (summary, decided, error), where `seen` maps the kinds already
    answered in this group to their summaries."""

    __slots__ = ("family", "kind", "call", "check")

    def __init__(self, family, kind, call, check):
        self.family = family
        self.kind = kind
        self.call = call
        self.check = check


# -- answer checks ---------------------------------------------------------

def verdict(expected=None, agrees_with=None, implied_by=None):
    """Check for a Verdict.  `expected`: the known result.  `agrees_with`:
    a kind of the same group that must give the same result.
    `implied_by`: a kind whose `bisimilar` forces `bisimilar` here
    (weak bisimilarity implies barbed bisimilarity)."""
    def check(v, seen):
        res = v.result
        if res not in ("bisimilar", "not", "inconclusive"):
            return res, False, "unknown verdict %r" % (res,)
        if res == "inconclusive":
            return res, False, None
        if expected is not None and res != expected:
            return res, True, "expected %s, got %s" % (expected, res)
        other = seen.get(agrees_with)
        if other not in (None, "inconclusive") and other != res:
            return res, True, "%s says %s, %s says %s" % (agrees_with, other,
                                                           "this", res)
        if seen.get(implied_by) == "bisimilar" and res != "bisimilar":
            return res, True, "%s is bisimilar but this is %s" % (implied_by, res)
        return res, True, None
    return check


def reach_summary(r):
    """Shape of a Reachability answer; the stored successor keys of a
    complete exploration must all be stored states."""
    succ = sum(len(v) for v in r.successors.values())
    err = None
    if r.initial not in r.states:
        err = "initial state not stored"
    elif r.status == "complete" and any(
            k not in r.states for v in r.successors.values() for k in v):
        err = "complete exploration lists an unstored successor"
    return (r.status, len(r.states), succ), r.status == "complete", err


def check_reach(r, _seen):
    return reach_summary(r)


def check_idle(answer, _seen):
    found, _trace, status = answer
    if status != "complete":
        return (found, status), False, None
    return (found, status), True, None if found else "recognized tree did not reduce to idle"


def check_diamond(answer, _seen):
    rep, (multi, fails) = answer
    err = None
    if rep.counterexamples:
        err = "diamond counterexample: %s" % (rep.counterexamples[0][2],)
    elif fails:
        err = "decomposition failure: %s" % (fails[0][2],)
    return (rep.checked, multi), True, err


# -- input helpers ---------------------------------------------------------

def _states(vc, src, *names):
    env = vc.parser.parse_source(src)
    return [vc.netstate.flatten(env.processes[n], env) for n in names], env


def _pair_src(left, right):
    return gen.BASE_DEFS + "process L = %s;\nprocess R = %s;\n" % (left, right)


def _family_states(vc, terms):
    """One shared environment for a list of generated processes."""
    src = gen.BASE_DEFS + "".join("process P%d = %s;\n" % (i, t)
                                  for i, t in enumerate(terms))
    env = vc.parser.parse_source(src)
    return [vc.netstate.flatten(env.processes["P%d" % i], env)
            for i in range(len(terms))], env


def _bisim_group(vc, family, L, R, env, cfg, kinds):
    """kinds: (kind, decider name, check) triples over one pair."""
    eq = vc.equivalence
    return [Query(family, kind, lambda f=fn: getattr(eq, f)(L, R, env, cfg), chk)
            for kind, fn, chk in kinds]


# -- reduce ----------------------------------------------------------------

def build_reduce(vc, rng):
    """Reduction semantics only, 15 queries a round: reachability of four
    recursive processes, one tree recognition, one barbed game on a
    random pair, protocol delivery for 0..5 messages and barbed games on
    the parsed counter family at n = 36, 40, 44."""
    cfg = vc.equivalence.GameConfig(universe=(0, 1))
    # Component counts cycle through 1..5 (uniform, as drawn by the
    # property suites) so every run sees them in the same proportions.
    per_round = 4
    terms = [gen.random_process(rng, depth=2, allow_recursion=True,
                                components=1 + i % 5)
             for i in range(ROUNDS["reduce"] * per_round)]
    reach_states, reach_env = _family_states(vc, terms)
    counters = []
    for n in (36, 40, 44):
        (L, R), env = _states(vc, gen.counter_pair_src(n), "L", "R")
        counters.append(_bisim_group(vc, "counter", L, R, env, cfg, [
            ("barbed", "weak_barbed_bisim", verdict("bisimilar"))]))
    rounds = []
    for r in range(ROUNDS["reduce"]):
        groups = []
        for s in reach_states[r * per_round:(r + 1) * per_round]:
            groups.append([Query("reachable", "reach",
                                 lambda s=s: vc.reduction.reachable(
                                     s, reach_env, REACH_MAX_STATES),
                                 check_reach)])
        groups.append(_tree_group(vc, rng))
        left, right, same = gen.random_pair(rng)
        (L, R), env = _states(vc, _pair_src(left, right), "L", "R")
        groups.append(_bisim_group(vc, "barbed-pair", L, R, env, cfg, [
            ("barbed", "weak_barbed_bisim",
             verdict("bisimilar" if same else None))]))
        groups.extend(_abp_group(vc, rng, length) for length in range(6))
        groups.extend(counters)
        rounds.append(groups)
    return rounds


def _tree_group(vc, rng):
    """A random acyclic automaton (at most 4 states, so at most 16
    locations ever) and a tree it recognizes: must reduce to idle."""
    enc = vc.encodings
    states, sig, transitions = gen.random_dag_automaton(rng, max_states=4)
    tree = gen.random_recognized_tree(rng, transitions, states[0])

    def sigma(t):
        if t is None:
            return enc.LEAF
        return enc.SigmaTree(t[0], "x", tuple(sigma(c) for c in t[1]))

    aut = enc.tree_automaton(states, sig, transitions)
    entry, env = enc.automaton_to_process(aut, states[0], vc.syntax.DefEnv())
    term = vc.syntax.par(entry, enc.tree_to_process(sigma(tree), rng.choice((0, 1))))
    s = vc.netstate.flatten(term, env)
    return [Query("tree", "idle",
                  lambda: vc.reduction.reduces_to_idle(s, env, max_states=4000),
                  check_idle)]


def _abp_group(vc, rng, length):
    """The alternating bit protocol on `length` random messages: the
    success stage must be reachable."""
    msgs = tuple(rng.randint(0, 9) for _ in range(length))
    state, env, _init = vc.encodings.abp_system(msgs, rng.choice((0, 1)))
    fp = vc.syntax.term_fingerprint
    wanted = sorted(fp(t) for t in vc.encodings.abp_success_components(msgs))

    def check(r, _seen):
        summary, decided, err = reach_summary(r)
        if err is None and decided and not any(
                sorted(fp(t) for t in st.comp.values()) == wanted
                for st in r.states.values()):
            err = "success stage of %r not reached" % (msgs,)
        return summary, decided, err

    return [Query("abp", "reach",
                  lambda: vc.reduction.reachable(state, env, max_states=20000),
                  check)]


# -- lts -------------------------------------------------------------------

def build_lts(vc, rng):
    """Diamond and decomposition checks of the multi-labelled transitions
    of random processes, universe {0, 1}, one process of each of 1, 2 and
    3 components per round.  (Four-component processes take 0.1-0.6 s
    each; a run would hold too few of them for steady figures.)"""
    terms = [gen.random_process(rng, depth=1, components=1 + i % 3)
             for i in range(3 * ROUNDS["lts"])]
    states, env = _family_states(vc, terms)
    llts = vc.llts

    def group(s):
        return [Query("diamond", "diamond",
                      lambda: (llts.diamond_check(s, env, (0, 1)),
                               llts.decompose_check(s, env, (0, 1))),
                      check_diamond)]

    return [[group(s) for s in states[i:i + 3]]
            for i in range(0, len(states), 3)]


# -- weak ------------------------------------------------------------------

def build_weak(vc, rng):
    """Localized early weak bisimilarity, 25 queries a round: Loop/Sink
    par_all against itself and against its oplus_all for n = 3..6, the
    expansion law, n-state cycles against the constant loop for
    n = 40, 60, ..., 200, and one fresh random input: an idle composition
    in even rounds, a random pair in odd ones."""
    cfg = vc.equivalence.GameConfig(universe=(0, 1))
    fixed = []
    for n in range(3, 7):
        (P, P2, O), env = _states(vc, gen.loop_sink_src(n), "Par", "Par", "Oplus")
        fixed.append(_bisim_group(vc, "loop-sink", P, P2, env, cfg, [
            ("weak", "weak_bisim", verdict("bisimilar")),
            ("barbed", "weak_barbed_bisim", verdict("bisimilar", implied_by="weak"))]))
        # The linked system's internal exchange has no localized match in
        # the unlinked one.
        fixed.append(_bisim_group(vc, "loop-sink", P, O, env, cfg, [
            ("weak", "weak_bisim", verdict("not"))]))
    (L, R), env = _states(vc, gen.EXPANSION_LAW_SRC, "L", "R")
    fixed.append(_bisim_group(vc, "expansion-law", L, R, env,
                              vc.equivalence.GameConfig(universe=(1, 2)), [
        ("weak", "weak_bisim", verdict("not")),
        ("barbed", "weak_barbed_bisim", verdict("not"))]))
    for n in range(40, 201, 20):
        (L, R), env = _states(vc, gen.cycle_src(n), "L", "R")
        fixed.append(_bisim_group(vc, "cycle", L, R, env, cfg, [
            ("weak", "weak_bisim", verdict("not"))]))
    rounds = []
    for r in range(ROUNDS["weak"]):
        if r % 2 == 0:
            base, composed = gen.idle_composition(rng)
            (L, R), env = _states(vc, _pair_src(base, composed), "L", "R")
            fresh = _bisim_group(vc, "idle-composition", L, R, env, cfg, [
                ("weak", "weak_bisim", verdict("bisimilar")),
                ("barbed", "weak_barbed_bisim",
                 verdict("bisimilar", implied_by="weak"))])
        else:
            left, right, same = gen.random_pair(rng)
            (L, R), env = _states(vc, _pair_src(left, right), "L", "R")
            expect = "bisimilar" if same else None
            fresh = _bisim_group(vc, "random-pair", L, R, env, cfg, [
                ("weak", "weak_bisim", verdict(expect)),
                ("stratified", "stabilized_stratified_verdict",
                 verdict(expect, agrees_with="weak"))])
        rounds.append(fixed + [fresh])
    return rounds


BUILDERS = {"reduce": build_reduce, "lts": build_lts, "weak": build_weak}


def build(name, vc, seed):
    """Parse and flatten every input of workload `name` from `seed`."""
    return BUILDERS[name](vc, random.Random(seed))
