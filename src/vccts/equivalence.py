"""Deciders for weak barbed bisimilarity and localized early weak
bisimilarity on finite-state instances, stratified approximants, and the
distinguishing-context builder used to demonstrate completeness.

Weak barbed bisimilarity is decided by partition refinement over both
reachable sets; its witness is at most k internal moves and a barb set,
where k is the refinement round that first separates the roots.  States
of one strongly connected component of the reduction graph reach the
same states, so a state's reachable barb sets, and its descendants'
blocks in each round, are accumulated once per component, in the order
Tarjan's algorithm closes them; each barb family is expanded once.

Localized early weak bisimilarity is decided by one counter-driven
failure table over the explored game: for each position, the least level
at which its stratified approximant fails.  The fixpoint verdict, the
approximants, the distinguishing play and the context builder all read
that table.  The game is over pairs of class representatives: from the
full location relation the localized side condition never restricts
anything, because residual maps are total, so the relation is not
carried.  Each game keeps one representative state per isomorphism
class, so each question about a state is answered once per class, on the
representative, by a memo that dies with the game: no verdict depends on
history.  A class's tau closure and visible steps are among those
questions; its challenges and its weak answers are both read from them.
Its tau challenges (`orbit_steps`) and visible steps keep the first move
of each orbit of twin swaps; a dropped one would repeat an earlier
challenge's actions, target class and triples.
The canonical-form cap applies to each side on its own.

Up to identity (Sangiorgi, 1998): before exploring, `weak_bisim`,
`weak_barbed_bisim` and `stratified_bisim` answer `bisimilar`, detail
"one class up to inert locations", when the two sides are one class once
their inert locations, whose every head is idle or nil, are dropped.
Such a location never fires, reacts or offers a barb; a reaction needs
two prefixes and the linked-dual-pair rule reads only firing locations,
so nothing reads its edges, and a child linked to it leaves it inert.
The sides are compared part by linked part, so the canonical-form cap
does not block a pair the rule decides.  In the game, a position whose
two sides are one representative holds at every level unchallenged.

All other verdicts are bounded-model verdicts: "bisimilar" means the
fixpoint closed with no distinction inside the configured budgets.
Whenever a budget, or a canonical-form cap, is hit the verdict degrades
to inconclusive, and its detail names it.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field

from .graphs import CanonicalizationError, LocGraph, _components as _linked_parts
from .graphs import canonical_key, make_graph
from .llts import (
    Action, action_key, steps_by_actions, tau_closure, visible_steps,
    weak_transitions,
)
from .netstate import (
    BarbBudgetError, NetState, SymbolFreshener, as_part, barb_signature, cs_head, flatten,
    join, make_state, satisfiable_barbs, state_symbol_names,
)
from .reduction import orbit_steps, reachable
from .syntax import (
    Const, DefEnv, IDLE, Idle, Input, NIL, Nil, Output, Sum, compose, par,
)
from .values import Lit


@dataclass
class GameConfig:
    universe: tuple = (0, 1)
    max_width: int = 4
    max_tau_states: int = 400
    max_states: int = 2000
    max_triples: int = 4000

    def __post_init__(self):
        if not self.universe:
            raise ValueError("value universe must be nonempty")
        if min(self.max_width, self.max_tau_states, self.max_states,
               self.max_triples) <= 0:
            raise ValueError("budgets must be positive")


@dataclass
class Verdict:
    result: str                  # "bisimilar" | "not" | "inconclusive"
    witness: object = None
    detail: str = ""

    def __bool__(self):
        return self.result == "bisimilar"


def _one_class(P: NetState, Q: NetState, env):
    """A `bisimilar` verdict when P and Q are one class once their inert
    locations (every head idle or nil) are dropped, else None.  Their
    keys decide, unless a side has an inert location or a key trips the
    canonical cap; then the sorted keys of the linked parts of the
    active locations do, and a cap tripped there means no shortcut."""
    try:
        same = P.key() == Q.key()
        if not same and not any(_inert(t, env) for s in (P, Q) for t in s.comp.values()):
            return None
    except CanonicalizationError:
        same = False
    try:
        same = same or _active_keys(P, env) == _active_keys(Q, env)
    except CanonicalizationError:
        return None
    return Verdict("bisimilar", detail="one class up to inert locations") if same else None


def _inert(term, env) -> bool:
    return all(isinstance(h, (Idle, Nil)) for h in cs_head(term, env))


def _active_keys(state: NetState, env) -> list:
    """Keys of the linked parts of state's active locations, each a
    sub-state keeping state's restricted names."""
    adj = state.graph.adjacency
    parts = map(frozenset, _linked_parts(
        [p for p, t in state.comp.items() if not _inert(t, env)],
        lambda v, unseen: adj[v] & unseen))
    return sorted(NetState(LocGraph(part, frozenset(
        (a, b) for a in part for b in adj[a] & part if a < b)),
        {p: state.comp[p] for p in part}, state.restricted).key() for part in parts)


# ---------------------------------------------------------------------------
# State composition (parallel contexts at the runtime level)
# ---------------------------------------------------------------------------

def compose_states(s1: NetState, s2: NetState, cross, env) -> NetState:
    """oplus of two runtime states; cross is 'all' (the | composition),
    or an explicit set of location pairs from |s1| x |s2|, each state in
    its own numbering.  s1 keeps its locations, and each location q of
    s2 becomes q + max|s1|."""
    if cross == "all":
        pairs = [(a, b) for a in s1.graph.vertices for b in s2.graph.vertices]
    else:
        pairs = list(cross)
    for a, b in pairs:
        if a not in s1.graph.vertices or b not in s2.graph.vertices:
            raise ValueError("cross pair (%r, %r) out of range" % (a, b))
    shift = max(s1.comp, default=0)
    freshener = SymbolFreshener(
        lambda: state_symbol_names(s1, env) | state_symbol_names(s2, env))
    (part1, locs1), (part2, locs2) = as_part(s1), as_part(s2)
    comp, edges, restricted, _res, _spawned = join(
        {None: [part1, part2]}, [(a, b + shift) for a, b in pairs], env, freshener,
        iter(locs1 + [q + shift for q in locs2]))
    return make_state(comp, edges, restricted, env)


# ---------------------------------------------------------------------------
# Weak barbed bisimilarity
# ---------------------------------------------------------------------------

def weak_barbed_bisim(P: NetState, Q: NetState, env, cfg: GameConfig) -> Verdict:
    """Greatest symmetric relation matching internal moves and every
    satisfiable barb set, on the bounded reachable state graphs.  Found by
    refinement over both reachable sets: a state starts in the block of
    the barb sets it can reach, and each round splits blocks by the blocks
    its descendants are in.  The greatest such bisimulation on the union
    is an equivalence, so the roots are bisimilar iff they share a block."""
    if hit := _one_class(P, Q, env):
        return hit
    reach = []
    for side, state in (("left", P), ("right", Q)):
        try:
            r = reachable(state, env, cfg.max_states)
            budget = None if r.status == "complete" else "max_states=%d" % cfg.max_states
        except CanonicalizationError as exc:
            budget = exc.budget
        if budget:
            return Verdict("inconclusive", detail="budget %s exhausted by "
                           "the %s reachable set" % (budget, side))
        reach.append(r)

    succ, states, roots = [], [], []
    for r in reach:          # states in key order, left side first
        order = sorted(r.states)
        pos = {k: len(succ) + i for i, k in enumerate(order)}
        succ.extend([pos[n] for n in r.successors[k]] for k in order)
        states.extend(r.states[k] for k in order)
        roots.append(pos[r.initial])

    expanded = {}            # barb family, as a multiset -> its barb sets
    def barbs(state):
        family = frozenset(Counter(barb_signature(state, env)).items())
        if family not in expanded:
            expanded[family] = satisfiable_barbs(state, env)
        return expanded[family]
    try:
        own = [barbs(st) for st in states]
    except BarbBudgetError as exc:
        return Verdict("inconclusive", detail="budget %s exhausted by the "
                       "barb sets of a reachable state" % exc)

    comp = _components(succ)
    sat = _reached(comp, succ, own)
    levels = [_numbered(sat)]          # block of each state, per round
    while True:
        blocks = levels[-1]
        nxt = _numbered(zip(blocks, _reached(comp, succ, [(b,) for b in blocks])))
        if max(nxt) == max(blocks):
            break
        levels.append(nxt)

    a, b = roots
    if levels[-1][a] == levels[-1][b]:
        return Verdict("bisimilar", detail="fixpoint closed on %d x %d states"
                       % (len(reach[0].states), len(reach[1].states)))
    return Verdict("not", witness=_barbed_play(levels, succ, sat, a, b),
                   detail="reduction/barb game lost at the initial pair")


def _components(succ):
    """Strongly connected component of each state, numbered in the order
    Tarjan's algorithm closes them, so every component a component reaches
    has a smaller number.  Iterative: deep graphs do not recurse."""
    index, low, comp = [-1] * len(succ), [0] * len(succ), [-1] * len(succ)
    stack, seen, closed = [], 0, 0
    for root in range(len(succ)):
        work = [(root, 0)] if index[root] < 0 else []
        while work:              # (state, number of successors looked at)
            v, k = work.pop()
            if k == 0:
                index[v] = low[v] = seen
                seen += 1
                stack.append(v)
            elif comp[succ[v][k - 1]] < 0:       # that successor is still open
                low[v] = min(low[v], low[succ[v][k - 1]])
            if k < len(succ[v]):
                work.append((v, k + 1))
                if index[succ[v][k]] < 0:
                    work.append((succ[v][k], 0))
            elif low[v] == index[v]:
                while comp[v] < 0:
                    comp[stack.pop()] = closed
                closed += 1
    return comp


def _reached(comp, succ, values):
    """Per state, the union of values over the states it reaches, itself
    included, found once per component: a component's union holds its
    members' values and the unions of the components they step into,
    which `_components` numbers first."""
    acc = [set() for _ in range(max(comp) + 1)]
    for i in sorted(range(len(comp)), key=comp.__getitem__):
        acc[comp[i]].update(values[i])
        for j in succ[i]:
            acc[comp[i]] |= acc[comp[j]]
    acc = [frozenset(a) for a in acc]
    return [acc[c] for c in comp]


def _numbered(signatures):
    """Block numbers 0, 1, ... for signatures, in order of first use."""
    ids = {}
    return [ids.setdefault(s, len(ids)) for s in signatures]


def _descendants(succ, x):
    """Sorted positions of the states x reaches, x included."""
    seen, stack = {x}, [x]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return sorted(seen)


def _barbed_play(levels, succ, sat, a, b):
    """A distinguishing play from the pair (a, b), first separated at
    round k: at most k internal challenges, each into a block the other
    side cannot reach one round earlier and answered by the move that
    loses soonest, then a barb set only one side can exhibit."""
    def split(x, y):
        return next(r for r, blocks in enumerate(levels) if blocks[x] != blocks[y])

    play = []
    k = split(a, b)
    while k > 0:
        prev = levels[k - 1]
        for side, mover, other in (("left", a, b), ("right", b, a)):
            replies = _descendants(succ, other)
            answers = {prev[d] for d in replies}
            moved = next((c for c in _descendants(succ, mover)
                          if prev[c] not in answers), None)
            if moved is not None:
                break
        answer = min(replies, key=lambda d: (split(moved, d), d))
        a, b = (moved, answer) if side == "left" else (answer, moved)
        play.append(("moves", side))
        k = split(a, b)
    diff = (sat[a] - sat[b]) or (sat[b] - sat[a])
    barb = min(diff, key=lambda s: (len(s), sorted(map(repr, s))))
    play.append(("barb", tuple(sorted(barb, key=lambda x: (x.name, x.co)))))
    return play


# ---------------------------------------------------------------------------
# Localized early weak bisimilarity
# ---------------------------------------------------------------------------

@dataclass
class Triple:
    """The paper's triple (P, E, Q); E is always full, so it is not stored."""
    left: NetState
    right: NetState
    tid: int
    challenges: list = field(default_factory=list)   # (side, kind, label, succs)
    explored: bool = False


def joint_triple_key(left: NetState, rel, right: NetState) -> str:
    """Canonical key of the two graphs joined by the E cross edges; one
    relabeling is applied consistently to both sides and E.  The reference
    key that interning is checked against."""
    vertices = [("L", p) for p in left.graph.vertices] + \
               [("R", q) for q in right.graph.vertices]
    edges = set()
    for a, b in left.graph.edges:
        edges.add((("L", a), ("L", b)))
    for a, b in right.graph.edges:
        edges.add((("R", a), ("R", b)))
    for p, q in rel:
        edges.add((("L", p), ("R", q)))
    g = make_graph(vertices, edges)
    lcol = left.coloring()
    rcol = right.coloring()
    colors = {}
    for side, v in vertices:
        colors[(side, v)] = "%s:%s" % (side, lcol[v] if side == "L" else rcol[v])
    return canonical_key(g, colors)[0] + "!L{%s}!R{%s}" % (
        ",".join(sorted(left.restricted)), ",".join(sorted(right.restricted)))


class BisimGame:
    """Exploration and fixpoint over pairs of class representatives.

    The paper's game is over triples (P, E, Q), E a relation on locations.
    From the full E the localized side condition never restricts anything,
    and E stays full because residual maps are total, so it is not kept.

    Challenges are single taus and pure-visible multi-steps; defender
    options are weak transitions with the same action multiset (a tau
    challenge is answered by the empty one).  One failure table, filled
    by `greatest_fixpoint`, answers every question about the game: the
    fixpoint verdict, the approximants, the failing challenges and hence
    the witness and the distinguishing context.

    Every pair side is the representative of its isomorphism class of
    states: the first state of that class the game meets, found by key.
    One memo, `_answers`, holds per class its tau closure, its visible
    steps and their index by action key (`steps_by_actions`), its
    challenges (its taus and those visible steps) and its weak
    transitions per action key (composed from the memoized closures and
    indexes), each computed on the representative and read back as it is.
    """

    def __init__(self, env, cfg: GameConfig):
        self.env = env
        self.cfg = cfg
        self.triples = []
        self.truncated = None    # name of the first budget that tripped
        self._fail_at = None     # failure table; None when exploration voided it
        self._reps = {}          # state key -> representative state
        self._ids = {}           # (left key, right key) -> triple id
        self._answers = {}       # (state key, question) -> answer

    def intern(self, left, right) -> int:
        """Id of the pair of the representatives of left's and right's
        classes.  A side too big for the canonical cap trips it."""
        try:
            lrep, rrep = self._rep(left), self._rep(right)
        except CanonicalizationError as exc:
            self.truncated = self.truncated or exc.budget
            self.triples.append(Triple(left, right, len(self.triples)))
            return len(self.triples) - 1
        tid = self._ids.setdefault((lrep.key(), rrep.key()), len(self.triples))
        if tid == len(self.triples):
            self.triples.append(Triple(lrep, rrep, tid))
        return tid

    def _rep(self, state: NetState) -> NetState:
        return self._reps.setdefault(state.key(), state)

    def root(self, P: NetState, Q: NetState) -> int:
        return self.intern(P, Q)

    # -- move machinery ----------------------------------------------------

    def _memo(self, state: NetState, question, answer):
        """The answer to question about state's class, computed once, by
        answer(representative)."""
        rep = self._rep(state)
        key = (rep.key(), question)
        if key not in self._answers:
            self._answers[key] = answer(rep)
        return self._answers[key]

    def _closure(self, state: NetState):
        return self._memo(state, "closure", lambda rep: tau_closure(
            rep, self.env, self.cfg.max_tau_states))

    def _visible(self, state: NetState):
        return self._memo(state, "visible", lambda rep: visible_steps(
            rep, self.env, self.cfg.universe,
            min(self.cfg.max_width, len(rep.graph.vertices))))

    def _steps(self, state: NetState):
        return self._memo(state, "steps", lambda rep: steps_by_actions(self._visible(rep)))

    def _challenges(self, ls: NetState):
        """Challenges of ls's class: (kind, label pairs, target)."""
        return self._memo(ls, "challenges", lambda rep: [
            ("tau", None, step.target) for step in orbit_steps(rep, self.env)
        ] + [("vis", pairs, target) for pairs, target in self._visible(rep)])

    def _defend(self, rs: NetState, pairs, s2: NetState, flip: bool):
        """Ids of rs's answers to a challenge firing pairs into s2; flip
        keeps the root orientation for a right-side challenge.  The weak
        transitions of rs's class for the challenge's action multiset
        are composed once, from the memoized closures and step indexes."""
        actions = [a for a, _p in pairs]
        targets, status = self._memo(
            rs, action_key(actions),
            lambda rep: weak_transitions(rep, actions, self._closure, self._steps))
        if status != "complete":
            self.truncated = self.truncated or "max_tau_states"
        return sorted({self.intern(t, s2) if flip else self.intern(s2, t) for t in targets})

    def explore(self, tid: int) -> None:
        """Populate challenge/defender structure for every triple
        reachable from tid; stops at the first budget that trips."""
        work = [tid]
        seen = {tid}
        while work:
            cur = work.pop()
            trip = self.triples[cur]
            if trip.explored or trip.left is trip.right:   # the identity holds
                continue
            if len(self.triples) > self.cfg.max_triples:
                self.truncated = self.truncated or "max_triples"
            if self.truncated:
                return
            trip.explored = True
            try:
                for side, ls, rs in (("L", trip.left, trip.right),
                                     ("R", trip.right, trip.left)):
                    for kind, label, target in self._challenges(ls):
                        succs = self._defend(rs, label or (), target, side == "R")
                        trip.challenges.append((side, kind, label, succs))
            except CanonicalizationError as exc:
                self.truncated = self.truncated or exc.budget
            if trip.challenges:          # new challenges void the table
                self._fail_at = None
            for _side, _kind, _label, succs in trip.challenges:
                for s in succs:
                    if s not in seen:
                        seen.add(s)
                        work.append(s)

    # -- verdicts ----------------------------------------------------------

    def greatest_fixpoint(self, root: int) -> dict:
        """Explore from root, then return the failure table: triple id ->
        least n at which its level-n approximant fails.  A triple missing
        from the table holds at every level, i.e. is in the fixpoint.

        One counter-driven pass (Paige and Tarjan, 1987): a triple fails
        at level 1 when a challenge has no defender option.  Each failed
        triple lowers the live-option counter of every challenge listing
        it; a challenge whose counter reaches 0 fails its owner one level
        above that last option.  Owners are queued first in, first out,
        so levels come out in nondecreasing order and the first challenge
        to fail an owner gives its least level.
        """
        self.explore(root)
        if self._fail_at is None:
            fail_at, owner, live = {}, [], []
            listed = [[] for _ in self.triples]   # challenges listing each triple
            for t in self.triples:
                for _side, _kind, _label, succs in t.challenges:
                    if not succs:
                        fail_at[t.tid] = 1
                    for s in succs:
                        listed[s].append(len(owner))
                    owner.append(t.tid)
                    live.append(len(succs))
            queue = deque(fail_at)
            while queue:
                s = queue.popleft()
                for c in listed[s]:
                    live[c] -= 1
                    if not live[c] and owner[c] not in fail_at:
                        fail_at[owner[c]] = fail_at[s] + 1
                        queue.append(owner[c])
            self._fail_at = fail_at
        return self._fail_at

    def stratified(self, root: int, depth: int):
        """Vector of approximant verdicts [~0, ..., ~depth] for the root triple."""
        fails = self.greatest_fixpoint(root).get(root, math.inf)
        return [n < fails for n in range(depth + 1)]

    def failing_challenge(self, tid: int, n: int):
        """A challenge all of whose defender options fail at depth n-1;
        None when the triple holds at depth n."""
        fail_at = self.greatest_fixpoint(tid)
        for side, kind, label, succs in self.triples[tid].challenges:
            if all(fail_at.get(s, math.inf) < n for s in succs):
                return side, kind, label, succs
        return None


def weak_bisim(P: NetState, Q: NetState, env, cfg: GameConfig) -> Verdict:
    if hit := _one_class(P, Q, env):
        return hit
    game = BisimGame(env, cfg)
    root = game.root(P, Q)
    fail_at = game.greatest_fixpoint(root)
    if game.truncated:
        if root in fail_at:
            return Verdict("inconclusive", detail="budget %s exhausted before the "
                           "game closed" % game.truncated)
        return Verdict("inconclusive", detail="budget %s exhausted; no distinction "
                       "found" % game.truncated)
    if root not in fail_at:
        return Verdict("bisimilar", detail="fixpoint closed over %d triples" % len(game.triples))
    witness = _bisim_witness(game, root, fail_at[root])
    return Verdict("not", witness=witness, detail="challenge with no defender response")


def _bisim_witness(game: BisimGame, tid, n):
    """Distinguishing play: challenges walked down from n, the least depth
    at which triple tid fails, so self-loop challenges whose successor is
    the failing triple itself are never chosen."""
    play = []
    while n >= 1:
        failing = game.failing_challenge(tid, n)
        if failing is None:
            break
        side, kind, label, succs = failing
        play.append((side, kind, label))
        if not succs:
            break
        tid = succs[0]
        n -= 1
    return play


def stratified_bisim(P: NetState, Q: NetState, env, cfg: GameConfig, depth: int):
    """Approximant verdicts [~0, ~1, ..., ~depth] for the root pair, plus
    the name of the budget that tripped (None if none)."""
    if _one_class(P, Q, env):
        return [True] * (depth + 1), None
    game = BisimGame(env, cfg)
    root = game.root(P, Q)
    vec = game.stratified(root, depth)
    return vec, game.truncated


def stabilized_stratified_verdict(P, Q, env, cfg) -> Verdict:
    """Iterate approximants until the whole explored triple set
    stabilizes; on finitely-branching instances this equals the
    fixpoint verdict."""
    game = BisimGame(env, cfg)
    root = game.root(P, Q)
    game.explore(root)
    if game.truncated:
        return Verdict("inconclusive", detail="budget %s exhausted" % game.truncated)
    cap = len(game.triples) + 1
    vec = game.stratified(root, cap)
    return Verdict("bisimilar" if vec[cap] else "not",
                   detail="stabilized at depth <= %d" % cap)


# ---------------------------------------------------------------------------
# The distinguishing-context builder
# ---------------------------------------------------------------------------

@dataclass
class ContextReport:
    term: object
    env: DefEnv
    verified: bool
    checked: int
    failures: list
    direction: str


def distinguishing_context(P: NetState, Q: NetState, env, cfg: GameConfig,
                           depth: int) -> ContextReport:
    """Build a canonical process R whose parallel composition separates
    the pair under weak barbed bisimilarity, following the completeness
    construction: dual prefixes answer the failing challenge, a d-pump
    constant drives the staging, and fresh co-symbol barbs track which
    stage the context has reached."""
    game = BisimGame(env, cfg)
    root = game.root(P, Q)
    vec = game.stratified(root, depth)
    if vec[depth]:
        raise ValueError("pair is not distinguished at depth %d; "
                         "no context to build" % depth)

    fresh = SymbolFreshener(
        lambda: state_symbol_names(P, env) | state_symbol_names(Q, env))
    d_sym = fresh.fresh_like("d")
    d_const = SymbolFreshener(lambda: env.defs).fresh_like("DPump")
    new_sig = {d_sym: 1}
    new_defs = {d_const: ((), Output(d_sym, Lit(0), (Const(d_const, ()),)))}

    def dual_prefix(action: Action, cont):
        arity = env.arity(action.sym)
        children = (cont,) + tuple(IDLE for _ in range(arity - 1))
        if action.co:
            return Input(action.sym, "x", children)
        return Output(action.sym, Lit(action.value), children)

    def core(tid: int, n: int):
        """Carrier sums for one triple at depth n."""
        failing = game.failing_challenge(tid, n)
        if failing is None:
            raise ValueError("triple unexpectedly holds at depth %d" % n)
        _side, kind, label, succs = failing
        sub_cores = [core(s, n - 1) for s in succs]
        width = len(label) if kind == "vis" else 1
        if sub_cores:
            width = max(width, max(len(c) for c in sub_cores))

        carriers = []
        for i in range(width):
            triggers = []
            for sub in sub_cores:
                mj = sub[i] if i < len(sub) else NIL
                cj = fresh.fresh_like("c")
                new_sig[cj] = 1
                marked = Sum(mj, Output(cj, Lit(0), (IDLE,)))
                triggers.append(Input(d_sym, "x", (marked,)))
            if kind == "vis" and i < len(label):
                cp = fresh.fresh_like("c")
                new_sig[cp] = 1
                commit = Output(cp, Lit(0), (IDLE,))
                carriers.append(dual_prefix(label[i][0], Sum(commit, *triggers)))
            else:
                carriers.append(Sum(*triggers) if triggers else NIL)
        return carriers

    failing = game.failing_challenge(root, depth)
    direction = failing[0]
    carriers = core(root, depth)
    guarded = []
    for m in carriers:
        g = fresh.fresh_like("g")
        new_sig[g] = 1
        guarded.append(Sum(m, Output(g, Lit(0), (IDLE,))))
    r_term = par(compose(guarded, ["(+)"] * (len(guarded) - 1)), Const(d_const, ()))
    env2 = env.extended(signature=new_sig, defs=new_defs)

    # Verify through the barbed checker against every derivative.
    challenger, defender = (P, Q) if direction == "L" else (Q, P)
    r_state = flatten(r_term, env2)
    left = compose_states(challenger, r_state, "all", env2)
    rq = reachable(defender, env2, cfg.max_states)
    failures = []
    checked = 0
    for key, q2 in rq.states.items():
        right = compose_states(q2, r_state, "all", env2)
        verdict = weak_barbed_bisim(left, right, env2, cfg)
        checked += 1
        if verdict.result != "not":
            failures.append((key, verdict.result))
    return ContextReport(r_term, env2, not failures and rq.status == "complete",
                         checked, failures, direction)
