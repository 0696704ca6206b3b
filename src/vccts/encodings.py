"""Executable encodings: top-down tree automata recognized by reduction
to an idle process, the unary complete-graph embedding of value-passing
CCS, and the alternating bit protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netstate import NetState, flatten
from .syntax import (
    Cond, Const, DefEnv, IDLE, Idle, Input, NIL, Output, Restrict, Sum,
    SyntaxError_, compose, par, sort_of,
)
from .values import ACK, Bin, END, Lit, PairE, Un, Var


# ---------------------------------------------------------------------------
# Top-down tree automata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeAutomaton:
    states: frozenset          # constant names
    signature: tuple           # ((symbol, arity), ...)
    transitions: frozenset     # (state, symbol, (state, ...)) with len = arity

    def __post_init__(self):
        sig = dict(self.signature)
        for q, f, qs in self.transitions:
            if q not in self.states:
                raise SyntaxError_("transition from unknown state %s" % q)
            if f not in sig:
                raise SyntaxError_("transition on undeclared symbol %s" % f)
            if len(qs) != sig[f]:
                raise SyntaxError_("transition on %s expects %d successor states"
                                   % (f, sig[f]))
            for q2 in qs:
                if q2 not in self.states:
                    raise SyntaxError_("transition into unknown state %s" % q2)

    def from_state(self, q):
        return sorted((t for t in self.transitions if t[0] == q),
                      key=lambda t: (t[1], t[2]))


def tree_automaton(states, signature, transitions) -> TreeAutomaton:
    return TreeAutomaton(frozenset(states), tuple(sorted(dict(signature).items())),
                         frozenset((q, f, tuple(qs)) for q, f, qs in transitions))


@dataclass(frozen=True)
class SigmaTree:
    """A tree over the signature: Leaf is the idle symbol, nodes carry a
    bound variable that recognition ignores."""
    sym: str = None            # None encodes the idle leaf
    var: str = "x"
    children: tuple = ()

    def is_leaf(self):
        return self.sym is None

    def __repr__(self):
        if self.is_leaf():
            return "*"
        return "%s(%s).(%s)" % (self.sym, self.var,
                                ", ".join(repr(c) for c in self.children))


LEAF = SigmaTree()


def node(sym, *children, var="x"):
    return SigmaTree(sym, var, tuple(children))


def recognizes(aut: TreeAutomaton, state, tree: SigmaTree) -> bool:
    """Direct recursive recognizer; the independent oracle against
    reduction-to-idle.  Idle leaves are accepted at every state."""
    if tree.is_leaf():
        return True
    for q, f, qs in aut.from_state(state):
        if f == tree.sym and len(qs) == len(tree.children):
            if all(recognizes(aut, q2, c) for q2, c in zip(qs, tree.children)):
                return True
    return False


def automaton_to_process(aut: TreeAutomaton, state, env: DefEnv):
    """A constant per automaton state whose guarded sum offers one input
    prefix per transition; revisited states become recursive references.
    States with no transitions encode to the idle process, which is what
    lets fully recognized trees reduce to an idle system.

    Returns (entry term, extended environment).
    """
    if state not in aut.states:
        raise SyntaxError_("unknown automaton state %r" % (state,))
    sig = {f: n for f, n in aut.signature}
    names = {q: "St_%s" % q for q in sorted(aut.states)}

    def build(q, visiting):
        if q in visiting:
            return Const(names[q], ())
        return build_body(q, visiting | {q})

    def build_body(q, visiting):
        prefixes = [Input(f, "x", tuple(build(q2, visiting) for q2 in qs))
                    for _q, f, qs in aut.from_state(q)]
        return Sum(*prefixes) if prefixes else IDLE

    defs = {}
    for q in sorted(aut.states):
        defs[names[q]] = ((), build_body(q, {q}))
    env2 = env.extended(signature=sig, defs=defs)
    return Const(names[state], ()), env2


def tree_to_process(tree: SigmaTree, value):
    """Output-prefixed mirror of the tree carrying one payload value."""
    if tree.is_leaf():
        return IDLE
    return Output(tree.sym, Lit(value),
                  tuple(tree_to_process(c, value) for c in tree.children))


def automaton_to_json(aut: TreeAutomaton) -> dict:
    return {
        "states": sorted(aut.states),
        "signature": dict(aut.signature),
        "transitions": sorted([q, f, list(qs)] for q, f, qs in aut.transitions),
    }


def automaton_from_json(payload: dict) -> TreeAutomaton:
    """File schema: {"states": [...], "signature": {sym: arity},
    "transitions": [[state, sym, [state, ...]], ...]}."""
    try:
        return tree_automaton(payload["states"], payload["signature"],
                              [(q, f, tuple(qs)) for q, f, qs in payload["transitions"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise SyntaxError_("malformed automaton description: %s" % exc)


def sigma_tree_from_term(term) -> SigmaTree:
    """Read a tree literal written in the definition-file grammar:
    input prefixes over idle leaves, e.g. f(x).(g(y).(*, *), *)."""
    if isinstance(term, Idle):
        return LEAF
    if isinstance(term, Input):
        return SigmaTree(term.sym, term.var,
                         tuple(sigma_tree_from_term(c) for c in term.children))
    raise SyntaxError_("not a tree literal: input prefixes and * only")


def example_counter_instance():
    """The shipped instance where reduction to idle succeeds although
    recognition fails: the tree nests the second symbol under the first
    branch while the automaton expects them side by side."""
    aut = tree_automaton(
        states=["Q", "Q1", "Q2", "Q11", "Q12", "Q21", "Q22"],
        signature={"f": 2, "g1": 2, "g2": 2},
        transitions=[
            ("Q", "f", ("Q1", "Q2")),
            ("Q1", "g1", ("Q11", "Q12")),
            ("Q2", "g2", ("Q21", "Q22")),
        ])
    tree = node("f", node("g1", node("g2", LEAF, LEAF), LEAF), LEAF)
    return aut, "Q", tree


# ---------------------------------------------------------------------------
# Value-passing CCS embedding (unary symbols, complete graphs)
# ---------------------------------------------------------------------------

def vccs_compose(components, restriction, env: DefEnv) -> NetState:
    """(S1 | ... | Sn) \\ I with a complete interaction graph; the CCS
    fragment where every symbol is unary."""
    for s in components:
        for sym in sort_of(s, env):
            if env.arity(sym) != 1:
                raise SyntaxError_("embedding expects unary symbols; %s has arity %d"
                                   % (sym, env.arity(sym)))
    term = compose(components, ["|"] * (len(components) - 1))
    restriction = frozenset(restriction)
    if restriction:
        term = Restrict(term, restriction)
    return flatten(term, env)


def expansion_law_pair(env: DefEnv):
    """Two components offering distinct outputs versus the sequential
    sum of both orders: equal traces, different simultaneous behaviour."""
    lhs = [Output("f", Lit(1), (NIL,)), Output("g", Lit(2), (NIL,))]
    rhs = Sum(Output("f", Lit(1), (Output("g", Lit(2), (NIL,)),)),
              Output("g", Lit(2), (Output("f", Lit(1), (NIL,)),)))
    env2 = env.extended(signature={"f": 1, "g": 1})
    return vccs_compose(lhs, (), env2), vccs_compose([rhs], (), env2), env2


# ---------------------------------------------------------------------------
# The alternating bit protocol
# ---------------------------------------------------------------------------

def abp_env(env: DefEnv = None) -> DefEnv:
    """Transmitter, receiver and the auxiliary f-consumer.

    The transmitter sends (message, bit) pairs and retries until it sees
    the matching (Ack, bit); the End sentinel closes the session, the
    receiver acknowledges it and parks in the Succ indicator constant
    carrying everything it received.
    """
    env = env or DefEnv()
    sig = {"send": 1, "ack": 1, "f": 1}
    t1 = Var("t1")
    t2 = Var("t2")
    b = Var("b")
    x = Var("x")

    retry = Output("f", Lit(0), (Const("P1", (t1, b)),))
    advance = Output("f", Lit(0), (Const("P1", (Un("tail", t1), Un("bitneg", b))),))
    p1_body = Cond(
        Un("null", t1),
        Output("send", PairE(Lit(END), b),
               (Input("ack", "x",
                      (Cond(Bin("eq", x, PairE(Lit(ACK), b)), NIL, retry),)),)),
        Output("send", PairE(Un("head", t1), b),
               (Input("ack", "x",
                      (Cond(Bin("eq", x, PairE(Lit(ACK), b)), advance, retry),)),)))

    keep = Output("ack", PairE(Lit(ACK), Un("bitneg", b)), (Const("P2", (t2, b)),))
    accept = Output("ack", PairE(Lit(ACK), b),
                    (Const("P2", (Bin("append", t2, Un("fst", x)), Un("bitneg", b))),))
    finish = Output("ack", PairE(Lit(ACK), b), (Const("Succ", (t2,)),))
    p2_body = Input("send", "x",
                    (Cond(Bin("eq", Un("snd", x), b),
                          Cond(Bin("eq", Un("fst", x), Lit(END)), finish, accept),
                          keep),))

    defs = {
        "P1": (("t1", "b"), p1_body),
        "P2": (("t2", "b"), p2_body),
        "A": ((), Input("f", "x", (Const("A", ()),))),
        # Succ only marks success; it carries the received list and idles.
        "Succ": (("t",), IDLE),
    }
    return env.extended(signature=sig, defs=defs)


def abp_system(messages, bit=0, env: DefEnv = None):
    """The initial protocol state ((A | P1(t, b)) | P2([], b))."""
    if bit not in (0, 1):
        raise SyntaxError_("the alternating bit must be 0 or 1")
    env2 = abp_env(env)
    t = tuple(messages)
    init = par(par(Const("A", ()), Const("P1", (Lit(t), Lit(bit)))),
               Const("P2", (Lit(()), Lit(bit))))
    return flatten(init, env2), env2, init


def abp_success_components(messages):
    """Component fingerprints of the success stage: A, 0 and Succ(t)."""
    return [Const("A", ()), NIL, Const("Succ", (Lit(tuple(messages)),))]
