"""Process terms, canonicality, substitution, sorts, and definitions.

Processes live on graph vertices and communicate over dual n-ary
symbols along edges.  A symbol f of arity n spawns n child processes on
each side of a communication.  The distinguished idle symbol "*" has
arity 0 and is self-dual.

`_SHAPES` below is the one place that knows each term constructor's
process subterms and how to rebuild a node from new ones; every
structural walk (substitution, renaming, free variables, sorts,
validation, canonicality, guardedness) recurses through `_SHAPES`,
`children` or `map_children`.  Only the printers keep per-node code,
because each constructor has its own output format.

Terms are `HashConsed` (see `values`): equal terms are one object, so
the memos keyed by terms (`_fp_cache` here, a `DefEnv`'s sort and head
caches) hash and compare by identity.  A `+` chain is one `Sum` node and
a `|`/`(+)` chain one graph term (`compose`), so a chain adds one level
to a term however long it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Callable, NamedTuple

from .values import (
    Bin, EvalError, Expr, HashConsed, ListE, Lit, PairE, Un, Var, expr_str,
    expr_vars, subst_expr, value_str,
)

IDLE_SYMBOL = "*"


class SyntaxError_(Exception):
    """Raised on malformed terms, bad arities, unresolved constants."""


@dataclass(frozen=True)
class PSym:
    """A symbol with polarity: plain f (input side) or co ~f (output side).

    The idle symbol is self-dual, so its co flag is forced to False.
    """
    name: str
    co: bool = False

    def __post_init__(self):
        if self.name == IDLE_SYMBOL and self.co:
            object.__setattr__(self, "co", False)

    def dual(self) -> "PSym":
        if self.name == IDLE_SYMBOL:
            return self
        return PSym(self.name, not self.co)

    def __repr__(self):
        return "~" + self.name if self.co else self.name


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, slots=True)
class Idle(HashConsed):
    def __repr__(self):
        return "*"


@dataclass(frozen=True, eq=False, slots=True)
class Nil(HashConsed):
    def __repr__(self):
        return "0"


@dataclass(frozen=True, eq=False, slots=True)
class Input(HashConsed):
    sym: str
    var: str
    children: tuple


@dataclass(frozen=True, eq=False, slots=True)
class Output(HashConsed):
    sym: str
    expr: Expr
    children: tuple


@dataclass(frozen=True, eq=False, slots=True)
class GraphTerm(HashConsed):
    """A finite graph of subterms over abstract vertex names.

    Vertex names are local to the literal; the runtime allocates fresh
    global locations when the term is flattened.  Vertices may carry any
    canonical subterm: guarded sums stand for single components, and
    nested graphs or restrictions are spliced in with every neighbour of
    the host vertex wired to every vertex of the splice.
    """
    places: tuple          # ((vertex_name, term), ...) in source order
    links: frozenset       # {(a, b)} with a < b, vertex names

    def vertex_names(self):
        return [v for v, _ in self.places]


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Sum(HashConsed):
    """A guarded sum of two or more summands, none of them a sum.
    `Sum(*terms)` splices in the summands of sums among `terms`, and
    returns a single term unchanged (no term is an IndexError)."""
    summands: tuple

    def __new__(cls, *terms):
        if len(terms) < 2:
            return terms[0]
        flat = []
        for t in terms:
            flat += t.summands if type(t) is Sum else (t,)
        return HashConsed.__new__(cls, tuple(flat))


@dataclass(frozen=True, eq=False, slots=True)
class Restrict(HashConsed):
    body: "ProcTerm"
    syms: frozenset      # plain symbol names only


@dataclass(frozen=True, eq=False, slots=True)
class Cond(HashConsed):
    cond: Expr
    then: "ProcTerm"
    other: "ProcTerm"


@dataclass(frozen=True, eq=False, slots=True)
class Const(HashConsed):
    name: str
    args: tuple          # expressions, closed at runtime


ProcTerm = object

IDLE = Idle()
NIL = Nil()


def graph_term(places, links=()):
    """Build a GraphTerm, normalising and checking the edge relation."""
    places = tuple(places)
    names = {v for v, _ in places}
    if len(names) != len(places):
        raise SyntaxError_("duplicate vertex name in graph literal")
    norm = set()
    for a, b in links:
        if a == b:
            raise SyntaxError_("self-loop %s -- %s in graph literal" % (a, b))
        if a not in names or b not in names:
            raise SyntaxError_("edge %s -- %s mentions unknown vertex" % (a, b))
        norm.add((a, b) if a <= b else (b, a))
    return GraphTerm(places, frozenset(norm))


def compose(terms, ops):
    """The chain `terms[0] ops[0] terms[1] ...` as one graph term on the
    places l, r, r2, r3, ...: term k is linked to every earlier term when
    `ops[k - 1]` is `|` (full interaction), and to none when it is `(+)`
    (juxtaposition).  A single term is returned unchanged."""
    if len(terms) < 2:
        return terms[0]
    names = ["l", "r"] + ["r%d" % k for k in range(2, len(terms))]
    links = [(names[j], names[k]) for k in range(1, len(terms)) if ops[k - 1] == "|"
             for j in range(k)]
    return graph_term(zip(names, terms), links)


def par(left, right):
    """Parallel composition: complete cross edges between the operands."""
    return compose((left, right), ("|",))


def oplus(left, right):
    """Juxtaposition with no cross edges (the operands cannot interact)."""
    return compose((left, right), ("(+)",))


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

class _Shape(NamedTuple):
    children: Callable      # term -> tuple of process subterms
    rebuild: Callable       # (term, new subterms) -> term
    steps: Callable         # term -> path step naming each subterm


def _prefix_steps(t):
    return ["%s[%d]" % (t.sym, i) for i in range(len(t.children))]


def _not_a_term(term, *_):
    raise SyntaxError_("not a process term: %r" % (term,))


_NOT_A_TERM = _Shape(_not_a_term, _not_a_term, _not_a_term)

# Constant arguments are expressions and constant bodies live in the
# environment, so a constant has no process subterms.
_LEAF = _Shape(lambda t: (), None, lambda t: ())

# attrgetter reads the subterms in C: the walks run on every firing.
_SHAPES = {
    Idle: _LEAF,
    Nil: _LEAF,
    Const: _LEAF,
    Input: _Shape(attrgetter("children"),
                  lambda t, k: Input(t.sym, t.var, k), _prefix_steps),
    Output: _Shape(attrgetter("children"),
                   lambda t, k: Output(t.sym, t.expr, k), _prefix_steps),
    GraphTerm: _Shape(lambda t: tuple(s for _v, s in t.places),
                      lambda t, k: GraphTerm(tuple(zip(t.vertex_names(), k)), t.links),
                      GraphTerm.vertex_names),
    Sum: _Shape(attrgetter("summands"),
                lambda t, k: Sum(*k), lambda t: ["+%d" % i for i in range(len(t.summands))]),
    Restrict: _Shape(lambda t: (t.body,),
                     lambda t, k: Restrict(k[0], t.syms), lambda t: ("body",)),
    Cond: _Shape(attrgetter("then", "other"),
                 lambda t, k: Cond(t.cond, *k), lambda t: ("then", "else")),
}


def children(term) -> tuple:
    """The process subterms of a node in source order (for a prefix,
    `term.children` itself)."""
    return _SHAPES.get(type(term), _NOT_A_TERM).children(term)


def map_children(term, fn):
    """The node rebuilt around `fn` applied to each process subterm."""
    shape = _SHAPES.get(type(term), _NOT_A_TERM)
    kids = shape.children(term)
    if not kids:
        return term
    return shape.rebuild(term, tuple(fn(c) for c in kids))


# ---------------------------------------------------------------------------
# Definitions
# ---------------------------------------------------------------------------

class DefEnv:
    """Signature plus constant definitions (and named entry processes).

    Treated as immutable once built; `extended` returns a copy with more
    material, so the per-environment caches never go stale.
    """

    def __init__(self, signature=None, defs=None, processes=None):
        self.sig = dict(signature or {})
        self.sig[IDLE_SYMBOL] = 0
        self.defs = dict(defs or {})
        self.processes = dict(processes or {})
        self._cs_cache = {}
        self._sort_cache = {}
        self._spawns = {}       # (child, (binder, value key)) -> its part (reduction._splice)

    def arity(self, sym: str) -> int:
        if sym not in self.sig:
            raise SyntaxError_("undeclared symbol %s" % sym)
        return self.sig[sym]

    def lookup(self, name: str):
        if name not in self.defs:
            raise SyntaxError_("unresolved constant %s" % name)
        return self.defs[name]

    def extended(self, signature=None, defs=None, processes=None) -> "DefEnv":
        sig = dict(self.sig)
        sig.update(signature or {})
        dd = dict(self.defs)
        for name, entry in (defs or {}).items():
            if name in dd and dd[name] != entry:
                raise SyntaxError_("constant %s already defined" % name)
            dd[name] = entry
        pp = dict(self.processes)
        pp.update(processes or {})
        return DefEnv(sig, dd, pp)

    def symbol_names(self):
        return set(self.sig)


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

def validate_term(term, env: DefEnv, path="") -> None:
    """Check arities, graph shape and restriction sets, recursively."""
    bad = _ill_formed(term, env)
    if bad is not None:
        raise SyntaxError_("%s%s: %s" % (path, *bad))


def _ill_formed(term, env):
    """(path below `term`, complaint) of the first ill-formed node, or
    None.  The path is assembled on the way back up, as in
    `check_canonical`."""
    if isinstance(term, (Input, Output)):
        n = env.arity(term.sym)
        if n == 0:
            return "", "prefix on the idle symbol"
        if len(term.children) != n:
            return "", "%s expects %d children, got %d" % (term.sym, n, len(term.children))
    elif isinstance(term, Restrict):
        for s in term.syms:
            if s == IDLE_SYMBOL:
                return "", "cannot restrict the idle symbol"
            env.arity(s)
    elif isinstance(term, Const):
        params, _body = env.lookup(term.name)
        if len(params) != len(term.args):
            return "", "%s takes %d parameters, got %d" % (term.name, len(params), len(term.args))
    shape = _SHAPES.get(type(term), _NOT_A_TERM)
    for i, sub in enumerate(shape.children(term)):
        bad = _ill_formed(sub, env)
        if bad is not None:
            return "." + shape.steps(term)[i] + bad[0], bad[1]
    return None


class Canon(Enum):
    CGS = "CGS"
    RCGS = "RCGS"
    CP = "CP"


@dataclass(frozen=True)
class NotCanonical:
    reason: str
    path: str

    def __bool__(self):
        return False


def check_canonical(term, env: DefEnv, _memo=None):
    """Classify a term as CGS, RCGS or CP, or explain why it is neither.

    Returns the strongest derivable class (CGS implies RCGS; a guarded
    sum also serves in CP positions as a one-vertex graph).  Recursive
    constants are handled with an assume-and-check memo.  The path of a
    `NotCanonical` is assembled on the way back up, so success pays for
    no path strings.
    """
    if _memo is None:
        _memo = {}
    if isinstance(term, Const):
        params, body = env.lookup(term.name)
        if len(params) != len(term.args):
            return NotCanonical("arity mismatch on constant %s" % term.name, "")
        if term.name in _memo:
            return _memo[term.name]
        _memo[term.name] = Canon.RCGS      # optimistic, checked below
        r = check_canonical(body, env, _memo)
        if r is Canon.CP and _wires_into(body, term.name, env, set()):
            r = NotCanonical("constant %s unfolds into itself outside any prefix"
                             % term.name, "")
        if isinstance(r, NotCanonical):
            del _memo[term.name]
            return NotCanonical(r.reason, "." + term.name + r.path)
        result = Canon.CP if r is Canon.CP else Canon.RCGS
        _memo[term.name] = result
        return result
    shape = _SHAPES.get(type(term))
    if shape is None:
        return NotCanonical("not a process term: %r" % (term,), "")
    for i, sub in enumerate(shape.children(term)):
        r = check_canonical(sub, env, _memo)
        if r is Canon.CGS:
            continue
        if isinstance(r, NotCanonical):
            reason, below = r.reason, r.path
        elif isinstance(term, Sum):
            reason, below = "unguarded %s in sum" % _shape_name(sub), ""
        elif isinstance(term, Cond):
            reason, below = "conditional branch is not a guarded sum", ""
        else:
            continue
        return NotCanonical(reason, "." + shape.steps(term)[i] + below)
    return Canon.CP if isinstance(term, (GraphTerm, Restrict)) else Canon.CGS


def _wires_into(term, name, env, seen) -> bool:
    """Does constant `name` occur in `term` outside every prefix, through
    graphs, restrictions and the bodies of constants not yet `seen`?"""
    if isinstance(term, Const) and term.name not in seen:
        seen.add(term.name)
        return term.name == name or _wires_into(env.lookup(term.name)[1], name, env, seen)
    return isinstance(term, (GraphTerm, Restrict)) and any(
        _wires_into(c, name, env, seen) for c in children(term))


def _shape_name(term) -> str:
    if isinstance(term, Const):
        return "constant %s" % term.name
    return {GraphTerm: "graph", Restrict: "restriction"}.get(type(term), type(term).__name__)


def check_closed(name, params, body) -> None:
    """A definition's body may use no free data variable but its
    parameters, so every component a firing stores is data-closed."""
    free = sorted(free_data_vars(body).difference(params))
    if free:
        raise SyntaxError_("definition %s has free data variable %s" % (name, ", ".join(free)))


def check_guarded(env: DefEnv) -> None:
    """Every constant body must be closed (`check_closed`) and reach
    prefix/0/* heads through constants and conditionals in finitely many
    steps; otherwise cs() would spin."""
    def chase(term, seen, path):
        if isinstance(term, Const):
            if term.name in seen:
                raise SyntaxError_("unguarded recursion through constant %s (%s)"
                                   % (term.name, path))
            _p, body = env.lookup(term.name)
            chase(body, seen | {term.name}, path + ">" + term.name)
            return
        subs = children(term)
        # prefixes, graphs, restrictions and variables end the head chase
        if isinstance(term, (Sum, Cond)):
            for sub in subs:
                chase(sub, seen, path)

    for name, (params, body) in env.defs.items():
        check_closed(name, params, body)
        chase(body, {name}, name)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def subst_value(term, var: str, val):
    """Capture-free substitution of a value for a free data variable."""
    if isinstance(term, Input) and term.var == var:
        return term          # binder shadows
    if isinstance(term, Output):
        term = Output(term.sym, subst_expr(term.expr, var, val), term.children)
    elif isinstance(term, Cond):
        term = Cond(subst_expr(term.cond, var, val), term.then, term.other)
    elif isinstance(term, Const):
        return Const(term.name, tuple(subst_expr(a, var, val) for a in term.args))
    return map_children(term, lambda c: subst_value(c, var, val))


def subst_values(term, names, vals):
    for x, v in zip(names, vals):
        term = subst_value(term, x, v)
    return term


def free_data_vars(term) -> frozenset:
    out = frozenset()
    for c in children(term):
        out |= free_data_vars(c)
    if isinstance(term, Input):
        return out - {term.var}
    if isinstance(term, Output):
        return out | expr_vars(term.expr)
    if isinstance(term, Cond):
        return out | expr_vars(term.cond)
    if isinstance(term, Const):
        for a in term.args:
            out |= expr_vars(a)
    return out


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

def sort_of(term, env: DefEnv, _active=None) -> frozenset:
    """The least set of plain symbols a process can ever mention.

    Feeds fresh-symbol generation: a symbol outside the sort can never
    be observed on or interact with the process.
    """
    if _active is None:
        cached = env._sort_cache.get(term)
        if cached is not None:
            return cached
        result = sort_of(term, env, frozenset())
        env._sort_cache[term] = result
        return result
    if isinstance(term, Const):
        if term.name in _active:
            return frozenset()
        _params, body = env.lookup(term.name)
        return sort_of(body, env, _active | {term.name})
    out = frozenset((term.sym,)) if isinstance(term, (Input, Output)) else frozenset()
    for c in children(term):
        out |= sort_of(c, env, _active)
    if isinstance(term, Restrict):
        return out - term.syms
    return out


# ---------------------------------------------------------------------------
# Printing and fingerprints
# ---------------------------------------------------------------------------

def term_str(term) -> str:
    if isinstance(term, (Idle, Nil)):
        return repr(term)
    if isinstance(term, Input):
        return "%s(%s).(%s)" % (term.sym, term.var,
                                ", ".join(term_str(c) for c in term.children))
    if isinstance(term, Output):
        return "~%s(%s).(%s)" % (term.sym, expr_str(term.expr),
                                 ", ".join(term_str(c) for c in term.children))
    if isinstance(term, GraphTerm):
        bits = "; ".join("%s: %s" % (v, term_str(t)) for v, t in term.places)
        if term.links:
            edges = ", ".join("%s -- %s" % (a, b) for a, b in sorted(term.links))
            return "graph { %s; edges { %s } }" % (bits, edges)
        return "graph { %s }" % bits
    if isinstance(term, Sum):
        return " + ".join(map(term_str, term.summands))
    if isinstance(term, Restrict):
        return "(%s) restrict {%s}" % (term_str(term.body), ", ".join(sorted(term.syms)))
    if isinstance(term, Cond):
        return "(if %s then %s else %s)" % (expr_str(term.cond),
                                            term_str(term.then), term_str(term.other))
    if isinstance(term, Const):
        if term.args:
            return "%s(%s)" % (term.name, ", ".join(expr_str(a) for a in term.args))
        return "%s()" % term.name
    raise SyntaxError_("not a process term: %r" % (term,))


_fp_cache = {}


def term_fingerprint(term, _binders=None) -> str:
    """Stable serialisation used for state identity.  Bound data
    variables are numbered by binder depth so alpha-variants coincide."""
    if _binders is None:
        hit = _fp_cache.get(term)
        if hit is not None:
            return hit
        out = term_fingerprint(term, ())
        _fp_cache[term] = out
        return out
    b = _binders
    if isinstance(term, (Idle, Nil)):
        return repr(term)
    if isinstance(term, Input):
        inner = ",".join(term_fingerprint(c, b + (term.var,)) for c in term.children)
        return "i!%s(%s)" % (term.sym, inner)
    if isinstance(term, Output):
        inner = ",".join(term_fingerprint(c, b) for c in term.children)
        return "o!%s[%s](%s)" % (term.sym, _expr_fp(term.expr, b), inner)
    if isinstance(term, GraphTerm):
        names = term.vertex_names()
        idx = {v: i for i, v in enumerate(names)}
        comps = ";".join(term_fingerprint(t, b) for _v, t in term.places)
        edges = ",".join(sorted("%d-%d" % (min(idx[a], idx[b_]), max(idx[a], idx[b_]))
                                for a, b_ in term.links))
        return "g{%s|%s}" % (comps, edges)
    if isinstance(term, Sum):
        # left-nested, as ((a)+(b))+(c), the form of a stored component
        first, *rest = (term_fingerprint(s, b) for s in term.summands)
        return "(" * len(rest) + first + "".join(")+(%s)" % f for f in rest)
    if isinstance(term, Restrict):
        return "(%s)\\{%s}" % (term_fingerprint(term.body, b), ",".join(sorted(term.syms)))
    if isinstance(term, Cond):
        return "if[%s](%s)(%s)" % (_expr_fp(term.cond, b),
                                   term_fingerprint(term.then, b),
                                   term_fingerprint(term.other, b))
    if isinstance(term, Const):
        return "k!%s(%s)" % (term.name, ",".join(_expr_fp(a, b) for a in term.args))
    raise SyntaxError_("not a process term: %r" % (term,))


def _expr_fp(e, binders) -> str:
    if isinstance(e, Var):
        for depth in range(len(binders) - 1, -1, -1):
            if binders[depth] == e.name:
                return "?%d" % depth
        return "v:" + e.name
    if isinstance(e, Lit):
        return "l:" + value_str(e.value)
    if isinstance(e, Un):
        return "%s(%s)" % (e.op, _expr_fp(e.arg, binders))
    if isinstance(e, Bin):
        return "%s(%s,%s)" % (e.op, _expr_fp(e.left, binders), _expr_fp(e.right, binders))
    if isinstance(e, PairE):
        return "pair(%s,%s)" % (_expr_fp(e.fst, binders), _expr_fp(e.snd, binders))
    if isinstance(e, ListE):
        return "list(%s)" % ",".join(_expr_fp(it, binders) for it in e.items)
    raise EvalError("not an expression: %r" % (e,))


def rename_symbols(term, mapping: dict):
    """Rename symbols throughout a term (used when hoisting restrictions)."""
    if isinstance(term, Input):
        term = Input(mapping.get(term.sym, term.sym), term.var, term.children)
    elif isinstance(term, Output):
        term = Output(mapping.get(term.sym, term.sym), term.expr, term.children)
    elif isinstance(term, Restrict):
        term = Restrict(term.body, frozenset(mapping.get(s, s) for s in term.syms))
    return map_children(term, lambda c: rename_symbols(c, mapping))
