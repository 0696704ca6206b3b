"""Data values, hash-consed expressions and the closed-expression evaluator.

The value universe is deliberately small: integers, booleans, atoms,
pairs and lists.  It covers everything the protocol and automata demos
need (message lists, (Ack, b) pairs, End sentinels, alternating bits).

Expressions here and process terms in `syntax` are `HashConsed`: one
process-wide table holds every node built, so a node equal to an
existing one is that node, and equality and hashing are identity.
"""

from __future__ import annotations

from dataclasses import dataclass


class EvalError(Exception):
    """Raised when a closed expression cannot be evaluated."""


@dataclass(frozen=True)
class Atom:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Pair:
    fst: "Value"
    snd: "Value"

    def __repr__(self):
        return "(%s, %s)" % (value_str(self.fst), value_str(self.snd))


# Lists are plain tuples; ints and bools are plain Python values.
Value = object

END = Atom("End")
ACK = Atom("Ack")


def value_eq(a, b) -> bool:
    """Structural equality; bool and int are distinct types (1 != true)."""
    return value_key(a) == value_key(b)


def value_str(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Atom):
        return v.name
    if isinstance(v, Pair):
        return "(%s, %s)" % (value_str(v.fst), value_str(v.snd))
    if isinstance(v, tuple):
        return "[%s]" % ", ".join(value_str(x) for x in v)
    raise EvalError("not a value: %r" % (v,))


def value_key(v):
    """Hashable key under which 1 and true stay distinct (plain == would
    identify them)."""
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    if isinstance(v, Atom):
        return ("a", v.name)
    if isinstance(v, Pair):
        return ("p", value_key(v.fst), value_key(v.snd))
    if isinstance(v, tuple):
        return ("l",) + tuple(value_key(x) for x in v)
    raise EvalError("not a value: %r" % (v,))


# ---------------------------------------------------------------------------
# Hash-consing (Filliâtre & Conchon, Type-safe modular hash-consing, 2006)
# ---------------------------------------------------------------------------

_NODES = {}     # (class, fields...) -> the one node built with them


class HashConsed:
    """Base of the expression and process-term classes, which are frozen
    dataclasses with `eq=False` and slots, built from positional fields.

    Building a node looks its class and fields up in the one table and
    returns the node found there, so equal nodes are one object.  Fields
    are names, sub-nodes, and tuples or frozensets of these, which the
    table compares by value and sub-nodes by identity, so no lookup walks
    a term, however deep."""

    __slots__ = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        return _NODES.get(key) or _built(cls, key, fields)


def _built(cls, key, fields):
    """A new node under `key`, entered in the table."""
    if len(fields) != len(cls.__slots__):
        raise TypeError("%s takes the fields %s" % (cls.__name__, ", ".join(cls.__slots__)))
    node = _NODES[key] = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    return node


# ---------------------------------------------------------------------------
# Expressions.  Arithmetic and boolean expressions share one AST; the
# boolean entry point just checks the result type.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, slots=True)
class Var(HashConsed):
    name: str


@dataclass(frozen=True, eq=False, slots=True)
class Lit(HashConsed):
    """A literal value, interned under its `value_key`, so `Lit(1)` and
    `Lit(True)` stay two nodes; building one rejects a non-value."""
    value: object

    def __new__(cls, value):
        key = (cls, value_key(value))
        return _NODES.get(key) or _built(cls, key, (value,))


@dataclass(frozen=True, eq=False, slots=True)
class Un(HashConsed):
    """Unary operator: fst snd head tail null not bitneg."""
    op: str
    arg: "Expr"


@dataclass(frozen=True, eq=False, slots=True)
class Bin(HashConsed):
    """Binary operator: add sub mul append eq and or."""
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False, slots=True)
class PairE(HashConsed):
    fst: "Expr"
    snd: "Expr"


@dataclass(frozen=True, eq=False, slots=True)
class ListE(HashConsed):
    items: tuple


Expr = object

UN_OPS = {"fst", "snd", "head", "tail", "null", "not", "bitneg"}
BIN_OPS = {"add", "sub", "mul", "append", "eq", "and", "or"}


def expr_vars(e) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Lit):
        return frozenset()
    if isinstance(e, Un):
        return expr_vars(e.arg)
    if isinstance(e, Bin):
        return expr_vars(e.left) | expr_vars(e.right)
    if isinstance(e, PairE):
        return expr_vars(e.fst) | expr_vars(e.snd)
    if isinstance(e, ListE):
        out = frozenset()
        for it in e.items:
            out |= expr_vars(it)
        return out
    raise EvalError("not an expression: %r" % (e,))


def subst_expr(e, var: str, val):
    if isinstance(e, Var):
        return Lit(val) if e.name == var else e
    if isinstance(e, Lit):
        return e
    if isinstance(e, Un):
        return Un(e.op, subst_expr(e.arg, var, val))
    if isinstance(e, Bin):
        return Bin(e.op, subst_expr(e.left, var, val), subst_expr(e.right, var, val))
    if isinstance(e, PairE):
        return PairE(subst_expr(e.fst, var, val), subst_expr(e.snd, var, val))
    if isinstance(e, ListE):
        return ListE(tuple(subst_expr(it, var, val) for it in e.items))
    raise EvalError("not an expression: %r" % (e,))


def _int(v, what):
    if isinstance(v, bool) or not isinstance(v, int):
        raise EvalError("%s expects an integer, got %s" % (what, value_str(v)))
    return v


def _bool(v, what):
    if not isinstance(v, bool):
        raise EvalError("%s expects a boolean, got %s" % (what, value_str(v)))
    return v


def _list(v, what):
    if not isinstance(v, tuple):
        raise EvalError("%s expects a list, got %s" % (what, value_str(v)))
    return v


def eval_expr(e):
    """Evaluate a closed expression to a value.  Deterministic and total
    on the supported operators; raises EvalError otherwise."""
    if isinstance(e, Var):
        raise EvalError("expression is not closed: free variable %s" % e.name)
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, PairE):
        return Pair(eval_expr(e.fst), eval_expr(e.snd))
    if isinstance(e, ListE):
        return tuple(eval_expr(it) for it in e.items)
    if isinstance(e, Un):
        v = eval_expr(e.arg)
        if e.op == "fst":
            if not isinstance(v, Pair):
                raise EvalError("fst of non-pair %s" % value_str(v))
            return v.fst
        if e.op == "snd":
            if not isinstance(v, Pair):
                raise EvalError("snd of non-pair %s" % value_str(v))
            return v.snd
        if e.op == "head":
            lst = _list(v, "head")
            if not lst:
                raise EvalError("head of empty list")
            return lst[0]
        if e.op == "tail":
            lst = _list(v, "tail")
            if not lst:
                raise EvalError("tail of empty list")
            return lst[1:]
        if e.op == "null":
            return len(_list(v, "null")) == 0
        if e.op == "not":
            return not _bool(v, "not")
        if e.op == "bitneg":
            b = _int(v, "bit negation")
            if b not in (0, 1):
                raise EvalError("bit negation expects 0 or 1, got %d" % b)
            return 1 - b
        raise EvalError("unknown unary operator %s" % e.op)
    if isinstance(e, Bin):
        if e.op == "and":
            return _bool(eval_expr(e.left), "and") and _bool(eval_expr(e.right), "and")
        if e.op == "or":
            return _bool(eval_expr(e.left), "or") or _bool(eval_expr(e.right), "or")
        a = eval_expr(e.left)
        b = eval_expr(e.right)
        if e.op == "add":
            return _int(a, "+") + _int(b, "+")
        if e.op == "sub":
            return _int(a, "-") - _int(b, "-")
        if e.op == "mul":
            return _int(a, "*") * _int(b, "*")
        if e.op == "append":
            return _list(a, "append") + (b,)
        if e.op == "eq":
            return value_eq(a, b)
        raise EvalError("unknown binary operator %s" % e.op)
    raise EvalError("not an expression: %r" % (e,))


def eval_bexpr(e) -> bool:
    v = eval_expr(e)
    if not isinstance(v, bool):
        raise EvalError("condition did not evaluate to a boolean: %s" % value_str(v))
    return v


def expr_str(e) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Lit):
        return value_str(e.value)
    if isinstance(e, PairE):
        return "(%s, %s)" % (expr_str(e.fst), expr_str(e.snd))
    if isinstance(e, ListE):
        return "[%s]" % ", ".join(expr_str(it) for it in e.items)
    if isinstance(e, Un):
        if e.op == "bitneg":
            return "!%s" % expr_str(e.arg)
        if e.op == "not":
            return "not %s" % expr_str(e.arg)
        return "%s(%s)" % (e.op, expr_str(e.arg))
    if isinstance(e, Bin):
        sym = {"add": "+", "sub": "-", "mul": "*", "eq": "=", "and": "and", "or": "or"}
        if e.op in sym:
            return "(%s %s %s)" % (expr_str(e.left), sym[e.op], expr_str(e.right))
        return "%s(%s, %s)" % (e.op, expr_str(e.left), expr_str(e.right))
    raise EvalError("not an expression: %r" % (e,))
