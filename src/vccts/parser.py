"""Parser for definition files.

    # comments run to the end of the line
    symbol f/2;
    symbol send/1;
    def A(x, y) = f(z).(A(x, y), 0) + if x = y then * else ~f(x + 1).(0, 0);
    process Main = graph { v1: A(1, 2); v2: B(); edges { v1 -- v2 } }
                   restrict {f};

Input prefixes are written `f(x).(...)`, output prefixes `~f(e).(...)`.
`P | Q` composes with full interaction, `P (+) Q` with none.  Binding,
loosest first: `restrict`, then `|` and `(+)` (left to right), then `+`;
a `+` chain is one `Sum`, a `|`/`(+)` chain one graph (`syntax.compose`).

One regular-expression scan turns the source into a flat list of token
texts.  Terms are read by one loop per nesting level and expressions by
precedence climbing (Pratt, POPL 1973), so a level of brackets costs at
most three Python frames.  Terms and expressions nest at most
`MAX_PARSE_DEPTH` deep: prefix children, parentheses, graph places,
lists, the arguments of constants and functions, conditional branches,
`not` and `!` operands, each `restrict` and each binary operator open a
level.  A sum, a composition, a restriction and a binary operator sit
one level above the deepest level their operands reached (`peak`), and
parentheses hold no term, so the bound holds for the depth of the term
built, not only for the source's brackets.  Parse errors carry line and
column, which are worked out from the source only when an error is
raised.
"""

from __future__ import annotations

import re

from .syntax import (
    Cond, Const, DefEnv, IDLE, Input, NIL, Output, Restrict, Sum, SyntaxError_,
    check_canonical, check_closed, check_guarded, compose, graph_term, validate_term,
)
from .values import Atom, Bin, Lit, ListE, PairE, Un, Var

KEYWORDS = {
    "symbol", "def", "process", "graph", "edges", "restrict",
    "if", "then", "else", "true", "false", "not", "and", "or",
    "head", "tail", "null", "fst", "snd", "append",
}

MAX_PARSE_DEPTH = 200
_TOO_DEEP = "nested deeper than MAX_PARSE_DEPTH=%d" % MAX_PARSE_DEPTH

PUNCT = "(){}[];:,.+-*=|~!/\\"

# Whitespace and comments match outside the group, so `findall` gives ""
# for them.  The last alternative catches a character no token starts with.
# The two `%s` slots name the source's characters that `\d` and `\w` class
# differently from `str.isdigit` and `str.isalpha` (see `_scanner`).
_TOKEN = (r"[ \t\r\n]+|#[^\n]*|(\(\+\)|--|[" + re.escape(PUNCT) + r"]"
          r"|[\d%s]+|[^\W\d%s]\w*'*|.)")

# Binding powers of the operators, loosest first: `not e` binds between
# `and` and `=`, and `!e` tighter than every infix operator.
_BINARY = {"or": (1, "or"), "and": (2, "and"), "=": (4, "eq"),
           "+": (5, "add"), "-": (5, "sub"), "*": (6, "mul")}
_PREFIX = {"not": (3, "not"), "!": (7, "bitneg")}
_UNARY = {"head", "tail", "null", "fst", "snd"}


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


def _scanner(src):
    """The token pattern for `src`.  A digit token is a run of characters
    with `str.isdigit`, and a name starts with `str.isalpha` or `_` and
    goes on with `str.isalnum` or `_`, then primes.  `\\w` is exactly
    `isalnum` or `_`, but `\\d` is `isdecimal`, so the source's characters
    that are alphanumeric but neither letters nor decimal digits (`²`,
    `½`) are named: the digits among them join the digit class, and none
    of them starts a name."""
    odd = "" if src.isascii() else "".join(sorted(
        c for c in set(src) if c.isalnum() and not c.isalpha() and not c.isdecimal()))
    digits = "".join(c for c in odd if c.isdigit())
    return re.compile(_TOKEN % (re.escape(digits), re.escape(odd)))


def tokenize(src: str) -> list:
    """The token texts of `src` in order, then "" for the end of input.
    A character that starts no token is a ParseError."""
    texts = list(filter(None, _scanner(src).findall(src)))
    bad = [t for t in set(texts) if len(t) == 1 and t not in PUNCT
           and not (t.isdigit() or t.isalpha() or t == "_")]
    if bad:
        k = min(map(texts.index, bad))
        raise ParseError("unexpected character %r" % texts[k], *_position(src, k))
    texts.append("")
    return texts


def _position(src, k):
    """(line, column) of token `k` of `tokenize(src)`, found by scanning
    again.  Tabs and carriage returns take one column each, and a comment
    that ends the input leaves the end of input at the comment's start."""
    n = -1
    for m in _scanner(src).finditer(src):
        if m.lastindex:
            n += 1
            if n == k:
                at = m.start()
                break
    else:
        hash_ = src.find("#", src.rfind("\n") + 1)
        at = len(src) if hash_ < 0 else hash_
    return src.count("\n", 0, at) + 1, at - src.rfind("\n", 0, at)


class Parser:
    def __init__(self, src: str):
        self.src = src
        self.texts = tokenize(src)
        self.pos = 0
        self.peak = 0      # the deepest level the term or expression being read reached
        self.idents = {t for t in set(self.texts)
                       if t[:1].isalpha() or t[:1] == "_"} - KEYWORDS

    # -- token utilities ----------------------------------------------------

    def fail(self, k, message):
        raise ParseError(message, *_position(self.src, k))

    def error(self, message):
        self.fail(self.pos, message + " (got %r)" % (self.texts[self.pos] or "end of input"))

    def accept(self, text) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text):
        if self.texts[self.pos] != text:
            self.error("expected %r" % text)
        self.pos += 1

    def name(self, what="identifier") -> str:
        t = self.texts[self.pos]
        if t not in self.idents:
            self.error("expected %s" % what)
        self.pos += 1
        return t

    def integer(self):
        t = self.texts[self.pos]
        try:
            value = int(t)
        except ValueError as exc:
            self.fail(self.pos, "unreadable integer literal: %s" % exc)
        self.pos += 1
        return value

    def items(self, item, arg, close):
        """`item(arg)` repeated between commas up to `close`, which may
        come first."""
        out = []
        if not self.accept(close):
            out.append(item(arg))
            while self.accept(","):
                out.append(item(arg))
            self.expect(close)
        return out

    # -- top level -----------------------------------------------------------

    def parse_file(self):
        sig = {}
        defs = {}
        processes = {}
        texts = self.texts
        while texts[self.pos]:
            if self.accept("symbol"):
                nm = self.name("symbol name")
                self.expect("/")
                k = self.pos
                if not texts[k][:1].isdigit():
                    self.error("expected an arity")
                arity = self.integer()
                if arity < 1:
                    self.fail(k, "declared symbols need arity >= 1")
                if nm in sig:
                    self.fail(k, "symbol %s declared twice" % nm)
                sig[nm] = arity
                self.expect(";")
            elif self.accept("def"):
                k = self.pos
                nm = self.name("constant name")
                params = ()
                if self.accept("("):
                    params = tuple(self.items(self.name, "parameter", ")"))
                self.expect("=")
                body = self.term(0)
                self.expect(";")
                if nm in defs:
                    self.fail(k, "constant %s defined twice" % nm)
                try:
                    check_closed(nm, params, body)
                except SyntaxError_ as exc:
                    self.fail(k, str(exc))
                defs[nm] = (params, body)
            elif self.accept("process"):
                k = self.pos
                nm = self.name("process name")
                self.expect("=")
                term = self.term(0)
                self.expect(";")
                if nm in processes:
                    self.fail(k, "process %s defined twice" % nm)
                processes[nm] = term
            else:
                self.error("expected 'symbol', 'def' or 'process'")
        return sig, defs, processes

    # -- terms ----------------------------------------------------------------

    def term(self, depth, full=True):
        """A term at nesting depth `depth`; with `full` false, a sum only
        (a conditional's branch).  A lone operand is returned as it is.
        A sum, a composition and each restriction hold their operands one
        level below them, so each continues from the deepest level its
        operands reached."""
        if depth > MAX_PARSE_DEPTH:
            self.fail(self.pos, _TOO_DEEP)
        texts = self.texts
        outer, top = self.peak, depth
        terms, ops = [], []
        while True:
            self.peak = depth
            term = self.atom(depth)
            if texts[self.pos] == "+":
                summands = [term]
                while self.accept("+"):
                    summands.append(self.atom(depth))
                term = Sum(*summands)
                self.peak = self.deeper(self.peak)
            if self.peak > top:
                top = self.peak
            terms.append(term)
            op = texts[self.pos]
            if not full or (op != "|" and op != "(+)"):
                break
            self.pos += 1
            ops.append(op)
        if ops:
            term = compose(terms, ops)
            top = self.deeper(top)
        while full and self.accept("restrict"):
            top = self.deeper(top, self.pos - 1)
            self.expect("{")
            term = Restrict(term, frozenset(self.items(self.name, "symbol", "}")))
        self.peak = top if top > outer else outer
        return term

    def deeper(self, level, k=None):
        """The level above `level`; past `MAX_PARSE_DEPTH` a parse error at
        token k (default: the current one)."""
        if level >= MAX_PARSE_DEPTH:
            self.fail(self.pos if k is None else k, _TOO_DEEP)
        return level + 1

    def atom(self, depth):
        texts = self.texts
        t = texts[self.pos]
        if t == "*":
            self.pos += 1
            return IDLE
        if t[:1].isdigit():
            if t != "0":
                self.error("only 0 is a process; other integers are expressions")
            self.pos += 1
            return NIL
        if t == "if":
            self.pos += 1
            cond = self.expr(depth)
            self.expect("then")
            then = self.term(depth + 1, False)
            self.expect("else")
            return Cond(cond, then, self.term(depth + 1, False))
        if t == "graph":
            self.pos += 1
            return self.graph(depth + 1)
        if t == "~":
            self.pos += 1
            sym = self.name("symbol")
            self.expect("(")
            e = self.expr(depth + 1)
            self.expect(")")
            self.expect(".")
            return Output(sym, e, self.children(depth + 1))
        if t == "(":
            self.pos += 1
            outer = self.peak
            term = self.term(depth + 1)
            self.peak = max(outer, self.peak - 1)    # parentheses hold no term
            self.expect(")")
            return term
        if t in self.idents:
            p = self.pos = self.pos + 1
            if texts[p] != "(":
                return Const(t, ())
            # "" ends the tokens: look past texts[p + 1] only if it is not ""
            binder = texts[p + 1] and texts[p + 2] == ")" and texts[p + 3] == "."
            if binder and texts[p + 1] in self.idents:
                self.pos = p + 4
                return Input(t, texts[p + 1], self.children(depth + 1))
            self.pos = p + 1
            if binder and texts[p + 1] in KEYWORDS:
                self.error("expected input variable")
            return Const(t, tuple(self.items(self.expr, depth + 1, ")")))
        self.error("expected a process term")

    def children(self, depth):
        self.expect("(")
        kids = [self.term(depth)]
        while self.accept(","):
            kids.append(self.term(depth))
        self.expect(")")
        return tuple(kids)

    def graph(self, depth):
        self.expect("{")
        places = []
        links = []
        while True:
            if self.accept("edges"):
                self.expect("{")
                links = self.items(self.edge, "vertex name", "}")
                self.accept(";")
                self.expect("}")
                break
            if self.accept("}"):
                break
            v = self.name("vertex name")
            self.expect(":")
            places.append((v, self.term(depth)))
            if not self.accept(";"):
                self.expect("}")
                break
        try:
            return graph_term(places, links)
        except SyntaxError_ as exc:
            self.error(str(exc))

    def edge(self, what):
        a = self.name(what)
        self.expect("--")
        return (a, self.name(what))

    # -- expressions ------------------------------------------------------------

    def expr(self, depth, floor=0):
        """An expression whose operators bind at least as tightly as
        `floor`.  An operator binding tighter than the one that built the
        left operand has already been taken by its right operand; `=` does
        not chain, and after `not e` only `and` and `or` may follow."""
        if depth > MAX_PARSE_DEPTH:
            self.fail(self.pos, _TOO_DEEP)
        texts = self.texts
        outer, self.peak = self.peak, depth
        prefix = _PREFIX.get(texts[self.pos])
        if prefix is not None and floor <= prefix[0]:
            self.pos += 1
            e = Un(prefix[1], self.expr(depth + 1, prefix[0]))
            ceiling = prefix[0] - 1
        else:
            e = self.operand(depth)
            ceiling = 6
        while True:
            op = _BINARY.get(texts[self.pos])
            if op is None or not floor <= op[0] <= ceiling:
                if outer > self.peak:
                    self.peak = outer
                return e
            self.pos += 1
            left = self.deeper(self.peak)   # the chain so far becomes a left operand
            e = Bin(op[1], e, self.expr(depth + 1, op[0] + 1))
            self.peak = max(left, self.peak)
            ceiling = op[0] - 1 if op[1] == "eq" else op[0]

    def operand(self, depth):
        texts = self.texts
        t = texts[self.pos]
        if t[:1].isdigit():
            return Lit(self.integer())
        if t == "true" or t == "false":
            self.pos += 1
            return Lit(t == "true")
        if t in _UNARY or t == "append":
            self.pos += 1
            self.expect("(")
            if t == "append":
                a = self.expr(depth + 1)
                self.expect(",")
                e = Bin("append", a, self.expr(depth + 1))
            else:
                e = Un(t, self.expr(depth + 1))
            self.expect(")")
            return e
        if t == "[":
            self.pos += 1
            return ListE(tuple(self.items(self.expr, depth + 1, "]")))
        if t == "(":
            self.pos += 1
            outer = self.peak
            e = self.expr(depth + 1)
            if self.accept(","):
                e = PairE(e, self.expr(depth + 1))
            else:
                self.peak = max(outer, self.peak - 1)    # parentheses hold no expression
            self.expect(")")
            return e
        if t in self.idents:
            self.pos += 1
            return Lit(Atom(t)) if t[0].isupper() else Var(t)
        self.error("expected an expression")


def parse_source(src: str) -> DefEnv:
    """Parse a definition file into an environment; validates arities,
    canonicality of every definition body, and guarded recursion."""
    sig, defs, processes = Parser(src).parse_file()
    env = DefEnv(sig, defs, processes)
    for nm, (_params, body) in sorted(env.defs.items()):
        validate_term(body, env, "def %s" % nm)
    for nm, term in sorted(env.processes.items()):
        validate_term(term, env, "process %s" % nm)
    check_guarded(env)
    return env


def parse_file(path: str) -> DefEnv:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_source(fh.read())


def parse_term_src(src: str, env: DefEnv):
    """Parse a single term against an existing environment."""
    p = Parser(src)
    term = p.term(0)
    if p.texts[p.pos]:
        p.error("trailing input after the term")
    validate_term(term, env, "<term>")
    return term


def canonicality_report(env: DefEnv):
    """(kind, name, classification) rows for every definition."""
    rows = []
    for nm, (_params, body) in sorted(env.defs.items()):
        rows.append(("def", nm, check_canonical(body, env)))
    for nm, term in sorted(env.processes.items()):
        rows.append(("process", nm, check_canonical(term, env)))
    return rows
