"""Recursive-descent parser for definition files.

    # comments run to the end of the line
    symbol f/2;
    symbol send/1;
    def A(x, y) = f(z).(A(x, y), 0) + if x = y then * else ~f(x + 1).(0, 0);
    process Main = graph { v1: A(1, 2); v2: B(); edges { v1 -- v2 } }
                   restrict {f};

Input prefixes are written `f(x).(...)`, output prefixes `~f(e).(...)`.
`P | Q` composes with full interaction, `P (+) Q` with none.  Parse
errors carry line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Cond, Const, DefEnv, IDLE, Input, NIL, Output,
    Restrict, Sum, SyntaxError_, check_canonical, check_guarded, graph_term,
    oplus, par, validate_term,
)
from .values import Atom, Bin, Lit, ListE, PairE, Un, Var

KEYWORDS = {
    "symbol", "def", "process", "graph", "edges", "restrict",
    "if", "then", "else", "true", "false", "not", "and", "or",
    "head", "tail", "null", "fst", "snd", "append",
}


class ParseError(Exception):
    def __init__(self, message, line, col):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str       # "name" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


PUNCT2 = ("(+)", "--")
PUNCT1 = "(){}[];:,.+-*=|~!/\\"


def tokenize(src: str):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        matched2 = next((p for p in PUNCT2 if src.startswith(p, i)), None)
        if matched2:
            toks.append(Token("punct", matched2, start_line, start_col))
            i += len(matched2)
            col += len(matched2)
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            while j < n and src[j] == "'":
                j += 1
            toks.append(Token("name", src[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c in PUNCT1:
            toks.append(Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % c, line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0

    # -- token utilities ----------------------------------------------------

    def peek(self, k=0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, message):
        t = self.peek()
        raise ParseError(message + " (got %r)" % (t.text or "end of input"), t.line, t.col)

    def accept(self, text) -> bool:
        t = self.peek()
        if t.text == text and t.kind in ("punct", "name"):
            self.next()
            return True
        return False

    def expect(self, text):
        if not self.accept(text):
            self.error("expected %r" % text)

    def name(self, what="identifier") -> str:
        t = self.peek()
        if t.kind != "name" or t.text in KEYWORDS:
            self.error("expected %s" % what)
        return self.next().text

    # -- top level -----------------------------------------------------------

    def parse_file(self):
        sig = {}
        defs = {}
        processes = {}
        while self.peek().kind != "eof":
            if self.accept("symbol"):
                nm = self.name("symbol name")
                self.expect("/")
                t = self.peek()
                if t.kind != "int":
                    self.error("expected an arity")
                arity = int(self.next().text)
                if arity < 1:
                    raise ParseError("declared symbols need arity >= 1", t.line, t.col)
                if nm in sig:
                    raise ParseError("symbol %s declared twice" % nm, t.line, t.col)
                sig[nm] = arity
                self.expect(";")
            elif self.accept("def"):
                t = self.peek()
                nm = self.name("constant name")
                params = []
                if self.accept("("):
                    if not self.accept(")"):
                        params.append(self.name("parameter"))
                        while self.accept(","):
                            params.append(self.name("parameter"))
                        self.expect(")")
                self.expect("=")
                body = self.parse_term()
                self.expect(";")
                if nm in defs:
                    raise ParseError("constant %s defined twice" % nm, t.line, t.col)
                defs[nm] = (tuple(params), body)
            elif self.accept("process"):
                t = self.peek()
                nm = self.name("process name")
                self.expect("=")
                term = self.parse_term()
                self.expect(";")
                if nm in processes:
                    raise ParseError("process %s defined twice" % nm, t.line, t.col)
                processes[nm] = term
            else:
                self.error("expected 'symbol', 'def' or 'process'")
        return sig, defs, processes

    # -- terms ----------------------------------------------------------------

    def parse_term(self):
        return self.parse_restrict()

    def parse_restrict(self):
        term = self.parse_par()
        while self.accept("restrict"):
            self.expect("{")
            syms = set()
            if not self.accept("}"):
                syms.add(self.name("symbol"))
                while self.accept(","):
                    syms.add(self.name("symbol"))
                self.expect("}")
            term = Restrict(term, frozenset(syms))
        return term

    def parse_par(self):
        term = self.parse_sum()
        while True:
            if self.accept("|"):
                term = par(term, self.parse_sum())
            elif self.accept("(+)"):
                term = oplus(term, self.parse_sum())
            else:
                return term

    def parse_sum(self):
        term = self.parse_term_atom()
        while self.accept("+"):
            term = Sum(term, self.parse_term_atom())
        return term

    def parse_term_atom(self):
        t = self.peek()
        if t.text == "*":
            self.next()
            return IDLE
        if t.kind == "int":
            if t.text == "0":
                self.next()
                return NIL
            self.error("only 0 is a process; other integers are expressions")
        if self.accept("if"):
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_sum()
            self.expect("else")
            other = self.parse_sum()
            return Cond(cond, then, other)
        if self.accept("graph"):
            return self.parse_graph()
        if self.accept("~"):
            sym = self.name("symbol")
            self.expect("(")
            expr = self.parse_expr()
            self.expect(")")
            self.expect(".")
            return Output(sym, expr, self.parse_children())
        if self.accept("("):
            term = self.parse_term()
            self.expect(")")
            return term
        if t.kind == "name" and t.text not in KEYWORDS:
            nm = self.next().text
            if self.peek().text == "(":
                # lookahead past the parenthesized part: a '.' means a prefix
                save = self.pos
                self.next()
                if self.peek().kind == "name" and self.peek(1).text == ")" \
                        and self.peek(2).text == ".":
                    var = self.next().text
                    self.expect(")")
                    self.expect(".")
                    return Input(nm, var, self.parse_children())
                self.pos = save
                self.expect("(")
                args = []
                if not self.accept(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                    self.expect(")")
                return Const(nm, tuple(args))
            return Const(nm, ())
        self.error("expected a process term")

    def parse_children(self):
        self.expect("(")
        children = [self.parse_term()]
        while self.accept(","):
            children.append(self.parse_term())
        self.expect(")")
        return tuple(children)

    def parse_graph(self):
        self.expect("{")
        places = []
        links = []
        while True:
            if self.accept("edges"):
                self.expect("{")
                if not self.accept("}"):
                    links.append(self.parse_edge())
                    while self.accept(","):
                        links.append(self.parse_edge())
                    self.expect("}")
                self.accept(";")
                self.expect("}")
                break
            if self.accept("}"):
                break
            v = self.name("vertex name")
            self.expect(":")
            places.append((v, self.parse_term()))
            if not self.accept(";"):
                self.expect("}")
                break
        try:
            return graph_term(places, links)
        except SyntaxError_ as exc:
            self.error(str(exc))

    def parse_edge(self):
        a = self.name("vertex name")
        self.expect("--")
        b = self.name("vertex name")
        return (a, b)

    # -- expressions ------------------------------------------------------------

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        e = self.parse_and()
        while self.accept("or"):
            e = Bin("or", e, self.parse_and())
        return e

    def parse_and(self):
        e = self.parse_not()
        while self.accept("and"):
            e = Bin("and", e, self.parse_not())
        return e

    def parse_not(self):
        if self.accept("not"):
            return Un("not", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self):
        e = self.parse_add()
        if self.accept("="):
            return Bin("eq", e, self.parse_add())
        return e

    def parse_add(self):
        e = self.parse_mul()
        while True:
            if self.accept("+"):
                e = Bin("add", e, self.parse_mul())
            elif self.accept("-"):
                e = Bin("sub", e, self.parse_mul())
            else:
                return e

    def parse_mul(self):
        e = self.parse_unary()
        while self.accept("*"):
            e = Bin("mul", e, self.parse_unary())
        return e

    def parse_unary(self):
        if self.accept("!"):
            return Un("bitneg", self.parse_unary())
        return self.parse_atom()

    def parse_atom(self):
        t = self.peek()
        if t.kind == "int":
            return Lit(int(self.next().text))
        if self.accept("true"):
            return Lit(True)
        if self.accept("false"):
            return Lit(False)
        for op in ("head", "tail", "null", "fst", "snd"):
            if self.accept(op):
                self.expect("(")
                e = self.parse_expr()
                self.expect(")")
                return Un(op, e)
        if self.accept("append"):
            self.expect("(")
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect(")")
            return Bin("append", a, b)
        if self.accept("["):
            items = []
            if not self.accept("]"):
                items.append(self.parse_expr())
                while self.accept(","):
                    items.append(self.parse_expr())
                self.expect("]")
            return ListE(tuple(items))
        if self.accept("("):
            e = self.parse_expr()
            if self.accept(","):
                other = self.parse_expr()
                self.expect(")")
                return PairE(e, other)
            self.expect(")")
            return e
        if t.kind == "name" and t.text not in KEYWORDS:
            nm = self.next().text
            if nm[0].isupper():
                return Lit(Atom(nm))
            return Var(nm)
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
    term = p.parse_term()
    if p.peek().kind != "eof":
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
