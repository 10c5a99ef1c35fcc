"""Expression grammar for the CLI.

Atoms: integers, i, q, q^k (integer k), a[i,j], D[i,j], Dc[r1r2;c1c2],
t[i,j], tau[5,j], D12inv, x0..x3.  Product binds tighter than sum and
is written with * or juxtaposition; parentheses group.  Parsing then
printing then parsing is the identity on syntax trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ExprSyntaxError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))


class UnknownAtomError(ExprSyntaxError):
    pass


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class ImagUnit:
    pass


@dataclass(frozen=True)
class QPow:
    exp: int


@dataclass(frozen=True)
class Atom:
    kind: str  # "a", "D", "Dc", "t", "tau", "D12inv", "x"
    indices: tuple


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple  # first term positive; later terms may be Neg for "-"


_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9]*|\d+|\^|\*|\+|-|\(|\)|\[|\]|,|;|\S")

_X_NAMES = {"x0": 0, "x1": 1, "x2": 2, "x3": 3}

# deepest nesting of "(" and unary "-" the recursive descent accepts;
# deeper input is a syntax error rather than a RecursionError
MAX_DEPTH = 100

_MINOR_PAIRS = {(i, j) for i in range(1, 4) for j in range(i + 1, 5)} \
    | {(i, 5) for i in range(1, 5)} | {(5, 5)}


def _tokenize(text):
    tokens = []
    line = 1
    col = 1
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            col = 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            col += 1
            continue
        m = _TOKEN.match(text, pos)
        tok = m.group(0)
        tokens.append((tok, line, col))
        pos = m.end()
        col += len(tok)
    tokens.append((None, line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k][0]

    def where(self):
        _, line, col = self.tokens[self.k]
        return line, col

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, what):
        tok, line, col = self.advance()
        if tok != what:
            raise ExprSyntaxError("expected %r, found %r" % (what, tok),
                                  line, col)

    def fail(self, message):
        line, col = self.where()
        raise ExprSyntaxError(message, line, col)

    def integer(self, tok, line, col):
        """int(tok); a digit token int() rejects is a syntax error.

        int() refuses literals past Python's int-string limit (4300
        digits by default) and digit characters such as superscripts.
        """
        try:
            return int(tok)
        except ValueError:
            shown = repr(tok) if len(tok) <= 12 else \
                "%r... (%d digits)" % (tok[:12], len(tok))
            raise ExprSyntaxError("invalid integer literal %s" % shown,
                                  line, col) from None

    def nest(self):
        """Enter one "(" or unary "-" level at the current token."""
        if self.depth >= MAX_DEPTH:
            self.fail("expression nested deeper than %d levels" % MAX_DEPTH)
        self.depth += 1

    # expr := term (("+"|"-") term)*
    def expr(self):
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            op, _, _ = self.advance()
            t = self.term()
            terms.append(Neg(t) if op == "-" else t)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    # term := factor ("*"? factor)*
    def term(self):
        factors = [self.factor()]
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.advance()
                factors.append(self.factor())
            elif nxt is not None and (nxt[0].isdigit() or nxt[0].isalpha()
                                      or nxt == "("):
                factors.append(self.factor())
            else:
                break
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def factor(self):
        if self.peek() == "-":
            self.nest()
            self.advance()
            node = Neg(self.factor())
            self.depth -= 1
            return node
        return self.primary()

    def signed_int(self):
        neg = False
        if self.peek() == "-":
            self.advance()
            neg = True
        tok, line, col = self.advance()
        if tok is None or not tok.isdigit():
            raise ExprSyntaxError("expected an integer exponent", line, col)
        value = self.integer(tok, line, col)
        return -value if neg else value

    def int_token(self):
        tok, line, col = self.advance()
        if tok is None or not tok.isdigit():
            raise ExprSyntaxError("expected an integer", line, col)
        return self.integer(tok, line, col)

    def primary(self):
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        if tok == "(":
            self.nest()
            self.advance()
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.isdigit():
            tok, line, col = self.advance()
            return IntLit(self.integer(tok, line, col))
        if tok[0].isalpha():
            return self.atom()
        self.fail("unexpected token %r" % tok)

    def atom(self):
        tok, line, col = self.advance()
        if tok == "i":
            return ImagUnit()
        if tok == "q":
            if self.peek() == "^":
                self.advance()
                return QPow(self.signed_int())
            return QPow(1)
        if tok == "D12inv":
            return Atom("D12inv", ())
        if tok in _X_NAMES:
            return Atom("x", (_X_NAMES[tok],))
        if tok in ("a", "D", "t", "tau"):
            self.expect("[")
            i = self.int_token()
            self.expect(",")
            j = self.int_token()
            self.expect("]")
            return self._indexed_atom(tok, i, j, line, col)
        if tok == "Dc":
            self.expect("[")
            rows = self.int_token()
            self.expect(";")
            cols = self.int_token()
            self.expect("]")
            r = (rows // 10, rows % 10)
            c = (cols // 10, cols % 10)
            if not (1 <= r[0] < r[1] <= 5 and 1 <= c[0] < c[1] <= 5):
                raise UnknownAtomError(
                    "invalid minor Dc[%d;%d]: rows and columns must be "
                    "strictly increasing in 1..5" % (rows, cols), line, col)
            return Atom("Dc", r + c)
        raise UnknownAtomError("unknown atom name %r" % tok, line, col)

    def _indexed_atom(self, kind, i, j, line, col):
        if kind == "a":
            if not (1 <= i <= 5 and 1 <= j <= 5):
                raise UnknownAtomError("a[%d,%d] out of range 1..5" % (i, j),
                                       line, col)
        elif kind == "D":
            if (i, j) not in _MINOR_PAIRS:
                raise UnknownAtomError("D[%d,%d] is not a quantum minor"
                                       % (i, j), line, col)
        elif kind == "t":
            if not (i in (3, 4) and j in (1, 2)):
                raise UnknownAtomError("t[%d,%d] out of range" % (i, j),
                                       line, col)
        elif kind == "tau":
            if not (i == 5 and j in (1, 2)):
                raise UnknownAtomError("tau[%d,%d] out of range" % (i, j),
                                       line, col)
        return Atom(kind, (i, j))


def parse(text):
    """Parse an expression; raises ExprSyntaxError with position info."""
    p = _Parser(text)
    node = p.expr()
    tok, line, col = p.tokens[p.k]
    if tok is not None:
        raise ExprSyntaxError("unexpected trailing token %r" % tok, line, col)
    return node


def to_text(node):
    """Canonical printing; parse(to_text(parse(s))) == parse(s)."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, ImagUnit):
        return "i"
    if isinstance(node, QPow):
        return "q" if node.exp == 1 else "q^%d" % node.exp
    if isinstance(node, Atom):
        if node.kind == "D12inv":
            return "D12inv"
        if node.kind == "x":
            return "x%d" % node.indices
        if node.kind == "Dc":
            r1, r2, c1, c2 = node.indices
            return "Dc[%d%d;%d%d]" % (r1, r2, c1, c2)
        return "%s[%d,%d]" % ((node.kind,) + node.indices)
    if isinstance(node, Neg):
        inner = to_text(node.arg)
        if isinstance(node.arg, (Sum, Prod)):
            inner = "(" + inner + ")"
        return "-" + inner
    if isinstance(node, Prod):
        parts = []
        for f in node.factors:
            t = to_text(f)
            if isinstance(f, (Sum, Neg, Prod)):
                t = "(" + t + ")"
            parts.append(t)
        return "*".join(parts)
    if isinstance(node, Sum):
        out = to_text(node.terms[0])
        if isinstance(node.terms[0], Sum):
            out = "(" + out + ")"
        for t in node.terms[1:]:
            if isinstance(t, Neg) and not isinstance(t.arg, Sum):
                out += " - " + to_text(t.arg)
            else:
                inner = to_text(t)
                if isinstance(t, Sum):
                    inner = "(" + inner + ")"
                out += " + " + inner
        return out
    raise TypeError(node)
