"""Expression grammar for the CLI.

Atoms: integers, i, q, q^k (integer k), a[i,j], D[i,j], Dc[r1r2;c1c2],
t[i,j], tau[5,j], D12inv, x0..x3.  Product binds tighter than sum and
is written with * or juxtaposition; parentheses group.  Parsing then
printing then parsing is the identity on syntax trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice


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
    """The token strings of text, then None for the end of input.

    No alternative of _TOKEN matches a whitespace character, so one
    findall skips whitespace between tokens.
    """
    tokens = _TOKEN.findall(text)
    tokens.append(None)
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def error(self, message, k, kind=ExprSyntaxError):
        """kind(message) at the line and column of token k.

        Only "\\n" starts a line, and a column counts characters from
        1.  Both come from the token's offset in the text, found again
        here, since only an error needs them.
        """
        text = self.text
        if self.tokens[k] is None:
            offset = len(text)
        else:
            offset = next(islice(_TOKEN.finditer(text), k, None)).start()
        return kind(message, text.count("\n", 0, offset) + 1,
                    offset - text.rfind("\n", 0, offset))

    def expect(self, what):
        tok = self.advance()
        if tok != what:
            found = "end of input" if tok is None else repr(tok)
            raise self.error("expected %r, found %s" % (what, found),
                             self.k - 1)

    def integer(self, k):
        """int() of token k; a digit token int() rejects is a syntax error.

        int() refuses literals past Python's int-string limit (4300
        digits by default) and digit characters such as superscripts.
        """
        tok = self.tokens[k]
        try:
            return int(tok)
        except ValueError:
            shown = repr(tok) if len(tok) <= 12 else \
                "%r... (%d digits)" % (tok[:12], len(tok))
            raise self.error("invalid integer literal %s" % shown,
                             k) from None

    def nest(self):
        """Enter one "(" or unary "-" level at the current token."""
        if self.depth >= MAX_DEPTH:
            raise self.error("expression nested deeper than %d levels"
                             % MAX_DEPTH, self.k)
        self.depth += 1

    # expr := term (("+"|"-") term)*
    def expr(self):
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            op = self.advance()
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
        tok = self.advance()
        if tok is None or not tok.isdigit():
            raise self.error("expected an integer exponent", self.k - 1)
        value = self.integer(self.k - 1)
        return -value if neg else value

    def int_token(self):
        tok = self.advance()
        if tok is None or not tok.isdigit():
            raise self.error("expected an integer", self.k - 1)
        return self.integer(self.k - 1)

    def primary(self):
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input", self.k)
        if tok == "(":
            self.nest()
            self.advance()
            node = self.expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok.isdigit():
            self.advance()
            return IntLit(self.integer(self.k - 1))
        if tok[0].isalpha():
            return self.atom()
        raise self.error("unexpected token %r" % tok, self.k)

    def atom(self):
        k = self.k
        tok = self.advance()
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
            return self._indexed_atom(tok, i, j, k)
        if tok == "Dc":
            self.expect("[")
            rows = self.int_token()
            self.expect(";")
            cols = self.int_token()
            self.expect("]")
            r = (rows // 10, rows % 10)
            c = (cols // 10, cols % 10)
            if not (1 <= r[0] < r[1] <= 5 and 1 <= c[0] < c[1] <= 5):
                raise self.error(
                    "invalid minor Dc[%d;%d]: rows and columns must be "
                    "strictly increasing in 1..5" % (rows, cols), k,
                    UnknownAtomError)
            return Atom("Dc", r + c)
        raise self.error("unknown atom name %r" % tok, k, UnknownAtomError)

    def _indexed_atom(self, kind, i, j, k):
        if kind == "a":
            if not (1 <= i <= 5 and 1 <= j <= 5):
                raise self.error("a[%d,%d] out of range 1..5" % (i, j), k,
                                 UnknownAtomError)
        elif kind == "D":
            if (i, j) not in _MINOR_PAIRS:
                raise self.error("D[%d,%d] is not a quantum minor" % (i, j),
                                 k, UnknownAtomError)
        elif kind == "t":
            if not (i in (3, 4) and j in (1, 2)):
                raise self.error("t[%d,%d] out of range" % (i, j), k,
                                 UnknownAtomError)
        elif kind == "tau":
            if not (i == 5 and j in (1, 2)):
                raise self.error("tau[%d,%d] out of range" % (i, j), k,
                                 UnknownAtomError)
        return Atom(kind, (i, j))


def parse(text):
    """Parse an expression; raises ExprSyntaxError with position info."""
    p = _Parser(text)
    node = p.expr()
    tok = p.peek()
    if tok is not None:
        raise p.error("unexpected trailing token %r" % tok, p.k)
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
