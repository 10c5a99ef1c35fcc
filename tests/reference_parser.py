"""The syntax tree and recursive descent that qmink.parser.parse replaced,
kept as the reference its values are compared against.

reference_parse(text) builds the tree of the grammar, with the errors and
positions of parse, over a per-character tokenizer; to_text prints a tree
back as text, and exprs draws trees for hypothesis.  reference_evaluate
maps every node into the algebra, constants too: the path before constant
folding.  Free is the free algebra on the atoms, where no relation hides a
misread order or grouping; FREE holds parse's callbacks into it.
"""

from hypothesis import strategies as st

from qmink.parser import _TOKEN, MAX_DEPTH, ExprSyntaxError, atom_text
from qmink.scalars import I, ONE, Scalar
from qmink.supergroup import MINOR_ORDER


class _Node:
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)

    __hash__ = None


class IntLit(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class ImagUnit(_Node):
    __slots__ = ()


class QPow(_Node):
    __slots__ = ("exp",)

    def __init__(self, exp):
        self.exp = exp


class Atom(_Node):
    __slots__ = ("kind", "indices")

    def __init__(self, kind, indices):
        self.kind = kind  # "a", "D", "Dc", "t", "tau", "D12inv"
        self.indices = indices


class Neg(_Node):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class Prod(_Node):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors


class Sum(_Node):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms  # first term positive; later may be Neg for "-"


def to_text(node):
    """Canonical printing; reference_parse(to_text(node)) == node."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, ImagUnit):
        return "i"
    if isinstance(node, QPow):
        return "q" if node.exp == 1 else "q^%d" % node.exp
    if isinstance(node, Atom):
        return atom_text(node.kind, node.indices)
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


ATOMS = [Atom("a", (1, 2)), Atom("a", (5, 5)), Atom("D", (1, 2)),
         Atom("D", (5, 5)), Atom("Dc", (1, 2, 3, 4)), Atom("t", (3, 1)),
         Atom("tau", (5, 2)), Atom("D12inv", ())]


def exprs(depth, atoms=ATOMS):
    """Trees of at most depth levels of Neg, Prod and Sum over constants
    and the given atoms."""
    leaves = st.one_of(
        st.integers(0, 99).map(IntLit),
        st.just(ImagUnit()),
        st.integers(-4, 4).map(QPow),
        st.sampled_from(atoms),
    )
    if depth == 0:
        return leaves
    sub = exprs(depth - 1, atoms)
    return st.one_of(
        leaves,
        sub.map(Neg),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda fs: Prod(tuple(fs))),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda ts: Sum(tuple(ts))),
    )


def reference_evaluate(node, scalar, atom):
    """The value of node, with scalar and atom the callbacks of parse;
    every constant goes through scalar, so nothing folds."""
    def ev(n):
        if isinstance(n, IntLit):
            return scalar(Scalar.from_int(n.value))
        if isinstance(n, ImagUnit):
            return scalar(I)
        if isinstance(n, QPow):
            return scalar(Scalar.q_pow(n.exp))
        if isinstance(n, Atom):
            return atom(n.kind, n.indices)
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, Prod):
            out = ev(n.factors[0])
            for f in n.factors[1:]:
                out = out * ev(f)
            return out
        if isinstance(n, Sum):
            out = ev(n.terms[0])
            for t in n.terms[1:]:
                out = out + ev(t)
            return out
        raise TypeError(n)

    return ev(node)


class Free:
    """A sum of words over the atoms, (kind, indices) pairs, with nonzero
    Scalar coefficients: the free algebra, with the operations parse
    uses."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {w: c for w, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return Free(out)

    def __neg__(self):
        return Free({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w, c = w1 + w2, c1 * c2
                out[w] = out[w] + c if w in out else c
        return Free(out)

    def scale(self, s):
        return Free({w: c * s for w, c in self.terms.items()})

    def __eq__(self, other):
        return other.__class__ is Free and self.terms == other.terms

    __hash__ = None


FREE = (lambda s: Free({(): s}),
        lambda kind, indices: Free({((kind, indices),): ONE}))

# parse's callbacks with every atom the constant 1
ONES = (lambda s: s, lambda kind, indices: ONE)


def reference_tokenize(text):
    """The per-character tokenizer parse used before the one-pass scan:
    (token, line, column) triples, then (None, line, column)."""
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


# The recursive descent that parse's loop replaced, kept as the reference
# grammar: one method per level (expr, term, factor, primary, atom), with
# the depth of "(" and unary "-" counted in nest, over the reference
# tokens and their positions.
class _Parser:
    def __init__(self, text):
        self.triples = reference_tokenize(text)
        self.tokens = [tok for tok, _line, _col in self.triples]
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def error(self, message, k):
        _tok, line, col = self.triples[k]
        return ExprSyntaxError(message, line, col)

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
                    "strictly increasing in 1..5" % (rows, cols), k)
            return Atom("Dc", r + c)
        raise self.error("unknown atom name %r" % tok, k)

    def _indexed_atom(self, kind, i, j, k):
        if kind == "a":
            if not (1 <= i <= 5 and 1 <= j <= 5):
                raise self.error("a[%d,%d] out of range 1..5" % (i, j), k)
        elif kind == "D":
            if (i, j) not in MINOR_ORDER:
                raise self.error("D[%d,%d] is not a quantum minor" % (i, j), k)
        elif kind == "t":
            if not (i in (3, 4) and j in (1, 2)):
                raise self.error("t[%d,%d] out of range" % (i, j), k)
        elif kind == "tau":
            if not (i == 5 and j in (1, 2)):
                raise self.error("tau[%d,%d] out of range" % (i, j), k)
        return Atom(kind, (i, j))


def reference_parse(text):
    """The tree of text; raises the ExprSyntaxError that parse raises."""
    p = _Parser(text)
    node = p.expr()
    tok = p.peek()
    if tok is not None:
        raise p.error("unexpected trailing token %r" % tok, p.k)
    return node
