"""Expression grammar: round trips and position-annotated errors."""

from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from qmink.parser import (_TOKEN, MAX_DEPTH, Atom, ExprSyntaxError, ImagUnit,
                          IntLit, Neg, Prod, QPow, Sum, _tokenize, atom_text,
                          parse)
from qmink.supergroup import MINOR_ORDER


def to_text(node):
    """Canonical printing; parse(to_text(parse(s))) == parse(s).  The
    program prints only atoms (atom_text, in its error messages); the
    round-trip tests here and in test_cli.py print whole trees."""
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, ImagUnit):
        return "i"
    if isinstance(node, QPow):
        return "q" if node.exp == 1 else "q^%d" % node.exp
    if isinstance(node, Atom):
        return atom_text(node)
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


CORPUS = [
    "a[1,2]*a[1,1]",
    "t[3,2]*t[4,1] - t[4,1]*t[3,2] - (q^-1 - q)*t[4,2]*t[3,1]",
    "tau[5,1]*tau[5,1]",
    "D[1,2]*D12inv",
    "Dc[34;45]",
    "q^-1 - q",
    "2*q^3*a[5,5] + i*a[1,5]",
    "-a[1,1]",
    "t[3,1]*t[4,2] - tau[5,1]*tau[5,2]",
    "(a[1,1] + a[2,2])*(a[3,3] - a[4,4])",
    "q",
    "i",
    "7",
    "-(q + 1)",
]


def test_spec_examples():
    node = parse("a[1,2]*a[1,1]")
    assert node == Prod((Atom("a", (1, 2)), Atom("a", (1, 1))))
    node = parse("t[3,2]*t[4,1] - t[4,1]*t[3,2] - (q^-1 - q)*t[4,2]*t[3,1]")
    assert isinstance(node, Sum) and len(node.terms) == 3
    assert isinstance(node.terms[1], Neg)
    inner = node.terms[2].arg
    assert isinstance(inner, Prod)
    assert inner.factors[0] == Sum((QPow(-1), Neg(QPow(1))))


def test_unknown_atoms():
    with pytest.raises(ExprSyntaxError, match=r"a\[6,1\] out of range"):
        parse("a[6,1]")
    with pytest.raises(ExprSyntaxError,
                       match=r"D\[2,1\] is not a quantum minor"):
        parse("D[2,1]")
    with pytest.raises(ExprSyntaxError, match=r"t\[5,1\] out of range"):
        parse("t[5,1]")
    with pytest.raises(ExprSyntaxError, match="unknown atom name 'zeta'"):
        parse("zeta")
    with pytest.raises(ExprSyntaxError, match=r"invalid minor Dc\[43;12\]"):
        parse("Dc[43;12]")


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("a[1,2] +")
    assert str(err.value).endswith("(line 1, column 9)")
    with pytest.raises(ExprSyntaxError) as err:
        parse("a[1\n,2)")
    assert "(line 2, column " in str(err.value)
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("q^x")
    with pytest.raises(ExprSyntaxError):
        parse("a[1,2] a[1,1])")
    with pytest.raises(ExprSyntaxError) as err:
        parse("a[1,1")
    assert str(err.value) == \
        "expected ']', found end of input (line 1, column 6)"


def test_nesting_depth_limit():
    n = MAX_DEPTH
    assert parse("(" * n + "q" + ")" * n) == QPow(1)
    for text in ("-" * n + "q", "-(" * (n // 2) + "q" + ")" * (n // 2)):
        node = parse(text)
        assert parse(to_text(node)) == node
    for text in ("(" * (n + 1) + "q" + ")" * (n + 1), "-" * (n + 1) + "q",
                 "-(" * (n // 2) + "-q" + ")" * (n // 2)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert str(err.value).endswith("(line 1, column %d)" % (n + 1))


def test_juxtaposition_is_product():
    assert parse("2 a[1,1]") == parse("2*a[1,1]")
    assert parse("q^-1 q") == parse("q^-1*q")


def test_round_trip_corpus():
    for text in CORPUS:
        node = parse(text)
        assert parse(to_text(node)) == node, text


_atoms = st.one_of(
    st.integers(0, 99).map(IntLit),
    st.just(ImagUnit()),
    st.integers(-4, 4).map(QPow),
    st.sampled_from([Atom("a", (1, 2)), Atom("a", (5, 5)),
                     Atom("D", (1, 2)), Atom("D", (5, 5)),
                     Atom("Dc", (1, 2, 3, 4)), Atom("t", (3, 1)),
                     Atom("tau", (5, 2)), Atom("D12inv", ())]),
)


def _exprs(depth):
    if depth == 0:
        return _atoms
    sub = _exprs(depth - 1)
    return st.one_of(
        _atoms,
        sub.map(Neg),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda fs: Prod(tuple(fs))),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda ts: Sum(tuple(ts))),
    )


@settings(max_examples=150)
@given(_exprs(3))
def test_round_trip_random_asts(node):
    assert parse(to_text(node)) == node


def _reference_tokenize(text):
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


# The recursive descent that parse replaced, kept unchanged as the
# reference grammar: one method per level (expr, term, factor, primary,
# atom), with the depth of "(" and unary "-" counted in nest.
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

    def error(self, message, k):
        """ExprSyntaxError(message) at the line and column of token k.

        Only "\\n" starts a line, and a column counts characters from
        1.  Both come from the token's offset in the text, found again
        here, since only an error needs them.
        """
        text = self.text
        if self.tokens[k] is None:
            offset = len(text)
        else:
            offset = next(islice(_TOKEN.finditer(text), k, None)).start()
        return ExprSyntaxError(message, text.count("\n", 0, offset) + 1,
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


class _ReferenceParser(_Parser):
    """parse's grammar over the reference tokens and their positions."""

    def __init__(self, text):
        super().__init__(text)
        self.triples = _reference_tokenize(text)
        self.tokens = [tok for tok, _line, _col in self.triples]

    def error(self, message, k):
        _tok, line, col = self.triples[k]
        return ExprSyntaxError(message, line, col)


def _reference_parse(text):
    p = _ReferenceParser(text)
    node = p.expr()
    tok = p.peek()
    if tok is not None:
        raise p.error("unexpected trailing token %r" % tok, p.k)
    return node


def _outcome(fn, text):
    try:
        return fn(text)
    except ExprSyntaxError as exc:
        return exc.__class__, str(exc)


_PIECES = ["a", "[", "]", ",", ";", "1", "2", "5", "12", "34", "q", "^",
           "-", "+", "*", "(", ")", "i", "D", "Dc", "D12inv", "t", "tau",
           "x0", "zeta", "%", " ", "\t", "\n", "\r\n", "\u00a0",
           "\u2003", "\u2028", "\x0b", "\u0661", "\u00b2"]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
@example("a[1,2] +")
@example("a[1\n,2)")
@example("\u00a0\n\t a[6,1]")
@example("q^\u00b2")
@example("a[\u0661,1")
@example("x0\r\n ) ")
@example("a[1,2]\u2028\u2003 %")
@example("(" * (MAX_DEPTH + 1) + "q")
@example("-" * MAX_DEPTH + "q")
@example("-" * (MAX_DEPTH + 1) + "q")
@example("(-" * 50 + "q" + ")" * 50)
@example("(-" * 50 + "(q" + ")" * 51)
@example("a[1,1]*-q a[1,2]")
@example("2 3 (i)")
@example("q^-")
@example("Dc[12;3")
@example(")")
@example("*".join(["-q"] * (MAX_DEPTH + 1)))
@example("(q)" * (MAX_DEPTH + 1))
@example("t[3,5]")
@example("tau[5,3]")
@example("Dc[12;36]")
def test_positions_match_the_per_character_tokenizer(text):
    assert _tokenize(text) == [tok for tok, _line, _col
                               in _reference_tokenize(text)]
    assert _outcome(parse, text) == _outcome(_reference_parse, text)


_BLANKS = st.lists(st.sampled_from([" ", "\t", "\n"]), max_size=2).map(
    "".join)


@settings(max_examples=150)
@given(_exprs(3), st.data())
def test_valid_input_matches_the_reference(node, data):
    # most _PIECES texts are syntax errors; these parse, with whitespace
    # of every kind between tokens
    tokens = _TOKEN.findall(to_text(node))
    text = "".join(data.draw(_BLANKS) + tok for tok in tokens) \
        + data.draw(_BLANKS)
    assert parse(text) == _reference_parse(text) == node


def test_nodes_compare_by_class_and_fields():
    def t():
        return (Atom("a", (1, 2)), Neg(QPow(-1)))
    assert IntLit(1) != QPow(1)
    assert Prod(t()) != Sum(t())
    assert Atom("a", (1, 2)) != Atom("D", (1, 2))
    assert IntLit(1) != 1
    for a, b in [(IntLit(7), IntLit(7)), (ImagUnit(), ImagUnit()),
                 (Prod(t()), Prod(t())), (Sum(t()), Sum(t()))]:
        assert a is not b and a == b and not a != b
    with pytest.raises(TypeError):
        hash(IntLit(1))
