"""Expression grammar: round trips and position-annotated errors."""

import pytest
from hypothesis import given, settings, strategies as st

from qmink.parser import (MAX_DEPTH, Atom, ExprSyntaxError, ImagUnit, IntLit,
                          Neg, Prod, QPow, Sum, UnknownAtomError, parse,
                          to_text)

CORPUS = [
    "a[1,2]*a[1,1]",
    "t[3,2]*t[4,1] - t[4,1]*t[3,2] - (q^-1 - q)*t[4,2]*t[3,1]",
    "tau[5,1]*tau[5,1]",
    "D[1,2]*D12inv",
    "Dc[34;45]",
    "q^-1 - q",
    "2*q^3*a[5,5] + i*a[1,5]",
    "-a[1,1]",
    "x0*x1 - x2*x3",
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
    with pytest.raises(UnknownAtomError):
        parse("a[6,1]")
    with pytest.raises(UnknownAtomError):
        parse("D[2,1]")
    with pytest.raises(UnknownAtomError):
        parse("t[5,1]")
    with pytest.raises(UnknownAtomError):
        parse("zeta")
    with pytest.raises(UnknownAtomError):
        parse("Dc[43;12]")


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("a[1,2] +")
    assert err.value.line == 1 and err.value.col == 9
    with pytest.raises(ExprSyntaxError) as err:
        parse("a[1\n,2)")
    assert err.value.line == 2
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("q^x")
    with pytest.raises(ExprSyntaxError):
        parse("a[1,2] a[1,1])")


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
        assert err.value.line == 1 and err.value.col == n + 1


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
                     Atom("tau", (5, 2)), Atom("D12inv", ()),
                     Atom("x", (0,)), Atom("x", (3,))]),
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
