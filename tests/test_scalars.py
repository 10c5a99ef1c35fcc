from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qmink.scalars import (I, ONE, Q, QINV, GaussRational, Scalar, ScalarError,
                           _reduced)


# Gaussian-integer Laurent polynomials: up to four terms, so that equal
# exponents, cancelling sums and zero pairs are common
scalars = st.builds(
    lambda triples: Scalar({e: (re, im) for e, re, im in triples}),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-9, 9),
                       st.integers(-9, 9)), max_size=4),
)


parts = st.integers(-12, 12) | st.integers(-10**20, 10**20)
monomials = st.builds(
    lambda e, re, im: Scalar({e: (re, im)}),
    st.integers(-4, 4), parts, parts).filter(bool)


@settings(max_examples=300)
@given(monomials, monomials | scalars)
@example(Scalar.term(0, 2), Scalar.term(0, 0, -3))
@example(Scalar.term(-2, -6, 4), Scalar.term(1, 5))
@example(Scalar.term(0, 1, 1), Scalar.term(0, 1, -1))  # (1+i)(1-i) = 2
@example(Scalar.term(0, 1, 1), ONE + Q + I * QINV)
def test_monomial_product_matches_general_path(x, y):
    # the one-term paths in __mul__, in either order, build the canonical
    # Scalar the general constructor would build
    (e1, (a, b)), = x._c.items()
    expected = Scalar({e1 + e2: (a * c - b * d, a * d + b * c)
                       for e2, (c, d) in y._c.items()})
    for got in (x * y, y * x):
        assert got._c == expected._c
        assert all(re or im for re, im in got._c.values())
        assert hash(got) == hash(expected)


@settings(max_examples=200)
@given(scalars | monomials)
@example(Scalar.zero())
@example(ONE)
@example(-ONE)
@example(Scalar.term(-2, 3, -1))
def test_unit_product_matches_general_path(x):
    # a product with the singleton ONE hands back the other operand; a
    # fresh one, which is not the singleton, takes the general path
    fresh = Scalar({0: (1, 0)})
    assert fresh is not ONE and fresh == ONE
    expected = x * fresh
    assert x * ONE is x and ONE * x is x
    assert x * ONE == expected == fresh * x
    assert hash(x * ONE) == hash(expected)


def test_unit_constructors_return_the_singleton():
    assert Scalar.q_pow(0) is ONE
    assert Scalar.from_int(1) is ONE
    assert Scalar.q_pow(1) == Q and Scalar.from_int(-1) == -ONE


def general_sum(x, y, sign):
    """x + sign*y through the general constructor."""
    out = dict(x._c)
    for e, (re, im) in y._c.items():
        pre, pim = out.get(e, (0, 0))
        out[e] = (pre + sign * re, pim + sign * im)
    return Scalar(out)


# exponents from a small range, so that equal exponents and cancelling
# sums are common
near_monomials = st.builds(
    lambda e, re, im: Scalar({e: (re, im)}),
    st.integers(-1, 1), st.integers(-6, 6) | parts, st.integers(-6, 6))


@settings(max_examples=300)
@given(near_monomials | scalars, near_monomials | scalars)
@example(Scalar.term(0, 1), Scalar.term(0, -1))          # cancels to zero
@example(Scalar.term(0, 1, 1), Scalar.term(0, -1, 1))    # real parts cancel
@example(Scalar.term(0, 3, -2), Scalar.term(0, 1, 2))    # imaginary parts
@example(ONE + Q, -Q)                                    # one term cancels
@example(Scalar.term(1, 2), Scalar.term(-1, 2))          # two exponents
@example(Scalar.zero(), Scalar.term(0, 2, 1))
@example(Scalar.term(0, 2, 1), Scalar.zero())
@example(Scalar.zero(), Scalar.zero())
def test_one_term_sum_matches_general_path(x, y):
    # the merge and zero-operand paths of __add__ and __sub__ build the
    # canonical Scalar the general constructor would build
    for got, sign in ((x + y, 1), (x - y, -1)):
        expected = general_sum(x, y, sign)
        assert got._c == expected._c
        assert all(re or im for re, im in got._c.values())
        assert hash(got) == hash(expected)


def test_basic_arithmetic():
    two = Scalar.from_int(2)
    assert (two + two).to_text() == "4"
    assert (two * two).to_text() == "4"
    assert not (two - two)
    assert (Q * QINV) == ONE
    assert (I * I) == Scalar.from_int(-1)


def test_add_mixed_denominators():
    # a Scalar has no denominator: the constructors take none, and a
    # quotient that would need one is refused
    for build in (lambda: Scalar.term(0, 1, 0, 2),
                  lambda: Scalar({0: (1, 0)}, 3),
                  lambda: Scalar({0: (-1, 0)}, -2)):
        with pytest.raises(TypeError):
            build()
    two, three = Scalar.from_int(2), Scalar.from_int(3)
    for num, den in ((ONE, two), (ONE, three), (three, two)):
        with pytest.raises(ScalarError, match="over Z\\[i\\]"):
            num.exact_div(den)
    # the regression, a/2 + b/3 over the common denominator 6, lives on
    # in Q(i), the q = 1 ring
    half, third = GaussRational(1, 0, 2), GaussRational(1, 0, 3)
    assert half + third == GaussRational(5, 0, 6)
    assert half + GaussRational(1, 0, 4) == GaussRational(3, 0, 4)
    assert not (half - half)
    assert GaussRational(3, 0, 4) * GaussRational(2, 0, 3) == half


def test_canonical_form_unique():
    # equal values built along different paths have equal maps and hashes
    a = (ONE + Q) * (ONE - Q) + Q * Q
    assert a == ONE and a._c == {0: (1, 0)} and hash(a) == hash(ONE)
    b = Scalar({0: (-2, 0), 1: (0, 0)})
    assert b == -Scalar.from_int(2) == Scalar.term(0, -2)
    assert b._c == {0: (-2, 0)} and hash(b) == hash(Scalar.term(0, -2))
    assert Scalar({1: (0, 0)}) == Scalar.zero()
    assert not Scalar({1: (0, 0)})._c
    assert (I * Q - Q * I) == Scalar.zero() and not (I * Q - Q * I)._c


gauss = st.builds(GaussRational, st.integers(-9, 9), st.integers(-9, 9),
                  st.integers(1, 12))


@settings(max_examples=60)
@given(gauss, gauss)
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@settings(max_examples=60)
@given(gauss)
def test_conjugation_involutive(x):
    assert x.conjugate().conjugate() == x


@settings(max_examples=40)
@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert (x - y) + (y - x) == Scalar.zero()


def test_monomial_unit_inverse():
    # the units of Z[i][q, q^-1] are +-1 and +-i times q^k: ONE divided by
    # one of them is its inverse, and ONE divided by any other nonzero
    # Scalar leaves the ring
    for u in (Q, -QINV, Scalar.term(3, 0, 1), Scalar.term(-2, 0, -1), -ONE):
        assert u * ONE.exact_div(u) == ONE
    for x in (Scalar.from_int(2), ONE + I, Scalar.term(3, 2, 1)):
        with pytest.raises(ScalarError, match="over Z\\[i\\]"):
            ONE.exact_div(x)
    with pytest.raises(ScalarError, match="^not a Laurent polynomial$"):
        ONE.exact_div(ONE + Q)
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(Scalar.zero())


def test_exact_division():
    p = (ONE + Q) * (QINV - Q)
    assert p.exact_div(ONE + Q) == QINV - Q
    with pytest.raises(ScalarError):
        (ONE + Q).exact_div(ONE - Q)
    assert Scalar.zero().exact_div(Q) == Scalar.zero()
    with pytest.raises(ZeroDivisionError):
        Q.exact_div(Scalar.zero())
    assert (Q * Q).exact_div(Q) == Q
    assert (Q - QINV).exact_div(Q) == ONE - Scalar.q_pow(-2)
    with pytest.raises(ScalarError):
        ONE.exact_div(ONE + Q)  # 1/(1 + q) is not a Laurent polynomial
    with pytest.raises(ScalarError):
        (ONE + Q + Q * Q).exact_div(ONE + Q)
    a = (ONE + Q) * (ONE + Q) * Q
    b = (ONE + Q) * (ONE - Q)
    assert a.exact_div(ONE + Q) == (ONE + Q) * Q
    assert b.exact_div(ONE - Q) == ONE + Q
    with pytest.raises(ScalarError):
        a.exact_div(b)
    # Gaussian-integer coefficients and a monomial-unit divisor
    u = Scalar.term(3, 0, 1)  # i*q^3
    assert (p * u).exact_div(u) == p
    assert p.exact_div(u) == p * Scalar.term(-3, 0, -1)
    assert (p * (ONE + I * Q)).exact_div(ONE + I * Q) == p
    # a lead coefficient that is not a unit: the quotient's coefficients
    # must still be Gaussian integers
    two, one_i = Scalar.from_int(2), ONE + I
    assert Scalar.term(0, 2, 2).exact_div(one_i) == two
    assert (p * (two + Q * one_i)).exact_div(two + Q * one_i) == p
    for num, den in ((Scalar.from_int(3), two), (ONE, one_i),
                     (one_i, two), (p, two + Q * one_i)):
        with pytest.raises(ScalarError, match="over Z\\[i\\]"):
            num.exact_div(den)


def _field_poly(s):
    """Shift to q-exponent >= 0: (shift, {exp: (Fraction re, Fraction im)})."""
    shift = min(s._c)
    return shift, {e - shift: (Fraction(re), Fraction(im))
                   for e, (re, im) in s._c.items()}


def reference_exact_div(x, y):
    """Long division in Q(i)[q] on Fraction coefficients, shifted back:
    {exp: (Fraction re, Fraction im)}, or ScalarError on a remainder."""
    if not y:
        raise ZeroDivisionError
    if not x:
        return {}
    s1, a = _field_poly(x)
    s2, b = _field_poly(y)
    db = max(b)
    br, bi = b[db]
    bn = br * br + bi * bi
    quo = {}
    while a and max(a) >= db:
        da = max(a)
        ar, ai = a[da]
        cr = (ar * br + ai * bi) / bn
        ci = (ai * br - ar * bi) / bn
        quo[da - db + s1 - s2] = (cr, ci)
        for e, (re, im) in b.items():
            t = e + da - db
            pre, pim = a.get(t, (Fraction(0), Fraction(0)))
            nre = pre - (cr * re - ci * im)
            nim = pim - (cr * im + ci * re)
            if nre or nim:
                a[t] = (nre, nim)
            else:
                a.pop(t, None)
    if a:
        raise ScalarError("non-exact scalar division")
    return quo


def gauss_integral(quo):
    """The Scalar with the Fraction coefficients quo, or "not exact" when
    one of them is not a Gaussian integer."""
    if any(c.denominator != 1 for pair in quo.values() for c in pair):
        return "not exact"
    return Scalar({e: (int(re), int(im)) for e, (re, im) in quo.items()})


def fractions(s):
    return {e: (Fraction(re), Fraction(im)) for e, (re, im) in s._c.items()}


def reference_ring_ops(x, y):
    """x + y, x - y, x * y and -x on Fraction pairs, zeros dropped."""
    def merged(pairs):
        out = {}
        for e, (re, im) in pairs:
            pre, pim = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = (pre + re, pim + im)
        return {e: c for e, c in out.items() if c[0] or c[1]}
    fx, fy = fractions(x), fractions(y)
    neg = lambda f: [(e, (-re, -im)) for e, (re, im) in f.items()]
    return (merged(list(fx.items()) + list(fy.items())),
            merged(list(fx.items()) + neg(fy)),
            merged((e1 + e2, (a * c - b * d, a * d + b * c))
                   for e1, (a, b) in fx.items()
                   for e2, (c, d) in fy.items()),
            merged(neg(fx)))


@settings(max_examples=300)
@given(scalars | monomials, scalars | monomials)
@example(ONE + Q, ONE - Q)
@example(ONE + I * Q, ONE - I * Q)   # the cross terms cancel
@example(Scalar.term(0, 2, 1), Scalar.term(0, 2, -1))
@example(Scalar.zero(), ONE + Q)
def test_arithmetic_matches_reference(x, y):
    got = (x + y, x - y, x * y, -x)
    assert [fractions(g) for g in got] == list(reference_ring_ops(x, y))


def _divide(div, x, y):
    try:
        return div(x, y)
    except ScalarError:
        return "not exact"


@settings(max_examples=300, deadline=None)
@given(scalars, monomials | scalars.filter(bool), scalars)
@example(Scalar.zero(), ONE + Q, ONE)
@example(ONE + Q, Scalar.term(-2, 3, -1), Q)
@example((ONE + Q) * (QINV - Q), ONE - Q, ONE + Q)
@example(Scalar.term(0, 2, 1) * Q, ONE + I * Q + Scalar.q_pow(3), QINV)
@example(ONE, Scalar.from_int(2), ONE + I)  # r / 2 leaves Z[i]
@example(Q, ONE + I, ONE)                   # 1/(1 + i) leaves Z[i]
@example(ONE + Q, Scalar.term(1, 2, 2), ONE + I)
def test_exact_div_matches_reference(a, b, r):
    # a*b is exact; a*b + r, and r alone, are exact only by chance, and
    # an exact quotient over Q(i) counts only with Gaussian-integer
    # coefficients
    for x in (a * b, a * b + r, r):
        got = _divide(Scalar.exact_div, x, b)
        ref = _divide(reference_exact_div, x, b)
        assert got == (ref if ref == "not exact" else gauss_integral(ref))
        if got != "not exact":
            assert got * b == x
    assert (a * b).exact_div(b) == a


def test_subs_q_one():
    assert not (QINV - Q).at_q_one()
    assert (Q * Scalar.from_int(3)).at_q_one() == GaussRational(3)
    assert Scalar.zero().at_q_one() == GaussRational(0)


def test_text_forms():
    assert Scalar.zero().to_text() == "0"
    assert (-Q).to_text() == "-q"
    assert QINV.to_text() == "q^-1"
    assert (QINV - Q).to_text() == "-q + q^-1"
    assert I.to_text() == "i"
    assert Scalar.term(0, 1, 1).to_text() == "(1+1*i)"


# exponent-0 Scalars from raw parts, with common factors and zeros, which
# the constructor normalizes first
raw_parts = st.integers(-12, 12) | st.integers(-10**15, 10**15)
raw_dens = st.integers(-36, 36).filter(bool) | st.integers(1, 10**12)
q_free = st.builds(lambda re, im: Scalar({0: (re, im)}), raw_parts, raw_parts)
UNITS = {(1, 0), (-1, 0), (0, 1), (0, -1)}


def back(g):
    """The exponent-0 Scalar with the value of the GaussRational g, which
    must be a Gaussian integer."""
    assert g.den == 1
    return Scalar({0: (g.re, g.im)})


@settings(max_examples=300)
@given(q_free, q_free)
@example(Scalar.term(0, 1), Scalar.term(0, 1))
@example(Scalar({0: (4, 6)}), Scalar({0: (-2, -3)}))
@example(Scalar.term(0, 3), Scalar.term(0, 0, 7))
@example(Scalar.term(0, 0, -1), Scalar.term(0, 2, 2))
@example(Scalar.zero(), Scalar.term(0, 0, -1))
def test_gauss_rational_matches_scalar(x, y):
    # at_q_one is a ring map from the exponent-0 Scalars that commutes
    # with every operation the q = 1 layer uses
    f = Scalar.at_q_one
    a, b = f(x), f(y)
    assert a.den == 1 and gcd(a.re, a.im, a.den) == 1
    assert back(a) == x and back(b) == y
    assert f(x + y) == a + b
    assert f(x - y) == a - b
    assert f(x * y) == a * b
    assert f(-x) == -a
    assert bool(a) == bool(x)
    assert (a == b) == (x == y)
    if a == b:
        assert hash(a) == hash(b)
    assert a.to_text() == x.to_text()
    assert a.to_factor_text() == x.to_factor_text()
    assert GaussRational(*x._c.get(0, (0, 0))) == a
    if x:
        # every nonzero GaussRational is a unit; of the Gaussian
        # integers, only +-1 and +-i are units of Z[i][q, q^-1]
        inv = a.inverse_of_unit()
        assert (a * inv).to_text() == "1"
        if (a.re, a.im) in UNITS:
            assert f(ONE.exact_div(x)) == inv
        else:
            with pytest.raises(ScalarError):
                ONE.exact_div(x)
    else:
        assert a.re == a.im == 0 and a.den == 1
        with pytest.raises(ScalarError):
            a.inverse_of_unit()


@given(raw_parts, raw_parts, raw_dens)
def test_gauss_rational_constructor_is_canonical(re, im, den):
    # the same value as (re + im*i)/den, in lowest terms with den >= 1;
    # with den == 1 it is the one at_q_one gives
    g = GaussRational(re, im, den)
    assert g.den >= 1 and gcd(g.re, g.im, g.den) == 1
    assert g.re * den == re * g.den and g.im * den == im * g.den
    assert GaussRational(re, im) == Scalar({0: (re, im)}).at_q_one()


@settings(max_examples=300)
@given(st.builds(GaussRational, raw_parts, raw_parts, raw_dens),
       st.sampled_from([1, -1]))
@example(GaussRational(0), 1)
@example(GaussRational(0), -1)
@example(GaussRational(5, 0, 6), -1)    # den > 1
@example(GaussRational(0, 3, 4), 1)     # im != 0
@example(GaussRational(2, -7), -1)
@example(GaussRational(1), 1)           # +-1 times +-1
@example(GaussRational(1), -1)
@example(GaussRational(-1), 1)
@example(GaussRational(-1), -1)
def test_gauss_unit_product_matches_general_path(x, u):
    # +-1 times x skips the product and the gcd; the general path's
    # product, reduced, is the same canonical GaussRational
    unit = GaussRational(u)
    a, b, c, d = x.re, x.im, unit.re, unit.im
    expected = _reduced(a * c - b * d, a * d + b * c, x.den * unit.den)
    for got in (x * unit, unit * x):
        assert got.den >= 1 and gcd(got.re, got.im, got.den) == 1
        assert (got.re, got.im, got.den) == \
            (expected.re, expected.im, expected.den)
    if u == 1:
        assert x * unit is x


@pytest.mark.parametrize("s, at_one", [
    (Q, GaussRational(1)), (QINV, GaussRational(1)),
    (Q + ONE, GaussRational(2)), (Scalar.term(2, 1, 1), GaussRational(1, 1)),
], ids=["q", "qinv", "q+1", "q2"])
def test_gauss_rational_rejects_q(s, at_one):
    # no Scalar mixes with a GaussRational: at_q_one, which sums the
    # coefficients over every exponent, is the one way across
    g = GaussRational(1)
    assert g != s and s != g
    with pytest.raises(TypeError):
        g + s
    with pytest.raises(TypeError):
        s * g
    assert s.at_q_one() == at_one
