from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qmink.scalars import (I, ONE, Q, QINV, GaussRational, Scalar, ScalarError,
                           _reduced)


def rand_scalar(draw_ints):
    coeffs = {}
    for exp, re, im in draw_ints:
        coeffs[exp] = (re, im)
    return Scalar(coeffs, 1)


scalars = st.builds(
    lambda triples, den: Scalar({e: (re, im) for e, re, im in triples},
                                den),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-9, 9),
                       st.integers(-9, 9)), max_size=4),
    st.integers(1, 12),
)


parts = st.integers(-12, 12) | st.integers(-10**20, 10**20)
monomials = st.builds(
    lambda e, re, im, den: Scalar({e: (re, im)}, den),
    st.integers(-4, 4), parts, parts,
    st.integers(1, 60) | st.integers(1, 10**12)).filter(bool)


@settings(max_examples=300)
@given(monomials, monomials)
@example(Scalar.term(0, 2, 0, 3), Scalar.term(0, 0, -3, 4))
@example(Scalar.term(-2, -6, 4, 10), Scalar.term(1, 5, 0, 9))
@example(Scalar.term(0, 1, 1, 2), Scalar.term(0, 1, -1))
def test_monomial_product_matches_general_path(x, y):
    # the one-term fast path in __mul__ builds the canonical Scalar the
    # general constructor would build
    (e1, (a, b)), = x._c.items()
    (e2, (c, d)), = y._c.items()
    expected = Scalar({e1 + e2: (a * c - b * d, a * d + b * c)},
                      x._den * y._den)
    got = x * y
    assert got._c == expected._c and got._den == expected._den
    assert hash(got) == hash(expected)


@settings(max_examples=200)
@given(scalars | monomials)
@example(Scalar.zero())
@example(ONE)
@example(-ONE)
@example(Scalar.term(-2, 3, -1, 7))
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
    """x + sign*y through the general constructor, over the product of the
    denominators."""
    out = {e: (re * y._den, im * y._den) for e, (re, im) in x._c.items()}
    for e, (re, im) in y._c.items():
        pre, pim = out.get(e, (0, 0))
        out[e] = (pre + sign * re * x._den, pim + sign * im * x._den)
    return Scalar(out, x._den * y._den)


# exponents and denominators from small ranges, so that equal exponents,
# equal denominators and cancelling sums are common
near_monomials = st.builds(
    lambda e, re, im, den: Scalar({e: (re, im)}, den),
    st.integers(-1, 1), st.integers(-6, 6) | parts, st.integers(-6, 6),
    st.sampled_from([1, 2, 3, 4, 6, 12]) | st.integers(1, 10**12))


@settings(max_examples=300)
@given(near_monomials, near_monomials)
@example(Scalar.term(0, 1, 0, 2), Scalar.term(0, -1, 0, 2))  # cancels to zero
@example(Scalar.term(0, 1, 0, 2), Scalar.term(0, 1, 0, 2))   # content 2
@example(Scalar.term(0, 1, 0, 6), Scalar.term(0, 1, 0, 3))   # 1/2
@example(Scalar.term(0, 1, 3, 4), Scalar.term(0, 1, -1, 4))  # (1+i)/2
@example(Scalar.term(1, 2, 0, 3), Scalar.term(-1, 2, 0, 3))  # two exponents
@example(Scalar.zero(), Scalar.term(0, 2, 1, 5))
@example(Scalar.term(0, 2, 1, 5), Scalar.zero())
@example(Scalar.zero(), Scalar.zero())
def test_one_term_sum_matches_general_path(x, y):
    # the one-term and zero-operand paths of __add__ and __sub__ build the
    # canonical Scalar the general constructor would build
    for got, sign in ((x + y, 1), (x - y, -1)):
        expected = general_sum(x, y, sign)
        assert got._c == expected._c and got._den == expected._den
        assert hash(got) == hash(expected)


def test_basic_arithmetic():
    two = Scalar.from_int(2)
    assert (two + two).to_text() == "4"
    assert (two * two).to_text() == "4"
    assert not (two - two)
    assert (Q * QINV) == ONE
    assert (I * I) == Scalar.from_int(-1)


def test_add_mixed_denominators():
    # regression: the common denominator of a/2 + b/3 is 6
    assert (Scalar.term(0, 1, 0, 2) + Scalar.term(0, 1, 0, 3)) == Scalar.term(0, 5, 0, 6)
    assert (Scalar.term(0, 1, 0, 2) + Scalar.term(0, 1, 0, 4)) == Scalar.term(0, 3, 0, 4)
    assert not (Scalar.term(0, 1, 0, 2) - Scalar.term(0, 1, 0, 2))
    assert (Scalar.term(0, 3, 0, 4) * Scalar.term(0, 2, 0, 3)) == Scalar.term(0, 1, 0, 2)


def test_canonical_form_unique():
    a = Scalar({0: (2, 0)}, 4)
    b = Scalar({0: (1, 0)}, 2)
    assert a == b and hash(a) == hash(b)
    assert Scalar({1: (0, 0)}, 7) == Scalar.zero()
    assert Scalar({0: (-1, 0)}, -2) == Scalar.term(0, 1, 0, 2)


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
    u = Scalar.term(3, 2, 1, 5)  # (2+i)/5 q^3
    inv = u.inverse_of_unit()
    assert u * inv == ONE
    with pytest.raises(ScalarError):
        (ONE + Q).inverse_of_unit()
    with pytest.raises(ScalarError):
        Scalar.zero().inverse_of_unit()


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
    # Gaussian-rational coefficients and a monomial-unit divisor
    u = Scalar.term(3, 2, 1, 5)
    assert (p * u).exact_div(u) == p
    assert p.exact_div(u) == p * u.inverse_of_unit()
    assert (p * (ONE + I * Q)).exact_div(ONE + I * Q) == p


def _field_poly(s):
    """Shift to q-exponent >= 0: (shift, {exp: (Fraction re, Fraction im)})."""
    shift = min(s._c)
    return shift, {e - shift: (Fraction(re, s._den), Fraction(im, s._den))
                   for e, (re, im) in s._c.items()}


def reference_exact_div(x, y):
    """Long division in Q(i)[q] on Fraction coefficients, then shifted back."""
    if not y:
        raise ZeroDivisionError
    if not x:
        return Scalar.zero()
    s1, a = _field_poly(x)
    s2, b = _field_poly(y)
    db = max(b)
    br, bi = b[db]
    bn = br * br + bi * bi
    quo = Scalar.zero()
    while a and max(a) >= db:
        da = max(a)
        ar, ai = a[da]
        cr = (ar * br + ai * bi) / bn
        ci = (ai * br - ar * bi) / bn
        quo = quo + Scalar.term(da - db + s1 - s2,
                                cr.numerator * ci.denominator,
                                ci.numerator * cr.denominator,
                                cr.denominator * ci.denominator)
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


def _divide(div, x, y):
    try:
        return div(x, y)
    except ScalarError:
        return "not exact"


@settings(max_examples=300, deadline=None)
@given(scalars, monomials | scalars.filter(bool), scalars)
@example(Scalar.zero(), ONE + Q, ONE)
@example(ONE + Q, Scalar.term(-2, 3, -1, 7), Q)
@example((ONE + Q) * (QINV - Q), ONE - Q, ONE + Q)
@example(Scalar.term(0, 2, 1, 3) * Q, ONE + I * Q + Scalar.q_pow(3), QINV)
def test_exact_div_matches_reference(a, b, r):
    # a*b is exact; a*b + r, and r alone, are exact only by chance
    for x in (a * b, a * b + r, r):
        got = _divide(Scalar.exact_div, x, b)
        assert got == _divide(reference_exact_div, x, b)
        if got != "not exact":
            assert got * b == x
    if b.monomial_unit():
        assert a.exact_div(b) == a * b.inverse_of_unit()


def test_subs_q_one():
    assert not (QINV - Q).subs_q_one()
    assert (Q * Scalar.from_int(3)).subs_q_one() == Scalar.from_int(3)


def test_text_forms():
    assert Scalar.zero().to_text() == "0"
    assert (-Q).to_text() == "-q"
    assert QINV.to_text() == "q^-1"
    assert (QINV - Q).to_text() == "-q + q^-1"
    assert I.to_text() == "i"
    assert Scalar.term(0, 1, 1).to_text() == "(1+1*i)"


# exponent-0 Scalars from raw parts: negative and non-reduced
# denominators, common factors and zeros, which the constructor
# normalizes first
raw_parts = st.integers(-12, 12) | st.integers(-10**15, 10**15)
raw_dens = st.integers(-36, 36).filter(bool) | st.integers(1, 10**12)
q_free = st.builds(lambda re, im, den: Scalar({0: (re, im)}, den),
                   raw_parts, raw_parts, raw_dens)


def back(g):
    """The exponent-0 Scalar with the value of the GaussRational g."""
    return Scalar({0: (g.re, g.im)}, g.den)


@settings(max_examples=300)
@given(q_free, q_free)
@example(Scalar.term(0, 1, 0, 2), Scalar.term(0, 1, 0, 2))
@example(Scalar({0: (4, 6)}, -8), Scalar({0: (-2, -3)}, 4))
@example(Scalar.term(0, 3, 0, 10), Scalar.term(0, 0, 7, 15))
@example(Scalar.zero(), Scalar.term(0, 0, -1))
def test_gauss_rational_matches_scalar(x, y):
    # from_scalar is a ring map from the exponent-0 Scalars that commutes
    # with every operation the q = 1 layer uses
    f = GaussRational.from_scalar
    a, b = f(x), f(y)
    assert a.den >= 1 and gcd(a.re, a.im, a.den) == 1
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
    assert a.monomial_unit() == x.monomial_unit()
    assert GaussRational(*x._c.get(0, (0, 0)), x._den) == a
    if x:
        assert f(x.inverse_of_unit()) == a.inverse_of_unit()
        assert (a * a.inverse_of_unit()).to_text() == "1"
    else:
        assert a.re == a.im == 0 and a.den == 1
        with pytest.raises(ScalarError):
            a.inverse_of_unit()


@given(raw_parts, raw_parts, raw_dens)
def test_gauss_rational_constructor_is_canonical(re, im, den):
    assert GaussRational(re, im, den) == \
        GaussRational.from_scalar(Scalar({0: (re, im)}, den))


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


@pytest.mark.parametrize("s", [Q, QINV, Q + ONE, Scalar.term(2, 1, 1, 3)],
                         ids=["q", "qinv", "q+1", "q2"])
def test_gauss_rational_rejects_q(s):
    with pytest.raises(ScalarError):
        GaussRational.from_scalar(s)
    # at q = 1 the same scalars cross
    assert back(GaussRational.from_scalar(s.subs_q_one())) == s.subs_q_one()
