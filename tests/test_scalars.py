from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qmink.scalars import (I, ONE, Q, QINV, GaussRational, Scalar,
                           ScalarError, ScalarFraction)


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
@example(Scalar.rational(2, 3), Scalar.gauss(0, -3, 4))
@example(Scalar.term(-2, -6, 4, 10), Scalar.term(1, 5, 0, 9))
@example(Scalar.gauss(1, 1, 2), Scalar.gauss(1, -1))
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
@example(Scalar.rational(1, 2), Scalar.rational(-1, 2))  # cancels to zero
@example(Scalar.rational(1, 2), Scalar.rational(1, 2))   # content 2
@example(Scalar.rational(1, 6), Scalar.rational(1, 3))   # 1/2
@example(Scalar.gauss(1, 3, 4), Scalar.gauss(1, -1, 4))  # (1+i)/2
@example(Scalar.term(1, 2, 0, 3), Scalar.term(-1, 2, 0, 3))  # two exponents
@example(Scalar.zero(), Scalar.gauss(2, 1, 5))
@example(Scalar.gauss(2, 1, 5), Scalar.zero())
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
    assert (two - two).is_zero()
    assert (Q * QINV) == ONE
    assert (I * I) == Scalar.from_int(-1)


def test_add_mixed_denominators():
    # regression: the common denominator of a/2 + b/3 is 6
    assert (Scalar.rational(1, 2) + Scalar.rational(1, 3)) == Scalar.rational(5, 6)
    assert (Scalar.rational(1, 2) + Scalar.rational(1, 4)) == Scalar.rational(3, 4)
    assert (Scalar.rational(1, 2) - Scalar.rational(1, 2)).is_zero()
    assert (Scalar.rational(3, 4) * Scalar.rational(2, 3)) == Scalar.rational(1, 2)


def test_canonical_form_unique():
    a = Scalar({0: (2, 0)}, 4)
    b = Scalar({0: (1, 0)}, 2)
    assert a == b and hash(a) == hash(b)
    assert Scalar({1: (0, 0)}, 7) == Scalar.zero()
    assert Scalar({0: (-1, 0)}, -2) == Scalar.rational(1, 2)


@settings(max_examples=60)
@given(scalars, scalars)
def test_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@settings(max_examples=60)
@given(scalars)
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


def test_gcd():
    a = (ONE + Q) * (ONE + Q) * Q
    b = (ONE + Q) * (ONE - Q)
    g = a.gcd_with(b)
    a.exact_div(g)
    b.exact_div(g)
    assert g.gcd_with(ONE + Q) == g  # gcd is 1 + q up to normalization


def test_subs_q_one():
    assert (QINV - Q).subs_q_one().is_zero()
    assert (Q * Scalar.from_int(3)).subs_q_one() == Scalar.from_int(3)


def test_fractions():
    f = ScalarFraction(Q - QINV, Q)
    g = ScalarFraction(ONE - Scalar.q_pow(-2))
    assert f == g
    assert (f - g).num.is_zero()
    h = ScalarFraction(ONE, ONE + Q)
    assert (h * (ONE + Q)).as_scalar() == ONE
    assert not h.is_polynomial()
    assert ScalarFraction(Q * Q, Q).is_polynomial()


def test_fraction_with_scalar_operand():
    f = ScalarFraction(ONE, ONE + Q)
    assert f + Q == ScalarFraction(ONE + Q + Q * Q, ONE + Q)
    assert f - Q == ScalarFraction(ONE - Q - Q * Q, ONE + Q)
    assert (f + Q) - Q == f


def test_text_forms():
    assert Scalar.zero().to_text() == "0"
    assert (-Q).to_text() == "-q"
    assert QINV.to_text() == "q^-1"
    assert (QINV - Q).to_text() == "-q + q^-1"
    assert I.to_text() == "i"
    assert Scalar.gauss(1, 1).to_text() == "(1+1*i)"


# exponent-0 Scalars from raw parts: negative and non-reduced
# denominators, common factors and zeros, which the constructor
# normalizes first
raw_parts = st.integers(-12, 12) | st.integers(-10**15, 10**15)
raw_dens = st.integers(-36, 36).filter(bool) | st.integers(1, 10**12)
q_free = st.builds(lambda re, im, den: Scalar({0: (re, im)}, den),
                   raw_parts, raw_parts, raw_dens)


@settings(max_examples=300)
@given(q_free, q_free)
@example(Scalar.rational(1, 2), Scalar.rational(1, 2))
@example(Scalar({0: (4, 6)}, -8), Scalar({0: (-2, -3)}, 4))
@example(Scalar.gauss(3, 0, 10), Scalar.gauss(0, 7, 15))
@example(Scalar.zero(), Scalar.gauss(0, -1))
def test_gauss_rational_matches_scalar(x, y):
    # from_scalar is a ring map from the exponent-0 Scalars that commutes
    # with every operation the q = 1 layer uses
    f = GaussRational.from_scalar
    a, b = f(x), f(y)
    assert a.den >= 1 and gcd(a.re, a.im, a.den) == 1
    assert a.to_scalar() == x and b.to_scalar() == y
    assert f(x + y) == a + b
    assert f(x - y) == a - b
    assert f(x * y) == a * b
    assert f(-x) == -a
    assert f(x.conjugate()) == a.conjugate()
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


@pytest.mark.parametrize("s", [Q, QINV, Q + ONE, Scalar.term(2, 1, 1, 3)],
                         ids=["q", "qinv", "q+1", "q2"])
def test_gauss_rational_rejects_q(s):
    with pytest.raises(ScalarError):
        GaussRational.from_scalar(s)
    # at q = 1 the same scalars cross
    assert GaussRational.from_scalar(s.subs_q_one()).to_scalar() == \
        s.subs_q_one()
