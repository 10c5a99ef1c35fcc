"""Exact Grassmann division against a plain lead-reduction reference, and
cancelled rational arithmetic against uncancelled fractions."""

from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from qmink.algebra import Element
from qmink.grassmann import GrassmannAlgebra, GrassmannMatrix, \
    GrassmannRational, _multiset_difference, exact_divide, rational_sum
from qmink.scalars import GaussRational, Scalar

# three even letters (ranks 0-2) and two odd ones (ranks 3, 4)
GA = GrassmannAlgebra([(n, p, n) for n, p in
                       (("x", 0), ("y", 0), ("z", 0), ("s", 1), ("t", 1))])
PRES = GA.pres
EVEN, ODD = (0, 1, 2), (3, 4)


def reference_divide(pres, num, g):
    """Division as it was written before the heap: a full max scan of the
    remainder at every step, and no early rejection."""
    gt = g.terms
    if not gt:
        raise ZeroDivisionError
    key = lambda w: (len(w), w)
    glead = max(gt, key=key)
    glc = gt[glead]
    if glc.monomial_unit() is None:
        return None
    glc_inv = glc.inverse_of_unit()
    r = dict(num.terms)
    q = {}
    while r:
        lw = max(r, key=key)
        qw = _multiset_difference(lw, glead)
        if qw is None:
            return None
        qc = r[lw] * glc_inv
        q[qw] = qc
        for w2, c2 in gt.items():
            w = tuple(sorted(qw + w2))
            c = qc * c2
            prev = r.get(w)
            v = -c if prev is None else prev - c
            if v:
                r[w] = v
            elif prev is not None:
                del r[w]
    return Element(pres, q)


monomials = st.builds(
    lambda e, re, im, den: Scalar({e: (re, im)}, den),
    st.integers(-2, 2), st.integers(-4, 4), st.integers(-4, 4),
    st.integers(1, 6)).filter(bool)
# two q-powers: never a monomial unit
binomials = st.builds(
    lambda e, re, im: Scalar({e: (re, im), e + 1: (1, 0)}),
    st.integers(-2, 2), st.integers(-4, 4), st.integers(-4, 4))
even_words = st.lists(st.sampled_from(EVEN), max_size=3).map(
    lambda w: tuple(sorted(w)))
words = st.tuples(even_words, st.sets(st.sampled_from(ODD))).map(
    lambda wo: tuple(sorted(wo[0] + tuple(wo[1]))))


def element(pairs):
    terms = {}
    for w, c in pairs:
        terms[w] = c
    return Element(PRES, terms)


odd_free = st.lists(st.tuples(even_words, monomials | binomials),
                    min_size=1, max_size=3).map(element).filter(bool)
unit_lead = odd_free.filter(
    lambda g: g.terms[max(g.terms, key=lambda w: (len(w), w))]
    .monomial_unit() is not None)
elements = st.lists(st.tuples(words, monomials | binomials),
                    max_size=4).map(element)


@settings(max_examples=150, deadline=None)
@given(elements, odd_free)
def test_exact_divide_recovers_quotient(q, g):
    num = q * g
    quo = exact_divide(PRES, num, g)
    assert quo == reference_divide(PRES, num, g)
    glead = max(g.terms, key=lambda w: (len(w), w))
    if g.terms[glead].monomial_unit() is not None:
        assert quo == q


@settings(max_examples=150, deadline=None)
@given(elements, odd_free)
def test_exact_divide_matches_reference(num, g):
    assert exact_divide(PRES, num, g) == reference_divide(PRES, num, g)


@settings(max_examples=100, deadline=None)
@given(elements.filter(bool), unit_lead, monomials)
def test_trailing_word_rejects_without_arithmetic(q, g, c):
    # g without a constant term: q*g + c keeps q*g's lead word, so only
    # the trailing word () rules the quotient out
    g = Element(PRES, {w: v for w, v in g.terms.items() if w}) or \
        Element(PRES, {(0,): Scalar.from_int(1)})
    num = q * g + Element(PRES, {(): c})
    assert reference_divide(PRES, num, g) is None
    calls = []
    mul = Scalar.__mul__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scalar, "__mul__",
                   lambda a, b: calls.append(1) or mul(a, b))
        assert exact_divide(PRES, num, g) is None
    assert calls == []


# Rational arithmetic, over the algebra's own ring Q(i).  Denominator
# factors come from a small shared pool, so operands share factors, and
# numerators are drawn as multiples of pool factors (repeats allowed), so
# that cancellation really happens.  Every nonzero coefficient is a unit,
# so exact_divide can find the quotients.
gauss = st.builds(GaussRational, st.integers(-4, 4), st.integers(-4, 4),
                  st.integers(1, 6)).filter(bool)
pool_factors = st.lists(
    st.tuples(st.lists(st.sampled_from(EVEN), max_size=2).map(
        lambda w: tuple(sorted(w))), gauss),
    min_size=1, max_size=2).map(element).filter(
        lambda f: f and set(f.terms) != {()})
small_elements = st.lists(st.tuples(words, gauss), min_size=1,
                          max_size=2).map(element)


@st.composite
def rationals(draw, pool):
    index = st.sampled_from(range(len(pool)))
    den = tuple(pool[i] for i in draw(st.lists(index, max_size=2)))
    num = reduce(mul, (pool[i] for i in draw(st.lists(index, min_size=1,
                                                      max_size=3))),
                 draw(small_elements))
    return GrassmannRational(GA, num, den)


def prod(factors):
    return reduce(mul, factors, GA.one())


def same_value(new, ref):
    """new == ref as fractions, by Element cross-multiplication only."""
    return new.num * prod(ref.den) == ref.num * prod(new.den)


def uncancelled_product(x, y):
    return GrassmannRational(GA, x.num * y.num, x.den + y.den, _reduced=True)


def uncancelled_sum(terms):
    num = GA.zero()
    for i, t in enumerate(terms):
        others = [f for j, u in enumerate(terms) if j != i for f in u.den]
        num = num + t.num * prod(others)
    return GrassmannRational(GA, num, sum((t.den for t in terms), ()),
                             _reduced=True)


@st.composite
def pool_and_rationals(draw, n):
    pool = draw(st.lists(pool_factors, min_size=1, max_size=3))
    return [draw(rationals(pool)) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(pool_and_rationals(2))
def test_rational_product_and_sum_match_uncancelled(xy):
    x, y = xy
    assert same_value(x * y, uncancelled_product(x, y))
    assert same_value(x + y, uncancelled_sum([x, y]))
    assert same_value(x - y, uncancelled_sum([x, -y]))
    # a sum whose numerator is a multiple of the whole lcm: every factor
    # cancels, because pool factors have monomial-unit leads
    z = GrassmannRational(GA, y.num * prod(x.den) - x.num, x.den)
    total = x + z
    assert total.num == y.num and total.den == ()


@settings(max_examples=40, deadline=None)
@given(pool_and_rationals(6))
def test_matrix_entry_sum_matches_uncancelled(xs):
    row, col = xs[:3], xs[3:]
    entry = (GrassmannMatrix(GA, [row]) *
             GrassmannMatrix(GA, [[b] for b in col]))[0, 0]
    ref = uncancelled_sum([uncancelled_product(a, b)
                           for a, b in zip(row, col)])
    assert same_value(entry, ref)
    assert same_value(rational_sum(GA, [a * b for a, b in zip(row, col)]),
                      ref)


def test_grassmann_api_refuses_scalar():
    # specialize_q1 is the one bridge in: a Scalar constant is refused at
    # once, and the same value as an int or a GaussRational is taken
    half = Scalar.rational(1, 2)
    with pytest.raises(TypeError):
        GA.scalar(half)
    with pytest.raises(TypeError):
        GrassmannMatrix(GA, [[half]])
    x = GrassmannRational(GA, GA.gen("x"))
    with pytest.raises(TypeError):
        x + half
    g_half = GaussRational(1, 0, 2)
    assert GA.scalar(g_half) * GA.scalar(2) == GA.one()
    assert ((x + g_half) - x
            - GrassmannRational(GA, GA.scalar(g_half))).is_zero()
