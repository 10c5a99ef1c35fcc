"""Rewriting core: normal forms, confluence, PBW counts, linear algebra."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qmink.algebra import (Element, Generator, MalformedRuleError,
                           Presentation, TensorPoly, check_confluence)
from qmink.grassmann import supercommutative_presentation
from qmink.kernel import BudgetExceeded
from qmink.linalg import DegenerateBasisError, SpanSolver, express_in_basis
from qmink.scalars import ONE, Q, QINV, GaussRational, Scalar, ScalarFraction
from qmink.supergroup import build_mq2, build_slq41, minor


def naive_nf(pres, terms):
    """Independent reducer: repeated leftmost rewriting, no memo."""
    work = list(terms.items())
    out = {}
    rules = pres.rules
    while work:
        w, c = work.pop()
        if not c:
            continue
        for i in range(len(w) - 1):
            rhs = rules.get((w[i], w[i + 1]))
            if rhs is not None:
                for rw, rc in rhs.items():
                    work.append((w[:i] + rw + w[i + 2:], c * rc))
                break
        else:
            prev = out.get(w)
            v = c if prev is None else prev + c
            if v:
                out[w] = v
            elif prev is not None:
                del out[w]
    return out


def random_element(pres, rng, max_deg=4, terms=3):
    el = {}
    for _ in range(terms):
        w = tuple(rng.randrange(pres.ngens) for _ in range(rng.randint(0, max_deg)))
        c = Scalar.from_int(rng.randint(-3, 3)) * Scalar.q_pow(rng.randint(-2, 2))
        if c:
            el[w] = el.get(w, Scalar.zero()) + c
    return {w: c for w, c in el.items() if c}


def test_normal_form_paper_examples():
    pres = build_slq41()
    assert pres.word(["a[1,2]", "a[1,1]"]) == \
        pres.word(["a[1,1]", "a[1,2]"]).scale(Q)
    assert pres.word(["a[5,1]", "a[5,1]"]).is_zero()
    expected = pres.word(["a[1,1]", "a[2,2]"]) - \
        pres.word(["a[1,2]", "a[2,1]"]).scale(QINV - Q)
    assert pres.word(["a[2,2]", "a[1,1]"]) == expected


def test_normal_form_matches_naive_reducer():
    pres = build_slq41()
    rng = random.Random(20240811)
    for _ in range(40):
        terms = random_element(pres, rng)
        assert pres.normal_form(terms) == naive_nf(pres, terms)


def test_normal_form_idempotent_and_linear():
    pres = build_slq41()
    rng = random.Random(7)
    for _ in range(25):
        t1 = random_element(pres, rng)
        t2 = random_element(pres, rng)
        nf1 = pres.normal_form(t1)
        assert pres.normal_form(nf1) == nf1
        a, b = Scalar.from_int(rng.randint(-3, 3)), Scalar.q_pow(rng.randint(-1, 1))
        combo = {}
        for w, c in t1.items():
            combo[w] = combo.get(w, Scalar.zero()) + a * c
        for w, c in t2.items():
            combo[w] = combo.get(w, Scalar.zero()) + b * c
        lhs = pres.normal_form(combo)
        rhs = {}
        for w, c in pres.normal_form(t1).items():
            rhs[w] = rhs.get(w, Scalar.zero()) + a * c
        for w, c in pres.normal_form(t2).items():
            rhs[w] = rhs.get(w, Scalar.zero()) + b * c
        rhs = {w: c for w, c in rhs.items() if c}
        assert lhs == rhs


def test_multiplicativity_under_confluence():
    pres = build_slq41()
    rng = random.Random(99)
    for _ in range(15):
        p = Element(pres, pres.normal_form(random_element(pres, rng, 2)))
        r = Element(pres, pres.normal_form(random_element(pres, rng, 2)))
        raw = p.free_mul(r)
        assert pres.normal_form(raw) == (p * r).terms


@st.composite
def _parities_and_terms(draw):
    parities = draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
    n = len(parities)
    words = st.lists(st.integers(0, n - 1), max_size=5).map(tuple)
    coeffs = st.builds(GaussRational, st.integers(-3, 3), st.integers(-2, 2),
                       st.integers(1, 3))
    terms = draw(st.dictionaries(words, coeffs, max_size=4))
    return parities, terms


@settings(max_examples=150, deadline=None)
@given(_parities_and_terms())
def test_supercommutative_shortcut_matches_rewriting(case):
    parities, terms = case
    sc = supercommutative_presentation(
        [("v%d" % r, p) for r, p in enumerate(parities)])
    # the same generators and rules, reduced letter by letter
    ref = Presentation(sc.generators, odd_squares_vanish=True, unit=sc.unit)
    for lhs, rhs in sc.rules.items():
        if lhs not in ref.rules:  # odd squares come with the constructor
            ref.add_rule(lhs, rhs)
    assert sc.normal_form(terms) == ref.normal_form(terms)
    for w in terms:
        assert dict(sc.nf_word(w)) == dict(ref.nf_word(w))


def dict_path_product(x, y):
    """x*y as Element.__mul__ built it before the one-pass path: every
    concatenated word summed into a dict first, then one normal form."""
    prod = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            w = w1 + w2
            prev = prod.get(w)
            v = c1 * c2 if prev is None else prev + c1 * c2
            if v:
                prod[w] = v
            elif prev is not None:
                del prod[w]
    return Element(x.alg, x.alg.normal_form(prod))


@st.composite
def _grassmann_factors(draw):
    # raw words, unsorted and with repeated letters, so products carry
    # Koszul signs and repeated odd letters
    n_even, n_odd = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    pres = supercommutative_presentation(
        [("e%d" % r, 0) for r in range(n_even)]
        + [("o%d" % r, 1) for r in range(n_odd)])
    words = st.lists(st.integers(0, n_even + n_odd - 1), max_size=4).map(tuple)
    coeffs = st.builds(GaussRational, st.integers(-3, 3), st.integers(-2, 2),
                       st.integers(1, 4)).filter(bool)
    x, y = (Element(pres, draw(st.dictionaries(words, coeffs, max_size=4)))
            for _ in range(2))
    return x, y


@settings(max_examples=200, deadline=None)
@given(_grassmann_factors())
def test_supercommutative_one_pass_product(xy):
    x, y = xy
    assert (x * y).terms == dict_path_product(x, y).terms
    # and on normal-form factors, as the q = 1 layer multiplies them
    xn = Element(x.alg, x.alg.normal_form(x.terms))
    yn = Element(y.alg, y.alg.normal_form(y.terms))
    assert (xn * yn).terms == dict_path_product(xn, yn).terms


_QUANTUM = (build_mq2(), build_slq41())


@st.composite
def _quantum_factors(draw):
    # Scalar coefficients over Q(i)[q, q^-1]; the rewriting kernel reduces
    # the product, and raw words make equal concatenations likely
    pres = draw(st.sampled_from(_QUANTUM))
    words = st.lists(st.integers(0, min(pres.ngens, 6) - 1),
                     max_size=3).map(tuple)
    coeffs = st.builds(lambda n, k: Scalar.from_int(n) * Scalar.q_pow(k),
                       st.integers(-3, 3).filter(bool), st.integers(-2, 2))
    x, y = (Element(pres, pres.normal_form(
        draw(st.dictionaries(words, coeffs, max_size=4)))) for _ in range(2))
    return x, y


@settings(max_examples=100, deadline=None)
@given(_quantum_factors())
def test_quantum_one_pass_product(xy):
    x, y = xy
    assert (x * y).terms == dict_path_product(x, y).terms


def test_mq2_confluence():
    rep = check_confluence(build_mq2())
    assert rep.ok
    assert len(rep.overlaps) == 4  # strictly decreasing triples among 4 gens


def test_single_rule_presentation_trivially_confluent():
    gens = [Generator(n, (r,), 0, r) for r, n in enumerate("abc")]
    pres = Presentation(gens)
    pres.add_rule((1, 0), {(0, 1): ONE})  # ba -> ab only
    rep = check_confluence(pres)
    assert rep.ok and rep.overlaps == []


def test_corrupted_presentation_fails_confluence():
    # replace one q by q^2 in the quantum 2x2 relations
    gens = [Generator("a[%d,%d]" % (i, j), (i, j), 0, 2 * (i - 1) + (j - 1))
            for i in (1, 2) for j in (1, 2)]
    pres = Presentation(gens)
    qm1 = QINV - Q
    # ranks: a11=0, a12=1, a21=2, a22=3
    pres.add_rule((1, 0), {(0, 1): Scalar.q_pow(2)})  # corrupted: q -> q^2
    pres.add_rule((2, 0), {(0, 2): Q})
    pres.add_rule((3, 1), {(1, 3): Q})
    pres.add_rule((3, 2), {(2, 3): Q})
    pres.add_rule((2, 1), {(1, 2): ONE})
    pres.add_rule((3, 0), {(0, 3): ONE, (1, 2): -qm1})
    rep = check_confluence(pres)
    assert not rep.ok
    assert any(not o.resolves for o in rep.overlaps)


def sc_word_count(n_even, n_odd, d):
    """Enumeration oracle: sorted monomials, odd letters squarefree."""
    count = 0
    for k in range(min(d, n_odd) + 1):
        odd_part = sum(1 for _ in itertools.combinations(range(n_odd), k))
        even_part = sum(1 for _ in itertools.combinations_with_replacement(
            range(n_even), d - k))
        count += odd_part * even_part
    return count


def test_pbw_dimensions():
    pres = build_slq41()
    assert pres.pbw_dimension(0) == 1
    assert pres.pbw_dimension(1) == 25
    assert pres.pbw_dimension(2) == 317
    for d in (1, 2, 3):
        assert pres.pbw_dimension(d) == sc_word_count(17, 8, d)
    assert pres.pbw_dimension(4) == \
        comb(20, 4) + 8 * comb(19, 3) + 28 * comb(18, 2) + 56 * 17 + 70


def test_pbw_dimension_counts_normal_words():
    # brute enumeration of rule-avoiding words must agree with the DP
    pres = build_mq2()
    for d in range(4):
        words = [()]
        for _ in range(d):
            words = [w + (g,) for w in words for g in range(pres.ngens)
                     if not w or (w[-1], g) not in pres.rules]
        assert pres.pbw_dimension(d) == len(words)


def test_express_in_basis_trivial_and_linear():
    pres = build_slq41()
    b0 = pres.word(["a[1,1]", "a[2,2]"])
    b1 = pres.word(["a[1,2]", "a[2,1]"])
    coeffs = express_in_basis(b0, [b0, b1])
    assert coeffs is not None
    assert coeffs[0] == ONE and not coeffs[1]
    p = b0.scale(Q) - b1.scale(QINV)
    coeffs = express_in_basis(p, [b0, b1])
    assert coeffs[0] == Q and coeffs[1] == -QINV


def test_express_in_basis_minor_reordering():
    # D13 D12 is a pure q-power multiple of D12 D13 (frozen from the
    # fraction-free elimination oracle: the coefficient is q)
    d12, d13 = minor(1, 2).value, minor(1, 3).value
    target = d13 * d12
    basis0 = d12 * d13
    coeffs = express_in_basis(target, [basis0])
    assert coeffs is not None and coeffs[0] == Q
    assert (target - basis0.scale(Q)).is_zero()


def test_express_in_basis_absent():
    pres = build_slq41()
    p = pres.word(["a[1,1]", "a[1,2]"])
    basis = [pres.word(["a[1,1]", "a[2,2]"])]
    assert express_in_basis(p, basis) is None


def test_express_in_basis_degenerate():
    pres = build_slq41()
    with pytest.raises(DegenerateBasisError):
        express_in_basis(pres.one(), [pres.zero()])


def test_span_solver_dependent_vectors():
    pres = build_slq41()
    b0 = pres.word(["a[1,1]", "a[2,2]"])
    b1 = pres.word(["a[1,2]", "a[2,1]"])
    solver = SpanSolver()
    assert solver.add(b0.terms)
    assert solver.add(b1.terms)
    assert not solver.add((b0 + b1).terms)
    assert solver.rank == 2
    coeffs = solver.express((b0.scale(Q) + b1.scale(Q)).terms)
    assert coeffs is not None
    assert not coeffs[2]  # dependent vectors get coefficient zero
    assert coeffs[0] == Q and coeffs[1] == Q


_small_scalars = st.builds(
    lambda triples, den: Scalar({e: (re, im) for e, re, im in triples}, den),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 3),
                       st.integers(-3, 3)), min_size=1, max_size=2),
    st.integers(1, 3))
# words (0,), (1,), ..., (5,); the fresh word (6,) is in no basis vector
_sparse_vectors = st.dictionaries(st.integers(0, 5).map(lambda k: (k,)),
                                  _small_scalars, min_size=1, max_size=4)


def _combination(coeffs, vectors):
    out = {}
    for c, v in zip(coeffs, vectors):
        for w, x in v.items():
            out[w] = out.get(w, Scalar.zero()) + c * x
    return {w: x for w, x in out.items() if x}


@settings(max_examples=120, deadline=None)
@given(st.lists(_sparse_vectors, min_size=1, max_size=5),
       st.lists(_small_scalars, min_size=5, max_size=5),
       st.lists(_small_scalars, min_size=5, max_size=5))
def test_span_solver_coordinates_rebuild(vectors, dep_coeffs, coeffs):
    basis = [v for v in vectors if any(v.values())]
    # one more vector that depends on the others, when it is nonzero
    dep = _combination(dep_coeffs, basis)
    if dep:
        basis.append(dep)
    if not basis:
        return
    solver = SpanSolver()
    added = [solver.add(v) for v in basis]
    if dep:
        assert not added[-1] and len(basis) - 1 in solver.dependent
    assert solver.rank == added.count(True)
    target = _combination(coeffs, basis)
    got = solver.express(target)
    assert got is not None and len(got) == len(basis)
    for j in solver.dependent:
        assert not got[j]
    for w in {w for v in basis for w in v}:
        total = ScalarFraction(Scalar.zero())
        for c, v in zip(got, basis):
            if w in v:
                total = total + c * v[w]
        assert total == target.get(w, Scalar.zero())
    fresh = dict(target)
    fresh[(6,)] = ONE
    assert solver.express(fresh) is None


def test_budget_guard():
    gens = [Generator(n, (r,), 0, r) for r, n in enumerate("ab")]
    pres = Presentation(gens, budget=100)
    # not order-decreasing: b a -> b a would loop; bypass validation
    pres.add_rule((1, 0), {(1, 0): ONE}, validate=False)
    with pytest.raises(BudgetExceeded):
        pres.normal_form({(1, 0): ONE})


def test_rule_validation():
    gens = [Generator(n, (r,), r % 2, r) for r, n in enumerate("abcd")]
    pres = Presentation(gens)
    with pytest.raises(MalformedRuleError):
        pres.add_rule((0, 1), {(2, 3): ONE})  # rhs not below lhs
    with pytest.raises(MalformedRuleError):
        pres.add_rule((2, 1), {(0,): ONE})  # degree drop
    with pytest.raises(MalformedRuleError):
        pres.add_rule((3, 0), {(0, 2): ONE})  # parity change


def test_tensor_poly_associativity():
    pres = build_slq41()
    rng = random.Random(5)

    def rand_tensor():
        terms = {}
        for _ in range(2):
            w1 = tuple(rng.randrange(pres.ngens) for _ in range(rng.randint(0, 2)))
            w2 = tuple(rng.randrange(pres.ngens) for _ in range(rng.randint(0, 2)))
            terms[(w1, w2)] = Scalar.from_int(rng.randint(-2, 2))
        return TensorPoly(pres, terms)

    for _ in range(20):
        a, b, c = rand_tensor(), rand_tensor(), rand_tensor()
        assert ((a * b) * c).terms == (a * (b * c)).terms


def test_tensor_koszul_sign():
    pres = build_slq41()
    odd1 = pres.generator("a[1,5]").rank
    odd2 = pres.generator("a[2,5]").rank
    # (1 (x) odd1)(odd2 (x) 1) = -(odd2 (x) odd1) requires the Koszul sign
    t1 = TensorPoly(pres, {((), (odd1,)): ONE})
    t2 = TensorPoly(pres, {((odd2,), ()): ONE})
    prod = t1 * t2
    assert prod.terms == {((odd2,), (odd1,)): -ONE}


def test_step_budget_not_hit_on_paper_presentation():
    pres = build_slq41()
    tight = Presentation(pres.generators, odd_squares_vanish=False,
                         budget=1_000_000)
    for lhs, rhs in pres.rules.items():
        if lhs[0] == lhs[1]:
            continue
        tight.add_rule(lhs, rhs)
    for g in pres.generators:
        if g.parity and (g.rank, g.rank) not in tight.rules:
            tight.add_rule((g.rank, g.rank), {})
    assert check_confluence(tight).ok
