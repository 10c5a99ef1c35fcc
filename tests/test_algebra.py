"""Rewriting core: normal forms, confluence, PBW counts, linear algebra."""

import itertools
import random
from collections import Counter
from functools import lru_cache
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from qmink import kernel
from qmink.algebra import (AlgebraError, Element, Generator, Presentation,
                           TensorPoly, overlap_words, resolve_overlap)
from qmink.grassmann import MAX_DEGREE
from qmink.kernel import BudgetExceeded, accumulate
from qmink.linalg import SpanSolver
from qmink.minkowski import build_chiral_presentation, localized
from qmink.scalars import I, ONE, Q, QINV, GaussRational, Scalar
from qmink.supergroup import build_slq41, minor

import tuple_words
from reference_merges import (overlap_difference, reference_normal_form,
                              two_pass_product)
from tuple_words import decoded, grassmann_algebra


def manin_presentation_even(n):
    """Manin relations for the all-even quantum n x n matrix bialgebra."""
    indices = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    pres = Presentation(Generator("a[%d,%d]" % ij, 0) for ij in indices)
    rank = {ij: r for r, ij in enumerate(indices)}
    qm1 = QINV - Q
    for g, (i, j) in enumerate(indices):
        for h in range(g + 1, len(indices)):
            k, l = indices[h]
            if i == k or j == l:
                pres.add_rule((h, g), {(g, h): Q})
            elif j > l:
                pres.add_rule((h, g), {(g, h): ONE})
            else:
                w = (rank[(k, j)], rank[(i, l)])
                pres.add_rule((h, g), {(g, h): ONE, w: -qm1})
    return pres


@lru_cache(maxsize=None)
def build_mq2():
    """Quantum 2x2 matrix bialgebra: the all-even toy case."""
    return manin_presentation_even(2)


def unresolved_overlaps(pres):
    return [w for w in overlap_words(pres) if resolve_overlap(pres, w)]


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


def test_multiplicativity_under_confluence():
    pres = build_slq41()
    rng = random.Random(99)
    for _ in range(15):
        p = Element(pres, pres.normal_form(random_element(pres, rng, 2)))
        r = Element(pres, pres.normal_form(random_element(pres, rng, 2)))
        assert dict_path_product(p, r).terms == (p * r).terms


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
    sc = grassmann_algebra([("v%d" % r, p) for r, p in enumerate(parities)])
    # the same generators under the Koszul rules, reduced letter by letter
    ref = tuple_words.koszul_presentation(sc)
    packed = sc.normal_form(terms)
    assert decoded(Element(sc, packed)) == ref.normal_form(terms)
    assert decoded(Element(sc, packed)) == tuple_words.normal_form(
        sc.parities, terms)
    for w in terms:
        assert decoded(Element(sc, sc.normal_form({w: sc.unit}))) == \
            dict(ref.nf_word(w))


# both coefficient rings: Q(i) and Q(i)[q, q^-1]
_RING_COEFFS = (
    st.builds(GaussRational, st.integers(-3, 3), st.integers(-2, 2),
              st.integers(1, 4)).filter(bool),
    st.builds(lambda n, k: Scalar.from_int(n) * Scalar.q_pow(k),
              st.integers(-3, 3).filter(bool), st.integers(-2, 2)),
)


@st.composite
def _grassmann_factors(draw):
    # raw tuple words, unsorted and with repeated letters, so products
    # carry Koszul signs and repeated odd letters; returns the
    # Grassmann algebra and the two raw term maps
    n_even, n_odd = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    pres = grassmann_algebra([("e%d" % r, 0) for r in range(n_even)]
                             + [("o%d" % r, 1) for r in range(n_odd)])
    words = st.lists(st.integers(0, n_even + n_odd - 1), max_size=4).map(tuple)
    coeffs = draw(st.sampled_from(_RING_COEFFS))
    tx, ty = (draw(st.dictionaries(words, coeffs, max_size=4))
              for _ in range(2))
    return pres, tx, ty


def dict_path_raw(pres, tx, ty):
    """The normal form of every concatenation of a word of tx with a word
    of ty, summed as tuple words first."""
    prod = {}
    for w1, c1 in tx.items():
        for w2, c2 in ty.items():
            accumulate(prod, ((w1 + w2, c1 * c2),))
    return pres.normal_form(prod)


@settings(max_examples=200, deadline=None)
@given(_grassmann_factors())
def test_supercommutative_one_pass_product(case):
    pres, tx, ty = case
    x, y = (Element(pres, pres.normal_form(t)) for t in (tx, ty))
    prod = (x * y).terms
    assert prod == dict_path_raw(pres, tx, ty)
    assert decoded(x * y) == tuple_words.sc_product(pres.parities, tx, ty)


@st.composite
def _normal_grassmann_factors(draw):
    # normal-form factors, as the q = 1 layer multiplies them; empty and
    # one-term operands included
    pres, tx, ty = draw(_grassmann_factors())
    size = st.integers(0, 4)
    x, y = (Element(pres, dict(list(pres.normal_form(t).items())
                               [:draw(size)])) for t in (tx, ty))
    return x, y


@settings(max_examples=200, deadline=None)
@given(_normal_grassmann_factors())
def test_odd_mask_product_matches_dict_path(xy):
    x, y = xy
    pres = x.alg
    odd = pres.odd_bits
    # a packed word's odd mask is its odd fields, one bit each
    for w in (*x.terms, *y.terms):
        assert (w & odd).bit_count() == sum(
            pres.parities[r] for r in pres.letters(w))
    # the product comes from the packed words: no letter tuple is packed
    def refuse(w):
        raise AssertionError("product packed the letters %r" % (w,))

    pres._sc_word = refuse
    try:
        prod = (x * y).terms
    finally:
        del pres._sc_word
    assert prod == pres._product(x.terms, y.terms)
    tx, ty = decoded(x), decoded(y)
    assert prod == dict_path_raw(pres, tx, ty)
    assert decoded(x * y) == tuple_words.sc_product(pres.parities, tx, ty)


@settings(max_examples=200, deadline=None)
@given(_grassmann_factors())
def test_raw_factors_are_normalized_first(case):
    # raw words are brought to normal form when the Element is built, so
    # the packed product is nf(x) * nf(y) = nf(x * y)
    pres, tx, ty = case
    x, y = (Element(pres, pres.normal_form(t)) for t in (tx, ty))
    assert decoded(x) == tuple_words.normal_form(pres.parities, tx)
    assert all(pres.letters(w) == tuple(sorted(pres.letters(w)))
               for w in x.terms)
    ref = tuple_words.sc_product(pres.parities, tx, ty)
    assert {pres._sc_word(w)[0]: c for w, c in ref.items()} == (x * y).terms


def test_raw_word_products():
    # unsorted words and a repeated odd letter, normalized when built
    pres = grassmann_algebra([("e", 0), ("s", 1), ("t", 1)])
    one = pres.unit
    t_s = Element(pres, pres.normal_form({(2, 1): one}))
    s_s = Element(pres, pres.normal_form({(1, 1): one}))
    s, t, e = pres.gen("s"), pres.gen("t"), pres.gen("e")
    assert decoded(t_s) == {(1, 2): -one}
    assert s_s.terms == {}
    assert decoded(t_s * e) == {(0, 1, 2): -one}
    assert (t_s * e).to_text() == "(-1)*e*s*t"
    assert (s_s * e).terms == {}
    assert decoded(t * s) == {(1, 2): -one}
    assert decoded(s * t) == {(1, 2): one}
    assert (s * s).terms == {}
    assert (pres.zero() * t_s).terms == {}
    # parity is read off the words of a quantum presentation on the same
    # letters; no production path asks a Grassmann element for it
    quantum = Presentation([Generator(n, p)
                            for n, p in (("e", 0), ("s", 1), ("t", 1))])
    s, t, e = quantum.gen("s"), quantum.gen("t"), quantum.gen("e")
    assert (e * e * t).parity() == 1 and (s * t).parity() == 0
    with pytest.raises(AlgebraError):
        (e + s).parity()


def test_packed_words_refuse_a_degree_past_the_fields():
    # every field holds any exponent up to MAX_DEGREE, the most a word's
    # total degree may be; past it the layout raises instead of carrying
    # into the guard bit or the next field
    pres = grassmann_algebra([("x", 0), ("s", 1), ("y", 0)])
    x, y = pres.gen("x"), pres.gen("y")

    def power(r, n):
        return Element(pres, pres.normal_form({(r,) * n: pres.unit}))

    top = power(0, MAX_DEGREE)
    assert decoded(top) == {(0,) * MAX_DEGREE: pres.unit}
    (w,) = top.terms
    assert w & pres.guards == 0
    half = power(0, MAX_DEGREE // 2)
    mixed = half * power(2, MAX_DEGREE - MAX_DEGREE // 2)
    assert decoded(mixed) == {(0,) * (MAX_DEGREE // 2) + (2,) * (
        MAX_DEGREE - MAX_DEGREE // 2): pres.unit}
    for past in (lambda: top * x, lambda: x * top, lambda: mixed * y,
                 lambda: power(2, MAX_DEGREE + 1),
                 lambda: pres.normal_form({(0,) * (MAX_DEGREE + 1):
                                           pres.unit})):
        with pytest.raises(OverflowError):
            past()
    # an odd square still vanishes, whatever its length would be
    assert pres.normal_form({(1,) * (MAX_DEGREE + 1): pres.unit}) == {}


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
    pres = build_mq2()
    assert unresolved_overlaps(pres) == []
    # strictly decreasing triples among 4 gens
    assert len(overlap_words(pres)) == 4


def test_single_rule_presentation_trivially_confluent():
    gens = [Generator(n, 0) for n in "abc"]
    pres = Presentation(gens)
    pres.add_rule((1, 0), {(0, 1): ONE})  # ba -> ab only
    assert overlap_words(pres) == []


def corrupted_mq2():
    """The quantum 2x2 relations with one q replaced by q^2."""
    gens = [Generator("a[%d,%d]" % (i, j), 0)
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
    return pres


def test_corrupted_presentation_fails_confluence():
    pres = corrupted_mq2()
    assert unresolved_overlaps(pres) == [(3, 1, 0)]  # a22*a12*a11


def test_unresolved_overlap_returns_the_full_difference():
    # the difference is built only for a failing overlap, and it is the
    # one the merge of nf(left) and -nf(right) gives
    pres = corrupted_mq2()
    for word in overlap_words(pres):
        diff = overlap_difference(pres, word)
        assert resolve_overlap(pres, word) == diff
    diff = overlap_difference(pres, (3, 1, 0))
    assert diff and all(diff.values())


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


def solver_over(basis):
    solver = SpanSolver()
    for b in basis:
        solver.add(b.terms)
    return solver


def test_express_in_basis_trivial_and_linear():
    pres = build_slq41()
    b0 = pres.word(["a[1,1]", "a[2,2]"])
    b1 = pres.word(["a[1,2]", "a[2,1]"])
    solver = solver_over([b0, b1])
    scale, coords = solver.express(b0.terms)
    assert coords[0] == scale and not coords[1]
    p = b0.scale(Q) - b1.scale(QINV)
    scale, coords = solver.express(p.terms)
    assert [c.exact_div(scale) for c in coords] == [Q, -QINV]


def test_express_in_basis_minor_reordering():
    # D13 D12 is a pure q-power multiple of D12 D13 (frozen from the
    # fraction-free elimination oracle: the coefficient is q)
    d12, d13 = minor(1, 2), minor(1, 3)
    target = d13 * d12
    basis0 = d12 * d13
    scale, coords = solver_over([basis0]).express(target.terms)
    assert coords[0].exact_div(scale) == Q
    assert (target - basis0.scale(Q)).is_zero()


def test_express_in_basis_absent():
    pres = build_slq41()
    p = pres.word(["a[1,1]", "a[1,2]"])
    basis = [pres.word(["a[1,1]", "a[2,2]"])]
    assert solver_over(basis).express(p.terms) is None


def test_express_in_basis_degenerate():
    # a zero vector is dependent: it takes an index, no pivot, and
    # coordinate zero in every expression
    pres = build_slq41()
    b0 = pres.word(["a[1,1]", "a[2,2]"])
    solver = solver_over([b0])
    assert not solver.add(pres.zero().terms)
    assert solver.rank == 1 and solver.nbasis == 2
    scale, coords = solver.express(b0.scale(Q).terms)
    assert not coords[1]
    assert coords[0] == Q * scale


def test_span_solver_dependent_vectors():
    pres = build_slq41()
    b0 = pres.word(["a[1,1]", "a[2,2]"])
    b1 = pres.word(["a[1,2]", "a[2,1]"])
    solver = SpanSolver()
    assert solver.add(b0.terms)
    assert solver.add(b1.terms)
    assert not solver.add((b0 + b1).terms)
    assert solver.rank == 2
    scale, coords = solver.express((b0.scale(Q) + b1.scale(Q)).terms)
    assert not coords[2]  # dependent vectors get coordinate zero
    assert coords[0] == coords[1] == Q * scale


_small_scalars = st.builds(
    lambda triples: Scalar({e: (re, im) for e, re, im in triples}),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 3),
                       st.integers(-3, 3)), min_size=1, max_size=2))
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
# each later lead occurs in every earlier pivot's row, and the echelon
# is plain: no pivot row is cleared of a later lead
@example(vectors=[{(3,): ONE, (1,): Q, (0,): ONE},
                  {(1,): Scalar.from_int(2), (0,): I},
                  {(0,): Q}],
         dep_coeffs=[ONE, -Q, QINV, ONE, ONE],
         coeffs=[Q, I, Scalar.from_int(-3), ONE, ONE])
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
        assert not added[-1]
    assert solver.rank == added.count(True)
    target = _combination(coeffs, basis)
    scale, coords = solver.express(target)
    assert scale and len(coords) == len(basis)
    for j, enlarged in enumerate(added):
        if not enlarged:
            assert not coords[j]
    # scale*target[w] == sum coords[j]*basis[j][w], in the ring
    for w in {w for v in basis for w in v}:
        total = Scalar.zero()
        for c, v in zip(coords, basis):
            if w in v:
                total = total + c * v[w]
        assert total == scale * target.get(w, Scalar.zero())
    fresh = dict(target)
    fresh[(6,)] = ONE
    assert solver.express(fresh) is None


def slq41_copy():
    """A fresh copy of the slq41 presentation: same rules, empty memo."""
    pres = build_slq41()
    copy = Presentation(pres.generators)
    for lhs, rhs in pres.rules.items():
        if lhs not in copy.rules:  # odd squares come with the constructor
            copy.add_rule(lhs, rhs)
    return copy


def test_budget_guard(monkeypatch):
    # add_rule refuses a rule set that is not order-decreasing, so every
    # reduction ends; the budget bounds the work on one long word.  The
    # copy's memo is empty, so no earlier test has reduced this word.
    monkeypatch.setattr(kernel, "STEP_BUDGET", 100)
    with pytest.raises(BudgetExceeded, match="rewrite budget exceeded at "):
        slq41_copy().nf_word(tuple(range(9, -1, -1)))


class _CountingMemo(dict):
    """A memo that counts the lookups and the writes of each key."""

    def __init__(self):
        super().__init__()
        self.lookups = Counter()
        self.writes = Counter()

    def get(self, key, default=None):
        self.lookups[key] += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.writes[key] += 1
        super().__setitem__(key, value)


def test_a_product_needed_twice_is_taken_once():
    # (1,0,0): 1*0 -> 0*1 + 0*2, and each is then multiplied by 0.
    # (0,1)*0 is a product's frame; (0,2)*0 -> (0,1)*0 requests the same
    # product again, and the trampoline has answered the first request
    # before any other frame resumes, so the memo answers the second
    gens = [Generator(n, 0) for n in "abc"]
    pres = Presentation(gens)
    for lhs, rhs in [((1, 0), [(0, 1), (0, 2)]), ((2, 0), [(1, 0)]),
                     ((2, 1), [(1, 2)]), ((2, 2), [(1, 0), (1, 1), (0, 0)])]:
        pres.add_rule(lhs, dict.fromkeys(rhs, ONE))
    memo = _CountingMemo()
    got = kernel.nf_word((1, 0, 0), pres._kernel_rules, 3, ONE, memo)
    assert memo.lookups[(0, 1, 0)] == 2
    assert memo.writes == Counter({(1, 0, 0): 1, (0, 1, 0): 1, (0, 2, 0): 1})
    assert dict(got) == naive_nf(pres, {(1, 0, 0): ONE})
    assert dict(memo[(0, 1, 0)]) == {(0, 0, 1): ONE, (0, 0, 2): ONE}


def test_terms_that_cancel_in_a_product_are_dropped():
    # a*a*b comes out of two products with opposite signs, so it cancels
    # in the sum of a product's rhs terms for (1,2,1), and in the sum over
    # the last letter for (1,0,0); no production presentation cancels
    # there
    pres = Presentation(Generator(n, 0) for n in "abc")
    for lhs, rhs in [((1, 0), {(0, 1): -ONE, (0, 2): -ONE}),
                     ((2, 0), {(0, 2): -ONE, (0, 1): ONE}),
                     ((2, 1), {(0, 0): -ONE})]:
        pres.add_rule(lhs, rhs)
    two = ONE + ONE
    for w, want in [((1, 0, 0), {(0, 0, 2): two}),
                    ((1, 2, 1), {(0, 0, 2): -two})]:
        got = dict(kernel.nf_word(w, pres._kernel_rules, 3, ONE, {}))
        assert got == want == naive_nf(pres, {w: ONE})


def test_rule_validation():
    gens = [Generator(n, r % 2) for r, n in enumerate("abcd")]
    pres = Presentation(gens)
    with pytest.raises(AlgebraError, match="not below lhs"):
        pres.add_rule((0, 1), {(2, 3): ONE})  # rhs not below lhs
    with pytest.raises(AlgebraError, match="is not two generator ranks"):
        pres.add_rule((2, 1), {(0,): ONE})  # degree drop
    with pytest.raises(AlgebraError, match="not parity-preserving"):
        pres.add_rule((3, 0), {(0, 2): ONE})  # parity change
    with pytest.raises(AlgebraError, match="not below lhs"):
        pres.add_rule((1, 0), {(1, 0): ONE})  # not decreasing: would loop
    rules = pres.rules
    # the length is checked before the packed key is taken: (3, 3, 2)
    # would share the odd square's key, and (1,) has no second letter
    for lhs in ((1,), (3, 3, 2)):
        with pytest.raises(AlgebraError, match="is not two generator ranks"):
            pres.add_rule(lhs, {})
    assert pres.rules == rules


def test_rule_letters_must_be_generator_ranks():
    # the packed key lhs[0]*ngens + lhs[1] would alias an out-of-range
    # pair onto a real one: (1, -1) onto (0, 3), (0, 5) onto (1, 1)
    gens = [Generator(n, r % 2) for r, n in enumerate("abcd")]
    pres = Presentation(gens)
    rules = pres.rules
    for lhs, rhs in (((1, -1), {}), ((0, 5), {}), ((0, 7), {}),
                     ((2, 0), {(0, 9): ONE})):
        with pytest.raises(AlgebraError, match="is not two generator ranks"):
            pres.add_rule(lhs, rhs)
    assert pres.rules == rules


def test_the_kernel_rule_view_follows_add_rule():
    # add_rule writes the kernel's packed-key view of the rule with it:
    # a normal form taken before a rule does not outlive it, and a refused
    # rule leaves the view and the normal forms as they were
    gens = [Generator(n, r // 2) for r, n in enumerate("abc")]
    pres = Presentation(gens)
    ba, ab, cc = {(1, 0): ONE}, {(0, 1): ONE}, {(2, 2): ONE}
    assert pres.normal_form(cc) == {}  # the odd square, there from the start
    assert pres.normal_form(ba) == ba
    assert pres.nf_word((1, 0)) == (((1, 0), ONE),)
    pres.add_rule((1, 0), {(0, 1): Q})
    assert pres.normal_form(ba) == {(0, 1): Q}
    assert pres.nf_word((1, 0, 0)) == (((0, 0, 1), Q * Q),)
    view = dict(pres._kernel_rules)
    for lhs, rhs in (((0, 1), ba), ((0, 2), {(0, 1): ONE}), ((1, 0), ab)):
        with pytest.raises(AlgebraError):  # not decreasing, parity, duplicate
            pres.add_rule(lhs, rhs)
    assert pres._kernel_rules == view
    assert pres.normal_form(ab) == ab and pres.normal_form(ba) == {(0, 1): Q}


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
    odd1 = pres.rank("a[1,5]")
    odd2 = pres.rank("a[2,5]")
    # (1 (x) odd1)(odd2 (x) 1) = -(odd2 (x) odd1) requires the Koszul sign
    t1 = TensorPoly(pres, {((), (odd1,)): ONE})
    t2 = TensorPoly(pres, {((odd2,), ()): ONE})
    prod = t1 * t2
    assert prod.terms == {((odd2,), (odd1,)): -ONE}
    # products bring both slots to normal form: a[2,5]*a[1,5] is not normal
    nf = pres.word(["a[2,5]", "a[1,5]"]).terms
    assert (odd2, odd1) not in nf
    prod = t2 * TensorPoly(pres, {((odd1,), (odd2,)): ONE}) * t1
    assert prod.terms == {(u, v): cu * cv for u, cu in nf.items()
                          for v, cv in nf.items()}


# slq41 ranks, row-major: a[1,1], a[1,2] and a[2,1] are even
# (a[1,2]*a[1,1] -> q a[1,1]*a[1,2]), a[1,5] and a[5,1] odd
A11, A12, A15, A21, A51 = 0, 1, 4, 5, 20
TENSOR_WORDS = st.lists(st.sampled_from((A11, A12, A15, A21, A51)),
                        max_size=2).map(tuple)
TENSOR_COEFFS = st.sampled_from((Scalar.from_int(0), ONE, -ONE, Q, -Q,
                                 QINV, I))
TENSOR_TERMS = st.dictionaries(st.tuples(TENSOR_WORDS, TENSOR_WORDS),
                               TENSOR_COEFFS, max_size=4)


@settings(max_examples=200, deadline=None)
@given(TENSOR_TERMS, TENSOR_TERMS)
# g (x) 1 cancels between the two pairs that make it
@example({((A11,), ()): ONE, ((), ()): ONE},
         {((), ()): ONE, ((A11,), ()): -ONE})
# a[1,2]*a[1,1] and a[1,1]*a[1,2] cancel only once both are reduced
@example({((A12,), ()): ONE, ((A11,), ()): -Q},
         {((A11,), ()): ONE, ((A12,), ()): ONE})
# the Koszul sign cancels o (x) o, and odd squares vanish: the product
# is zero
@example({((), (A15,)): ONE, ((A15,), ()): ONE},
         {((), (A15,)): ONE, ((A15,), ()): ONE})
# zero coefficients on both sides, empty words in every slot
@example({((), ()): Scalar.from_int(0), ((A15,), (A15,)): ONE},
         {((), ()): ONE, ((A12,), ()): Scalar.from_int(0)})
def test_one_pass_tensor_product_matches_two_pass(left, right):
    pres = build_slq41()
    a, b = TensorPoly(pres, left), TensorPoly(pres, right)
    got = (a * b).terms
    assert got == two_pass_product(a, b).terms
    assert all(got.values())


def test_step_budget_not_hit_on_paper_presentation(monkeypatch):
    monkeypatch.setattr(kernel, "STEP_BUDGET", 1_000_000)
    assert unresolved_overlaps(slq41_copy()) == []


def reference_accumulate(start, pairs):
    """Each key's total over start and pairs on a plain dict, then the
    zeros dropped."""
    total = dict(start)
    for k, c in pairs:
        total[k] = total.get(k, Scalar.zero()) + c
    return {k: c for k, c in total.items() if c}


# three keys, so streams repeat them; coefficients may be zero
_keys = st.integers(0, 2).map(lambda k: (k,))
_pair_streams = st.lists(st.tuples(_keys, st.one_of(
    _small_scalars, st.just(Scalar.zero()))), max_size=8)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_keys, _small_scalars.filter(bool), max_size=3),
       _pair_streams)
@example({}, [((0,), ONE), ((0,), -ONE), ((0,), Q)])  # cancels, comes back
@example({(0,): Q}, [((0,), -Q), ((1,), QINV), ((0,), ONE)])
@example({(0,): Q}, [((1,), Scalar.zero())])  # a zero on a new key
@example({(0,): Q}, [])  # out is left alone
def test_accumulate_matches_reference(start, pairs):
    out = dict(start)
    got = accumulate(out, iter(pairs))
    assert got is out  # merged in place
    assert got == reference_accumulate(start, pairs)
    assert all(got.values())


_term_maps = st.dictionaries(st.integers(0, 3).map(lambda k: (k,)),
                             _small_scalars.filter(bool), max_size=4)


@settings(max_examples=150, deadline=None)
@given(_term_maps, _term_maps)
@example({(0,): ONE, (1,): Q}, {(0,): -ONE, (2,): Q})  # one cancels
@example({(0,): ONE, (1,): Q}, {(1,): Q})
@example({}, {(0,): QINV})
def test_term_map_sums_match_reference(a, b):
    pres = build_mq2()
    x, y = Element(pres, a), Element(pres, b)
    frozen = dict(a), dict(b)
    assert (x + y).terms == reference_accumulate(a, b.items())
    assert (x - y).terms == reference_accumulate(
        a, [(k, -c) for k, c in b.items()])
    assert (a, b) == frozen  # the operands are left as they were
    # a term map minus itself, or plus its negation, cancels to empty
    assert (x - x).terms == {}
    assert (x + (-x)).terms == {}


# the non-supercommutative presentations that production reduces in
_rewriting_presentations = {
    "slq41": build_slq41,
    "chiral": build_chiral_presentation,
    "straightener": lambda: localized().straightener(),
}


@st.composite
def _raw_terms(draw):
    """A presentation's name and (word, coeff) pairs: words need not be
    normal, repeat, or carry a zero coefficient."""
    name = draw(st.sampled_from(sorted(_rewriting_presentations)))
    ngens = _rewriting_presentations[name]().ngens
    words = st.lists(st.integers(0, ngens - 1), max_size=5).map(tuple)
    coeffs = st.one_of(_small_scalars, st.sampled_from(
        [Scalar.zero(), Scalar({}), Scalar({0: (0, 0)})]))
    return name, draw(st.lists(st.tuples(words, coeffs), max_size=6))


@settings(max_examples=200, deadline=None)
@given(_raw_terms(), st.booleans())
@example(("slq41", [((1, 0), ONE), ((0, 1), -Q)]), False)  # cancels
@example(("slq41", [((1, 0), ONE), ((0, 1), -Q), ((1, 0), QINV)]), False)
@example(("slq41", [((1, 0), Scalar.zero()), ((2,), ONE)]), True)
@example(("chiral", [((5, 4), Scalar.zero())]), True)
def test_normal_form_stores_no_zero_and_matches_reference(case, as_dict):
    # the kernel stores a product on a new word untested: it is a product
    # of nonzero coefficients once the zero inputs are skipped
    name, pairs = case
    pres = _rewriting_presentations[name]()
    terms = dict(pairs) if as_dict else pairs
    got = pres.normal_form(terms)
    assert all(got.values())
    assert got == reference_normal_form(pres, terms)


# the presentations the kernel reduces in, and the even quantum 2x2
# matrices, whose rules have two rhs terms
_kernel_presentations = dict(_rewriting_presentations,
                             manin2=lambda: manin_presentation_even(2))


def _normal_word(draw, pres, max_size):
    """A normal word: each letter after the first is drawn from those that
    do not reduce with the one before it, until there is none."""
    rules, n = pres._kernel_rules, pres.ngens
    w = ()
    for _ in range(draw(st.integers(0, max_size))):
        free = [g for g in range(n) if not w or w[-1] * n + g not in rules]
        if not free:
            break
        w += (draw(st.sampled_from(free)),)
    return w


@st.composite
def _kernel_words(draw):
    """A presentation's name and a word of 0 to 10 letters: any letters,
    two normal words concatenated, or a normal word, a rule's left side
    and any letters, so a prefix that is not normal."""
    name = draw(st.sampled_from(sorted(_kernel_presentations)))
    pres = _kernel_presentations[name]()
    letters = st.integers(0, pres.ngens - 1)
    shape = draw(st.sampled_from(("any", "normal*normal", "normal*lhs*any")))
    if shape == "any":
        return name, tuple(draw(st.lists(letters, max_size=10)))
    u = _normal_word(draw, pres, 5)
    if shape == "normal*normal":
        return name, u + _normal_word(draw, pres, 10 - len(u))
    lhs = draw(st.sampled_from(sorted(pres.rules)))
    rest = draw(st.lists(letters, max_size=8 - len(u)))
    return name, u + lhs + tuple(rest)


@settings(max_examples=150, deadline=None)
@given(_kernel_words(), st.booleans())
@example(("slq41", (1, 0, 1, 0, 1, 0)), False)
@example(("manin2", (3, 2, 1, 0, 3, 2, 1, 0)), False)
def test_nf_word_matches_the_leftmost_reducer(case, warm):
    # the junction kernel against the whole-word leftmost reducer of
    # tests/reference_merges.py, on a fresh memo or the presentation's own
    name, w = case
    pres = _kernel_presentations[name]()
    memo = pres._memo if warm else {}
    got = kernel.nf_word(w, pres._kernel_rules, pres.ngens, pres.unit, memo)
    assert all(c for _w, c in got)
    assert dict(got) == reference_normal_form(pres, {w: pres.unit})
    assert memo[w] is got


def test_term_maps_of_another_kind_or_algebra_do_not_mix():
    pres = build_slq41()
    x = pres.gen("a[1,1]")
    t = TensorPoly(pres, {((0,), ()): ONE})
    other = build_mq2().gen("a[1,1]")
    for op in (lambda u, v: u + v, lambda u, v: u - v):
        for u, v in ((x, t), (t, x), (x, other), (other, x)):
            with pytest.raises(TypeError):
                op(u, v)
    assert x != t and x != other
    assert (x - x).is_zero() and not (t - t)
    assert -x + x == pres.zero()
    assert x + x == x.scale(ONE + ONE)
    # a coefficient scales through .scale() only
    for op in (lambda: (ONE + ONE) * x, lambda: x * (ONE + ONE)):
        with pytest.raises(TypeError):
            op()


def test_tensor_products_refuse_another_kind_or_algebra():
    pres = build_slq41()
    t = TensorPoly(pres, {((0,), (1,)): ONE})
    # the same keys over another algebra would be read as slq41 words
    other = TensorPoly(build_mq2(), {((0,), (1,)): ONE})
    for u, v in ((t, other), (other, t), (t, GaussRational(2)),
                 (t, Scalar.from_int(2)), (t, pres.gen("a[1,1]")),
                 (pres.gen("a[1,1]"), t)):
        with pytest.raises(TypeError):
            u * v
    assert t.scale(Scalar.from_int(2)).terms == \
        {((0,), (1,)): Scalar.from_int(2)}
    assert (t * TensorPoly(pres, {((), ()): pres.unit})).terms == t.terms


_SLQ41 = build_slq41()
_GRASSMANN = grassmann_algebra([("x", 0), ("y", 0), ("th", 1), ("ch", 1)])


@pytest.mark.parametrize("pres,letters,nf_word", [
    (_SLQ41, lambda w: w, _SLQ41.nf_word),
    (_GRASSMANN, _GRASSMANN.letters,
     lambda w: _GRASSMANN.normal_form({w: _GRASSMANN.unit}).items()),
], ids=["slq41", "supercommutative"])
def test_normal_words_carry_the_unit_itself(pres, letters, nf_word):
    # the products' unit fast paths test the unit by identity, so the
    # kernel and the closed form must hand out the algebra's own unit,
    # not a fresh one
    (w1, c1), = pres.one().terms.items()
    assert letters(w1) == () and c1 is pres.unit
    for w in [(), (0,), (1,), (0, 1), (0, 2, 3), (1, 2, 3)]:
        (sw, c), = nf_word(w)
        assert letters(sw) == w and c is pres.unit
