"""Conformal algebra, finite maps, big cells, twistors, chiral action."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmink import checks, classical, realforms
from qmink.algebra import Element
from qmink.checks import run_suite
from qmink.classical import (SuperPoincareElement, bracket_coordinates, chart,
                             conformal_basis, coordinate_algebra, det2, invert,
                             minkowski_dot, minkowski_square, pauli_map,
                             poincare_action, poincare_element, real_point,
                             real_group_element, special_conformal,
                             specialize_q1, super_poincare_chiral_action,
                             superflag_reduce, translate)
from qmink.grassmann import GrassmannMatrix, GrassmannRational, d_dx, symbols
from qmink.kernel import accumulate
from qmink.scalars import Q, QINV, GaussRational, Scalar
from qmink.supergroup import build_slq41

import tuple_words
from tuple_words import decoded, grassmann_algebra


def test_conformal_generator_forms():
    ga, basis, _solver = conformal_basis()
    by_name = {vf.name: vf for vf in basis}
    assert len(by_name) == len(basis) == 15
    x = [ga.gen("x%d" % mu) for mu in range(4)]
    p0 = by_name["P0"]
    assert p0.comps[0] == ga.one() and all(not c for c in p0.comps[1:])
    d = by_name["D"]
    assert d.comps == x
    # K1 = 2 x_1 x^nu d_nu - x^2 d_1 with x_1 = -x^1
    k1 = by_name["K1"]
    x2 = minkowski_square(x)
    two = GaussRational(2)
    for nu in range(4):
        expected = (-x[1] * x[nu]).scale(two)
        if nu == 1:
            expected = expected - x2
        assert k1.comps[nu] == expected


def test_partial_derivative():
    ga = coordinate_algebra()
    x0 = ga.gen("x0")
    r0 = ga.rank("x0")
    p = x0 * x0 * ga.gen("x1")
    assert d_dx(p, r0) == (x0 * ga.gen("x1")).scale(GaussRational(2))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.lists(st.integers(0, 4), max_size=5).map(tuple),
                       st.builds(GaussRational, st.integers(-3, 3),
                                 st.integers(-3, 3), st.integers(1, 4)),
                       max_size=4),
       st.sampled_from(["x0", "x3", "w"]))
def test_partial_derivative_matches_the_tuple_words(raw, name):
    # raw words over x0..x3 and an even w, unsorted, with repeats
    ga = coordinate_algebra(("w",))
    rank = ga.rank(name)
    el = Element(ga, ga.normal_form(raw))
    assert decoded(d_dx(el, rank)) == tuple_words.d_dx(
        tuple_words.normal_form(ga.parities, raw), rank)


def test_partial_derivative_refuses_an_odd_generator():
    # an odd derivative needs a Koszul sign, which d_dx does not carry
    ga = symbols(real=("x0",), real_odd=("th",))
    th = ga.rank("th")
    with pytest.raises(ValueError, match="even generator"):
        d_dx(ga.gen("th") * ga.gen("x0"), th)


def test_bracket_examples():
    names = [vf.name for vf in conformal_basis()[1]]
    def entry(a, b):
        i, j = names.index(a), names.index(b)
        combo = bracket_coordinates(i, j) if i < j else \
            [(k, -c) for k, c in bracket_coordinates(j, i)]
        return {names[k]: c for k, c in combo}
    # translations commute
    assert entry("P0", "P1") == {}
    # [D, P_mu] = -P_mu
    for mu in range(4):
        e = entry("D", "P%d" % mu)
        assert set(e) == {"P%d" % mu}
        assert e["P%d" % mu] == GaussRational(-1)
    # [K_mu, P_mu] = 2 eta_mumu D + ...; frozen from the exact solve
    e = entry("K0", "P0")
    assert set(e) == {"D"} and e["D"] == GaussRational(-2)
    e = entry("K1", "P0")
    assert set(e) == {"L01"} and e["L01"] == GaussRational(-2)


def test_conformal_closure_all_pairs():
    # every bracket has coordinates, and they sum back to the bracket
    _ga, basis, _solver = conformal_basis()
    pairs = [(i, j) for i in range(15) for j in range(i + 1, 15)]
    assert len(basis) == 15 and len(pairs) == 105
    for i, j in pairs:
        combo = bracket_coordinates(i, j)
        assert combo is not None, (i, j)
        got = accumulate({}, ((key, c * v) for k, c in combo
                              for key, v in basis[k].flat().items()))
        assert got == basis[i].bracket(basis[j]).flat(), (i, j)


def test_raising_bracket_fails_only_its_record(monkeypatch):
    # each bracket record solves its own coordinates, so an exception
    # there fails that record alone, not the suite as a builder record
    right = classical.bracket_coordinates

    def raising(i, j):
        if (i, j) == (0, 14):
            raise ArithmeticError("no coordinates")
        return right(i, j)

    monkeypatch.setattr(classical, "bracket_coordinates", raising)
    records = run_suite("conformal-algebra").records
    assert len(records) == 105
    assert {r.id: r.witness for r in records if not r.verdict} == \
        {"bracket:P0|K3": "exception: ArithmeticError('no coordinates')"}


def _sct_points():
    """The points x, b and c, coordinates x0..x3, b0..b3 and c0..c3, as
    rationals over the sct-inversion suite's algebra."""
    ga = coordinate_algebra(extra=("b0", "b1", "b2", "b3",
                                   "c0", "c1", "c2", "c3"))
    return [tuple(GrassmannRational(ga, ga.gen("%s%d" % (name, mu)))
                  for mu in range(4)) for name in "xbc"]


def test_sct_zero_parameter():
    x, _b, _c = _sct_points()
    assert special_conformal(x, [0] * 4) == x


def test_sct_inversion_identity_and_typo():
    x, b, _c = _sct_points()
    conjugated = invert(translate(invert(x), b))
    assert special_conformal(x, b) == conjugated
    assert not (special_conformal(x, b, variant="literal") == conjugated)
    with pytest.raises(ValueError):
        special_conformal(x, b, variant="bogus")


def test_sct_composition():
    x, b, c = _sct_points()
    bc = tuple(u + v for u, v in zip(b, c))
    assert special_conformal(special_conformal(x, c), b) == \
        invert(translate(invert(x), bc))
    assert invert(invert(x)) == x


def test_sct_numeric_point():
    # apply the map to a rational point and compare with the formula
    # evaluated in plain fractions
    ga = coordinate_algebra()
    b = [Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(2)]
    x = [Fraction(1), Fraction(1, 5), Fraction(-2), Fraction(1, 7)]

    def point(vs):
        return tuple(GrassmannRational(ga, ga.scalar(
            GaussRational(v.numerator, 0, v.denominator))) for v in vs)

    got = special_conformal(point(x), point(b))
    bx = b[0] * x[0] - b[1] * x[1] - b[2] * x[2] - b[3] * x[3]
    x2 = x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2
    b2 = b[0] ** 2 - b[1] ** 2 - b[2] ** 2 - b[3] ** 2
    den = 1 + 2 * bx + b2 * x2
    want = point([(x[mu] + b[mu] * x2) / den for mu in range(4)])
    assert all((g - w).is_zero() for g, w in zip(got, want))


def test_sct_inversion_inverts_each_divisor_once(monkeypatch):
    # x^2 once per invert (8 calls) and the denominator once per special
    # conformal map (5 calls), not once per coordinate
    calls = []
    inverse = GrassmannRational.inverse
    monkeypatch.setattr(GrassmannRational, "inverse",
                        lambda self: calls.append(self) or inverse(self))
    assert all(r.verdict for r in run_suite("sct-inversion").records)
    assert len(calls) == 13


def test_minkowski_dot_over_elements_and_rationals():
    # one function serves both rings, with the same value
    ga = coordinate_algebra(extra=("b0", "b1", "b2", "b3"))
    x = [ga.gen("x%d" % mu) for mu in range(4)]
    b = [ga.gen("b%d" % mu) + ga.scalar(GaussRational(mu)) for mu in range(4)]
    dot = minkowski_dot(x, b)
    assert isinstance(dot, Element)
    assert dot == x[0] * b[0] - x[1] * b[1] - x[2] * b[2] - x[3] * b[3]
    rational = minkowski_dot([GrassmannRational(ga, v) for v in x],
                             [GrassmannRational(ga, v) for v in b])
    assert isinstance(rational, GrassmannRational)
    assert rational == GrassmannRational(ga, dot)


def test_pauli_map_refuses_a_rational_coordinate():
    # it multiplies Elements only; a rational is not a Grassmann constant
    ga = coordinate_algebra()
    x0 = GrassmannRational(ga, ga.gen("x0"))
    with pytest.raises(TypeError, match="Grassmann constant"):
        pauli_map(ga, [x0, 0, 0, 0])


def test_pauli_map():
    ga = coordinate_algebra()
    x = [ga.gen("x%d" % mu) for mu in range(4)]
    a = pauli_map(ga, x)
    assert (det2(a) - GrassmannRational(ga, minkowski_square(x))).is_zero()
    m = pauli_map(ga, [0, 0, 1, 0])
    gi = classical.GI
    assert (m - GrassmannMatrix(ga, [[0, -gi], [gi, 0]])).is_zero()
    assert (det2(m) + 1).is_zero()
    e = pauli_map(ga, [1, 0, 0, 0])
    assert (e - GrassmannMatrix.identity(ga, 2)).is_zero()
    assert (det2(e) - 1).is_zero()


def _symbols2():
    return symbols(real=(*["%s%d%d" % (p, i, j)
                           for p in ("l", "r", "m", "L", "R", "M", "g")
                           for i in (1, 2) for j in (1, 2)],
                         "a1", "a2", "a3", "a4", "e1", "e2", "e3", "e4"))


def _m2(ga, p):
    return GrassmannMatrix(ga, [[ga.gen("%s11" % p), ga.gen("%s12" % p)],
                                [ga.gen("%s21" % p), ga.gen("%s22" % p)]])


def test_poincare_action_axiom():
    ga = _symbols2()
    L1, M1, R1 = _m2(ga, "l"), _m2(ga, "m"), _m2(ga, "r")
    L2, M2, R2 = _m2(ga, "L"), _m2(ga, "M"), _m2(ga, "R")
    g1, g2 = poincare_element(L1, M1, R1), poincare_element(L2, M2, R2)
    A = GrassmannMatrix(ga, [[ga.gen("a1"), ga.gen("a2")],
                             [ga.gen("a3"), ga.gen("a4")]])
    assert (poincare_action(GrassmannMatrix.identity(ga, 4), A) - A).is_zero()
    step = poincare_action(g2, poincare_action(g1, A))
    assert (step - poincare_action(g2 * g1, A)).is_zero()
    # the chart of g [I; A] is N + R A L^-1 with N = M L^-1, and the block
    # product composes (L, R, N) as (L2 L1, R2 R1, N2 + R2 N1 L2^-1)
    N1, N2 = M1 * L1.inverse(), M2 * L2.inverse()
    assert (poincare_action(g1, A) - (N1 + R1 * A * L1.inverse())).is_zero()
    g21 = g2 * g1
    assert (g21 - poincare_element(L2 * L1, M2 * L1 + R2 * M1,
                                   R2 * R1)).is_zero()
    N21 = g21.block(2, 4, 0, 2) * (L2 * L1).inverse()
    assert (N21 - (N2 + R2 * N1 * L2.inverse())).is_zero()


def test_difference_determinant_covariance():
    ga = _symbols2()
    L, M, R = _m2(ga, "l"), _m2(ga, "m"), _m2(ga, "r")
    A1 = GrassmannMatrix(ga, [[ga.gen("a1"), ga.gen("a2")],
                              [ga.gen("a3"), ga.gen("a4")]])
    A2 = GrassmannMatrix(ga, [[ga.gen("e1"), ga.gen("e2")],
                              [ga.gen("e3"), ga.gen("e4")]])
    g = poincare_element(L, M, R)
    A1p = poincare_action(g, A1)
    A2p = poincare_action(g, A2)
    assert (det2(A1p - A2p) * det2(L) - det2(R) * det2(A1 - A2)).is_zero()
    # equal determinants: R = adj(L) has det R = det L
    adj = GrassmannMatrix(ga, [[L.rows[1][1], -L.rows[0][1]],
                               [-L.rows[1][0], L.rows[0][0]]])
    assert (det2(adj) - det2(L)).is_zero()
    g = poincare_element(L, M, adj)
    B1 = poincare_action(g, A1)
    B2 = poincare_action(g, A2)
    assert (det2(B1 - B2) - det2(A1 - A2)).is_zero()


def test_big_cell_reduce():
    ga = _symbols2()
    top = _m2(ga, "l")
    bottom = _m2(ga, "m")
    P1 = GrassmannMatrix.vstack(top, bottom)
    red = chart(P1, (0, 1))
    # independent check: red * top == bottom (no inversion involved)
    assert (red * top - bottom).is_zero()
    g = _m2(ga, "g")
    assert (chart(P1 * g, (0, 1)) - red).is_zero()
    pre = GrassmannMatrix.vstack(GrassmannMatrix.identity(ga, 2), bottom)
    assert (chart(pre, (0, 1)) - bottom).is_zero()


def test_big_cell_numeric():
    ga = coordinate_algebra()
    rng = random.Random(12)
    for _ in range(5):
        entries = [[GaussRational(rng.randint(-5, 5), 0, rng.randint(1, 4))
                    for _ in range(2)] for _ in range(4)]
        P1 = GrassmannMatrix(ga, entries)
        top = P1.block(0, 2, 0, 2)
        body = ga.body(det2(top).num)
        if not body:
            continue
        red = chart(P1, (0, 1))
        assert (red * top - P1.block(2, 4, 0, 2)).is_zero()


def _flag_symbols():
    return symbols(real=("b11", "b12", "b21", "b22", "b31", "b32", "b41",
                         "b42", "b53", "s11", "s12", "s21", "s22"),
                   real_odd=("d13", "d23", "d33", "d43", "d51", "d52", "o1",
                             "o2"))


def test_twistor_generic():
    ga = _flag_symbols()
    g = ga.gen
    P2 = GrassmannMatrix(ga, [
        [g("b11"), g("b12"), g("d13")],
        [g("b21"), g("b22"), g("d23")],
        [g("b31"), g("b32"), g("d33")],
        [g("b41"), g("b42"), g("d43")],
        [g("d51"), g("d52"), g("b53")]])
    S = GrassmannMatrix(ga, [[g("s11"), g("s12")],
                             [g("s21"), g("s22")],
                             [g("o1"), g("o2")]])
    A, alpha, B, beta = superflag_reduce(P2 * S, P2)
    assert B == A - beta * alpha


def test_odd_chart():
    # the charts superflag_reduce takes: P1's on rows 1 and 2, and P2's on
    # rows 1, 2 and 5, where the pivot block has odd off-diagonal entries
    ga = symbols(real=("b11", "b12", "b21", "b22", "b31", "b32", "b41",
                       "b42", "b53", "s11", "s12", "s21", "s22", "s33"),
                 real_odd=("d13", "d23", "d33", "d43", "d51", "d52", "o1",
                           "o2", "o3", "o4"))
    g = ga.gen
    P2 = GrassmannMatrix(ga, [
        [g("b11"), g("b12"), g("d13")],
        [g("b21"), g("b22"), g("d23")],
        [g("b31"), g("b32"), g("d33")],
        [g("b41"), g("b42"), g("d43")],
        [g("d51"), g("d52"), g("b53")]])
    h = GrassmannMatrix(ga, [[g("s11"), g("s12"), g("o1")],
                             [g("s21"), g("s22"), g("o2")],
                             [g("o3"), g("o4"), g("s33")]])
    assert chart(P2 * h, (0, 1, 4)) == chart(P2, (0, 1, 4))
    # independent checks, no inversion involved: chart times the pivot
    # rows gives back the other rows, for the 5x3 and the 5x2 case
    assert chart(P2, (0, 1, 4)) * GrassmannMatrix.vstack(
        P2.block(0, 2, 0, 3), P2.block(4, 5, 0, 3)) == P2.block(2, 4, 0, 3)
    P1 = P2.block(0, 5, 0, 2)
    assert chart(P1, (0, 1)) * P1.block(0, 2, 0, 2) == P1.block(2, 5, 0, 2)


def test_twistor_even_and_prereduced():
    ga = _flag_symbols()
    g = ga.gen
    z = ga.zero()
    P2 = GrassmannMatrix(ga, [
        [g("b11"), g("b12"), z],
        [g("b21"), g("b22"), z],
        [g("b31"), g("b32"), z],
        [g("b41"), g("b42"), z],
        [z, z, g("b53")]])
    S = GrassmannMatrix(ga, [[g("s11"), g("s12")], [g("s21"), g("s22")],
                             [z, z]])
    A, alpha, B, beta = superflag_reduce(P2 * S, P2)
    assert B == A - beta * alpha and (B - A).is_zero()
    assert alpha.is_zero() and beta.is_zero()
    # pre-reduced flags come back unchanged
    eye = GrassmannMatrix.identity(ga, 2)
    b = GrassmannMatrix(ga, [[g("b31"), g("b32")], [g("b41"), g("b42")]])
    beta = GrassmannMatrix(ga, [[g("d33")], [g("d43")]])
    alpha = GrassmannMatrix(ga, [[g("d51"), g("d52")]])
    a = b + beta * alpha
    P1 = GrassmannMatrix(ga, eye.rows + a.rows + alpha.rows)
    P2std = GrassmannMatrix(ga, [
        eye.rows[0] + [z], eye.rows[1] + [z],
        b.rows[0] + [beta.rows[0][0]], b.rows[1] + [beta.rows[1][0]],
        [z, z, ga.one()]])
    A, got_alpha, B, got_beta = superflag_reduce(P1, P2std)
    assert B == A - got_beta * got_alpha
    assert (A - a).is_zero() and (B - b).is_zero()
    assert (got_alpha - alpha).is_zero() and (got_beta - beta).is_zero()


def suite_records(name):
    return {r.id: r for r in run_suite(name).records}


def test_flipped_twistor_sign_fails_generic(monkeypatch):
    # negative control: the reduction returns B = A + beta alpha in place
    # of B = A - beta alpha
    reduce = classical.superflag_reduce

    def flipped(P1, P2):
        A, alpha, _B, beta = reduce(P1, P2)
        return A, alpha, A + beta * alpha, beta

    monkeypatch.setattr(classical, "superflag_reduce", flipped)
    records = suite_records("twistor")
    generic = records["generic"]
    assert not generic.verdict
    assert generic.witness.startswith("differ at (")
    # with the odd variables off, beta alpha = 0 and the sign cannot show
    assert records["even"].verdict


def test_equal_witnesses_name_what_differs():
    # a rational's witness prints the numerator of the difference, a
    # point's names the coordinates that differ
    ga = coordinate_algebra()
    x = [ga.gen("x%d" % mu) for mu in range(4)]
    a = GrassmannRational(ga, x[0] * x[1])
    b = GrassmannRational(ga, x[0] * x[1] + x[1] * x[1])
    assert checks._equal(a, a) == (True, "")
    assert checks._equal(a, b) == (False, "difference (-1)*x1*x1")
    point = tuple(GrassmannRational(ga, v) for v in x)
    moved = (point[0], point[1] * point[2], point[2], point[3] + 1)
    assert checks._equal(moved, point) == (False, "differ at x1, x3")


def test_a_rational_witness_keeps_its_denominator():
    ga = coordinate_algebra()
    x0, x1 = ga.gen("x0"), ga.gen("x1")
    a = GrassmannRational(ga, x0 * x1)
    b = GrassmannRational(ga, x0, (x1,))
    assert checks._equal(a, b) == \
        (False, "difference (x0*x1*x1 + (-1)*x0)/(x1)")


def test_twistor_preconditions():
    ga = _flag_symbols()
    g = ga.gen
    z = ga.zero()
    bad = GrassmannMatrix(ga, [
        [z, z, z], [z, z, z],
        [g("b31"), g("b32"), z], [g("b41"), g("b42"), z],
        [z, z, g("b53")]])
    with pytest.raises(ZeroDivisionError):
        superflag_reduce(bad.block(0, 5, 0, 2), bad)


def _action_setup():
    ga = symbols(even=("r11", "r12", "r21", "r22", "R11", "R12", "R21", "R22",
                       "t12", "T12", "c12"),
                 real=("t11", "t22", "T11", "T22", "u", "U", "c11", "c22"),
                 odd=("x1", "x2", "X1", "X2", "th1", "th2"))
    g1 = real_group_element(ga, ("r11", "r12", "r21", "r22"), ("x1", "x2"),
                            ("t11", "t12", "t22"), "u")
    g2 = real_group_element(ga, ("R11", "R12", "R21", "R22"), ("X1", "X2"),
                            ("T11", "T12", "T22"), "U")
    pt = real_point(ga, ("c11", "c12", "c22"), ("th1", "th2"))
    return ga, g1, g2, pt


def test_chiral_action_identity():
    ga, g1, g2, pt = _action_setup()
    eye = GrassmannMatrix.identity(ga, 2)
    e = SuperPoincareElement(
        L=eye, M=GrassmannMatrix.zeros(ga, 2, 2), R=eye,
        phi=GrassmannMatrix.zeros(ga, 2, 1),
        chi=GrassmannMatrix.zeros(ga, 1, 2),
        d=GrassmannRational(ga, ga.one()))
    assert super_poincare_chiral_action(e, pt) == pt


def test_chiral_action_preserves_reality():
    ga, g1, _g2, pt = _action_setup()
    assert (pt.C - pt.C.dagger()).is_zero()
    moved = super_poincare_chiral_action(g1, pt)
    assert (moved.C - moved.C.dagger()).is_zero()
    assert (moved.thetabar - moved.theta.star()).is_zero()


def test_s_matches_the_paper_form_with_two_inverses():
    # S() inverts L once, as X^+ X with X = chi L^-1; the paper writes
    # L^+-1 chi^+ chi L^-1
    pga = realforms.poincare_group_algebra()
    _ga, g1, g2, _pt = checks._super_action_setup()
    for el in (realforms.generic_element(pga), realforms.reduced_element(pga),
               g1, g2):
        L, chi = el.L, el.chi
        assert el.S() == \
            L.dagger().inverse() * chi.dagger() * chi * L.inverse()


def test_chiral_action_composition():
    ga, g1, g2, pt = _action_setup()
    step = super_poincare_chiral_action(
        g2, super_poincare_chiral_action(g1, pt))
    direct = super_poincare_chiral_action(g2.compose(g1), pt)
    assert step == direct


def test_wrong_half_fails_super_action(monkeypatch):
    # negative control: 1/3 in place of the 1/2 in T = N + S/2 and in the
    # action on the chiral point
    monkeypatch.setattr(classical, "HALF", GaussRational(1, 0, 3))
    composition = suite_records("super-action")["composition"]
    assert not composition.verdict
    assert not composition.witness.startswith("exception:")


def test_block_matrix_round_trip():
    ga, g1, _g2, _pt = _action_setup()
    again = SuperPoincareElement.from_matrix(g1.as_matrix())
    assert g1 == again


def test_specialize_q1():
    pres = build_slq41()
    p = pres.word(["a[1,1]", "a[1,2]"]).scale(Q) - pres.word(["a[1,2]", "a[1,1]"])
    assert specialize_q1(p).is_zero()
    # every slq41 rule becomes supercommutativity at q = 1
    records = [r for r in run_suite("classical-limit").records
               if r.id.startswith("slq41:")]
    assert len(records) == len(pres.rules)
    assert all(r.verdict for r in records)
    corr = pres.one().scale(QINV - Q)
    assert specialize_q1(corr).is_zero()


def test_specialize_is_algebra_map():
    pres = build_slq41()
    rng = random.Random(3)
    names = [g.name for g in pres.generators]
    def rnd():
        el = pres.zero()
        for _ in range(3):
            w = pres.one()
            for _k in range(rng.randint(0, 3)):
                w = w * pres.gen(rng.choice(names))
            el = el + w.scale(Scalar.from_int(rng.randint(-2, 2))
                              * Scalar.q_pow(rng.randint(-1, 1)))
        return el
    for _ in range(20):
        p, r = rnd(), rnd()
        assert (specialize_q1(p * r)
                - specialize_q1(p) * specialize_q1(r)).is_zero()


# Negative controls for the q = 1 suites: each mutation must turn exactly
# the named records false, with a witness that is not a crash.


def false_records(name):
    records = run_suite(name).records
    bad = {r.id: r.witness for r in records if not r.verdict}
    assert not any(w.startswith("exception:") for w in bad.values())
    return bad


def test_even_image_fails_classical_limit(monkeypatch):
    # the first odd generator made even in the q = 1 image: the rules
    # swapping it with an odd letter (and its square) no longer vanish
    def even_image(pres):
        gens = [(g.name, g.parity) for g in pres.generators]
        k = next(r for r, (_n, p) in enumerate(gens) if p)
        gens[k] = (gens[k][0], 0)
        return grassmann_algebra(gens)

    monkeypatch.setattr(classical, "_classical_image", even_image)
    bad = false_records("classical-limit")
    assert len(bad) == 10
    assert bad["slq41:a[2,5]*a[1,5]"] == "2*a[1,5]*a[2,5]"
    assert "chiral:tau[5,2]*tau[5,1]" in bad


def test_missing_x2_term_fails_conformal_algebra(monkeypatch):
    # K_mu built without its -x^2 d_mu term: the P|K brackets leave the
    # span, since x^2 enters only there
    monkeypatch.setattr(classical, "minkowski_square",
                        lambda vec: vec[0] - vec[0])
    conformal_basis.cache_clear()
    try:
        bad = false_records("conformal-algebra")
    finally:
        monkeypatch.undo()
        conformal_basis.cache_clear()
    assert set(bad) == {"bracket:P%d|K%d" % (mu, nu)
                        for mu in range(4) for nu in range(4)}


def test_flipped_translation_fails_sct_inversion(monkeypatch):
    # x -> x - b in place of x + b: the two records that conjugate a
    # translation by the inversion fail, and the literal variant still
    # fails its identity
    right = classical.translate
    monkeypatch.setattr(classical, "translate",
                        lambda x, b: right(x, [-v for v in b]))
    assert set(false_records("sct-inversion")) == \
        {"inversion-identity", "composition"}


def test_wrong_metric_fails_pauli_metric(monkeypatch):
    monkeypatch.setattr(classical, "METRIC", (1, -1, 1, -1))
    assert set(false_records("pauli-metric")) == {"determinant-identity"}


def test_wrong_action_fails_poincare_action(monkeypatch):
    # A -> (M + R A) L in place of (M + R A) L^-1 = N + R A L^-1
    monkeypatch.setattr(classical, "poincare_action",
                        lambda g, A: (g.block(2, 4, 0, 2)
                                      + g.block(2, 4, 2, 4) * A)
                        * g.block(0, 2, 0, 2))
    assert set(false_records("poincare-action")) == \
        {"axiom", "covariance", "metric-preserved"}


def test_wrong_half_fails_poincare_reality(monkeypatch):
    monkeypatch.setattr(classical, "HALF", GaussRational(1, 0, 3))
    assert set(false_records("poincare-reality")) == \
        {"fixed-point", "displayed-conditions"}


def test_wrong_half_witnesses_name_what_broke(monkeypatch):
    # the fixed-point record names the field of the element that moved,
    # and displayed-conditions the one condition that fails
    monkeypatch.setattr(classical, "HALF", GaussRational(1, 0, 3))
    assert false_records("poincare-reality") == {
        "fixed-point": "differ at M",
        "displayed-conditions": "fails: N - N^+ = L^+-1 chi^+ chi L^-1"}
