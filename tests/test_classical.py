"""Conformal algebra, finite maps, big cells, twistors, chiral action."""

import random
from fractions import Fraction

import pytest

from qmink import classical
from qmink.checks import run_suite
from qmink.classical import (RationalMap, SuperPoincareElement,
                             big_cell_reduce, bracket_closure_table,
                             conformal_basis, conformal_generator,
                             conj_column, coordinate_algebra, det2, d_dx,
                             inversion_map, minkowski_square, pauli_map,
                             poincare_action, poincare_compose, real_point,
                             real_group_element, special_conformal_map,
                             specialize_q1,
                             substitute, super_poincare_chiral_action,
                             superflag_reduce, translation_map)
from qmink.grassmann import (GrassmannMatrix, GrassmannRational, SymbolSpec,
                             supercommutative_presentation)
from qmink.scalars import ONE, Q, QINV, GaussRational, Scalar
from qmink.supergroup import build_slq41


def test_conformal_generator_forms():
    ga, _ = conformal_basis()
    x = [ga.gen("x%d" % mu) for mu in range(4)]
    p0 = conformal_generator("P", 0)
    assert p0.comps[0] == ga.one() and all(not c for c in p0.comps[1:])
    d = conformal_generator("D")
    assert d.comps == x
    # K1 = 2 x_1 x^nu d_nu - x^2 d_1 with x_1 = -x^1
    k1 = conformal_generator("K", 1)
    x2 = minkowski_square(ga)
    two = GaussRational(2)
    for nu in range(4):
        expected = (-x[1] * x[nu]).scale(two)
        if nu == 1:
            expected = expected - x2
        assert k1.comps[nu] == expected
    with pytest.raises(ValueError):
        conformal_generator("P", 7)
    with pytest.raises(ValueError):
        conformal_generator("Q", 0)


def test_partial_derivative():
    ga = coordinate_algebra()
    x0 = ga.gen("x0")
    r0 = ga.pres.generator("x0").rank
    p = x0 * x0 * ga.gen("x1")
    assert d_dx(p, r0) == (x0 * ga.gen("x1")).scale(GaussRational(2))


def test_bracket_examples():
    sc = bracket_closure_table()
    names = sc.names
    def entry(a, b):
        i, j = names.index(a), names.index(b)
        combo = sc.table[(i, j)] if i < j else \
            [(k, -c) for k, c in sc.table[(j, i)]]
        return {names[k]: c for k, c in combo}
    # translations commute
    assert entry("P0", "P1") == {}
    # [D, P_mu] = -P_mu
    for mu in range(4):
        e = entry("D", "P%d" % mu)
        assert set(e) == {"P%d" % mu}
        assert e["P%d" % mu] == -ONE
    # [K_mu, P_mu] = 2 eta_mumu D + ...; frozen from the exact solve
    e = entry("K0", "P0")
    assert set(e) == {"D"} and e["D"] == -Scalar.from_int(2)
    e = entry("K1", "P0")
    assert set(e) == {"L01"} and e["L01"] == -Scalar.from_int(2)


def test_conformal_closure_all_pairs():
    sc = bracket_closure_table()
    assert sc.closed and not sc.witnesses
    assert len(sc.table) == 105


def _sct_algebra():
    return coordinate_algebra(extra=("b0", "b1", "b2", "b3",
                                     "c0", "c1", "c2", "c3"))


def test_sct_zero_parameter():
    ga = _sct_algebra()
    k0 = special_conformal_map(ga, [0] * 4)
    assert k0 == RationalMap.identity(ga)


def test_sct_inversion_identity_and_typo():
    ga = _sct_algebra()
    b = [ga.gen("b%d" % mu) for mu in range(4)]
    inv = inversion_map(ga)
    tb = translation_map(ga, [GrassmannRational(ga, v) for v in b])
    conjugated = inv.compose(tb).compose(inv)
    assert special_conformal_map(ga, b) == conjugated
    assert not (special_conformal_map(ga, b, variant="literal") == conjugated)
    with pytest.raises(ValueError):
        special_conformal_map(ga, b, variant="bogus")


def test_sct_composition():
    ga = _sct_algebra()
    b = [ga.gen("b%d" % mu) for mu in range(4)]
    c = [ga.gen("c%d" % mu) for mu in range(4)]
    kb = special_conformal_map(ga, b)
    kc = special_conformal_map(ga, c)
    inv = inversion_map(ga)
    tsum = translation_map(ga, [GrassmannRational(ga, u) + GrassmannRational(ga, v)
                                for u, v in zip(b, c)])
    assert kb.compose(kc) == inv.compose(tsum).compose(inv)
    assert inv.compose(inv) == RationalMap.identity(ga)


def test_sct_numeric_point():
    # evaluate both constructions at a rational point and compare
    ga = _sct_algebra()
    b = [Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(2)]
    x = [Fraction(1), Fraction(1, 5), Fraction(-2), Fraction(1, 7)]
    bs = [ga.scalar(GaussRational(v.numerator, 0, v.denominator)) for v in b]
    k = special_conformal_map(ga, bs)
    images = {ga.pres.generator("x%d" % mu).rank:
              GrassmannRational(ga, ga.scalar(
                  GaussRational(v.numerator, 0, v.denominator)))
              for mu, v in enumerate(x)}
    # direct formula with plain fractions
    bx = b[0] * x[0] - b[1] * x[1] - b[2] * x[2] - b[3] * x[3]
    x2 = x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2
    b2 = b[0] ** 2 - b[1] ** 2 - b[2] ** 2 - b[3] ** 2
    den = 1 + 2 * bx + b2 * x2
    for mu in range(4):
        want = (x[mu] + b[mu] * x2) / den
        got = substitute(ga, k.comps[mu].num, images) / \
            classical.substitute_product(ga, k.comps[mu].den, images)
        expected = GrassmannRational(ga, ga.scalar(
            GaussRational(want.numerator, 0, want.denominator)))
        assert (got - expected).is_zero()


def test_pauli_map():
    ga = coordinate_algebra()
    a = pauli_map(ga, [ga.gen("x%d" % mu) for mu in range(4)])
    assert (det2(a) - GrassmannRational(ga, minkowski_square(ga))).is_zero()
    m = pauli_map(ga, [0, 0, 1, 0])
    gi = classical.GI
    assert (m - GrassmannMatrix(ga, [[0, -gi], [gi, 0]])).is_zero()
    assert (det2(m) + 1).is_zero()
    e = pauli_map(ga, [1, 0, 0, 0])
    assert (e - GrassmannMatrix.identity(ga, 2)).is_zero()
    assert (det2(e) - 1).is_zero()


def _symbols2():
    sp = SymbolSpec.empty()
    sp.even_self(*["%s%d%d" % (p, i, j) for p in ("l", "r", "n", "L", "R",
                                                  "N", "g")
                   for i in (1, 2) for j in (1, 2)],
                 "a1", "a2", "a3", "a4", "e1", "e2", "e3", "e4")
    return sp.build()


def _m2(ga, p):
    return GrassmannMatrix(ga, [[ga.gen("%s11" % p), ga.gen("%s12" % p)],
                                [ga.gen("%s21" % p), ga.gen("%s22" % p)]])


def test_poincare_action_axiom():
    ga = _symbols2()
    L1, R1, N1 = _m2(ga, "l"), _m2(ga, "r"), _m2(ga, "n")
    L2, R2, N2 = _m2(ga, "L"), _m2(ga, "R"), _m2(ga, "N")
    A = GrassmannMatrix(ga, [[ga.gen("a1"), ga.gen("a2")],
                             [ga.gen("a3"), ga.gen("a4")]])
    eye = GrassmannMatrix.identity(ga, 2)
    zero = GrassmannMatrix.zeros(ga, 2, 2)
    assert (poincare_action(eye, eye, zero, A) - A).is_zero()
    step = poincare_action(L2, R2, N2, poincare_action(L1, R1, N1, A))
    combined = poincare_action(*poincare_compose((L2, R2, N2), (L1, R1, N1)),
                               A)
    assert (step - combined).is_zero()


def test_difference_determinant_covariance():
    ga = _symbols2()
    L, R, N = _m2(ga, "l"), _m2(ga, "r"), _m2(ga, "n")
    A1 = GrassmannMatrix(ga, [[ga.gen("a1"), ga.gen("a2")],
                              [ga.gen("a3"), ga.gen("a4")]])
    A2 = GrassmannMatrix(ga, [[ga.gen("e1"), ga.gen("e2")],
                              [ga.gen("e3"), ga.gen("e4")]])
    A1p = poincare_action(L, R, N, A1)
    A2p = poincare_action(L, R, N, A2)
    assert (det2(A1p - A2p) * det2(L) - det2(R) * det2(A1 - A2)).is_zero()
    # equal determinants: R = adj(L) has det R = det L
    adj = GrassmannMatrix(ga, [[L.rows[1][1], -L.rows[0][1]],
                               [-L.rows[1][0], L.rows[0][0]]])
    assert (det2(adj) - det2(L)).is_zero()
    B1 = poincare_action(L, adj, N, A1)
    B2 = poincare_action(L, adj, N, A2)
    assert (det2(B1 - B2) - det2(A1 - A2)).is_zero()


def test_big_cell_reduce():
    ga = _symbols2()
    top = _m2(ga, "l")
    bottom = _m2(ga, "n")
    P1 = GrassmannMatrix.vstack(top, bottom)
    red = big_cell_reduce(P1)
    # independent check: red * top == bottom (no inversion involved)
    assert (red * top - bottom).is_zero()
    g = _m2(ga, "g")
    assert (big_cell_reduce(P1 * g) - red).is_zero()
    pre = GrassmannMatrix.vstack(GrassmannMatrix.identity(ga, 2), bottom)
    assert (big_cell_reduce(pre) - bottom).is_zero()


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
        red = big_cell_reduce(P1)
        assert (red * top - P1.block(2, 4, 0, 2)).is_zero()


def _flag_symbols():
    sp = SymbolSpec.empty()
    sp.even_self("b11", "b12", "b21", "b22", "b31", "b32", "b41", "b42",
                 "b53", "s11", "s12", "s21", "s22")
    sp.odd_self("d13", "d23", "d33", "d43", "d51", "d52", "o1", "o2")
    return sp.build()


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
    red = superflag_reduce(P2 * S, P2)
    assert red.twistor_holds


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
    red = superflag_reduce(P2 * S, P2)
    assert red.twistor_holds and (red.B - red.A).is_zero()
    assert red.alpha.is_zero() and red.beta.is_zero()
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
    red = superflag_reduce(P1, P2std)
    assert red.twistor_holds
    assert (red.A - a).is_zero() and (red.B - b).is_zero()
    assert (red.alpha - alpha).is_zero() and (red.beta - beta).is_zero()


def suite_records(name):
    return {r.id: r for r in run_suite(name).records}


def test_flipped_twistor_sign_fails_generic(monkeypatch):
    # negative control: B = A + beta alpha in place of B = A - beta alpha
    reduce = classical.superflag_reduce

    def flipped(P1, P2):
        red = reduce(P1, P2)
        red.twistor_holds = (red.B - (red.A + red.beta * red.alpha)).is_zero()
        return red

    monkeypatch.setattr(classical, "superflag_reduce", flipped)
    records = suite_records("twistor")
    generic = records["generic"]
    assert not generic.verdict
    assert not generic.witness.startswith("exception:")
    # with the odd variables off, beta alpha = 0 and the sign cannot show
    assert records["even"].verdict


def test_twistor_preconditions():
    ga = _flag_symbols()
    g = ga.gen
    z = ga.zero()
    bad = GrassmannMatrix(ga, [
        [z, z, z], [z, z, z],
        [g("b31"), g("b32"), z], [g("b41"), g("b42"), z],
        [z, z, g("b53")]])
    with pytest.raises(ValueError):
        superflag_reduce(bad.block(0, 5, 0, 2), bad)


def _action_setup():
    sp = SymbolSpec.empty()
    sp.even("r11", "r12", "r21", "r22", "R11", "R12", "R21", "R22",
            "t12", "T12", "c12")
    sp.even_self("t11", "t22", "T11", "T22", "u", "U", "c11", "c22")
    sp.odd("x1", "x2", "X1", "X2", "th1", "th2")
    ga = sp.build()
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
    assert super_poincare_chiral_action(e, pt).equals(pt)


def test_chiral_action_preserves_reality():
    ga, g1, _g2, pt = _action_setup()
    assert (pt.C - pt.C.dagger()).is_zero()
    moved = super_poincare_chiral_action(g1, pt)
    assert (moved.C - moved.C.dagger()).is_zero()
    assert (moved.thetabar - conj_column(ga, moved.theta)).is_zero()


def test_chiral_action_composition():
    ga, g1, g2, pt = _action_setup()
    step = super_poincare_chiral_action(
        g2, super_poincare_chiral_action(g1, pt))
    direct = super_poincare_chiral_action(g2.compose(g1), pt)
    assert step.equals(direct)


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
    assert g1.equals(again)


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
        return supercommutative_presentation(gens)

    monkeypatch.setattr(classical, "_classical_image", even_image)
    bad = false_records("classical-limit")
    assert len(bad) == 10
    assert bad["slq41:a[2,5]*a[1,5]"] == "2*a[1,5]*a[2,5]"
    assert "chiral:tau[5,2]*tau[5,1]" in bad


def test_missing_x2_term_fails_conformal_algebra(monkeypatch):
    # K_mu built without its -x^2 d_mu term: the P|K brackets leave the
    # span, since x^2 enters only there
    monkeypatch.setattr(classical, "minkowski_square",
                        lambda ga, vec=None: ga.zero())
    conformal_basis.cache_clear()
    try:
        bad = false_records("conformal-algebra")
    finally:
        monkeypatch.undo()
        conformal_basis.cache_clear()
    assert set(bad) == {"bracket:P%d|K%d" % (mu, nu)
                        for mu in range(4) for nu in range(4)}


def test_wrong_metric_fails_pauli_metric(monkeypatch):
    monkeypatch.setattr(classical, "METRIC", (1, -1, 1, -1))
    assert set(false_records("pauli-metric")) == {"determinant-identity"}


def test_wrong_action_fails_poincare_action(monkeypatch):
    # A -> N + R A L in place of N + R A L^-1
    monkeypatch.setattr(classical, "poincare_action",
                        lambda L, R, N, A: N + R * A * L)
    assert set(false_records("poincare-action")) == \
        {"axiom", "covariance", "metric-preserved"}


def test_wrong_half_fails_poincare_reality(monkeypatch):
    monkeypatch.setattr(classical, "HALF", GaussRational(1, 0, 3))
    assert set(false_records("poincare-reality")) == \
        {"fixed-point", "displayed-conditions"}
