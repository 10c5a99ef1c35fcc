"""Suite definitions: every machine-checked claim, one record each.

A suite is a list of (id, statement, anchor, thunk); thunks return
(verdict, witness) and run one after another, each timed on its own.
Heavy shared objects (presentations, the closure table, the
localization) are cached singletons warmed while the suite is being
assembled, so no record pays for building them.
"""

from __future__ import annotations

import time

from . import classical, realforms
from .algebra import Element, overlap_words, resolve_overlap
from .grassmann import GrassmannMatrix, GrassmannRational, SymbolSpec
from .minkowski import (build_chiral_presentation, closure_table,
                        coaction_membership, cofactor_proportional_to,
                        localized, minor_set, substituted_span_dimension,
                        supercommutative_dimension, verify_presentation)
from .reports import CheckRecord, SuiteReport
from .scalars import ONE
from .supergroup import build_slq41, comultiply, general_minor

SUITE_NAMES = (
    "manin-confluence",
    "grassmannian-closure",
    "minkowski-presentation",
    "presentation-confluence",
    "coaction",
    "classical-limit",
    "conformal-algebra",
    "sct-inversion",
    "pauli-metric",
    "poincare-action",
    "twistor",
    "super-action",
    "sigma-involution",
    "su221-dimensions",
    "poincare-reality",
)


def _pass_fail(flag, witness=""):
    return (bool(flag), witness if not flag else "")


# -- quantum suites ---------------------------------------------------------


def _suite_manin_confluence():
    pres = build_slq41()
    checks = []
    for word in overlap_words(pres):
        text = pres.word_text(word)

        def thunk(word=word):
            ok, diff = resolve_overlap(pres, word)
            return _pass_fail(ok, Element(pres, diff).to_text())

        checks.append(("overlap:%s" % text,
                       "both reductions of %s agree" % text,
                       "diamond lemma overlap ambiguity", thunk))
    for d in (1, 2, 3, 4):
        expected = supercommutative_dimension(17, 8, d)

        def thunk(d=d, expected=expected):
            got = pres.pbw_dimension(d)
            return _pass_fail(got == expected,
                              "degree %d count %d != %d" % (d, got, expected))

        checks.append(("pbw:%d" % d,
                       "degree-%d normal words number %d (classical count, "
                       "17 even + 8 odd variables)" % (d, expected),
                       "PBW basis dimension", thunk))
    return checks


def _suite_grassmannian_closure():
    table = closure_table()
    names = [m.name for m in minor_set()]
    checks = []
    for (a, b), entry in sorted(table.entries.items()):
        if entry.kind == "square":
            stmt = "%s^2 lies in the span of sorted minor products" % names[a]
        elif entry.kind == "trivial":
            stmt = "%s commutes with itself" % names[a]
        else:
            stmt = "%s*%s reorders inside the minor span" % (names[b], names[a])

        def thunk(entry=entry):
            return _pass_fail(entry.ok, entry.witness)

        checks.append(("pair:%s|%s" % (names[a], names[b]), stmt,
                       "closure of quantum minor commutation relations",
                       thunk))
    return checks


def _suite_minkowski_presentation():
    report = verify_presentation(localized())
    checks = []
    seen = {}
    for family, stmt, ok, witness in report.records:
        seen[family] = seen.get(family, 0) + 1
        rid = "%s:%d" % (family, seen[family])

        def thunk(ok=ok, witness=witness):
            return _pass_fail(ok, witness)

        checks.append((rid, "%s holds under the D-substitution" % stmt,
                       "chiral Minkowski relation family '%s'" % family,
                       thunk))
    return checks


def _suite_presentation_confluence():
    pres = build_chiral_presentation()
    loc = localized()
    checks = []
    for word in overlap_words(pres):
        text = pres.word_text(word)

        def thunk(word=word):
            ok, diff = resolve_overlap(pres, word)
            return _pass_fail(ok, Element(pres, diff).to_text())

        checks.append(("overlap:%s" % text,
                       "both reductions of %s agree" % text,
                       "abstract chiral presentation overlap", thunk))
    for d in (1, 2, 3):
        expected = supercommutative_dimension(4, 2, d)

        def thunk(d=d, expected=expected):
            got = pres.pbw_dimension(d)
            return _pass_fail(got == expected,
                              "degree %d count %d != %d" % (d, got, expected))

        checks.append(("pbw:%d" % d,
                       "degree-%d normal words number %d (4 even + 2 odd "
                       "variables)" % (d, expected),
                       "abstract chiral PBW dimension", thunk))
    for d in (1, 2, 3):
        def thunk(d=d):
            abstract = pres.pbw_dimension(d)
            image = substituted_span_dimension(d, loc)
            return _pass_fail(abstract == image,
                              "abstract %d != substituted %d" % (abstract, image))

        checks.append(("span:%d" % d,
                       "degree-%d component of the abstract presentation "
                       "matches the span of the substituted images" % d,
                       "no missing chiral relations up to degree 3", thunk))
    return checks


def _suite_coaction():
    pres = build_slq41()
    minors = minor_set()
    checks = []
    for qm in minors:
        def thunk(qm=qm):
            rec = coaction_membership(qm)
            return _pass_fail(rec.member,
                              "failing first-slot words: %s"
                              % [pres.word_text(w) for w in rec.failing_rows])

        checks.append(("membership:%s" % qm.name,
                       "second tensor slots of Delta(%s) lie in the minor "
                       "span" % qm.name,
                       "coaction restricts to the quantum Grassmannian",
                       thunk))

    def cofactor_thunk():
        rec = coaction_membership(minors[0])
        for (name, cof), m in zip(rec.cofactors, minors):
            if m.rows == (5, 5) or not cof:
                continue
            target = general_minor((1, 2), m.rows)
            if cofactor_proportional_to(cof, target.value) is None:
                return False, "cofactor of %s is not proportional to %s" \
                    % (name, target.name)
        return True, ""

    checks.append(("cofactor-pattern:D[1,2]",
                   "first-slot cofactors of Delta(D[1,2]) are the "
                   "column-pair minors Dc[12;kl]",
                   "quantum Cauchy-Binet pattern", cofactor_thunk))
    for lhs, rhs in sorted(pres.rules.items()):
        text = pres.word_text(lhs)

        def thunk(lhs=lhs, rhs=rhs):
            dl = comultiply(Element(pres, {lhs: ONE}))
            dr = comultiply(Element(pres, dict(rhs)))
            diff = dl - dr
            return _pass_fail(not diff.terms, diff.to_text())

        checks.append(("homomorphism:%s" % text,
                       "Delta respects the rule at %s" % text,
                       "comultiplication is an algebra map", thunk))
    return checks


def _suite_classical_limit():
    checks = []
    for pres, tag in ((build_slq41(), "slq41"),
                      (build_chiral_presentation(), "chiral")):
        for lhs, rhs in sorted(pres.rules.items()):
            text = pres.word_text(lhs)

            def thunk(pres=pres, lhs=lhs, rhs=rhs):
                el = Element(pres, {lhs: ONE}) - Element(pres, dict(rhs))
                img = classical.specialize_q1(el)
                return _pass_fail(not img.terms, img.to_text())

            checks.append(("%s:%s" % (tag, text),
                           "rule at %s becomes supercommutativity at q=1"
                           % text,
                           "classical limit of the quantum relations", thunk))
    return checks


# -- classical suites ---------------------------------------------------------


def _suite_conformal_algebra():
    table = classical.bracket_closure_table()
    names = table.names
    checks = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            def thunk(i=i, j=j):
                if (i, j) not in table.table:
                    return False, "bracket [%s,%s] left the span" \
                        % (names[i], names[j])
                return True, ""

            checks.append(("bracket:%s|%s" % (names[i], names[j]),
                           "[%s, %s] lies in the 15-generator span"
                           % (names[i], names[j]),
                           "conformal algebra closure", thunk))
    return checks


def _suite_sct_inversion():
    ga = classical.coordinate_algebra(
        extra=("b0", "b1", "b2", "b3", "c0", "c1", "c2", "c3"))
    b = [ga.gen("b%d" % mu) for mu in range(4)]
    c = [ga.gen("c%d" % mu) for mu in range(4)]
    inv = classical.inversion_map(ga)
    tb = classical.translation_map(
        ga, [GrassmannRational(ga, x) for x in b])

    def zero_case():
        k0 = classical.special_conformal_map(ga, [0] * 4)
        return _pass_fail(k0 == classical.RationalMap.identity(ga))

    def inversion_identity():
        k = classical.special_conformal_map(ga, b)
        return _pass_fail(k == inv.compose(tb).compose(inv))

    def literal_fails():
        k = classical.special_conformal_map(ga, b, variant="literal")
        return _pass_fail(not (k == inv.compose(tb).compose(inv)))

    def composition():
        k1 = classical.special_conformal_map(ga, b)
        k2 = classical.special_conformal_map(ga, c)
        tsum = classical.translation_map(
            ga, [GrassmannRational(ga, x) + GrassmannRational(ga, y)
                 for x, y in zip(b, c)])
        return _pass_fail(k1.compose(k2) == inv.compose(tsum).compose(inv))

    def involution():
        return _pass_fail(inv.compose(inv) == classical.RationalMap.identity(ga))

    return [
        ("zero-parameter", "the special conformal map at b = 0 is the identity",
         "special conformal transformation", zero_case),
        ("inversion-identity",
         "the special conformal map equals inversion o translation o inversion",
         "conjugation of translations by inversion", inversion_identity),
        ("literal-denominator",
         "the literal denominator variant (coefficient 2 on b^2 x^2) fails "
         "the inversion identity", "suspected typo documented",
         literal_fails),
        ("composition",
         "special conformal maps compose additively in the parameter",
         "one-parameter subgroup conjugate to translations", composition),
        ("inversion-involution", "inversion is an involution as a rational map",
         "inversion map", involution),
    ]


def _suite_pauli_metric():
    ga = classical.coordinate_algebra()

    def det_identity():
        a = classical.pauli_map(ga, [ga.gen("x%d" % mu) for mu in range(4)])
        x2 = classical.minkowski_square(ga)
        return _pass_fail((classical.det2(a) - GrassmannRational(ga, x2))
                          .is_zero())

    def sigma2_example():
        m = classical.pauli_map(ga, [0, 0, 1, 0])
        gi = classical.GI
        want = GrassmannMatrix(ga, [[0, -gi], [gi, 0]])
        ok = (m - want).is_zero() and \
            (classical.det2(m) - GrassmannRational(
                ga, ga.scalar(-1))).is_zero()
        return _pass_fail(ok)

    def unit_example():
        m = classical.pauli_map(ga, [1, 0, 0, 0])
        ok = (m - GrassmannMatrix.identity(ga, 2)).is_zero() and \
            (classical.det2(m) - GrassmannRational(ga, ga.one())).is_zero()
        return _pass_fail(ok)

    return [
        ("determinant-identity",
         "det(x^mu sigma_mu) equals the Minkowski quadratic form symbolically",
         "Pauli matrix coordinates on the big cell", det_identity),
        ("sigma2", "x = (0,0,1,0) maps to [[0,-i],[i,0]] with determinant -1",
         "second Pauli matrix", sigma2_example),
        ("sigma0", "x = (1,0,0,0) maps to the identity with determinant 1",
         "zeroth Pauli matrix", unit_example),
    ]


def _poincare_symbols():
    sp = SymbolSpec.empty()
    sp.even_self(*["%s%d%d" % (p, i, j) for p in ("l", "r", "n", "L", "R", "N",
                                                  "g")
                   for i in (1, 2) for j in (1, 2)],
                 *["a%d" % k for k in range(1, 5)],
                 *["e%d" % k for k in range(1, 5)])
    return sp.build()


def _suite_poincare_action():
    ga = _poincare_symbols()

    def m2(p):
        return GrassmannMatrix(ga, [[ga.gen("%s11" % p), ga.gen("%s12" % p)],
                                    [ga.gen("%s21" % p), ga.gen("%s22" % p)]])

    L1, R1, N1 = m2("l"), m2("r"), m2("n")
    L2, R2, N2 = m2("L"), m2("R"), m2("N")
    A1 = GrassmannMatrix(ga, [[ga.gen("a1"), ga.gen("a2")],
                              [ga.gen("a3"), ga.gen("a4")]])
    A2 = GrassmannMatrix(ga, [[ga.gen("e1"), ga.gen("e2")],
                              [ga.gen("e3"), ga.gen("e4")]])

    def axiom():
        step = classical.poincare_action(
            L2, R2, N2, classical.poincare_action(L1, R1, N1, A1))
        lc, rc, nc = classical.poincare_compose((L2, R2, N2), (L1, R1, N1))
        return _pass_fail((step - classical.poincare_action(lc, rc, nc, A1))
                          .is_zero())

    def identity_action():
        eye = GrassmannMatrix.identity(ga, 2)
        zero = GrassmannMatrix.zeros(ga, 2, 2)
        return _pass_fail((classical.poincare_action(eye, eye, zero, A1) - A1)
                          .is_zero())

    def covariance():
        a1p = classical.poincare_action(L1, R1, N1, A1)
        a2p = classical.poincare_action(L1, R1, N1, A2)
        lhs = classical.det2(a1p - a2p) * classical.det2(L1)
        rhs = classical.det2(R1) * classical.det2(A1 - A2)
        return _pass_fail((lhs - rhs).is_zero())

    def equal_dets():
        adj = GrassmannMatrix(ga, [[L1.rows[1][1], -L1.rows[0][1]],
                                   [-L1.rows[1][0], L1.rows[0][0]]])
        a1p = classical.poincare_action(L1, adj, N1, A1)
        a2p = classical.poincare_action(L1, adj, N1, A2)
        ok = (classical.det2(adj) - classical.det2(L1)).is_zero() and \
            (classical.det2(a1p - a2p) - classical.det2(A1 - A2)).is_zero()
        return _pass_fail(ok)

    def column_invariance():
        p1 = GrassmannMatrix.vstack(m2("l"), m2("n"))
        g = m2("g")
        return _pass_fail((classical.big_cell_reduce(p1 * g)
                           - classical.big_cell_reduce(p1)).is_zero())

    def pre_reduced():
        p1 = GrassmannMatrix.vstack(GrassmannMatrix.identity(ga, 2), A1)
        return _pass_fail((classical.big_cell_reduce(p1) - A1).is_zero())

    return [
        ("identity", "the identity group element acts trivially",
         "Poincare action on the big cell", identity_action),
        ("axiom", "acting twice equals acting by the block-product element",
         "action axiom", axiom),
        ("covariance",
         "det(A'1 - A'2) det(L) = det(R) det(A1 - A2) symbolically",
         "difference-determinant covariance", covariance),
        ("metric-preserved", "the determinant metric is preserved when "
         "det L = det R", "Poincare invariance of the metric", equal_dets),
        ("column-invariance",
         "the big-cell representative is invariant under right GL(2) moves",
         "big cell reduction", column_invariance),
        ("pre-reduced", "a standard-form matrix reduces to its bottom block",
         "big cell reduction", pre_reduced),
    ]


def _suite_twistor():
    sp = SymbolSpec.empty()
    sp.even_self("b11", "b12", "b21", "b22", "b31", "b32", "b41", "b42",
                 "b53", "s11", "s12", "s21", "s22")
    sp.odd_self("d13", "d23", "d33", "d43", "d51", "d52", "o1", "o2")
    ga = sp.build()
    g = ga.gen

    def generic():
        p2 = GrassmannMatrix(ga, [
            [g("b11"), g("b12"), g("d13")],
            [g("b21"), g("b22"), g("d23")],
            [g("b31"), g("b32"), g("d33")],
            [g("b41"), g("b42"), g("d43")],
            [g("d51"), g("d52"), g("b53")]])
        s = GrassmannMatrix(ga, [[g("s11"), g("s12")],
                                 [g("s21"), g("s22")],
                                 [g("o1"), g("o2")]])
        red = classical.superflag_reduce(p2 * s, p2)
        return _pass_fail(red.twistor_holds)

    def even_only():
        z = ga.zero()
        p2 = GrassmannMatrix(ga, [
            [g("b11"), g("b12"), z],
            [g("b21"), g("b22"), z],
            [g("b31"), g("b32"), z],
            [g("b41"), g("b42"), z],
            [z, z, g("b53")]])
        s = GrassmannMatrix(ga, [[g("s11"), g("s12")],
                                 [g("s21"), g("s22")], [z, z]])
        red = classical.superflag_reduce(p2 * s, p2)
        ok = red.twistor_holds and (red.B - red.A).is_zero() \
            and red.alpha.is_zero() and red.beta.is_zero()
        return _pass_fail(ok)

    def pre_reduced():
        eye = GrassmannMatrix.identity(ga, 2)
        z = ga.zero()
        b = GrassmannMatrix(ga, [[g("b31"), g("b32")], [g("b41"), g("b42")]])
        beta = GrassmannMatrix(ga, [[g("d33")], [g("d43")]])
        alpha = GrassmannMatrix(ga, [[g("d51"), g("d52")]])
        a = b + beta * alpha
        p1 = GrassmannMatrix(ga, eye.rows + a.rows + alpha.rows)
        p2 = GrassmannMatrix(ga, [
            eye.rows[0] + [z], eye.rows[1] + [z],
            b.rows[0] + [beta.rows[0][0]], b.rows[1] + [beta.rows[1][0]],
            [z, z, ga.one()]])
        red = classical.superflag_reduce(p1, p2)
        ok = red.twistor_holds and (red.A - a).is_zero() \
            and (red.B - b).is_zero() and (red.alpha - alpha).is_zero() \
            and (red.beta - beta).is_zero()
        return _pass_fail(ok)

    return [
        ("generic", "B = A - beta alpha for a generic symbolic flag pair",
         "twistor relations on the super big cell", generic),
        ("even", "with odd variables off, B = A and alpha = beta = 0",
         "bosonic truncation", even_only),
        ("pre-reduced", "standard-form inputs are read off unchanged",
         "twistor relations on the super big cell", pre_reduced),
    ]


def _super_action_setup():
    sp = SymbolSpec.empty()
    sp.even("r11", "r12", "r21", "r22", "R11", "R12", "R21", "R22",
            "t12", "T12", "c12")
    sp.even_self("t11", "t22", "T11", "T22", "u", "U", "c11", "c22")
    sp.odd("x1", "x2", "X1", "X2", "th1", "th2")
    ga = sp.build()
    g1 = classical.real_group_element(
        ga, ("r11", "r12", "r21", "r22"), ("x1", "x2"),
        ("t11", "t12", "t22"), "u")
    g2 = classical.real_group_element(
        ga, ("R11", "R12", "R21", "R22"), ("X1", "X2"),
        ("T11", "T12", "T22"), "U")
    pt = classical.real_point(ga, ("c11", "c12", "c22"), ("th1", "th2"))
    return ga, g1, g2, pt


def _suite_super_action():
    ga, g1, g2, pt = _super_action_setup()

    def identity_action():
        eye = GrassmannMatrix.identity(ga, 2)
        zero2 = GrassmannMatrix.zeros(ga, 2, 2)
        e = classical.SuperPoincareElement(
            L=eye, M=zero2, R=eye,
            phi=GrassmannMatrix.zeros(ga, 2, 1),
            chi=GrassmannMatrix.zeros(ga, 1, 2),
            d=GrassmannRational(ga, ga.one()))
        return _pass_fail(classical.super_poincare_chiral_action(e, pt)
                          .equals(pt))

    def reality():
        moved = classical.super_poincare_chiral_action(g1, pt)
        ok = (moved.C - moved.C.dagger()).is_zero() and \
            (moved.thetabar - classical.conj_column(ga, moved.theta)).is_zero()
        return _pass_fail(ok)

    def composition():
        step = classical.super_poincare_chiral_action(
            g2, classical.super_poincare_chiral_action(g1, pt))
        direct = classical.super_poincare_chiral_action(g2.compose(g1), pt)
        return _pass_fail(step.equals(direct))

    return [
        ("identity", "the identity element acts trivially",
         "super Poincare action on chiral coordinates", identity_action),
        ("reality",
         "hermitian C and conjugate-paired theta are preserved by real "
         "group elements", "reality of the chiral action", reality),
        ("composition",
         "acting twice equals acting by the block-matrix product element",
         "super Poincare action composition", composition),
    ]


def _suite_sigma_involution():
    checks = []
    basis = realforms.sl41_basis()
    for name, x in basis:
        def thunk(x=x):
            img = realforms.sigma(realforms.sigma(x))
            return _pass_fail(img.sub(x).is_zero())

        checks.append(("involution:%s" % name,
                       "sigma^2 fixes the basis element %s" % name,
                       "conjugation defining su(2,2|1)", thunk))

    def antilinear():
        return _pass_fail(not realforms.sigma_is_involution())

    checks.append(("antilinearity",
                   "sigma(iX) = -i sigma(X) and the trace condition is "
                   "preserved on the whole basis",
                   "antilinearity of the conjugation", antilinear))

    def compat():
        failures = realforms.bracket_compatibility()
        return _pass_fail(not failures, "failing pairs: %s" % failures[:5])

    checks.append(("bracket-compatibility",
                   "sigma([X,Y]) = [sigma X, sigma Y] for all 576 ordered "
                   "basis pairs (supercommutator)",
                   "conjugation is a superalgebra map", compat))
    return checks


def _suite_su221_dimensions():
    def dims():
        even, odd = realforms.fixed_point_dimension()
        return _pass_fail((even, odd) == (16, 8),
                          "got (%d, %d)" % (even, odd))

    def conditions():
        _dims, failures = realforms.su22_conditions_hold()
        return _pass_fail(not failures, "; ".join(failures))

    return [
        ("fixed-point-dimensions",
         "the sigma fixed points have real dimensions (16, 8)",
         "su(2,2) + u(1) and the 8 odd directions", dims),
        ("defining-conditions",
         "every fixed-point basis element satisfies F p + p^+ F = 0, "
         "tr p purely imaginary, alpha = i F beta^+",
         "real-form defining conditions", conditions),
    ]


def _suite_poincare_reality():
    ga = realforms.poincare_group_algebra()
    gen = realforms.generic_element(ga)
    red = realforms.reduced_element(ga)

    def involutive():
        return _pass_fail(gen.conjugated().conjugated().equals(gen))

    def fixed():
        return _pass_fail(red.conjugated().equals(red))

    rep = realforms.poincare_reality_reduce(red)

    def displayed():
        return _pass_fail(rep.conditions_hold and rep.raw_condition_holds)

    def t_form():
        return _pass_fail(rep.t_hermitian)

    def equivalence():
        return _pass_fail(rep.equivalence_identity)

    return [
        ("involutive",
         "the supergroup conjugation applied twice is the identity on a "
         "generic element", "group-level conjugation", involutive),
        ("fixed-point",
         "a generic element satisfying the reduced reality conditions is a "
         "fixed point", "real super Poincare group", fixed),
        ("displayed-conditions",
         "the displayed conditions hold: L = R^+-1, phi = chi^+, d conj(d) "
         "= 1 and the raw M-form identity", "reality conditions", displayed),
        ("t-hermitian", "T = N - (1/2) L^+-1 chi^+ chi L^-1 is hermitian",
         "shifted translation block", t_form),
        ("equivalence",
         "L^+-1 chi^+ chi L^-1 is anti-hermitian, making the raw and "
         "T-forms of the condition equivalent",
         "equivalence of the two reality conditions", equivalence),
    ]


_SUITE_BUILDERS = {
    "manin-confluence": _suite_manin_confluence,
    "grassmannian-closure": _suite_grassmannian_closure,
    "minkowski-presentation": _suite_minkowski_presentation,
    "presentation-confluence": _suite_presentation_confluence,
    "coaction": _suite_coaction,
    "classical-limit": _suite_classical_limit,
    "conformal-algebra": _suite_conformal_algebra,
    "sct-inversion": _suite_sct_inversion,
    "pauli-metric": _suite_pauli_metric,
    "poincare-action": _suite_poincare_action,
    "twistor": _suite_twistor,
    "super-action": _suite_super_action,
    "sigma-involution": _suite_sigma_involution,
    "su221-dimensions": _suite_su221_dimensions,
    "poincare-reality": _suite_poincare_reality,
}


class UnknownSuiteError(ValueError):
    pass


def _run_checks(checks):
    records = []
    for cid, stmt, anchor, thunk in checks:
        t0 = time.perf_counter()
        try:
            verdict, witness = thunk()
        except Exception as exc:  # a crash is a failed check, not a crash
            verdict, witness = False, "exception: %r" % (exc,)
        dt = time.perf_counter() - t0
        records.append(CheckRecord(cid, stmt, anchor, bool(verdict),
                                   witness if not verdict else "", dt))
    return records


def run_suite(name, serial=True):
    """Run a named suite (or 'all'); report assembly is deterministic.

    Checks always run one after another; ``serial`` is accepted for
    older callers and ignored.
    """
    if name == "all":
        report = SuiteReport("all")
        for sub in SUITE_NAMES:
            for r in run_suite(sub).records:
                r.id = "%s/%s" % (sub, r.id)
                report.records.append(r)
        return report
    builder = _SUITE_BUILDERS.get(name)
    if builder is None:
        raise UnknownSuiteError(
            "unknown suite %r (expected one of %s or 'all')"
            % (name, ", ".join(SUITE_NAMES)))
    return SuiteReport(name, _run_checks(builder()))
