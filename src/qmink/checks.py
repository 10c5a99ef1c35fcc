"""Suite definitions: every machine-checked claim, one record each.

A suite is a list of (id, statement, anchor, thunk); thunks return
(verdict, witness) and run one after another, each timed on its own.
One rule holds for every suite: the builder only builds what its
records share, the cached singletons (presentations, the closure table,
the localization, the conformal basis) and the suite's own symbols and
elements, so that no record pays for them; each thunk computes its own
verdict.  So a record's seconds are the cost of its claim, and an
exception fails that record alone.  The closure table is such a shared
object, since the localization is built from it: grassmannian-closure's
records read the entries it derived.
"""

from __future__ import annotations

import time

from . import classical, realforms
from .algebra import Element, overlap_words, resolve_overlap
from .grassmann import GrassmannMatrix, GrassmannRational, symbols
from .minkowski import (build_chiral_presentation, closure_table,
                        coaction_membership, cofactor_proportional_to,
                        localized, minor_set, presentation_rules,
                        substituted_residual, substituted_span_dimension,
                        supercommutative_dimension)
from .reports import CheckRecord, SuiteReport
from .scalars import ONE
from .supergroup import (MINOR_NAMES, MINOR_ORDER, build_slq41, comultiply,
                         general_minor)


def _equal(a, b):
    """(a == b, witness); the witness, built only when they differ, names
    the differing components, entries or fields, or prints a - b."""
    if a == b:
        return True, ""
    if isinstance(a, GrassmannRational):  # a - b, over its denominator
        t = list(map(Element.to_text, ((d := a - b).num, *d.den)))
        return False, "difference " + ("(%s)" if d.den else "%s") % ")/(".join(t)
    if isinstance(a, classical.RationalMap):
        pa, pb = ({"x%d" % mu: c for mu, c in enumerate(m.comps)}
                  for m in (a, b))
    elif isinstance(a, GrassmannMatrix):
        pa, pb = ({"(%d,%d)" % (i + 1, j + 1): x for i, r in enumerate(m.rows)
                   for j, x in enumerate(r)} for m in (a, b))
    elif isinstance(a, dict):  # an sl(4|1) matrix: (i, j) -> entry
        pa, pb = ({"(%d,%d)" % (i + 1, j + 1): x
                   for (i, j), x in m.items()} for m in (a, b))
    else:  # a SuperPoincareElement or ChiralPoint: its attributes
        pa, pb = vars(a), vars(b)
    return False, "differ at " + ", ".join(
        k for k in sorted(pa.keys() | pb.keys()) if not pa.get(k) == pb.get(k))


def _vanishes(x):
    """(x is zero, witness); the witness, the printed x, is built only
    when x is not zero."""
    return (True, "") if x.is_zero() else (False, x.to_text())


def _all_hold(conditions):
    """(all hold, witness naming the failing ones); name -> truth value."""
    failed = [name for name, ok in conditions.items() if not ok]
    return (False, "fails: " + "; ".join(failed)) if failed else (True, "")


# -- quantum suites ---------------------------------------------------------


def _overlap_records(pres, anchor):
    """One record per length-3 overlap ambiguity of pres."""
    checks = []
    for word in overlap_words(pres):
        text = pres.word_text(word)

        def thunk(word=word):
            return _vanishes(Element(pres, resolve_overlap(pres, word)))

        checks.append(("overlap:%s" % text,
                       "both reductions of %s agree" % text, anchor, thunk))
    return checks


def _pbw_records(pres, n_even, n_odd, top, anchor, note=""):
    """Degree-d normal word counts of pres, d = 1..top, against the count
    of a free supercommutative algebra on n_even + n_odd variables."""
    checks = []
    for d in range(1, top + 1):
        expected = supercommutative_dimension(n_even, n_odd, d)

        def thunk(d=d, expected=expected):
            got = pres.pbw_dimension(d)
            return (got == expected,
                    "degree %d count %d != %d" % (d, got, expected))

        checks.append(("pbw:%d" % d,
                       "degree-%d normal words number %d (%s%d even + %d odd "
                       "variables)" % (d, expected, note, n_even, n_odd),
                       anchor, thunk))
    return checks


def _suite_manin_confluence():
    pres = build_slq41()
    return (_overlap_records(pres, "diamond lemma overlap ambiguity")
            + _pbw_records(pres, 17, 8, 4, "PBW basis dimension",
                           note="classical count, "))


def _suite_grassmannian_closure():
    names = MINOR_NAMES
    checks = []
    for (a, b), entry in sorted(closure_table().items()):
        if entry.kind == "square":
            stmt = "%s^2 lies in the span of sorted minor products" % names[a]
        elif entry.kind == "trivial":
            stmt = "%s commutes with itself" % names[a]
        else:
            stmt = "%s*%s reorders inside the minor span" % (names[b], names[a])

        def thunk(entry=entry):
            return entry.ok, entry.witness

        checks.append(("pair:%s|%s" % (names[a], names[b]), stmt,
                       "closure of quantum minor commutation relations",
                       thunk))
    return checks


def _suite_minkowski_presentation():
    localized()  # built here, so that no relation record pays for it
    checks = []
    seen = {}
    for family, stmt, lhs, rhs in presentation_rules():
        seen[family] = seen.get(family, 0) + 1
        rid = "%s:%d" % (family, seen[family])

        def thunk(lhs=lhs, rhs=rhs):
            return _vanishes(substituted_residual(lhs, rhs))

        checks.append((rid, "%s holds under the D-substitution" % stmt,
                       "chiral Minkowski relation family '%s'" % family,
                       thunk))
    return checks


def _suite_presentation_confluence():
    pres = build_chiral_presentation()
    localized()  # built here, so that no span record pays for it
    checks = (_overlap_records(pres, "abstract chiral presentation overlap")
              + _pbw_records(pres, 4, 2, 3, "abstract chiral PBW dimension"))
    for d in (1, 2, 3):
        def thunk(d=d):
            abstract = pres.pbw_dimension(d)
            image = substituted_span_dimension(d)
            return (abstract == image,
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
    for name, qm in zip(MINOR_NAMES, minors):
        def thunk(qm=qm):
            failing = [pres.word_text(u) for u, found
                       in coaction_membership(qm).items() if found is None]
            return not failing, "failing first-slot words: %s" % failing

        checks.append(("membership:%s" % name,
                       "second tensor slots of Delta(%s) lie in the minor "
                       "span" % name,
                       "coaction restricts to the quantum Grassmannian",
                       thunk))

    def cofactor_thunk():
        rows = coaction_membership(minors[0])
        for mi, cols in enumerate(MINOR_ORDER):
            if cols == (5, 5):
                continue
            target = general_minor((1, 2), cols)
            if cofactor_proportional_to(rows, mi, target) is None:
                return False, "cofactor of %s is not proportional to " \
                    "Dc[12;%d%d]" % ((MINOR_NAMES[mi],) + cols)
        return True, ""

    checks.append(("cofactor-pattern:D[1,2]",
                   "first-slot cofactors of Delta(D[1,2]) are the "
                   "column-pair minors Dc[12;kl]",
                   "quantum Cauchy-Binet pattern", cofactor_thunk))
    # Delta(lhs) = Delta(rhs) for every rule pins down all the sign
    # conventions of the comultiplication at once
    for lhs, rhs in sorted(pres.rules.items()):
        text = pres.word_text(lhs)

        def thunk(lhs=lhs, rhs=rhs):
            dl = comultiply(Element(pres, {lhs: ONE}))
            dr = comultiply(Element(pres, dict(rhs)))
            if dl == dr:
                return True, ""
            # the difference is only the failing record's witness
            return _vanishes(dl - dr)

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
                return _vanishes(classical.specialize_q1(el))

            checks.append(("%s:%s" % (tag, text),
                           "rule at %s becomes supercommutativity at q=1"
                           % text,
                           "classical limit of the quantum relations", thunk))
    return checks


# -- classical suites ---------------------------------------------------------


def _suite_conformal_algebra():
    names = [vf.name for vf in classical.conformal_basis()[1]]
    checks = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            def thunk(i=i, j=j):
                if classical.bracket_coordinates(i, j) is None:
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
        return _equal(k0, classical.RationalMap.identity(ga))

    def inversion_identity():
        k = classical.special_conformal_map(ga, b)
        return _equal(k, inv.compose(tb).compose(inv))

    def literal_fails():
        k = classical.special_conformal_map(ga, b, variant="literal")
        return (not (k == inv.compose(tb).compose(inv)),
                "the literal variant satisfies the identity")

    def composition():
        k1 = classical.special_conformal_map(ga, b)
        k2 = classical.special_conformal_map(ga, c)
        tsum = classical.translation_map(
            ga, [GrassmannRational(ga, x) + GrassmannRational(ga, y)
                 for x, y in zip(b, c)])
        return _equal(k1.compose(k2), inv.compose(tsum).compose(inv))

    def involution():
        return _equal(inv.compose(inv), classical.RationalMap.identity(ga))

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
        return _equal(classical.det2(a), GrassmannRational(ga, x2))

    def sigma2_example():
        m = classical.pauli_map(ga, [0, 0, 1, 0])
        gi = classical.GI
        want = GrassmannMatrix(ga, [[0, -gi], [gi, 0]])
        return _all_hold({"matrix [[0,-i],[i,0]]": m == want,
                          "determinant -1": classical.det2(m) == -1})

    def unit_example():
        m = classical.pauli_map(ga, [1, 0, 0, 0])
        return _all_hold({"identity": m == GrassmannMatrix.identity(ga, 2),
                          "determinant 1": classical.det2(m) == 1})

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
    return symbols(real=["%s%d%d" % (p, i, j)
                         for p in ("l", "r", "n", "L", "R", "N", "g", "a", "e")
                         for i in (1, 2) for j in (1, 2)])


def _suite_poincare_action():
    ga = _poincare_symbols()

    def m2(p):
        return GrassmannMatrix(ga, [[ga.gen("%s11" % p), ga.gen("%s12" % p)],
                                    [ga.gen("%s21" % p), ga.gen("%s22" % p)]])

    L1, R1, N1 = m2("l"), m2("r"), m2("n")
    L2, R2, N2 = m2("L"), m2("R"), m2("N")
    A1, A2 = m2("a"), m2("e")

    def axiom():
        step = classical.poincare_action(
            L2, R2, N2, classical.poincare_action(L1, R1, N1, A1))
        lc, rc, nc = classical.poincare_compose((L2, R2, N2), (L1, R1, N1))
        return _equal(step, classical.poincare_action(lc, rc, nc, A1))

    def identity_action():
        eye = GrassmannMatrix.identity(ga, 2)
        zero = GrassmannMatrix.zeros(ga, 2, 2)
        return _equal(classical.poincare_action(eye, eye, zero, A1), A1)

    def covariance():
        a1p = classical.poincare_action(L1, R1, N1, A1)
        a2p = classical.poincare_action(L1, R1, N1, A2)
        lhs = classical.det2(a1p - a2p) * classical.det2(L1)
        rhs = classical.det2(R1) * classical.det2(A1 - A2)
        return _equal(lhs, rhs)

    def equal_dets():
        adj = GrassmannMatrix(ga, [[L1.rows[1][1], -L1.rows[0][1]],
                                   [-L1.rows[1][0], L1.rows[0][0]]])
        a1p = classical.poincare_action(L1, adj, N1, A1)
        a2p = classical.poincare_action(L1, adj, N1, A2)
        return _all_hold({
            "det R = det L": classical.det2(adj) == classical.det2(L1),
            "det(A'1 - A'2) = det(A1 - A2)":
                classical.det2(a1p - a2p) == classical.det2(A1 - A2)})

    def column_invariance():
        p1 = GrassmannMatrix.vstack(m2("l"), m2("n"))
        g = m2("g")
        return _equal(classical.big_cell_reduce(p1 * g),
                      classical.big_cell_reduce(p1))

    def pre_reduced():
        p1 = GrassmannMatrix.vstack(GrassmannMatrix.identity(ga, 2), A1)
        return _equal(classical.big_cell_reduce(p1), A1)

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
    ga = symbols(real=("b11", "b12", "b21", "b22", "b31", "b32", "b41", "b42",
                       "b53", "s11", "s12", "s21", "s22"),
                 real_odd=("d13", "d23", "d33", "d43", "d51", "d52", "o1",
                           "o2"))
    g = ga.gen

    def flag_pair(odd):
        """(P2 S, P2); the odd entries are symbols, or zero when not odd."""
        o = g if odd else (lambda _name: 0)
        p2 = GrassmannMatrix(ga, [
            [g("b11"), g("b12"), o("d13")],
            [g("b21"), g("b22"), o("d23")],
            [g("b31"), g("b32"), o("d33")],
            [g("b41"), g("b42"), o("d43")],
            [o("d51"), o("d52"), g("b53")]])
        s = GrassmannMatrix(ga, [[g("s11"), g("s12")],
                                 [g("s21"), g("s22")],
                                 [o("o1"), o("o2")]])
        return p2 * s, p2

    def generic():
        A, alpha, B, beta = classical.superflag_reduce(*flag_pair(True))
        return _equal(B, A - beta * alpha)

    def even_only():
        A, alpha, B, beta = classical.superflag_reduce(*flag_pair(False))
        return _all_hold({"B = A - beta alpha": B == A - beta * alpha,
                          "B = A": B == A, "alpha = 0": alpha.is_zero(),
                          "beta = 0": beta.is_zero()})

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
        A, got_alpha, B, got_beta = classical.superflag_reduce(p1, p2)
        return _all_hold({"B = A - beta alpha":
                          B == A - got_beta * got_alpha,
                          "A": A == a, "B": B == b, "alpha": got_alpha == alpha,
                          "beta": got_beta == beta})

    return [
        ("generic", "B = A - beta alpha for a generic symbolic flag pair",
         "twistor relations on the super big cell", generic),
        ("even", "with odd variables off, B = A and alpha = beta = 0",
         "bosonic truncation", even_only),
        ("pre-reduced", "standard-form inputs are read off unchanged",
         "twistor relations on the super big cell", pre_reduced),
    ]


def _super_action_setup():
    ga = symbols(even=("r11", "r12", "r21", "r22", "R11", "R12", "R21", "R22",
                       "t12", "T12", "c12"),
                 real=("t11", "t22", "T11", "T22", "u", "U", "c11", "c22"),
                 odd=("x1", "x2", "X1", "X2", "th1", "th2"))
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
        return _equal(classical.super_poincare_chiral_action(e, pt), pt)

    def reality():
        moved = classical.super_poincare_chiral_action(g1, pt)
        return _all_hold({"C hermitian": moved.C == moved.C.dagger(),
                          "thetabar = conj(theta)":
                          moved.thetabar == moved.theta.star()})

    def composition():
        step = classical.super_poincare_chiral_action(
            g2, classical.super_poincare_chiral_action(g1, pt))
        direct = classical.super_poincare_chiral_action(g2.compose(g1), pt)
        return _equal(step, direct)

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
            return _equal(realforms.sigma(realforms.sigma(x)), x)

        checks.append(("involution:%s" % name,
                       "sigma^2 fixes the basis element %s" % name,
                       "conjugation defining su(2,2|1)", thunk))

    def antilinear():
        failures = realforms.antilinearity()
        return not failures, "failures: %s" % failures[:5]

    checks.append(("antilinearity",
                   "sigma(iX) = -i sigma(X) and the trace condition is "
                   "preserved on the whole basis",
                   "antilinearity of the conjugation", antilinear))

    def compat():
        failures = realforms.bracket_compatibility()
        return not failures, "failing pairs: %s" % failures[:5]

    checks.append(("bracket-compatibility",
                   "sigma([X,Y]) = [sigma X, sigma Y] for all 576 ordered "
                   "basis pairs (supercommutator)",
                   "conjugation is a superalgebra map", compat))
    return checks


def _suite_su221_dimensions():
    def dims():
        even, odd = map(len, realforms.fixed_point_bases())
        return (even, odd) == (16, 8), "got (%d, %d)" % (even, odd)

    def conditions():
        failures = realforms.su22_conditions_hold()
        return not failures, "; ".join(failures)

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
        return _equal(gen.conjugated().conjugated(), gen)

    def fixed():
        return _equal(red.conjugated(), red)

    def displayed():
        n = red.N()
        return _all_hold({"L = R^+-1": red.L == red.R.dagger().inverse(),
                          "phi = chi^+": red.phi == red.chi.dagger(),
                          "d conj(d) = 1": red.d * red.d.star() == 1,
                          "N - N^+ = L^+-1 chi^+ chi L^-1":
                              n - n.dagger() == red.S()})

    def t_form():
        t = red.T()
        return _equal(t, t.dagger())

    def equivalence():
        s = red.S()
        return _equal(s.dagger() + s, GrassmannMatrix.zeros(ga, 2, 2))

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
SUITE_NAMES = tuple(_SUITE_BUILDERS)


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

    Checks always run one after another.  ``serial`` changes nothing: it
    stays only because the benchmark (perfbench/child.py) passes it.
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
        raise ValueError(
            "unknown suite %r (expected one of %s or 'all')"
            % (name, ", ".join(SUITE_NAMES)))
    try:
        checks = builder()
    except Exception as exc:  # the other suites of 'all' still run
        return SuiteReport(name, [CheckRecord(
            "builder", "the suite's checks are built", "suite construction",
            False, "exception: %r" % (exc,))])
    return SuiteReport(name, _run_checks(checks))
