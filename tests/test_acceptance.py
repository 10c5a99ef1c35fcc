"""Acceptance criteria, one test per criterion.

Every check here is exact (symbolic); there are no numeric tolerances
to pin.  The stated runtime budgets are asserted where the criteria
give them: the 25-generator confluence check under 2 minutes and the
full CLI suite under 10 minutes.
"""

import json
import subprocess
import sys
import time

from qmink.algebra import check_confluence
from qmink.checks import run_suite
from qmink.classical import (bracket_closure_table, conj_column,
                             coordinate_algebra, det2, inversion_map,
                             minkowski_square, pauli_map, poincare_action,
                             poincare_compose, real_point,
                             special_conformal_map,
                             super_poincare_chiral_action, superflag_reduce,
                             translation_map)
from qmink.grassmann import GrassmannMatrix, GrassmannRational, SymbolSpec
from qmink.minkowski import (build_chiral_presentation, closure_table,
                             coaction_membership, localized, minor_set,
                             substituted_span_dimension,
                             supercommutative_dimension, verify_presentation)
from qmink.realforms import (bracket_compatibility, fixed_point_dimension,
                             generic_element, poincare_group_algebra,
                             poincare_reality_reduce, reduced_element,
                             sigma_is_involution)
from qmink.supergroup import build_slq41, comultiplication_respects_rules


def report(name, ok, detail=""):
    print("ACCEPTANCE %-28s %s %s" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s failed: %s" % (name, detail)


def test_manin_confluence():
    t0 = time.monotonic()
    rep = check_confluence(build_slq41())
    dt = time.monotonic() - t0
    ok = rep.ok and not rep.failures and dt < 120.0
    report("manin-confluence", ok,
           "(%d overlaps, 0 unresolved, %.1fs)" % (len(rep.overlaps), dt))


def test_pbw_dimensions():
    pres = build_slq41()
    expected = {d: supercommutative_dimension(17, 8, d) for d in (1, 2, 3, 4)}
    got = {d: pres.pbw_dimension(d) for d in (1, 2, 3, 4)}
    ok = got == expected and got[2] == 317
    report("pbw-dimensions", ok, "(%s)" % got)


def test_grassmannian_closure():
    table = closure_table()
    ok = table.all_ok and len(table.entries) == 66
    report("grassmannian-closure", ok,
           "(%d/66 entries resolve)" %
           sum(1 for e in table.entries.values() if e.ok))


def test_chiral_minkowski_presentation():
    rep = verify_presentation(localized())
    pres = build_chiral_presentation()
    conf = check_confluence(pres)
    dims_ok = all(substituted_span_dimension(d) == pres.pbw_dimension(d)
                  for d in (1, 2, 3))
    ok = rep.ok and conf.ok and dims_ok
    report("minkowski-presentation", ok,
           "(%d relation instances, confluent=%s, degrees 1..3 match=%s)"
           % (len(rep.records), conf.ok, dims_ok))


def test_coaction():
    members = [coaction_membership(m).member for m in minor_set()]
    hom = comultiplication_respects_rules()
    ok = all(members) and all(flag for _lhs, flag in hom)
    report("coaction", ok,
           "(%d/11 minors, %d/%d rules)" % (sum(members),
                                            sum(f for _l, f in hom), len(hom)))


def test_classical_limit():
    # one record per rule of each presentation; a failure names its rule
    records = run_suite("classical-limit").records
    rules = len(build_slq41().rules) + len(build_chiral_presentation().rules)
    failures = [r.id for r in records if not r.verdict]
    ok = len(records) == rules and not failures
    report("classical-limit", ok, "(exceptions: %d)" % len(failures))


def test_conformal_closure():
    sc = bracket_closure_table()
    ga = coordinate_algebra(extra=("b0", "b1", "b2", "b3"))
    b = [ga.gen("b%d" % mu) for mu in range(4)]
    inv = inversion_map(ga)
    tb = translation_map(ga, [GrassmannRational(ga, v) for v in b])
    conjugated = inv.compose(tb).compose(inv)
    standard_ok = special_conformal_map(ga, b) == conjugated
    literal_fails = not (special_conformal_map(ga, b, variant="literal")
                         == conjugated)
    ok = sc.closed and len(sc.table) == 105 and standard_ok and literal_fails
    report("conformal-closure", ok,
           "(105 brackets, inversion identity=%s, literal variant fails=%s)"
           % (standard_ok, literal_fails))


def test_geometry_identities():
    ga = coordinate_algebra()
    a = pauli_map(ga, [ga.gen("x%d" % mu) for mu in range(4)])
    pauli_ok = (det2(a) - GrassmannRational(ga, minkowski_square(ga))).is_zero()

    sp = SymbolSpec.empty()
    sp.even_self(*["%s%d%d" % (p, i, j) for p in ("l", "r", "n", "L", "R", "N")
                   for i in (1, 2) for j in (1, 2)],
                 "a1", "a2", "a3", "a4", "e1", "e2", "e3", "e4")
    gb = sp.build()

    def m2(p):
        return GrassmannMatrix(gb, [[gb.gen("%s11" % p), gb.gen("%s12" % p)],
                                    [gb.gen("%s21" % p), gb.gen("%s22" % p)]])

    L1, R1, N1, L2, R2, N2 = (m2(p) for p in ("l", "r", "n", "L", "R", "N"))
    A1 = GrassmannMatrix(gb, [[gb.gen("a1"), gb.gen("a2")],
                              [gb.gen("a3"), gb.gen("a4")]])
    A2 = GrassmannMatrix(gb, [[gb.gen("e1"), gb.gen("e2")],
                              [gb.gen("e3"), gb.gen("e4")]])
    step = poincare_action(L2, R2, N2, poincare_action(L1, R1, N1, A1))
    combined = poincare_action(*poincare_compose((L2, R2, N2), (L1, R1, N1)),
                               A1)
    axiom_ok = (step - combined).is_zero()
    a1p = poincare_action(L1, R1, N1, A1)
    a2p = poincare_action(L1, R1, N1, A2)
    covariance_ok = (det2(a1p - a2p) * det2(L1)
                     - det2(R1) * det2(A1 - A2)).is_zero()

    spf = SymbolSpec.empty()
    spf.even_self("b11", "b12", "b21", "b22", "b31", "b32", "b41", "b42",
                  "b53", "s11", "s12", "s21", "s22")
    spf.odd_self("d13", "d23", "d33", "d43", "d51", "d52", "o1", "o2")
    gf = spf.build()
    g = gf.gen
    P2 = GrassmannMatrix(gf, [
        [g("b11"), g("b12"), g("d13")],
        [g("b21"), g("b22"), g("d23")],
        [g("b31"), g("b32"), g("d33")],
        [g("b41"), g("b42"), g("d43")],
        [g("d51"), g("d52"), g("b53")]])
    S = GrassmannMatrix(gf, [[g("s11"), g("s12")], [g("s21"), g("s22")],
                             [g("o1"), g("o2")]])
    twistor_ok = superflag_reduce(P2 * S, P2).twistor_holds

    ok = pauli_ok and axiom_ok and covariance_ok and twistor_ok
    report("geometry-identities", ok,
           "(pauli=%s, axiom=%s, covariance=%s, twistor=%s)"
           % (pauli_ok, axiom_ok, covariance_ok, twistor_ok))


def test_real_forms():
    invol_ok = sigma_is_involution() == []
    compat_ok = bracket_compatibility() == []
    dims_ok = fixed_point_dimension() == (16, 8)
    ga = poincare_group_algebra()
    group_invol_ok = generic_element(ga).conjugated().conjugated() \
        .equals(generic_element(ga))
    rep = poincare_reality_reduce(reduced_element(ga))
    reduced_ok = rep.fixed_point and rep.conditions_hold \
        and rep.raw_condition_holds and rep.t_hermitian

    sp = SymbolSpec.empty()
    sp.even("r11", "r12", "r21", "r22", "t12", "c12")
    sp.even_self("t11", "t22", "u", "c11", "c22")
    sp.odd("x1", "x2", "th1", "th2")
    gb = sp.build()
    from qmink.classical import real_group_element
    g1 = real_group_element(gb, ("r11", "r12", "r21", "r22"), ("x1", "x2"),
                            ("t11", "t12", "t22"), "u")
    pt = real_point(gb, ("c11", "c12", "c22"), ("th1", "th2"))
    moved = super_poincare_chiral_action(g1, pt)
    action_ok = (moved.C - moved.C.dagger()).is_zero() and \
        (moved.thetabar - conj_column(gb, moved.theta)).is_zero()

    ok = invol_ok and compat_ok and dims_ok and group_invol_ok \
        and reduced_ok and action_ok
    report("real-forms", ok,
           "(sigma=%s, brackets=%s, dims=%s, group=%s, reduced=%s, action=%s)"
           % (invol_ok, compat_ok, dims_ok, group_invol_ok, reduced_ok,
              action_ok))


def test_cli_contract():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "qmink.cli", "check", "all", "--format",
         "json"],
        capture_output=True, text=True, timeout=600)
    dt = time.monotonic() - t0
    ok = proc.returncode == 0 and dt < 600.0
    data = json.loads(proc.stdout) if proc.stdout else {}
    verdicts_ok = bool(data) and data.get("passed") is True and \
        all(r["verdict"] for r in data.get("records", []))
    ok = ok and verdicts_ok
    report("cli-contract", ok,
           "(exit=%d, %d records, %.1fs)"
           % (proc.returncode, len(data.get("records", [])), dt))
