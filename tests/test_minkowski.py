"""Closure table, localization, chiral Minkowski presentation, coaction."""

import dataclasses
import itertools

import pytest

from qmink.algebra import check_confluence
from qmink.checks import run_suite
from qmink.minkowski import (MINOR_ORDER, ClosureError,
                             build_chiral_generators,
                             build_chiral_presentation, chiral_normal_words,
                             closure_table, coaction_membership,
                             cofactor_proportional_to, derive_closure_table,
                             localize_at_d12,
                             localized, minor_index, minor_set,
                             straightening_presentation,
                             substituted_span_dimension,
                             supercommutative_dimension, verify_presentation)
from qmink.scalars import ONE, Q, QINV, Scalar
from qmink.supergroup import build_slq41, general_minor


def test_minor_order():
    assert MINOR_ORDER[0] == (1, 2)
    assert len(MINOR_ORDER) == 11
    evens = [p for p in MINOR_ORDER if (p[0] <= 4 and p[1] <= 4) or p == (5, 5)]
    odds = [p for p in MINOR_ORDER if p[1] == 5 and p[0] <= 4]
    assert len(evens) == 7 and len(odds) == 4


def test_closure_table_complete_and_ok():
    table = closure_table()
    assert table.all_ok
    assert len(table.entries) == 66
    for (a, b), e in table.entries.items():
        assert a <= b
        assert e.ok


def test_corrupted_minor_fails_closure():
    # negative control: D[1,3] replaced by the product a[1,1]*a[3,2]
    minors = list(minor_set())
    minors[1] = dataclasses.replace(
        minors[1], value=build_slq41().word(["a[1,1]", "a[3,2]"]))
    table = derive_closure_table(tuple(minors))
    assert not table.all_ok
    failing = sorted(k for k, e in table.entries.items() if not e.ok)
    assert failing == [(1, 2), (1, 4), (1, 6), (1, 7)]
    assert all(table.entries[k].witness for k in failing)
    with pytest.raises(ClosureError, match=r"D\[1,4\]\*D\[1,3\]"):
        straightening_presentation(table)


def test_closure_identities_reconstruct():
    # independent verification: every derived identity evaluates to zero
    # in the ambient algebra
    table = closure_table()
    minors = minor_set()
    vals = [m.value for m in minors]
    for (a, b), e in sorted(table.entries.items()):
        if e.kind == "trivial":
            continue
        if e.kind == "square":
            lhs = vals[a] * vals[a]
        else:
            lhs = vals[b] * vals[a]
            coef = Scalar.q_pow(e.exponent)
            lhs = lhs - (vals[a] * vals[b]).scale(coef if e.sign > 0 else -coef)
        for (c1, c2), fr in e.correction.items():
            lhs = lhs - (vals[c1] * vals[c2]).scale(fr.as_scalar())
        assert lhs.is_zero(), (a, b)


def test_odd_minor_squares_vanish():
    minors = minor_set()
    for (i, j) in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 5)):
        m = minors[minor_index(i, j)]
        assert (m.value * m.value).is_zero()


def test_d12_q_commutes_purely():
    table = closure_table()
    exps = table.d12_exponents()
    # frozen from the derivation: column-sharing minors exchange with q,
    # disjoint ones with q^2
    assert exps == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 2,
                    6: 1, 7: 1, 8: 2, 9: 2, 10: 2}


def test_plucker_corrections():
    # the five interleaved pairs straighten with a D12-type correction
    table = closure_table()
    corrected = sorted((a, b) for (a, b), e in table.entries.items()
                       if e.kind == "reorder" and e.correction)
    names = [(MINOR_ORDER[a], MINOR_ORDER[b]) for a, b in corrected]
    assert names == [((1, 3), (2, 4)), ((1, 3), (2, 5)), ((1, 4), (2, 5)),
                     ((1, 4), (3, 5)), ((2, 4), (3, 5))]
    for a, b in corrected:
        e = table.entries[(a, b)]
        assert e.sign == 1 and e.exponent == 2


def test_localization_requires_pure_commutation():
    loc = localize_at_d12()
    assert loc.exponents[minor_index(1, 2)] == 0
    # D12 * D12inv = 1 and D12inv * D13 = q^-1 D13 * D12inv
    d12 = loc.from_minor(0)
    assert (d12 * loc.dinv() - loc.one()).is_zero()
    assert (loc.dinv() * d12 - loc.one()).is_zero()
    d13 = loc.from_minor(minor_index(1, 3))
    lhs = loc.dinv() * d13
    rhs = (d13 * loc.dinv()).scale(Q)  # exponent 1 for D13 against D12
    assert (lhs - rhs).is_zero()


def test_localized_exchange_classical_limit():
    # every exchange coefficient q^e becomes 1 at q = 1
    loc = localized()
    for e in loc.exponents.values():
        assert Scalar.q_pow(e).subs_q_one() == ONE


def test_chiral_generators():
    loc = localized()
    gens = build_chiral_generators(loc)
    mi = minor_index
    assert gens["t[3,1]"].terms == {((mi(2, 3),), 1): -QINV}
    assert gens["t[3,2]"].terms == {((mi(1, 3),), 1): ONE}
    assert gens["t[4,1]"].terms == {((mi(2, 4),), 1): -QINV}
    assert gens["t[4,2]"].terms == {((mi(1, 4),), 1): ONE}
    assert gens["tau[5,1]"].terms == {((mi(2, 5),), 1): -QINV}
    assert gens["tau[5,2]"].terms == {((mi(1, 5),), 1): ONE}
    # parity bookkeeping: t entries even, tau entries odd
    for name, el in gens.items():
        parity = el.to_ambient().parity()
        assert parity == (1 if name.startswith("tau") else 0)


def test_presentation_families_all_vanish():
    report = verify_presentation(localized())
    families = {fam for fam, _stmt, _ok, _w in report.records}
    assert families == {"row", "column", "antidiagonal", "diagonal",
                        "tau-tau", "t-tau-same-column", "t1-tau2", "t2-tau1",
                        "odd-square"}
    assert len(report.records) == 17
    assert report.ok


def test_single_relation_example():
    # t31 t32 - q t32 t31 = 0, worked directly in the localization
    loc = localized()
    gens = build_chiral_generators(loc)
    t31, t32 = gens["t[3,1]"], gens["t[3,2]"]
    assert (t31 * t32 - (t32 * t31).scale(Q)).is_zero()
    tau1, tau2 = gens["tau[5,1]"], gens["tau[5,2]"]
    assert (tau1 * tau2 + (tau2 * tau1).scale(QINV)).is_zero()


def test_abstract_presentation_confluent():
    pres = build_chiral_presentation()
    assert pres.ngens == 6
    assert len(pres.rules) == 17  # 15 pair rules + 2 odd squares
    rep = check_confluence(pres)
    assert rep.ok


def sc_enumeration(n_even, n_odd, d):
    count = 0
    for k in range(min(d, n_odd) + 1):
        for _odd in itertools.combinations(range(n_odd), k):
            for _even in itertools.combinations_with_replacement(
                    range(n_even), d - k):
                count += 1
    return count


def test_chiral_pbw_dimensions():
    pres = build_chiral_presentation()
    for d in (1, 2, 3, 4):
        assert pres.pbw_dimension(d) == sc_enumeration(4, 2, d)
        assert pres.pbw_dimension(d) == supercommutative_dimension(4, 2, d)
    assert pres.pbw_dimension(1) == 6
    assert pres.pbw_dimension(2) == 19
    assert pres.pbw_dimension(3) == 44


def test_substituted_span_matches_abstract():
    pres = build_chiral_presentation()
    for d in (1, 2, 3):
        assert substituted_span_dimension(d) == pres.pbw_dimension(d)


def test_chiral_normal_words():
    assert len(chiral_normal_words(2)) == 19
    for w in chiral_normal_words(3):
        assert list(w) == sorted(w)


def test_abstract_presentation_supercommutes_at_q1():
    records = [r for r in run_suite("classical-limit").records
               if r.id.startswith("chiral:")]
    assert len(records) == len(build_chiral_presentation().rules)
    assert [r.id for r in records if not r.verdict] == []


def test_coaction_membership_all_minors():
    for qm in minor_set():
        rec = coaction_membership(qm)
        assert rec.member, qm.name


def test_coaction_cofactor_pattern_for_d12():
    rec = coaction_membership(minor_set()[0])
    minors = minor_set()
    for (name, cof), m in zip(rec.cofactors, minors):
        assert cof, "cofactor of %s vanishes" % name
        if m.rows == (5, 5):
            continue
        target = general_minor((1, 2), m.rows)
        prop = cofactor_proportional_to(cof, target.value)
        # quantum Cauchy-Binet: the cofactor is exactly the column minor
        assert prop == (1, 0), name


def test_straightener_exists_and_is_order_compatible():
    pres = straightening_presentation()
    assert pres is not None
    assert len(pres.rules) == 60  # 55 reorder rules + 5 squares
    # straightening D34*D12 reproduces the table entry
    loc = localized()
    el = loc.from_minor(5) * loc.from_minor(0)
    st = el.straightened()
    assert st.terms == {((0, 5), 0): Scalar.q_pow(2)}
