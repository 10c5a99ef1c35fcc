"""Closure table, localization, chiral Minkowski presentation, coaction."""

import itertools

import pytest

from qmink import checks, cli, minkowski, supergroup
from qmink.algebra import Presentation, TensorPoly
from qmink.checks import run_suite
from qmink.cli import normal_form_text
from qmink.linalg import SpanSolver
from qmink.minkowski import (CHIRAL_NAMES, MINOR_ORDER, ClosureError,
                             build_chiral_generators,
                             build_chiral_presentation, chiral_normal_words,
                             closure_table, coaction_membership,
                             cofactor_proportional_to, localized, minor_index,
                             minor_set, presentation_rules,
                             straightening_presentation, substituted_residual,
                             substituted_span_dimension,
                             supercommutative_dimension)
from qmink.parser import atom_text, parse
from qmink.scalars import I, ONE, Q, QINV, GaussRational, Scalar
from qmink.supergroup import MINOR_NAMES, build_slq41, general_minor, minor

from reference_merges import homomorphism_witness, overlap_witness


def test_minor_order():
    assert MINOR_ORDER[0] == (1, 2)
    assert len(MINOR_ORDER) == 11
    evens = [p for p in MINOR_ORDER if (p[0] <= 4 and p[1] <= 4) or p == (5, 5)]
    odds = [p for p in MINOR_ORDER if p[1] == 5 and p[0] <= 4]
    assert len(evens) == 7 and len(odds) == 4
    # the names are the parser's own spelling, and minor_set() holds the
    # minors in the same order
    for k, (i, j) in enumerate(MINOR_ORDER):
        assert MINOR_NAMES[k] == atom_text(parse("D[%d,%d]" % (i, j)))
        assert minor_set()[k] == minor(i, j)


def test_closure_table_complete_and_ok():
    table = closure_table()
    assert len(table) == 66
    for (a, b), e in table.items():
        assert a <= b
        assert e.ok


def test_corrupted_minor_fails_closure(monkeypatch):
    # negative control: D[1,3] replaced by the product a[1,1]*a[3,2].  The
    # closure table is cached: clear it so that it sees the mutation, and
    # again so that later tests do not.
    minors = list(minor_set())
    minors[1] = build_slq41().word(["a[1,1]", "a[3,2]"])
    monkeypatch.setattr(minkowski, "minor_set", lambda: tuple(minors))
    closure_table.cache_clear()
    try:
        table = closure_table()
        failing = sorted(k for k, e in table.items() if not e.ok)
        assert failing == [(1, 2), (1, 4), (1, 6), (1, 7)]
        assert {table[k].witness for k in failing} == \
            {"correction not in the span of sorted minor products"}
        with pytest.raises(ClosureError, match=r"D\[1,4\]\*D\[1,3\]"):
            straightening_presentation()
        assert cli.closure_table_data()["all_ok"] is False
    finally:
        closure_table.cache_clear()


def test_odd_minor_with_nonzero_square_fails_its_square_record(monkeypatch):
    # negative control: D[1,5] replaced by a[1,1]*a[5,2] + a[1,2]*a[5,1],
    # odd like D[1,5] but with a nonzero square.  The square is no basis
    # product, so it must lie in the span of the others, and it does not.
    # The closure table is cached: clear it so that it sees the mutation,
    # and again so that later tests do not.
    a = minor_index(1, 5)
    minors = list(minor_set())
    odd = (build_slq41().word(["a[1,1]", "a[5,2]"])
           + build_slq41().word(["a[1,2]", "a[5,1]"]))
    assert odd.parity() == 1 and odd * odd
    minors[a] = odd
    monkeypatch.setattr(minkowski, "minor_set", lambda: tuple(minors))
    closure_table.cache_clear()
    try:
        entry = closure_table()[(a, a)]
        bad = {r.id: r.witness
               for r in run_suite("grassmannian-closure").records
               if not r.verdict}
    finally:
        closure_table.cache_clear()
    assert entry.kind == "square" and not entry.ok
    assert bad["pair:D[1,5]|D[1,5]"] == ("square not in the span of sorted "
                                         "minor products")


def test_unit_ratio():
    y = Scalar.term(1, 2, 1) + I * QINV
    assert minkowski._unit_ratio(y, y) == (1, 0)
    assert minkowski._unit_ratio(Q * y, y) == (1, 1)
    assert minkowski._unit_ratio(-Scalar.q_pow(-2) * y, y) == (-1, -2)
    assert minkowski._unit_ratio(-QINV, ONE) == (-1, -1)
    assert minkowski._unit_ratio((ONE + Q) * y, y) is None
    assert minkowski._unit_ratio(ONE + Q, ONE) is None
    assert minkowski._unit_ratio(Scalar.from_int(2) * y, y) is None
    assert minkowski._unit_ratio(I * y, y) is None
    zero = Scalar.zero()
    assert minkowski._unit_ratio(zero, y) is None
    assert minkowski._unit_ratio(y, zero) is None
    assert minkowski._unit_ratio(zero, zero) is None


def test_non_laurent_correction_fails_its_entry():
    # the square of D[1,5] stands in for w; the one sorted product in the
    # span is (1 + q)*w, keyed as D[1,5]*D[1,5], so the correction would
    # be w's coordinate 1/(1 + q), which is not a Laurent polynomial
    minors = minor_set()
    a = minor_index(1, 5)
    w = build_slq41().word(["a[1,1]", "a[2,2]"])
    solver = SpanSolver()
    solver.add(w.scale(ONE + Q).terms)
    entry = minkowski._closure_entry(a, a, minors, {(a, a): w}, solver)
    assert entry.kind == "square" and not entry.ok
    assert not entry.correction
    assert entry.witness.endswith("of D[1,5]*D[1,5] is not a Laurent "
                                  "polynomial")


@pytest.mark.parametrize("unit", [Scalar.from_int(2), ONE + I],
                         ids=["two", "one-plus-i"])
def test_correction_outside_gaussian_integers_fails_its_entry(unit):
    # as above, with (2)*w or (1 + i)*w as the one sorted product: w's
    # coordinate would be 1/2 or 1/(1 + i), a Laurent polynomial over
    # Q(i) but not over Z[i], where Scalar computes
    minors = minor_set()
    a = minor_index(1, 5)
    w = build_slq41().word(["a[1,1]", "a[2,2]"])
    solver = SpanSolver()
    solver.add(w.scale(unit).terms)
    entry = minkowski._closure_entry(a, a, minors, {(a, a): w}, solver)
    assert entry.kind == "square" and not entry.ok
    assert not entry.correction
    assert entry.witness.startswith("coefficient (")
    assert entry.witness.endswith("of D[1,5]*D[1,5] is not a Laurent "
                                  "polynomial over Z[i]")


def test_scaled_coordinates_fail_their_pair_records(monkeypatch):
    # negative control over the whole suite: a solver that hands back
    # twice the scale makes every correction coordinate a half.  Exactly
    # the five corrected pairs fail, each as a pair: record with a
    # witness, not an exception.  The closure table is cached: clear it
    # so that it sees the solver, and again so that later tests do not.
    class HalvingSolver(SpanSolver):
        def express(self, vec):
            found = super().express(vec)
            if found is None:
                return None
            scale, coords = found
            return scale * Scalar.from_int(2), coords

    monkeypatch.setattr(minkowski, "SpanSolver", HalvingSolver)
    closure_table.cache_clear()
    try:
        bad = {r.id: r.witness
               for r in run_suite("grassmannian-closure").records
               if not r.verdict}
    finally:
        closure_table.cache_clear()
    assert sorted(bad) == ["pair:D[1,3]|D[2,4]", "pair:D[1,3]|D[2,5]",
                           "pair:D[1,4]|D[2,5]", "pair:D[1,4]|D[3,5]",
                           "pair:D[2,4]|D[3,5]"]
    assert all(w.startswith("coefficient (") and
               w.endswith("is not a Laurent polynomial over Z[i]")
               for w in bad.values())


def test_closure_identities_reconstruct():
    # independent verification: every derived identity evaluates to zero
    # in the ambient algebra
    table = closure_table()
    vals = minor_set()
    for (a, b), e in sorted(table.items()):
        if e.kind == "trivial":
            continue
        if e.kind == "square":
            lhs = vals[a] * vals[a]
        else:
            lhs = vals[b] * vals[a]
            coef = Scalar.q_pow(e.exponent)
            lhs = lhs - (vals[a] * vals[b]).scale(coef if e.sign > 0 else -coef)
        for (c1, c2), c in e.correction.items():
            lhs = lhs - (vals[c1] * vals[c2]).scale(c)
        assert lhs.is_zero(), (a, b)


def test_odd_minor_squares_vanish():
    minors = minor_set()
    for (i, j) in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 5)):
        m = minors[minor_index(i, j)]
        assert (m * m).is_zero()


def test_d12_q_commutes_purely():
    exps = localized().exponents
    # frozen from the derivation: column-sharing minors exchange with q,
    # disjoint ones with q^2
    assert exps == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 2,
                    6: 1, 7: 1, 8: 2, 9: 2, 10: 2}


def test_corrected_d12_entry_refuses_localization(monkeypatch):
    # negative control: a correction on D[3,4]*D[1,2] breaks pure
    # q-commutation, so localized() must refuse to adjoin D12inv.  The
    # localization is cached: clear it so that it sees the table, and
    # again so that later tests do not.
    table = dict(closure_table())
    key = (minor_index(1, 2), minor_index(3, 4))
    e = table[key]
    table[key] = minkowski.ClosureEntry(e.sign, e.exponent, {(1, 4): ONE},
                                        e.kind, e.ok, e.witness)
    monkeypatch.setattr(minkowski, "closure_table", lambda: table)
    localized.cache_clear()
    try:
        with pytest.raises(ClosureError, match=r"D\[3,4\]"):
            localized()
    finally:
        monkeypatch.undo()
        localized.cache_clear()
    assert localized().exponents[minor_index(3, 4)] == 2


def test_plucker_corrections():
    # the five interleaved pairs straighten with a D12-type correction
    table = closure_table()
    corrected = sorted((a, b) for (a, b), e in table.items()
                       if e.kind == "reorder" and e.correction)
    names = [(MINOR_ORDER[a], MINOR_ORDER[b]) for a, b in corrected]
    assert names == [((1, 3), (2, 4)), ((1, 3), (2, 5)), ((1, 4), (2, 5)),
                     ((1, 4), (3, 5)), ((2, 4), (3, 5))]
    for a, b in corrected:
        e = table[(a, b)]
        assert e.sign == 1 and e.exponent == 2


def test_localization_requires_pure_commutation():
    loc = localized()
    assert loc.exponents[minor_index(1, 2)] == 0
    # D12 * D12inv = 1 and D12inv * D13 = q^-1 D13 * D12inv
    d12 = loc.from_minor(0)
    assert (d12 * loc.dinv() - loc.one()).is_zero()
    # straightening cancels D12*D12inv onto the key of 1, where the sum is 0
    assert (d12 * loc.dinv() - loc.one()).straightened().terms == {}
    # equality goes through the ambient algebra, not the stored terms
    assert d12 * loc.dinv() == loc.one()
    assert (d12 * loc.dinv()).terms != loc.one().terms
    assert d12 != loc.one()
    # a LocalElement of another localization is unequal, not an error
    other = minkowski.LocalizedAlgebra(loc.minors, loc.exponents)
    assert loc.one() != other.one()
    assert (loc.dinv() * d12 - loc.one()).is_zero()
    d13 = loc.from_minor(minor_index(1, 3))
    lhs = loc.dinv() * d13
    rhs = (d13 * loc.dinv()).scale(Q)  # exponent 1 for D13 against D12
    assert (lhs - rhs).is_zero()


def test_truth_value_is_the_ambient_zero_test():
    # D[1,2]*D12inv - 1 has terms but is zero in the ambient algebra
    loc = localized()
    el = loc.from_minor(0, dinv=1) - loc.one()
    assert el.terms and el.is_zero()
    assert bool(el) == (not el.is_zero())
    assert not el
    d13 = loc.from_minor(minor_index(1, 3))
    assert d13 and bool(d13 - d13) is False and bool(loc.one()) is True


def test_local_products_refuse_another_kind_or_localization():
    loc = localized()
    other = minkowski.LocalizedAlgebra(loc.minors, loc.exponents)
    d13 = minor_index(1, 3)
    for u, v in ((loc.dinv(), other.from_minor(d13)),
                 (other.from_minor(d13), loc.dinv()),
                 (loc.dinv(), loc.ambient.one()),
                 (loc.dinv(), TensorPoly(loc.ambient,
                                         {((), ()): loc.ambient.unit})),
                 (loc.dinv(), Q)):
        with pytest.raises(TypeError):
            u * v


def test_localized_exchange_classical_limit():
    # every exchange coefficient q^e becomes 1 at q = 1
    loc = localized()
    for e in loc.exponents.values():
        assert Scalar.q_pow(e).at_q_one() == GaussRational(1)


def test_chiral_generators():
    gens = dict(zip(CHIRAL_NAMES, build_chiral_generators()))
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
    rules = presentation_rules()
    families = {fam for fam, _stmt, _lhs, _rhs in rules}
    assert families == {"row", "column", "antidiagonal", "diagonal",
                        "tau-tau", "t-tau-same-column", "t1-tau2", "t2-tau1",
                        "odd-square"}
    assert len(rules) == 17
    assert all(substituted_residual(lhs, rhs).is_zero()
               for _fam, _stmt, lhs, rhs in rules)


def test_raising_residual_fails_only_its_record(monkeypatch):
    # each relation record substitutes its own rule, so an exception in
    # one residual fails that record alone, not the suite as a builder
    # record; checks imports substituted_residual by name
    right = minkowski.substituted_residual
    diagonal = presentation_rules()[5]
    assert diagonal[0] == "diagonal"

    def raising(lhs, rhs):
        if lhs == diagonal[2]:
            raise ArithmeticError("no residual")
        return right(lhs, rhs)

    monkeypatch.setattr(checks, "substituted_residual", raising)
    records = run_suite("minkowski-presentation").records
    assert len(records) == 17
    assert {r.id: r.witness for r in records if not r.verdict} == \
        {"diagonal:1": "exception: ArithmeticError('no residual')"}


def test_presentation_statements_read_back_as_rules():
    # each statement is a rule lhs = rhs of the abstract presentation, so
    # the normal form of its left side prints as its right side
    records = run_suite("minkowski-presentation").records
    assert len(records) == 17
    for r in records:
        lhs, rhs = r.statement[:r.statement.index(" holds under")].split(" = ")
        assert normal_form_text(lhs, "chiral-abstract") == rhs, r.id


def test_single_relation_example():
    # t31 t32 - q t32 t31 = 0, worked directly in the localization
    t31, t32, _t41, _t42, tau1, tau2 = build_chiral_generators()
    assert (t31 * t32 - (t32 * t31).scale(Q)).is_zero()
    assert (tau1 * tau2 + (tau2 * tau1).scale(QINV)).is_zero()


def test_abstract_presentation_confluent():
    pres = build_chiral_presentation()
    assert pres.ngens == 6
    assert len(pres.rules) == 17  # 15 pair rules + 2 odd squares
    overlaps = [r for r in run_suite("presentation-confluence").records
                if r.id.startswith("overlap:")]
    assert len(overlaps) == 32
    assert [r.id for r in overlaps if not r.verdict] == []


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
    for name, qm in zip(MINOR_NAMES, minor_set()):
        rows = coaction_membership(qm)
        assert None not in rows.values(), name


def test_coaction_cofactor_pattern_for_d12():
    rows = coaction_membership(minor_set()[0])
    for mi, (name, cols) in enumerate(zip(MINOR_NAMES, MINOR_ORDER)):
        assert any(coords[mi] for _scale, coords in rows.values()), \
            "cofactor of %s vanishes" % name
        if cols == (5, 5):
            continue
        target = general_minor((1, 2), cols)
        prop = cofactor_proportional_to(rows, mi, target)
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


# Negative controls for the three quantum suites that build on the
# localization and the comultiplication: each mutation must turn exactly
# the named records false, with a witness that is not a crash.


def false_records(name, *caches):
    """The false records of a suite, with each cache in caches cleared
    before the run, so that the suite sees the mutation, and after it, so
    that later tests do not."""
    for cache in caches:
        cache.cache_clear()
    try:
        records = run_suite(name).records
    finally:
        for cache in caches:
            cache.cache_clear()
    bad = {r.id: r.witness for r in records if not r.verdict}
    assert not any(w.startswith("exception:") for w in bad.values())
    return bad


def test_wrong_generator_coefficient_fails_minkowski_presentation(
        monkeypatch):
    # t[3,1] = q^-1 D[2,3] D12inv in place of -q^-1 D[2,3] D12inv.  A sign
    # on one generator keeps every relation that is homogeneous in it, so
    # only the two with a correction term in t[3,1] fail.  No cache holds
    # the generators: substituted_residual builds them on every call.
    right = minkowski.build_chiral_generators

    def flipped():
        gens = list(right())
        gens[CHIRAL_NAMES.index("t[3,1]")] = \
            localized().from_minor(minor_index(2, 3), QINV, 1)
        return tuple(gens)

    monkeypatch.setattr(minkowski, "build_chiral_generators", flipped)
    assert set(false_records("minkowski-presentation")) == \
        {"diagonal:1", "t2-tau1:1"}
    # the substituted images span the same spaces
    assert false_records("presentation-confluence") == {}


def test_wrong_rule_coefficient_fails_presentation_confluence(monkeypatch):
    # t[3,2]*t[3,1] -> q*t[3,1]*t[3,2] in place of q^-1: the two overlaps
    # that pass the rule through the correction term q - q^-1 no longer
    # resolve.  The copy is built from the cached presentation without
    # changing it, and checks imports build_chiral_presentation by name.
    right = build_chiral_presentation()
    t31, t32 = (right.rank(n) for n in ("t[3,1]", "t[3,2]"))

    def corrupted():
        pres = Presentation(right.generators)
        for lhs, rhs in right.rules.items():
            if lhs == (t32, t31):
                rhs = {(t31, t32): Q}
            if lhs not in pres.rules:  # odd squares are already installed
                pres.add_rule(lhs, rhs)
        return pres

    monkeypatch.setattr(checks, "build_chiral_presentation", corrupted)
    bad = false_records("presentation-confluence")
    assert set(bad) == \
        {"overlap:t[4,1]*t[3,2]*t[3,1]", "overlap:tau[5,1]*t[3,2]*t[3,1]"}
    # each witness is the text of the full difference, byte for byte
    pres = corrupted()
    assert bad == {"overlap:%s" % pres.word_text(w): overlap_witness(pres, w)
                   for w in (tuple(pres.rank(n) for n in ws)
                             for ws in (("t[4,1]", "t[3,2]", "t[3,1]"),
                                        ("tau[5,1]", "t[3,2]", "t[3,1]")))}


def test_wrong_table_coefficient_fails_both_presentation_suites(monkeypatch):
    # t[3,2]*t[3,1] = q*t[3,1]*t[3,2] in place of q^-1, written once in
    # chiral_relations: the substitution refutes it, and the rule built
    # from it leaves the two overlaps of the control above unresolved.
    # At q = 1 both coefficients are 1, so the classical limit holds.
    right = minkowski.chiral_relations
    assert right()[0][:2] == ("row", ("t[3,2]", "t[3,1]"))

    def typo():
        rels = right()
        family, lhs, rhs = rels[0]
        rels[0] = (family, lhs, {w: Q for w in rhs})
        return rels

    monkeypatch.setattr(minkowski, "chiral_relations", typo)
    cached = build_chiral_presentation
    assert set(false_records("minkowski-presentation", cached)) == {"row:1"}
    assert set(false_records("presentation-confluence", cached)) == \
        {"overlap:t[4,1]*t[3,2]*t[3,1]", "overlap:tau[5,1]*t[3,2]*t[3,1]"}
    assert false_records("classical-limit", cached) == {}


def test_wrong_delta_term_fails_coaction(monkeypatch):
    # Delta(a[1,1]) with -a[1,5] (x) a[5,1] in place of +a[1,5] (x) a[5,1]:
    # every rule in a[1,1], the four minors D[1,j] and the cofactor
    # pattern of Delta(D[1,2]) fail.  Delta of a generator is cached, and
    # comultiply reaches _delta_gen through that cache.
    pres = build_slq41()
    a11, a15, a51 = (pres.rank(n)
                     for n in ("a[1,1]", "a[1,5]", "a[5,1]"))
    right = supergroup._delta_gen

    def flipped(alg, rank):
        delta = right(alg, rank)
        if rank != a11:
            return delta
        terms = dict(delta.terms)
        terms[((a15,), (a51,))] = -terms[((a15,), (a51,))]
        return TensorPoly(alg, terms)

    monkeypatch.setattr(supergroup, "_delta_gen", flipped)
    bad = false_records("coaction", supergroup._delta_gen_cached)
    assert set(bad) == \
        {"homomorphism:%s*a[1,1]" % g.name for g in pres.generators[1:]} \
        | {"membership:D[1,%d]" % j for j in (2, 3, 4, 5)} \
        | {"cofactor-pattern:D[1,2]"}
    # each homomorphism witness is the text of the full difference,
    # byte for byte, computed under the same flipped coproduct
    try:
        want = {}
        for lhs, rhs in sorted(pres.rules.items()):
            text = homomorphism_witness(pres, lhs, rhs)
            if text != "0":
                want["homomorphism:%s" % pres.word_text(lhs)] = text
    finally:
        supergroup._delta_gen_cached.cache_clear()
    assert {k: w for k, w in bad.items()
            if k.startswith("homomorphism:")} == want


def test_empty_cofactor_fails_the_cofactor_pattern(monkeypatch):
    # Delta(D[1,2]) with no D[1,3] term: the empty cofactor is not
    # proportional to Dc[12;13], so the pattern record fails, and the
    # membership records, which read only which rows are None, still pass.
    # checks imports coaction_membership by name.
    right = minkowski.coaction_membership
    d13 = minor_index(1, 3)

    def emptied(qm):
        rows = right(qm)
        for _scale, coords in rows.values():
            coords[d13] = Scalar.zero()
        return rows

    monkeypatch.setattr(checks, "coaction_membership", emptied)
    assert false_records("coaction") == {
        "cofactor-pattern:D[1,2]":
        "cofactor of D[1,3] is not proportional to Dc[12;13]"}
