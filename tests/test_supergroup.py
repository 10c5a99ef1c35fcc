"""The 25-generator quantum supermatrix algebra and its comultiplication."""

import pytest
from hypothesis import given, settings, strategies as st

from qmink import checks
from qmink.algebra import (AlgebraError, Element, Presentation,
                           overlap_words, resolve_overlap)
from qmink.checks import run_suite
from qmink.minkowski import build_chiral_presentation
from qmink.scalars import I, ONE, Q, QINV, Scalar
from qmink.supergroup import (_delta_gen_cached, build_slq41, comultiply,
                              general_minor, minor)

from reference_merges import (overlap_difference, overlap_witness,
                              reference_comultiply)


def records(suite, family):
    """The suite's records whose id starts with family, e.g. "overlap:"."""
    return [r for r in run_suite(suite).records if r.id.startswith(family)]


def test_wrong_rule_coefficient_fails_manin_confluence(monkeypatch):
    # negative control: a[1,4]*a[1,1] -> q^-1*a[1,1]*a[1,4] in place of
    # q*a[1,1]*a[1,4] leaves 24 overlaps unresolved; the PBW counts read
    # only the rules' left-hand sides and stay true.  The copy is built
    # from the cached presentation without changing it.
    right = build_slq41()
    a11, a14 = right.rank("a[1,1]"), right.rank("a[1,4]")

    def corrupted():
        pres = Presentation(right.generators)
        for lhs, rhs in right.rules.items():
            if lhs == (a14, a11):
                rhs = {(a11, a14): QINV}
            if lhs not in pres.rules:  # odd squares are already installed
                pres.add_rule(lhs, rhs)
        return pres

    assert right.rules[(a14, a11)] == {(a11, a14): Q}
    monkeypatch.setattr(checks, "build_slq41", corrupted)
    bad = {r.id: r.witness for r in run_suite("manin-confluence").records
           if not r.verdict}
    assert len(bad) == 24
    assert all(k.startswith("overlap:") and w and
               not w.startswith("exception:") for k, w in bad.items())
    # each witness is the text of the full difference, byte for byte
    pres = corrupted()
    want = {}
    for word in overlap_words(pres):
        if overlap_difference(pres, word):
            want["overlap:%s" % pres.word_text(word)] = \
                overlap_witness(pres, word)
    assert bad == want


def test_generator_layout():
    pres = build_slq41()
    assert pres.ngens == 25
    assert sum(pres.parities) == 8  # a[i,5], a[5,j] for i,j <= 4
    assert pres.parities[pres.rank("a[5,5]")] == 0
    assert pres.parities[pres.rank("a[1,5]")] == 1
    with pytest.raises(AlgebraError, match=r"unknown generator 'a\[6,1\]'"):
        pres.rank("a[6,1]")
    assert len(pres.rules) == 300 + 8  # every unordered pair plus odd squares


def test_rule_lookup_examples():
    pres = build_slq41()
    rules = pres.rules
    r = rules[(pres.rank("a[1,2]"), pres.rank("a[1,1]"))]
    assert r == {(pres.rank("a[1,1]"), pres.rank("a[1,2]")): Q}
    r = rules[(pres.rank("a[5,2]"), pres.rank("a[5,1]"))]
    assert r == {(pres.rank("a[5,1]"), pres.rank("a[5,2]")): -QINV}
    r = rules[(pres.rank("a[2,1]"), pres.rank("a[1,2]"))]
    assert r == {(pres.rank("a[1,2]"), pres.rank("a[2,1]")): ONE}


def test_manin_confluence():
    overlaps = records("manin-confluence", "overlap:")
    assert len(overlaps) == 2500
    assert [r.id for r in overlaps if not r.verdict] == []


def test_agreeing_overlaps_build_no_difference(monkeypatch):
    # two equal normal forms are compared, not subtracted: no coefficient
    # is negated on the way to an agreeing verdict
    pres = build_slq41()
    negations = []
    neg = Scalar.__neg__

    def counted(self):
        negations.append(self)
        return neg(self)

    monkeypatch.setattr(Scalar, "__neg__", counted)
    words = overlap_words(pres)
    assert len(words) == 2500
    assert all(resolve_overlap(pres, w) == {} for w in words)
    assert negations == []
    assert -Q == Scalar.term(1, -1) and len(negations) == 1


def test_comultiply_unit_and_generator():
    pres = build_slq41()
    assert comultiply(pres.one()).terms == {((), ()): ONE}
    # every generator, its slots looked up by name: Delta's ranks are
    # computed, and must name a[i,k] (x) a[k,j]
    for i in range(1, 6):
        for j in range(1, 6):
            d = comultiply(pres.gen("a[%d,%d]" % (i, j)))
            assert d.terms == {
                ((pres.rank("a[%d,%d]" % (i, k)),),
                 (pres.rank("a[%d,%d]" % (k, j)),)): ONE
                for k in range(1, 6)}


def test_comultiplication_is_algebra_map():
    homs = records("coaction", "homomorphism:")
    assert len(homs) == 308
    assert [r.id for r in homs if not r.verdict] == []


def test_minor_values():
    pres = build_slq41()
    d12 = minor(1, 2)
    assert d12 == pres.word(["a[1,1]", "a[2,2]"]) \
        - pres.word(["a[1,2]", "a[2,1]"]).scale(QINV)
    assert d12.parity() == 0
    d55 = minor(5, 5)
    assert d55 == pres.word(["a[5,1]", "a[5,2]"])
    assert d55.parity() == 0
    d15 = minor(1, 5)
    assert d15 == pres.word(["a[1,1]", "a[5,2]"]) \
        - pres.word(["a[1,2]", "a[5,1]"]).scale(QINV)
    assert d15.parity() == 1


def test_minor_index_validation():
    with pytest.raises(ValueError):
        minor(2, 1)
    with pytest.raises(ValueError):
        minor(5, 4)
    with pytest.raises(ValueError):
        minor(0, 1)


def test_general_minor():
    pres = build_slq41()
    m = general_minor((3, 4), (3, 4))
    assert m == pres.word(["a[3,3]", "a[4,4]"]) \
        - pres.word(["a[3,4]", "a[4,3]"]).scale(QINV)
    m2 = general_minor((3, 4), (4, 5))
    assert m2 == pres.word(["a[3,4]", "a[4,5]"]) \
        - pres.word(["a[3,5]", "a[4,4]"]).scale(QINV)
    assert general_minor((1, 2), (1, 2)) == minor(1, 2)
    with pytest.raises(ValueError):
        general_minor((4, 3), (1, 2))
    with pytest.raises(ValueError):
        general_minor((1, 2), (5, 5))


def test_repeated_row_minor_vanishes():
    # a[k,1] a[k,2] - q^-1 a[k,2] a[k,1] is zero for an even row
    pres = build_slq41()
    for k in (1, 2, 3, 4):
        v = pres.word(["a[%d,1]" % k, "a[%d,2]" % k]) \
            - pres.word(["a[%d,2]" % k, "a[%d,1]" % k]).scale(QINV)
        assert v.is_zero()


def test_comultiply_requires_the_right_algebra():
    with pytest.raises(ValueError):
        comultiply(build_chiral_presentation().one())


def test_generator_coproducts_carry_the_unit_itself():
    # comultiply's products hit Scalar's unit fast path only while these
    # coefficients are the singleton ONE
    for r in range(build_slq41().ngens):
        d = _delta_gen_cached(r)
        assert len(d.terms) == 5
        assert all(c is ONE for c in d.terms.values())


COEFFS = st.sampled_from((ONE, -ONE, Q, -QINV, I, Q + I))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.lists(st.integers(0, 24), min_size=1,
                                max_size=3).map(tuple),
                       COEFFS, min_size=1, max_size=3), COEFFS)
def test_comultiply_matches_the_reference(words, constant):
    # a multi-term element with a constant term; the reference scales
    # each word's full product and adds TensorPolys one by one
    pres = build_slq41()
    p = Element(pres, pres.normal_form({**words, (): constant}))
    got = comultiply(p).terms
    assert got == reference_comultiply(p).terms
    assert got[((), ())] == constant


def test_comultiply_leaves_the_cached_coproducts_alone():
    # comultiply starts each word's product from the cached Delta(w[0]),
    # scaled by the word's coefficient, so the scaling must build a new
    # term map
    pres = build_slq41()
    r = pres.rank("a[2,3]")
    cached = _delta_gen_cached(r)
    before = dict(cached.terms)
    c = Q + I
    for p in (pres.gen("a[2,3]").scale(c),
              pres.word(["a[2,3]", "a[1,1]"]).scale(-QINV)
              + pres.gen("a[2,3]").scale(c)):
        d = comultiply(p)
        assert _delta_gen_cached(r) is cached
        assert cached.terms == before
        assert all(v is ONE for v in cached.terms.values())
    assert comultiply(pres.gen("a[2,3]").scale(c)) == cached.scale(c)
    assert d == (comultiply(pres.gen("a[2,3]"))
                 * comultiply(pres.gen("a[1,1]"))).scale(-QINV) \
        + cached.scale(c)
