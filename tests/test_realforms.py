"""The su(2,2|1) conjugation and the real super Poincare group."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import dense_matrices as dm
from qmink import classical, realforms
from qmink.checks import run_suite
from qmink.algebra import Element
from qmink.classical import GI
from qmink.grassmann import GrassmannMatrix
from qmink.realforms import (F, antilinearity, bracket_compatibility,
                             fixed_point_bases, generic_element, mat_dagger,
                             mat_mul, parity, poincare_group_algebra,
                             reduced_element, sigma, sl41_basis,
                             su22_conditions_hold, supercommutator,
                             supertrace_condition)
from qmink.scalars import GaussRational

ZERO = GaussRational(0)
ONE = GaussRational(1)


def test_f_matrix_properties():
    # F^2 = identity, F hermitian, and F as the dense reference has it
    assert mat_mul(F, F) == {(k, k): ONE for k in range(4)}
    assert mat_dagger(F) == F
    assert dm.dense(F, 4, 4) == dm.f_matrix()
    assert all(F.values())


def test_basis_names_pin_their_matrices():
    # each name is its matrix: E_ij a single 1 at (i-1, j-1), H_k a 1 at
    # (k-1, k-1) and at (4, 4), alpha_i a 1 at (i-1, 4), beta_j a 1 at
    # (4, j-1); the involution: records are named after them
    want = {}
    for i in range(1, 5):
        for j in range(1, 5):
            if i != j:
                want["E%d%d" % (i, j)] = ({(i - 1, j - 1): ONE}, 0)
        want["H%d" % i] = ({(i - 1, i - 1): ONE, (4, 4): ONE}, 0)
        want["alpha%d" % i] = ({(i - 1, 4): ONE}, 1)
        want["beta%d" % i] = ({(4, i - 1): ONE}, 1)
    basis = sl41_basis()
    assert len(basis) == 24
    assert {n: (x, parity(x)) for n, x in basis} == want


def test_basis_size_and_parities():
    basis = sl41_basis()
    assert len(basis) == 24
    evens = [x for _n, x in basis if parity(x) == 0]
    odds = [x for _n, x in basis if parity(x) == 1]
    assert len(evens) == 16 and len(odds) == 8
    for _n, x in basis:
        assert not supertrace_condition(x)
    # the grading read off the entries agrees with the dense reference on
    # the basis, its sigma images and all 576 supercommutators, the zero
    # ones (parity 0) included
    xs = [x for _n, x in basis]
    maps = (xs + [sigma(x) for x in xs]
            + [supercommutator(x, y) for x in xs for y in xs])
    assert {} in maps
    for x in maps:
        assert parity(x) == dm.parity(dm.dense(x))


def test_sigma_involution_and_antilinearity():
    assert all(sigma(sigma(x)) == x for _n, x in sl41_basis())
    assert antilinearity() == []


def test_sigma_explicit_image():
    # independent oracle: compute -F E11^+ F with plain complex fractions
    def cmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def mmul(a, b):
        n = len(a)
        return [[sum_c([cmul(a[i][t], b[t][j]) for t in range(n)])
                 for j in range(n)] for i in range(n)]

    def sum_c(items):
        re = sum((x[0] for x in items), Fraction(0))
        im = sum((x[1] for x in items), Fraction(0))
        return (re, im)

    f = [[(Fraction(0), Fraction(0))] * 4 for _ in range(4)]
    for k in range(2):
        f[k][k + 2] = (Fraction(0), Fraction(-1))
        f[k + 2][k] = (Fraction(0), Fraction(1))
    e11 = [[(Fraction(0), Fraction(0))] * 4 for _ in range(4)]
    e11[0][0] = (Fraction(1), Fraction(0))
    expected = mmul(f, mmul(e11, f))  # E11 is self-adjoint
    expected = [[(-x[0], -x[1]) for x in row] for row in expected]

    name, h1 = [b for b in sl41_basis() if b[0] == "H1"][0]
    img = sigma(h1)
    for i in range(4):
        for j in range(4):
            g = img.get((i, j), ZERO)
            got = (Fraction(g.re, g.den), Fraction(g.im, g.den))
            assert got == expected[i][j], (i, j)
    # the d entry of sigma(H1) is -conj(1) = -1, and nothing else is set
    assert img[4, 4] == -ONE
    assert all(i < 4 and j < 4 for i, j in img if (i, j) != (4, 4))
    assert all(img.values())


def test_bracket_compatibility_exhaustive():
    assert bracket_compatibility() == []


def test_odd_odd_supercommutator_is_even():
    basis = dict(sl41_basis())
    x = basis["alpha1"]
    z = supercommutator(x, x)
    assert parity(z) == 0
    assert z == {}  # E15 E15 = 0
    assert sigma(z) == supercommutator(sigma(x), sigma(x))
    # [alpha1, beta1] = E15 E51 + E51 E15 = H1
    assert supercommutator(x, basis["beta1"]) == basis["H1"]


def test_fixed_point_dimensions():
    even, odd = fixed_point_bases()
    assert (len(even), len(odd)) == (16, 8)


def test_su22_conditions():
    assert su22_conditions_hold() == []


def test_complexified_bases_store_no_zero():
    # most cells of a fixed-point basis vector hold 0 + 0i: 276 of the 320
    # cells over both bases, each a new key of accumulate, whose zero test
    # on a new key keeps them out of the sparse matrix
    even, odd = realforms.fixed_point_bases()
    full = [(i, j) for i in range(4) for j in range(4)]
    col, row = [(i, 0) for i in range(4)], [(0, j) for j in range(4)]
    cases = [(v, full) for v in even] + [(v[:8], col) for v in odd] + \
        [(v[8:], row) for v in odd]
    zeros = 0
    for vec, cells in cases:
        want = {c: vec[2 * k] + vec[2 * k + 1] * GI
                for k, c in enumerate(cells)}
        zeros += sum(1 for v in want.values() if not v)
        got = realforms._complexified(vec, cells)
        assert all(got.values())
        assert got == {c: v for c, v in want.items() if v}
    assert zeros == 276


def test_poincare_conjugation_involutive():
    ga = poincare_group_algebra()
    g = generic_element(ga)
    assert g.conjugated().conjugated() == g


def test_reduced_element_is_fixed_point():
    # each record evaluates its own condition on the reduced element
    records = run_suite("poincare-reality").records
    assert [r.id for r in records] == [
        "involutive", "fixed-point", "displayed-conditions", "t-hermitian",
        "equivalence"]
    assert all(r.verdict for r in records)


def test_reverse_convention_breaks_the_group_conjugation():
    # with the reversing star (ab)* = b*a*, chi^+ chi becomes hermitian and
    # the conjugation stops being involutive on the M block; this pins the
    # choice of the plain graded convention
    ga = realforms.poincare_group_algebra()  # a new algebra on each call
    partner = ga._conj  # rank -> the rank of its conjugate partner

    def reversing_star(el):
        out = ga.zero()
        for w, c in el.terms.items():
            img = tuple(partner[r] for r in reversed(ga.letters(w)))
            out = out + Element(ga, ga.normal_form({img: c.conjugate()}))
        return out

    # GrassmannAlgebra.star keeps products in order; this one algebra
    # reverses them instead
    ga.star = reversing_star
    g = ga.gen
    chi = GrassmannMatrix(ga, [[g("x1"), g("x2")]])
    k = chi.dagger() * chi
    assert (k.dagger() - k).is_zero()  # hermitian under reversal
    from qmink.classical import SuperPoincareElement
    from qmink.grassmann import GrassmannRational
    el = SuperPoincareElement(
        L=GrassmannMatrix(ga, [[g("l11"), g("l12")], [g("l21"), g("l22")]]),
        M=GrassmannMatrix(ga, [[g("m11"), g("m12")], [g("m21"), g("m22")]]),
        R=GrassmannMatrix(ga, [[g("r11"), g("r12")], [g("r21"), g("r22")]]),
        phi=GrassmannMatrix(ga, [[g("f1")], [g("f2")]]),
        chi=chi,
        d=GrassmannRational(ga, g("d")))
    assert el.conjugated().conjugated() != el


def test_plain_convention_antihermitian_chi():
    ga = poincare_group_algebra()
    g = ga.gen
    chi = GrassmannMatrix(ga, [[g("x1"), g("x2")]])
    k = chi.dagger() * chi
    assert (k.dagger() + k).is_zero()


def false_records(name):
    # fixed_point_bases is cached: clear it so the suite sees the mutation,
    # and again so later tests do not
    realforms.fixed_point_bases.cache_clear()
    try:
        records = run_suite(name).records
    finally:
        realforms.fixed_point_bases.cache_clear()
    bad = {r.id: r.witness for r in records if not r.verdict}
    assert not any(w.startswith("exception:") for w in bad.values())
    return bad


def test_plus_conj_d_fails_sigma_involution(monkeypatch):
    # sigma with +conj(d) in place of -conj(d) in the (5,5) entry: still
    # involutive, but the image of H1 breaks the trace condition and sigma
    # stops respecting the brackets of H1 with the odd generators
    right = realforms.sigma

    def sigma_plus_conj_d(x):
        img = dict(right(x))
        if (4, 4) in img:
            img[4, 4] = -img[4, 4]
        return img

    monkeypatch.setattr(realforms, "sigma", sigma_plus_conj_d)
    assert set(false_records("sigma-involution")) == \
        {"antilinearity", "bracket-compatibility"}
    assert false_records("su221-dimensions") == {}


def _send_e12_to_e21(monkeypatch):
    """Patch sigma(E12) to E21 in place of -E43."""
    right = realforms.sigma
    e12 = dict(sl41_basis())["E12"]

    def swapped(x):
        return {(1, 0): ONE} if x == e12 else right(x)

    monkeypatch.setattr(realforms, "sigma", swapped)


def test_e12_sent_to_e21_names_the_cells_that_moved(monkeypatch):
    # sigma^2(E12) is then sigma(E21), and the involution record names
    # the two cells where it and E12 differ
    _send_e12_to_e21(monkeypatch)
    assert false_records("sigma-involution")["involution:E12"] == \
        "differ at (1,2), (3,4)"


def test_antilinearity_leaves_sigma_squared_to_the_involution_records(
        monkeypatch):
    # under the same patch sigma(iE12) = iE43 is not -i sigma(E12) = -iE21;
    # the antilinearity record names that and nothing of sigma^2, which
    # only involution:E12 checks
    _send_e12_to_e21(monkeypatch)
    bad = false_records("sigma-involution")
    assert bad["antilinearity"] == "failures: [('E12', 'antilinearity')]"
    assert set(bad) == {"involution:E12", "antilinearity",
                        "bracket-compatibility"}


def test_dropped_equation_fails_su221_dimensions(monkeypatch):
    # the even fixed-point system loses the imaginary part of the (1,3)
    # entry of x - sigma(x) = 0, which is p + F p^+ F; that entry is paired
    # with no other, so one more real direction passes as a fixed point
    # and breaks the conditions
    solve = realforms.kernel_basis
    dropped = 2 * (0 * 4 + 2) + 1  # entry (cell, part) = ((0, 2), imaginary)

    def kernel_without_equation(cols):
        if len(cols) == 32:
            cols = [col[:dropped] + col[dropped + 1:] for col in cols]
        return solve(cols)

    monkeypatch.setattr(realforms, "kernel_basis", kernel_without_equation)
    assert set(false_records("su221-dimensions")) == \
        {"fixed-point-dimensions", "defining-conditions"}
    assert false_records("sigma-involution") == {}


def test_generic_element_is_not_fixed(monkeypatch):
    # the generic element in place of the reduced one: it is no fixed
    # point, and neither the raw condition nor T = T^+ holds; L^+-1 chi^+
    # chi L^-1 is anti-hermitian for any L and chi, so equivalence holds
    monkeypatch.setattr(realforms, "reduced_element",
                        realforms.generic_element)
    assert set(false_records("poincare-reality")) == \
        {"fixed-point", "displayed-conditions", "t-hermitian"}


def test_unconjugated_dagger_fails_antilinearity(monkeypatch):
    # a dagger that transposes without conjugating makes sigma linear:
    # only the antilinearity record fails, and its witness names the
    # first failing basis elements
    monkeypatch.setattr(realforms, "mat_dagger",
                        lambda a: {(j, i): c for (i, j), c in a.items()})
    bad = false_records("sigma-involution")
    assert list(bad) == ["antilinearity"]
    assert bad["antilinearity"] == "failures: %s" % [
        (name, "antilinearity") for name, _x in sl41_basis()[:5]]


def test_raising_t_fails_only_the_t_hermitian_record(monkeypatch):
    # the builder only builds the elements; each record computes its own
    # condition, so an exception in T() fails t-hermitian alone
    def raising(self):
        raise ArithmeticError("no T")

    monkeypatch.setattr(classical.SuperPoincareElement, "T", raising)
    records = run_suite("poincare-reality").records
    assert len(records) == 5
    assert {r.id: r.witness for r in records if not r.verdict} == \
        {"t-hermitian": "exception: ArithmeticError('no T')"}


def test_reduced_element_d_is_a_phase_not_one():
    # d = (1 + iu)/(1 - iu): either sign flip makes d = 1, which still has
    # d d* = 1, so the reality records alone do not see it
    d = reduced_element(poincare_group_algebra()).d
    assert not (d - 1).is_zero()
    assert (d * d.star() - 1).is_zero()


def reference_kernel_basis(rows, ncols):
    """Kernel over Q by back-substitution on the RREF, on Fractions."""
    mat = [[Fraction(x) for x in r] for r in rows]
    nrows = len(mat)
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def _matrices():
    # small integer entries, biased to zero, and some columns repeated
    # as multiples of others so that dependent columns are common
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])

    def build(shape):
        nrows, ncols = shape
        cols = st.lists(st.lists(entry, min_size=nrows, max_size=nrows),
                        min_size=ncols, max_size=ncols)
        return st.tuples(cols, st.lists(
            st.tuples(st.integers(0, ncols - 1), st.integers(-2, 2)),
            max_size=3))

    def assemble(data):
        cols, copies = data
        cols = [list(c) for c in cols]
        for k, (src, m) in enumerate(copies):
            dst = (src + k + 1) % len(cols)
            cols[dst] = [m * x for x in cols[src]]
        return cols

    shapes = st.tuples(st.integers(1, 5), st.integers(1, 7))
    return shapes.flatmap(build).map(assemble)


@settings(max_examples=200, deadline=None)
@given(_matrices())
@example([[0, 0], [1, 2], [2, 4]])
@example([[0, 0], [0, 0]])
@example([[1, 0, 2], [0, 1, 1], [3, 2, 8], [0, 0, 0], [-1, 4, 2]])
def test_kernel_basis_matches_back_substitution(cols):
    got = realforms.kernel_basis(
        [[GaussRational(x) for x in c] for c in cols])
    for vec in got:
        assert all(x.im == 0 for x in vec)
    assert [[Fraction(x.re, x.den) for x in vec] for vec in got] == \
        reference_kernel_basis(list(zip(*cols)), len(cols))


# the sparse matrices against the dense rows they replaced
# (tests/dense_matrices.py): units, a half and a few Gaussian integers,
# so that sums of products often cancel to zero
GAUSS = [GaussRational(*t) for t in
         [(1,), (-1,), (0, 1), (0, -1), (1, 1), (1, -1, 2), (3, 0, 2),
          (-2, 5)]]
ALL_CELLS = [(i, j) for i in range(5) for j in range(5)]
PARITY_CELLS = ([(i, j) for i in range(4) for j in range(4)] + [(4, 4)],
                [(i, 4) for i in range(4)] + [(4, j) for j in range(4)])


def _entry_maps(cells):
    return st.dictionaries(st.sampled_from(cells), st.sampled_from(GAUSS),
                           max_size=len(cells))


def _supermatrices():
    """Homogeneous entry maps: even or odd cells only."""
    return st.sampled_from(PARITY_CELLS).flatmap(_entry_maps)


@settings(max_examples=200, deadline=None)
@given(_entry_maps(ALL_CELLS), _entry_maps(ALL_CELLS))
@example({(0, 0): ONE, (0, 1): ONE}, {(0, 0): ONE, (1, 0): -ONE})
@example({(0, 0): GI, (0, 1): ONE}, {(0, 2): GI, (1, 2): ONE})
@example({}, {(2, 3): ONE})
def test_sparse_product_matches_dense(a, b):
    # the second and third examples cancel to the zero matrix
    a0, b0 = dict(a), dict(b)
    got = mat_mul(a, b)
    assert dm.dense(got) == dm.mat_mul(dm.dense(a), dm.dense(b))
    assert all(got.values())  # no zero is stored
    assert (a, b) == (a0, b0)  # the operands are left as they were


@settings(max_examples=150, deadline=None)
@given(_supermatrices(), _supermatrices())
@example({(0, 4): ONE}, {(4, 0): ONE})
@example({(0, 4): ONE, (1, 4): GI}, {(0, 4): -GI, (1, 4): ONE})
def test_supercommutator_matches_dense(x, y):
    # odd x odd adds the two products; the second example's anticommutator
    # cancels to zero
    z = supercommutator(x, y)
    assert parity(z) == (parity(x) + parity(y)) % 2 or z == {}
    assert dm.dense(z) == dm.supercommutator(
        dm.dense(x), parity(x), dm.dense(y), parity(y))
    assert all(z.values())


@settings(max_examples=150, deadline=None)
@given(_supermatrices())
@example({(4, 4): GaussRational(1, 1)})
@example({(0, 4): GI, (4, 3): GaussRational(3, 0, 2)})
def test_sigma_matches_dense(x):
    img = sigma(x)
    assert parity(img) == parity(x)
    assert dm.dense(img) == dm.sigma(dm.dense(x))
    assert all(img.values())
    assert set(img) <= set(PARITY_CELLS[parity(x)])
    assert sigma(img) == x
