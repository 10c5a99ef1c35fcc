"""Real forms: the conjugation defining su(2,2|1) and the real super
Poincare group.

The Lie-superalgebra side works with exact sparse 5x5 matrices over
Q(i): a matrix is a dict from (row, column) to a nonzero GaussRational,
and no zero is ever stored, so a product costs only the nonzero entry
pairs that meet (a basis matrix holds one or two entries, its sigma
image at most two), and two matrices are equal exactly when their dicts
are.  The (4|1) block grading is read off the entries (parity).  The
sigma fixed points are solved for with ``linalg.kernel_basis`` over the
same ring; the group side reuses the Grassmann machinery from the
classical module.  Nothing here involves q.
"""

from __future__ import annotations

from functools import lru_cache

from .classical import GI, SuperPoincareElement, real_group_element
from .grassmann import GrassmannMatrix, GrassmannRational, symbols
from .kernel import accumulate
from .linalg import kernel_basis
from .scalars import GaussRational

ZERO = GaussRational(0)
ONE = GaussRational(1)

# F = i [[0, -I2], [I2, 0]] (4x4), and K = diag(F, i) (5x5)
F = {(0, 2): -GI, (1, 3): -GI, (2, 0): GI, (3, 1): GI}
K = {**F, (4, 4): GI}


def mat_mul(a, b):
    """Row-indexed sparse product (Gustavson, ACM TOMS 4, 1978): each
    entry a[i, t] meets only the entries of row t of b, and a sum that
    cancels is dropped."""
    rows = {}
    for (t, j), c in b.items():
        rows.setdefault(t, []).append((j, c))
    out = {}
    for (i, t), c in a.items():
        accumulate(out, (((i, j), c * d) for j, d in rows.get(t, ())))
    return out


def mat_dagger(a):
    """Conjugate transpose, no parity sign."""
    return {(j, i): c.conjugate() for (i, j), c in a.items()}


def _scaled(s, a):
    return {k: s * c for k, c in a.items()}


def parity(x):
    """The (4|1) grading of a homogeneous matrix: 1 when an entry lies in
    an off-diagonal block, 0 otherwise (the zero matrix included)."""
    return 1 if any((i == 4) != (j == 4) for i, j in x) else 0


def supertrace_condition(x):
    """tr p - c, which vanishes on sl(4|1)."""
    tr = ZERO
    for k in range(4):
        tr = tr + x.get((k, k), ZERO)
    return tr - x.get((4, 4), ZERO)


def supercommutator(x, y):
    """[x, y] = xy - (-1)^{|x||y|} yx on homogeneous 5x5 matrices."""
    sign = ONE if parity(x) and parity(y) else -ONE
    return accumulate(mat_mul(x, y), _scaled(sign, mat_mul(y, x)).items())


def sigma(x):
    """sigma(p, alpha; beta, d) = (-F p^+ F, iF beta^+; i alpha^+ F, -conj d).

    That is K x^+ K with K = diag(F, i), its 4x4 block negated.
    """
    img = mat_mul(K, mat_mul(mat_dagger(x), K))
    return {(i, j): -c if i < 4 and j < 4 else c for (i, j), c in img.items()}


@lru_cache(maxsize=None)
def sl41_basis():
    """24 basis elements: 16 even (E_ij, i != j; E_kk + E_55) and 8 odd."""
    basis = []
    for i in range(4):
        for j in range(4):
            if i == j:
                # trace condition tr p = c
                basis.append(("H%d" % (i + 1), {(i, i): ONE, (4, 4): ONE}))
            else:
                basis.append(("E%d%d" % (i + 1, j + 1), {(i, j): ONE}))
    for i in range(4):
        basis.append(("alpha%d" % (i + 1), {(i, 4): ONE}))
    for j in range(4):
        basis.append(("beta%d" % (j + 1), {(4, j): ONE}))
    return tuple(basis)


def antilinearity():
    """sigma(iX) = -i sigma(X), and the trace condition on X and on
    sigma(X), for every basis element; sigma^2 = id is checked apart, one
    record per basis element."""
    failures = []
    for name, x in sl41_basis():
        sx = sigma(x)
        if sigma(_scaled(GI, x)) != _scaled(-GI, sx):
            failures.append((name, "antilinearity"))
        if supertrace_condition(x):
            failures.append((name, "trace condition"))
        if supertrace_condition(sx):
            failures.append((name, "image trace condition"))
    return failures


def bracket_compatibility():
    """sigma([x,y]) = [sigma x, sigma y] over all ordered basis pairs."""
    failures = []
    basis = sl41_basis()
    images = [sigma(x) for _n, x in basis]
    for (n1, x), sx in zip(basis, images):
        for (n2, y), sy in zip(basis, images):
            if sigma(supercommutator(x, y)) != supercommutator(sx, sy):
                failures.append((n1, n2))
    return failures


def _part(x, part):
    """The real (part 0) or imaginary (part 1) part of x, in Q."""
    return GaussRational(x.im if part else x.re, 0, x.den)


def _fixed_point_basis(cells):
    """Basis over Q of the sigma fixed points supported on cells.

    Parameter 2k (2k + 1) is the real (imaginary) unit in cell k; its
    column is x - sigma(x), realified on the same cells, so the kernel
    is {x : sigma(x) = x}.
    """
    cols = []
    for cell in cells:
        for unit in (ONE, GI):
            img = sigma({cell: unit})
            d = accumulate({cell: unit}, _scaled(-ONE, img).items())
            cols.append([_part(d.get(c, ZERO), part) for c in cells
                         for part in (0, 1)])
    return tuple(map(tuple, kernel_basis(cols)))


@lru_cache(maxsize=None)
def fixed_point_bases():
    """Bases over Q of the (even, odd) sigma fixed points.

    Realifies p (32 parameters) and (alpha, beta) (16 parameters) and
    solves sigma(X) = X exactly over Q, with rational GaussRationals.
    Cached, so the bases come back as tuples of tuples.
    """
    even = [(i, j) for i in range(4) for j in range(4)]
    odd = [(i, 4) for i in range(4)] + [(4, j) for j in range(4)]
    return _fixed_point_basis(even), _fixed_point_basis(odd)


def _complexified(vec, cells):
    """The matrix whose cell k holds vec[2k] + i vec[2k + 1]."""
    return accumulate({}, ((c, vec[2 * k] + vec[2 * k + 1] * GI)
                           for k, c in enumerate(cells)))


def su22_conditions_hold():
    """The conditions that some fixed-point basis vector fails, [] when
    every one holds.

    Even sector: F p + p^+ F = 0 and tr p purely imaginary; odd sector:
    alpha = i F beta^+.
    """
    even_basis, odd_basis = fixed_point_bases()
    failures = []
    for vec in even_basis:
        p = _complexified(vec, [(i, j) for i in range(4) for j in range(4)])
        if mat_mul(F, p) != _scaled(-ONE, mat_mul(mat_dagger(p), F)):
            failures.append("F p + p^+ F != 0")
        tr = ZERO
        for i in range(4):
            tr = tr + p.get((i, i), ZERO)
        if tr.re:
            failures.append("tr p not purely imaginary")
    for vec in odd_basis:
        # alpha a column (i, 0), beta a row (0, j)
        alpha = _complexified(vec[:8], [(i, 0) for i in range(4)])
        beta = _complexified(vec[8:], [(0, j) for j in range(4)])
        if alpha != _scaled(GI, mat_mul(F, mat_dagger(beta))):
            failures.append("alpha != i F beta^+")
    return failures


# -- group-level reality ---------------------------------------------------------


def poincare_group_algebra():
    """Symbols for a generic and a reduced super Poincare element."""
    return symbols(even=("l11", "l12", "l21", "l22",
                         "r11", "r12", "r21", "r22",
                         "m11", "m12", "m21", "m22", "d", "t12"),
                   real=("t11", "t22", "u"),
                   odd=("x1", "x2", "f1", "f2"))


def generic_element(ga):
    g = ga.gen
    return SuperPoincareElement(
        L=GrassmannMatrix(ga, [[g("l11"), g("l12")], [g("l21"), g("l22")]]),
        M=GrassmannMatrix(ga, [[g("m11"), g("m12")], [g("m21"), g("m22")]]),
        R=GrassmannMatrix(ga, [[g("r11"), g("r12")], [g("r21"), g("r22")]]),
        phi=GrassmannMatrix(ga, [[g("f1")], [g("f2")]]),
        chi=GrassmannMatrix(ga, [[g("x1"), g("x2")]]),
        d=GrassmannRational(ga, g("d")),
    )


def reduced_element(ga):
    return real_group_element(ga, ("r11", "r12", "r21", "r22"),
                              ("x1", "x2"), ("t11", "t12", "t22"), "u")
