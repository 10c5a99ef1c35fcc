"""Real forms: the conjugation defining su(2,2|1) and the real super
Poincare group.

The Lie-superalgebra side works with exact 5x5 matrices over Q(i),
with GaussRational entries, and solves for the sigma fixed points with
``linalg.kernel_basis`` over the same ring; the group side reuses the
Grassmann machinery from the classical module.  Nothing here involves q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .classical import GI, real_group_element
from .grassmann import SymbolSpec
from .linalg import kernel_basis
from .scalars import GaussRational

ZERO = GaussRational(0)
ONE = GaussRational(1)


def _zeros(m, n):
    return [[ZERO for _ in range(n)] for _ in range(m)]


def mat_mul(a, b):
    m, k, n = len(a), len(b), len(b[0])
    out = _zeros(m, n)
    for i in range(m):
        for t in range(k):
            c = a[i][t]
            if not c:
                continue
            for j in range(n):
                if b[t][j]:
                    out[i][j] = out[i][j] + c * b[t][j]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_scale(s, a):
    return [[s * x for x in row] for row in a]


def mat_dagger(a):
    """Conjugate transpose, no parity sign."""
    m, n = len(a), len(a[0])
    return [[a[i][j].conjugate() for i in range(m)] for j in range(n)]


def mat_is_zero(a):
    return all(not x for row in a for x in row)


@lru_cache(maxsize=None)
def f_matrix():
    """F = i [[0, -I2], [I2, 0]] (4x4)."""
    f = _zeros(4, 4)
    for k in range(2):
        f[k][k + 2] = -GI
        f[k + 2][k] = GI
    return tuple(tuple(r) for r in f)


def _f():
    return [list(r) for r in f_matrix()]


@dataclass(frozen=True)
class SuperMatrix5:
    """5x5 matrix over Q(i) with the (4|1) block grading."""

    entries: tuple  # 5x5 tuple of GaussRationals
    parity: int  # 0: even block-diagonal, 1: odd block-off-diagonal

    @classmethod
    def make(cls, rows, parity):
        return cls(tuple(tuple(r) for r in rows), parity)

    def rows(self):
        return [list(r) for r in self.entries]

    def p_block(self):
        return [list(r[:4]) for r in self.entries[:4]]

    def alpha(self):
        return [[r[4]] for r in self.entries[:4]]

    def beta(self):
        return [list(self.entries[4][:4])]

    def d_entry(self):
        return self.entries[4][4]

    def scale(self, s):
        return SuperMatrix5.make(mat_scale(s, self.rows()), self.parity)

    def add(self, other):
        if self.parity != other.parity:
            raise ValueError("parity mismatch")
        return SuperMatrix5.make(mat_add(self.rows(), other.rows()),
                                 self.parity)

    def sub(self, other):
        if self.parity != other.parity:
            raise ValueError("parity mismatch")
        return SuperMatrix5.make(mat_sub(self.rows(), other.rows()),
                                 self.parity)

    def is_zero(self):
        return mat_is_zero(self.rows())

    def supertrace_condition(self):
        """tr p - c, which vanishes on sl(4|1)."""
        tr = ZERO
        for k in range(4):
            tr = tr + self.entries[k][k]
        return tr - self.entries[4][4]


def supercommutator(x, y):
    """[x, y] = xy - (-1)^{|x||y|} yx on 5x5 matrices."""
    xy = mat_mul(x.rows(), y.rows())
    yx = mat_mul(y.rows(), x.rows())
    if x.parity and y.parity:
        rows = mat_add(xy, yx)
    else:
        rows = mat_sub(xy, yx)
    return SuperMatrix5.make(rows, (x.parity + y.parity) % 2)


def sigma(x):
    """sigma(p, alpha; beta, d) = (-F p^+ F, iF beta^+; i alpha^+ F, -conj d)."""
    f = _f()
    p = x.p_block()
    alpha = x.alpha()
    beta = x.beta()
    d = x.d_entry()
    new_p = mat_scale(-ONE, mat_mul(f, mat_mul(mat_dagger(p), f)))
    new_alpha = mat_scale(GI, mat_mul(f, mat_dagger(beta)))
    new_beta = mat_scale(GI, mat_mul(mat_dagger(alpha), f))
    rows = _zeros(5, 5)
    for i in range(4):
        for j in range(4):
            rows[i][j] = new_p[i][j]
        rows[i][4] = new_alpha[i][0]
        rows[4][i] = new_beta[0][i]
    rows[4][4] = -d.conjugate()
    return SuperMatrix5.make(rows, x.parity)


@lru_cache(maxsize=None)
def sl41_basis():
    """24 basis elements: 16 even (E_ij, i != j; E_kk + E_55) and 8 odd."""
    basis = []
    for i in range(4):
        for j in range(4):
            rows = _zeros(5, 5)
            rows[i][j] = ONE
            if i == j:
                rows[4][4] = ONE  # trace condition tr p = c
                basis.append(("H%d" % (i + 1), SuperMatrix5.make(rows, 0)))
            else:
                basis.append(("E%d%d" % (i + 1, j + 1),
                              SuperMatrix5.make(rows, 0)))
    for i in range(4):
        rows = _zeros(5, 5)
        rows[i][4] = ONE
        basis.append(("alpha%d" % (i + 1), SuperMatrix5.make(rows, 1)))
    for j in range(4):
        rows = _zeros(5, 5)
        rows[4][j] = ONE
        basis.append(("beta%d" % (j + 1), SuperMatrix5.make(rows, 1)))
    return tuple(basis)


def sigma_is_involution():
    """sigma^2 = id and antilinearity on every basis element."""
    failures = []
    for name, x in sl41_basis():
        if not sigma(sigma(x)).sub(x).is_zero():
            failures.append((name, "sigma^2"))
        ix = x.scale(GI)
        if not sigma(ix).add(sigma(x).scale(GI)).is_zero():
            failures.append((name, "antilinearity"))
        if x.supertrace_condition():
            failures.append((name, "trace condition"))
        if sigma(x).supertrace_condition():
            failures.append((name, "image trace condition"))
    return failures


def bracket_compatibility():
    """sigma([x,y]) = [sigma x, sigma y] over all ordered basis pairs."""
    failures = []
    basis = sl41_basis()
    images = [(n, sigma(x)) for n, x in basis]
    for (n1, x), (sn1, sx) in zip(basis, images):
        for (n2, y), (sn2, sy) in zip(basis, images):
            lhs = sigma(supercommutator(x, y))
            rhs = supercommutator(sx, sy)
            if not lhs.sub(rhs).is_zero():
                failures.append((n1, n2))
    return failures


def _part(x, part):
    """The real (part 0) or imaginary (part 1) part of x, in Q."""
    return GaussRational(x.im if part else x.re, 0, x.den)


def _fixed_point_basis(cells, parity):
    """Basis over Q of the sigma fixed points supported on cells.

    Parameter 2k (2k + 1) is the real (imaginary) unit in cell k; its
    column is x - sigma(x), realified on the same cells, so the kernel
    is {x : sigma(x) = x}.
    """
    cols = []
    for i, j in cells:
        for unit in (ONE, GI):
            rows = _zeros(5, 5)
            rows[i][j] = unit
            x = SuperMatrix5.make(rows, parity)
            d = x.sub(sigma(x)).entries
            cols.append([_part(d[a][b], part) for a, b in cells
                         for part in (0, 1)])
    return tuple(map(tuple, kernel_basis(list(zip(*cols)), len(cols))))


@lru_cache(maxsize=None)
def fixed_point_bases():
    """Bases over Q of the (even, odd) sigma fixed points.

    Realifies p (32 parameters) and (alpha, beta) (16 parameters) and
    solves sigma(X) = X exactly over Q, with rational GaussRationals.
    Cached, so the bases come back as tuples of tuples.
    """
    even = [(i, j) for i in range(4) for j in range(4)]
    odd = [(i, 4) for i in range(4)] + [(4, j) for j in range(4)]
    return _fixed_point_basis(even, 0), _fixed_point_basis(odd, 1)


def fixed_point_dimension():
    """Real dimensions (even, odd) of the sigma fixed points."""
    even_basis, odd_basis = fixed_point_bases()
    return len(even_basis), len(odd_basis)


def su22_conditions_hold():
    """Every fixed-point basis vector satisfies the displayed conditions.

    Even sector: F p + p^+ F = 0 and tr p purely imaginary; odd sector:
    alpha = i F beta^+.
    """
    even_basis, odd_basis = fixed_point_bases()
    f = _f()
    failures = []
    for vec in even_basis:
        p = _zeros(4, 4)
        k = 0
        for i in range(4):
            for j in range(4):
                p[i][j] = vec[k] + vec[k + 1] * GI
                k += 2
        cond = mat_add(mat_mul(f, p), mat_mul(mat_dagger(p), f))
        if not mat_is_zero(cond):
            failures.append("F p + p^+ F != 0")
        tr = ZERO
        for i in range(4):
            tr = tr + p[i][i]
        if tr.re:
            failures.append("tr p not purely imaginary")
    for vec in odd_basis:
        alpha = [[ZERO] for _ in range(4)]
        beta = [[ZERO] * 4]
        k = 0
        for i in range(4):
            alpha[i][0] = vec[k] + vec[k + 1] * GI
            k += 2
        for j in range(4):
            beta[0][j] = vec[k] + vec[k + 1] * GI
            k += 2
        c1 = mat_sub(alpha, mat_scale(GI, mat_mul(f, mat_dagger(beta))))
        if not mat_is_zero(c1):
            failures.append("alpha != i F beta^+")
    return (len(even_basis), len(odd_basis)), failures


# -- group-level reality ---------------------------------------------------------


def poincare_group_algebra():
    """Symbols for a generic and a reduced super Poincare element."""
    sp = SymbolSpec.empty()
    sp.even("l11", "l12", "l21", "l22",
            "r11", "r12", "r21", "r22",
            "m11", "m12", "m21", "m22", "d", "t12")
    sp.even_self("t11", "t22", "u")
    sp.odd("x1", "x2", "f1", "f2")
    return sp.build()


def generic_element(ga):
    from .classical import SuperPoincareElement
    from .grassmann import GrassmannMatrix, GrassmannRational
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


@dataclass
class RealityReport:
    conditions_hold: bool
    raw_condition_holds: bool
    t_hermitian: bool
    equivalence_identity: bool
    fixed_point: bool


def poincare_reality_reduce(g):
    """Check the displayed reality conditions on a super Poincare element.

    Returns which of the following hold symbolically: L = R^+-1 and
    phi = chi^+; the raw condition ML^-1 = (ML^-1)^+ + L^+-1 chi^+ chi L^-1;
    T = T^+; the identity making the raw and T-forms equivalent
    ((L^+-1 chi^+ chi L^-1)^+ = -L^+-1 chi^+ chi L^-1); and whether g is a
    fixed point of the conjugation.
    """
    cond1 = (g.L - g.R.dagger().inverse()).is_zero()
    cond2 = (g.phi - g.chi.dagger()).is_zero()
    cond_d = (g.d * g.d.star() - 1).is_zero()
    n = g.N()
    s = g.L.dagger().inverse() * g.chi.dagger() * g.chi * g.L.inverse()
    raw = (n - n.dagger() - s).is_zero()
    t = g.T()
    t_herm = (t - t.dagger()).is_zero()
    equiv = (s.dagger() + s).is_zero()
    fixed = g.conjugated().equals(g)
    return RealityReport(cond1 and cond2 and cond_d, raw, t_herm, equiv, fixed)
