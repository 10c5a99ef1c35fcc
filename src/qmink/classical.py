"""The q = 1 geometry: conformal algebra, big cells, twistors, superspace.

Vector fields are quadruples of exact polynomials in x0..x3 with the
mostly-minus metric; finite maps are tuples of rational functions
compared by cross-multiplication; the super side runs over Grassmann
algebras from the grassmann module.  Coefficients are GaussRationals,
and the conformal structure constants are solved over the same ring.
The last section carries the q -> 1 specialization bridge from the
quantum layer.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import Element
from .grassmann import (GrassmannAlgebra, GrassmannMatrix, GrassmannRational,
                        d_dx, rational_sum, symbols)
from .linalg import SpanSolver
from .scalars import GaussRational

METRIC = (1, -1, -1, -1)
HALF = GaussRational(1, 0, 2)
GI = GaussRational(0, 1)


def coordinate_algebra(extra=()):
    """Commutative polynomial algebra on x0..x3 plus extra even symbols."""
    return symbols(real=("x0", "x1", "x2", "x3", *extra))


def minkowski_square(ga, vec=None):
    """(v0)^2 - (v1)^2 - (v2)^2 - (v3)^2."""
    if vec is None:
        vec = [ga.gen("x%d" % mu) for mu in range(4)]
    return minkowski_dot(ga, vec, vec)


def minkowski_dot(ga, u, v):
    total = ga.zero()
    for mu in range(4):
        term = u[mu] * v[mu]
        total = total + (term if METRIC[mu] > 0 else -term)
    return total


class PolyVectorField:
    """sum_mu comps[mu] d/dx^mu over a coordinate algebra."""

    __slots__ = ("ga", "comps", "name")

    def __init__(self, ga, comps, name=""):
        self.ga = ga
        self.comps = comps
        self.name = name

    def bracket(self, other):
        """[V, W] = V(W) - W(V), componentwise on the coefficients."""
        ga = self.ga
        ranks = [ga.rank("x%d" % mu) for mu in range(4)]
        out = []
        for mu in range(4):
            acc = ga.zero()
            for nu in range(4):
                acc = acc + self.comps[nu] * d_dx(other.comps[mu], ranks[nu])
                acc = acc - other.comps[nu] * d_dx(self.comps[mu], ranks[nu])
            out.append(acc)
        return PolyVectorField(ga, out)

    def flat(self):
        """Coefficient vector keyed by (component, word)."""
        return {(mu, w): c for mu, comp in enumerate(self.comps)
                for w, c in comp.terms.items()}

    def is_zero(self):
        return all(not c for c in self.comps)


@lru_cache(maxsize=None)
def conformal_basis():
    """The fifteen generators: P0..3, D, L(mu<nu), K0..3, with the span
    solver over them."""
    ga = coordinate_algebra()
    x = [ga.gen("x%d" % mu) for mu in range(4)]
    xl = [x[mu] if METRIC[mu] > 0 else -x[mu] for mu in range(4)]  # lowered
    x2 = minkowski_square(ga)
    basis = []
    for mu in range(4):
        comps = [ga.one() if nu == mu else ga.zero() for nu in range(4)]
        basis.append(PolyVectorField(ga, comps, "P%d" % mu))
    basis.append(PolyVectorField(ga, list(x), "D"))
    for mu in range(4):
        for nu in range(mu + 1, 4):
            comps = [ga.zero()] * 4
            comps[mu] = xl[nu]
            comps[nu] = -xl[mu]
            basis.append(PolyVectorField(ga, comps, "L%d%d" % (mu, nu)))
    for mu in range(4):
        comps = []
        for nu in range(4):
            c = (xl[mu] * x[nu]).scale(GaussRational(2))
            if nu == mu:
                c = c - x2
            comps.append(c)
        basis.append(PolyVectorField(ga, comps, "K%d" % mu))
    solver = SpanSolver(GaussRational(1))
    for vf in basis:
        solver.add(vf.flat())
    return ga, basis, solver


def bracket_coordinates(i, j):
    """The bracket of generators i and j resolved exactly in the basis:
    (k, coordinate) pairs, or None when it leaves the span."""
    _ga, basis, solver = conformal_basis()
    br = basis[i].bracket(basis[j])
    if br.is_zero():
        return []
    found = solver.express(br.flat())
    if found is None:
        return None
    scale, coords = found
    inv = scale.inverse_of_unit()
    return [(k, c * inv) for k, c in enumerate(coords) if c]


# -- finite conformal maps -----------------------------------------------------


class RationalMap:
    """Four rational functions of x0..x3 (extra symbols allowed)."""

    def __init__(self, ga, comps):
        self.ga = ga
        self.comps = [c if isinstance(c, GrassmannRational)
                      else GrassmannRational(ga, c) for c in comps]

    @classmethod
    def identity(cls, ga):
        return cls(ga, [ga.gen("x%d" % mu) for mu in range(4)])

    def __eq__(self, other):
        return all(a == b for a, b in zip(self.comps, other.comps))

    def compose(self, other):
        """self after other: x -> self(other(x))."""
        ga = self.ga
        images = {ga.rank("x%d" % mu): other.comps[mu] for mu in range(4)}
        return RationalMap(ga, [
            substitute(ga, c.num, images) / substitute_product(ga, c.den, images)
            for c in self.comps])


def substitute(ga, el, images):
    """Evaluate an Element at generator -> rational images (default identity)."""
    terms = []
    letters = ga.letters
    for w, c in el.terms.items():
        f = GrassmannRational(ga, ga.scalar(c))
        for r in letters(w):
            img = images.get(r)
            if img is None:
                img = GrassmannRational(ga, ga.gen(ga.generators[r].name))
            f = f * img
        terms.append(f)
    return rational_sum(ga, terms)


def substitute_product(ga, factors, images):
    total = GrassmannRational(ga, ga.one())
    for f in factors:
        total = total * substitute(ga, f, images)
    return total


def translation_map(ga, b):
    return RationalMap(ga, [GrassmannRational(ga, ga.gen("x%d" % mu)) + b[mu]
                            for mu in range(4)])


def inversion_map(ga):
    """x^mu -> x^mu / x^2."""
    x2 = minkowski_square(ga)
    return RationalMap(ga, [GrassmannRational(ga, ga.gen("x%d" % mu), (x2,))
                            for mu in range(4)])


def special_conformal_map(ga, b, variant="standard"):
    """x^mu -> (x^mu + b^mu x^2) / (1 + 2 b.x + c b^2 x^2), c = 1 or 2.

    ``variant="standard"`` uses the denominator 1 + 2 b.x + b^2 x^2;
    ``variant="literal"`` uses the coefficient 2 on the b^2 x^2 term for
    comparison (it fails the inversion identity, see the checks).
    """
    if variant not in ("standard", "literal"):
        raise ValueError("variant must be 'standard' or 'literal'")
    b = [x if isinstance(x, Element) else ga.scalar(x) for x in b]
    x = [ga.gen("x%d" % mu) for mu in range(4)]
    x2 = minkowski_square(ga)
    b2 = minkowski_square(ga, b)
    bx = minkowski_dot(ga, b, x)
    den = ga.one() + bx.scale(GaussRational(2)) + b2 * x2
    if variant == "literal":
        den = den + b2 * x2
    return RationalMap(ga, [GrassmannRational(ga, x[mu] + b[mu] * x2, (den,))
                            for mu in range(4)])


# -- Pauli map and the Poincare action on the big cell --------------------------


def pauli_map(ga, x):
    """A = x^mu sigma_mu as a 2x2 matrix; x holds Elements or constants."""
    x = [v if isinstance(v, Element) else ga.scalar(v) for v in x]
    i = ga.scalar(GI)
    return GrassmannMatrix(ga, [
        [x[0] + x[3], x[1] - i * x[2]],
        [x[1] + i * x[2], x[0] - x[3]],
    ])


def det2(m):
    """Determinant of a 2x2 matrix (entries commute in our uses)."""
    return m.rows[0][0] * m.rows[1][1] - m.rows[0][1] * m.rows[1][0]


def poincare_action(L, R, N, A):
    """A -> N + R A L^{-1}."""
    return N + R * A * L.inverse()


def poincare_compose(g2, g1):
    """(L, R, N) pairs composed via the block lower-triangular product."""
    (L1, R1, N1), (L2, R2, N2) = g1, g2
    return (L2 * L1, R2 * R1, N2 + R2 * N1 * L2.inverse())


def big_cell_reduce(P1):
    """Bottom block of the GL(2)-normalized representative of a 4x2 matrix."""
    top = P1.block(0, 2, 0, 2)
    bottom = P1.block(2, 4, 0, 2)
    return bottom * top.inverse()


# -- superflag big cell and twistor relation ------------------------------------


def superflag_reduce(P1, P2):
    """Big-cell blocks (A, alpha, B, beta) of the standard forms of a flag
    pair; the twistor relation says B = A - beta alpha.

    P1 is 5x2 (two even columns), P2 is 5x3 (two even and one odd
    column).  An inverse raises ZeroDivisionError unless the top 2x2
    blocks and the (5,3) entry have invertible body: the body of P2's
    rows 1, 2 and 5 is block-diagonal, as their other entries are odd.
    """
    topinv = P1.block(0, 2, 0, 2).inverse()
    A = P1.block(2, 4, 0, 2) * topinv
    alpha = P1.block(4, 5, 0, 2) * topinv
    rows125 = GrassmannMatrix.vstack(P2.block(0, 2, 0, 3), P2.block(4, 5, 0, 3))
    h = rows125.inverse()
    P2std = P2 * h
    return A, alpha, P2std.block(2, 4, 0, 2), P2std.block(2, 4, 2, 3)


# -- the super Poincare group and its chiral action -----------------------------


class SuperPoincareElement:
    """Blocks of [[L,0,0],[M,R,R phi],[d chi,0,d]]; equal to another
    element with equal blocks."""

    def __init__(self, L, M, R, phi, chi, d):
        self.L = L
        self.M = M
        self.R = R
        self.phi = phi  # 2x1
        self.chi = chi  # 1x2
        self.d = d

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    @property
    def ga(self):
        return self.L.ga

    def N(self):
        return self.M * self.L.inverse()

    def S(self):
        """L^+-1 chi^+ chi L^-1, the odd term of the reality condition,
        as X^+ X with X = chi L^-1: L^-1 has even entries, which commute
        with every entry under the involution, so L^+-1 = (L^-1)^+ and
        (chi L^-1)^+ = (L^-1)^+ chi^+, and L is inverted once."""
        x = self.chi * self.L.inverse()
        return x.dagger() * x

    def T(self):
        return self.N() - self.S().scale(HALF)

    def as_matrix(self):
        rphi = self.R * self.phi
        dchi = self.chi.scale(self.d)
        rows = []
        for i in range(2):
            rows.append(self.L.rows[i] + [0, 0, 0])
        for i in range(2):
            rows.append(self.M.rows[i] + self.R.rows[i] + [rphi.rows[i][0]])
        rows.append(dchi.rows[0] + [0, 0, self.d])
        return GrassmannMatrix(self.ga, rows)

    @classmethod
    def from_matrix(cls, m):
        ga = m.ga
        L = m.block(0, 2, 0, 2)
        M = m.block(2, 4, 0, 2)
        R = m.block(2, 4, 2, 4)
        d = m.rows[4][4]
        phi = R.inverse() * m.block(2, 4, 4, 5)
        chi = m.block(4, 5, 0, 2).scale(d.inverse())
        if not (m.block(0, 2, 2, 5).is_zero() and m.block(4, 5, 2, 4).is_zero()):
            raise ValueError("matrix is not in super Poincare block form")
        return cls(L, M, R, phi, chi, d)

    def compose(self, other):
        """self * other as block matrices."""
        return SuperPoincareElement.from_matrix(self.as_matrix()
                                                * other.as_matrix())

    def conjugated(self):
        """The real-form conjugation of the Poincare supergroup."""
        Ldi = self.L.dagger().inverse()
        Rdi = self.R.dagger().inverse()
        return SuperPoincareElement(
            L=Rdi,
            M=Ldi * self.M.dagger() * Rdi
              + Ldi * self.chi.dagger() * self.phi.dagger(),
            R=Ldi,
            phi=self.chi.dagger(),
            chi=self.phi.dagger(),
            d=self.d.star().inverse(),
        )


class ChiralPoint:
    """Big-cell coordinates (C, theta, thetabar); theta columns are 2x1.
    Equal to another point with equal coordinates."""

    def __init__(self, C, theta, thetabar):
        self.C = C
        self.theta = theta
        self.thetabar = thetabar

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)


def super_poincare_chiral_action(g, pt):
    """The action on (C, theta, thetabar):

    C -> R (C + 1/2 phi thetabar^t - 1/2 theta phibar^t) R^dagger + T
    theta -> d^-1 R (theta + phi)
    thetabar -> d L^-1t (thetabar + phibar)
    """
    phibar = g.phi.star()
    T = g.T()
    C2 = g.R * (pt.C
                + (g.phi * pt.thetabar.transpose()).scale(HALF)
                - (pt.theta * phibar.transpose()).scale(HALF)) \
        * g.R.dagger() + T
    theta2 = (g.R * (pt.theta + g.phi)).scale(g.d.inverse())
    thetabar2 = (g.L.inverse().transpose()
                 * (pt.thetabar + phibar)).scale(g.d)
    return ChiralPoint(C2, theta2, thetabar2)


def real_group_element(ga, r_names, chi_names, t_names, u_name):
    """Generic element satisfying the reality conditions.

    t_names = (t11, t12, t22) with t11, t22 self-conjugate; the d block
    is (1 + iu)/(1 - iu) so that d conj(d) = 1.
    """
    g = ga.gen
    R = GrassmannMatrix(ga, [[g(r_names[0]), g(r_names[1])],
                             [g(r_names[2]), g(r_names[3])]])
    chi = GrassmannMatrix(ga, [[g(chi_names[0]), g(chi_names[1])]])
    t11, t12, t22 = t_names
    T = GrassmannMatrix(ga, [[g(t11), g(t12)], [ga.star(g(t12)), g(t22)]])
    iu = ga.scalar(GI) * g(u_name)
    d = GrassmannRational(ga, ga.one() + iu) / GrassmannRational(ga, ga.one() - iu)
    L = R.dagger().inverse()
    el = SuperPoincareElement(L, None, R, chi.dagger(), chi, d)
    # M = N L with N = T + S/2, so that el.T() is the hermitian T
    el.M = (T + el.S().scale(HALF)) * L
    return el


def real_point(ga, c_names, theta_names):
    """Hermitian C and thetabar = conj(theta)."""
    g = ga.gen
    c11, c12, c22 = c_names
    C = GrassmannMatrix(ga, [[g(c11), g(c12)], [ga.star(g(c12)), g(c22)]])
    theta = GrassmannMatrix(ga, [[g(theta_names[0])], [g(theta_names[1])]])
    return ChiralPoint(C, theta, theta.star())


# -- q -> 1 specialization --------------------------------------------------------


@lru_cache(maxsize=None)
def _classical_image(pres):
    """The Grassmann algebra on pres's generators, each its own conjugate."""
    return GrassmannAlgebra([(g.name, g.parity, g.name)
                             for g in pres.generators])


def specialize_q1(p):
    """Evaluate q -> 1 and map words into the supercommutative algebra."""
    image = _classical_image(p.alg)
    terms = {w: c.at_q_one() for w, c in p.terms.items()}
    return Element(image, image.normal_form(terms))
