"""Quantum Grassmannian Gr_q(2|0,4|1), its big cell, and chiral Minkowski.

The eleven quantum minors on columns (1,2) generate the quantum
Grassmannian; their reordering identities are re-derived by exact
linear algebra on the degree-4 component (the closure table), the
algebra is localized at D[1,2] once pure q-commutation against every
minor is machine-checked, and the generators t, tau of the quantum
chiral Minkowski superspace are built and verified against their
abstract quadratic presentation.

The antichiral space is isomorphic to the chiral one (swap the roles of
the two column pairs), so only the chiral side is constructed here.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .algebra import AlgebraError, Element, Generator, Presentation, TermMap
from .kernel import accumulate
from .linalg import SpanSolver, span_dimension
from .scalars import ONE, QINV, Scalar, ScalarError
from .supergroup import (MINOR_NAMES, MINOR_ORDER, build_slq41, comultiply,
                         minor)


class ClosureError(RuntimeError):
    """The closure table does not give the algebra it is read for: an
    entry failed, an entry gives no rewrite rule, or D[1,2] does not
    q-commute purely with some minor."""


@lru_cache(maxsize=None)
def minor_set():
    """The eleven minors in the fixed table order, as Elements of
    build_slq41(); MINOR_NAMES holds their names."""
    return tuple(minor(i, j) for (i, j) in MINOR_ORDER)


def minor_index(i, j):
    return MINOR_ORDER.index((i, j))


class ClosureEntry:
    """D_b D_a = sign * q^exponent * D_a D_b + correction (a <= b), the
    entry at key (a, b) of the closure table."""

    __slots__ = ("sign", "exponent", "correction", "kind", "ok", "witness")

    def __init__(self, sign, exponent, correction, kind, ok, witness=""):
        self.sign = sign
        self.exponent = exponent
        self.correction = correction
        self.kind = kind  # "reorder", "trivial", "square"
        self.ok = ok
        self.witness = witness


def _lead_word(terms):
    return max(terms, key=lambda w: (len(w), w))


def _unit_ratio(x, y):
    """(sign, e) when x == sign * q^e * y and x != 0; otherwise None."""
    if not x:
        return None
    e = x.max_exp() - y.max_exp()
    qy = Scalar.q_pow(e) * y
    if x == qy:
        return (1, e)
    if x == -qy:
        return (-1, e)
    return None


def _closure_entry(a, b, minors, products, solver):
    """The reordering identity for D_b D_a (a <= b), derived or refuted.

    An even nonzero square is trivial.  Otherwise the reversed product
    (or the square) is the target; when a < b and the sorted product
    D_a D_b is nonzero, its +-q^e multiple is split off as the lead.
    What remains must lie in the span of the sorted minor products, with
    coordinates in Z[i][q, q^-1], the ring Scalar computes in.  The
    solver holds products' values in key order (zero for an odd
    square), so coordinate j belongs to the j-th key of products.
    """
    ab = products[(a, b)]
    if a == b:
        if minors[a].parity() == 0 and ab:
            return ClosureEntry(1, 0, {}, "trivial", True)
        kind, residual = "square", ab
    else:
        kind, residual = "reorder", minors[b] * minors[a]
    sign, exp = 1, 0
    if a < b and ab:
        lead = _lead_word(ab.terms)
        x, y = residual.terms.get(lead, Scalar.zero()), ab.terms[lead]
        unit = _unit_ratio(x, y)
        if unit is None:
            return ClosureEntry(1, 0, {}, kind, False,
                                "leading coefficient (%s)/(%s) is not +-q^e"
                                % (x.to_text(), y.to_text()))
        sign, exp = unit
        residual = residual - ab.scale(Scalar.term(exp, sign))
    if not residual:
        return ClosureEntry(sign, exp, {}, kind, True)
    found = solver.express(residual.terms)
    if found is None:
        return ClosureEntry(sign, exp, {}, kind, False,
                            "%s not in the span of sorted minor products"
                            % ("square" if a == b else "correction"))
    scale, coords = found
    corr = {}
    for (c1, c2), c in zip(products, coords):
        if not c:
            continue
        try:
            corr[(c1, c2)] = c.exact_div(scale)
        except ScalarError as exc:
            # exc says "not a Laurent polynomial", or adds "over Z[i]"
            return ClosureEntry(sign, exp, {}, kind, False,
                                "coefficient (%s)/(%s) of %s*%s is %s"
                                % (c.to_text(), scale.to_text(),
                                   MINOR_NAMES[c1], MINOR_NAMES[c2], exc))
    return ClosureEntry(sign, exp, corr, kind, True)


@lru_cache(maxsize=None)
def closure_table():
    """Re-derive the reordering identities among the eleven minors.

    Returns a dict (a, b) -> ClosureEntry, one per a <= b.  For every
    pair the normal form of the reversed (or squared) product is
    expressed over the sorted minor products D_a D_b (a <= b) by exact
    linear algebra; an odd square's slot holds the zero vector, so the
    square must lie in the span of the others.  Absence of a solution
    falsifies the closure claim and is recorded (kind/ok), not raised.
    """
    minors = minor_set()
    n = len(minors)
    products = {(a, b): minors[a] * minors[b]
                for a in range(n) for b in range(a, n)}
    solver = SpanSolver()
    for (a, b), p in products.items():
        solver.add(p.terms if a < b or minors[a].parity() == 0 else {})
    return {key: _closure_entry(*key, minors, products, solver)
            for key in products}


def straightening_presentation():
    """Rewrite system on the minor alphabet induced by the closure table.

    Reorders minor words toward the table order, for printing.  The
    result is not a normal form: the degree-2 Plucker relations are no
    rules here, so equal elements can print differently.
    Raises ClosureError, naming the entry, when an entry failed (a
    correction that is not a Laurent polynomial already fails its entry)
    or its correction does not lie below the reordered word.
    Confluence of this system is not claimed; zero tests always go
    through the ambient algebra.  An odd minor's square, zero in the
    table, is the rule the presentation already has.
    """
    pres = Presentation(Generator(name, m.parity())
                        for name, m in zip(MINOR_NAMES, minor_set()))
    for (a, b), e in sorted(closure_table().items()):
        if e.kind == "trivial":
            continue
        where = "%s*%s" % (MINOR_NAMES[b], MINOR_NAMES[a])
        if not e.ok:
            raise ClosureError("closure entry %s failed: %s"
                               % (where, e.witness))
        rhs = {}
        if e.kind == "reorder":
            rhs[(a, b)] = Scalar.term(e.exponent, e.sign)
            lhs = (b, a)
        else:
            lhs = (a, a)
        rhs.update(e.correction)
        if not rhs and lhs in pres.rules:
            continue
        try:
            pres.add_rule(lhs, rhs)
        except AlgebraError as exc:
            raise ClosureError("closure entry %s gives no rewrite rule: %s"
                               % (where, exc)) from exc
    return pres


class LocalizedAlgebra:
    """Gr_q with D[1,2] inverted.

    Elements are spanned by (word in the minors) * D12inv^k; moving
    D12inv through a minor uses the pure q-commutation exponents from
    the closure table, and zero tests embed into M_q(4|1) at a common
    D12inv power.
    """

    def __init__(self, minors, exponents):
        self.minors = minors
        self.exponents = exponents
        self.ambient = build_slq41()
        self._expand_cache = {(): self.ambient.one()}
        self._straightener = None

    def expand(self, mword):
        cached = self._expand_cache.get(mword)
        if cached is None:
            cached = self.expand(mword[:-1]) * self.minors[mword[-1]]
            self._expand_cache[mword] = cached
        return cached

    def one(self):
        return LocalElement(self, {((), 0): ONE})

    def dinv(self):
        return LocalElement(self, {((), 1): ONE})

    def from_minor(self, rank, coeff=ONE, dinv=0):
        return LocalElement(self, {((rank,), dinv): coeff})

    def straightener(self):
        if self._straightener is None:
            self._straightener = straightening_presentation()
        return self._straightener


class LocalElement(TermMap):
    """Sum of scalar * (minor word) * D12inv^k in a LocalizedAlgebra.

    Keys are (minor word, k).  Equality and zero tests go through the
    ambient algebra, so a LocalElement is not hashable.
    """

    __slots__ = ()

    def __mul__(self, other):
        if other.__class__ is not LocalElement or other.alg is not self.alg:
            return NotImplemented
        exps = self.alg.exponents
        t2 = other.terms.items()
        return LocalElement(self.alg, accumulate({}, (
            ((w1 + w2, k1 + k2),
             c1 * c2 * Scalar.q_pow(k1 * sum(exps[m] for m in w2)))
            for (w1, k1), c1 in self.terms.items() for (w2, k2), c2 in t2)))

    def to_ambient(self):
        """Image p with self = p * D12inv^top, top the largest D12inv power
        of a term: a power-k word gains top - k factors D[1,2] (minor 0)."""
        loc = self.alg
        top = max((k for (_w, k) in self.terms), default=0)
        acc = loc.ambient.zero()
        for (w, k), c in self.terms.items():
            acc = acc + loc.expand(w + (0,) * (top - k)).scale(c)
        return acc

    def is_zero(self):
        return self.to_ambient().is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if other.__class__ is not LocalElement or other.alg is not self.alg:
            return NotImplemented
        return (self - other).is_zero()

    def straightened(self):
        """Table-sorted representative with D12inv powers cancelled."""
        loc = self.alg
        pres = loc.straightener()
        exps = loc.exponents
        terms = accumulate({}, (((sw, k), c * sc)
                                for (w, k), c in self.terms.items()
                                for sw, sc in pres.nf_word(w)))
        cancelled = []
        for (w, k), c in terms.items():
            while k > 0 and w and w[0] == 0:
                c = c * Scalar.q_pow(-sum(exps[m] for m in w[1:]))
                w = w[1:]
                k -= 1
            cancelled.append(((w, k), c))
        return LocalElement(self.alg, accumulate({}, cancelled))

    def _key_text(self, key):
        w, k = key
        return "*".join([MINOR_NAMES[m] for m in w] + ["D12inv"] * k) or "1"

    @staticmethod
    def _term_order(term):
        """Sort key of a term: its key as (len(w), w, k)."""
        (w, k), _c = term
        return (len(w), w, k)


@lru_cache(maxsize=None)
def localized():
    """Adjoin D12inv after verifying pure q-commutation of D[1,2].

    Reads the exchange exponent of every minor against D[1,2] (index 0)
    from the closure table; raises ClosureError when an entry
    failed, has a minus sign or carries a correction.
    """
    minors = minor_set()
    table = closure_table()
    exponents = {0: 0}
    for b in range(1, len(minors)):
        e = table[(0, b)]
        if not (e.ok and e.sign == 1 and not e.correction):
            raise ClosureError(
                "D[1,2] does not q-commute purely with %s: %s"
                % (MINOR_NAMES[b], e.witness or "correction present"))
        exponents[b] = e.exponent
    return LocalizedAlgebra(minors, exponents)


# -- chiral Minkowski generators ----------------------------------------------

CHIRAL_NAMES = ("t[3,1]", "t[3,2]", "t[4,1]", "t[4,2]", "tau[5,1]", "tau[5,2]")


def build_chiral_generators():
    """The t and tau block entries as localized elements, in the rank
    order of CHIRAL_NAMES."""
    loc = localized()
    mi = minor_index
    return (loc.from_minor(mi(2, 3), -QINV, 1),  # t[3,1]
            loc.from_minor(mi(1, 3), ONE, 1),    # t[3,2]
            loc.from_minor(mi(2, 4), -QINV, 1),  # t[4,1]
            loc.from_minor(mi(1, 4), ONE, 1),    # t[4,2]
            loc.from_minor(mi(2, 5), -QINV, 1),  # tau[5,1]
            loc.from_minor(mi(1, 5), ONE, 1))    # tau[5,2]


def chiral_relations():
    """The fifteen quadratic relations of quantum chiral Minkowski space,
    one (family, lhs, rhs) per instance: lhs is a pair of generator
    names, rhs maps normal pairs of names to coefficients, and the
    relation reads lhs = rhs.  The one place their coefficients are
    written: build_chiral_presentation installs them as rules and
    substituted_residual substitutes the D-expressions into them."""
    q = Scalar.q_pow(1)
    qm1 = QINV - q

    def t(i, j):
        return "t[%d,%d]" % (i, j)

    def tau(j):
        return "tau[5,%d]" % j

    return (
        [("row", (t(i, 2), t(i, 1)), {(t(i, 1), t(i, 2)): QINV})
         for i in (3, 4)]
        + [("column", (t(4, j), t(3, j)), {(t(3, j), t(4, j)): q})
           for j in (1, 2)]
        + [("antidiagonal", (t(4, 2), t(3, 1)), {(t(3, 1), t(4, 2)): ONE}),
           ("diagonal", (t(4, 1), t(3, 2)),
            {(t(3, 2), t(4, 1)): ONE, (t(3, 1), t(4, 2)): -qm1}),
           ("tau-tau", (tau(2), tau(1)), {(tau(1), tau(2)): -q})]
        + [("t-tau-same-column", (tau(j), t(i, j)), {(t(i, j), tau(j)): q})
           for i in (3, 4) for j in (1, 2)]
        + [("t1-tau2", (tau(2), t(i, 1)), {(t(i, 1), tau(2)): ONE})
           for i in (3, 4)]
        + [("t2-tau1", (tau(1), t(i, 2)),
            {(t(i, 2), tau(1)): ONE, (t(i, 1), tau(2)): -qm1})
           for i in (3, 4)])


def _ranked(pres, lhs, rhs):
    """A relation of chiral_relations on pres's generator ranks."""
    def ranks(names):
        return tuple(map(pres.rank, names))

    return ranks(lhs), {ranks(w): c for w, c in rhs.items()}


def presentation_rules():
    """Every rule of the abstract presentation: the chiral relations,
    then the two odd squares.

    Returns one (family, statement, lhs, rhs) per rule, lhs and rhs on
    the generator ranks as in _ranked; the statement is the rule
    lhs = rhs, printed in the abstract presentation.
    """
    pres = build_chiral_presentation()
    odd_squares = [("odd-square", (g.name, g.name), {})
                   for g in pres.generators if g.parity]
    rules = []
    for family, lhs, rhs in chiral_relations() + odd_squares:
        lhs, rhs = _ranked(pres, lhs, rhs)
        rules.append((family, "%s = %s" % (pres.word_text(lhs),
                                           Element(pres, rhs).to_text()),
                      lhs, rhs))
    return rules


def substituted_residual(lhs, rhs):
    """The ambient image of lhs - rhs, a rule of presentation_rules,
    with the D-expressions substituted for the generators; zero exactly
    when the rule holds.  The generators are built on every call."""
    images = build_chiral_generators()
    elem = images[lhs[0]] * images[lhs[1]]
    for (a, b), c in rhs.items():
        elem = elem - (images[a] * images[b]).scale(c)
    return elem.to_ambient()


# -- abstract presentation -----------------------------------------------------


@lru_cache(maxsize=None)
def build_chiral_presentation():
    """Abstract presentation on t31 < t32 < t41 < t42 < tau51 < tau52:
    the rules of chiral_relations, and the odd squares."""
    parities = (0, 0, 0, 0, 1, 1)
    pres = Presentation(map(Generator, CHIRAL_NAMES, parities))
    for _family, lhs, rhs in chiral_relations():
        pres.add_rule(*_ranked(pres, lhs, rhs))
    return pres


def supercommutative_dimension(n_even, n_odd, d):
    """Degree-d monomial count with n_even polynomial and n_odd exterior vars."""
    return sum(comb(n_odd, k) * comb(n_even - 1 + d - k, d - k)
               for k in range(0, min(d, n_odd) + 1))


def chiral_normal_words(d):
    """Normal words of degree d in the abstract chiral presentation."""
    pres = build_chiral_presentation()
    rules = pres.rules
    words = [()]
    for _ in range(d):
        words = [w + (g,) for w in words for g in range(pres.ngens)
                 if not w or (w[-1], g) not in rules]
    return words


def substituted_span_dimension(d):
    """Rank of the images of the degree-d abstract normal words."""
    loc = localized()
    gen_list = build_chiral_generators()
    vectors = []
    for w in chiral_normal_words(d):
        el = loc.one()
        for gidx in w:
            el = el * gen_list[gidx]
        vectors.append(el.to_ambient().terms)
    return span_dimension(vectors)


# -- coaction -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _minor_span_solver():
    solver = SpanSolver()
    for m in minor_set():
        solver.add(m.terms)
    return solver


def coaction_membership(qm):
    """Rows of Delta(minor): each first-slot word, in order, maps to its
    second-slot polynomial expressed over the eleven minors (in their span
    over Q(i)(q)), as SpanSolver.express gives it, or to None where it
    leaves the span.  Delta(minor) lies in M_q(4|1) (x) span{minors}
    exactly when no row is None."""
    solver = _minor_span_solver()
    slots = {}
    for (u, v), c in comultiply(qm).terms.items():
        slots.setdefault(u, {})[v] = c
    return {u: solver.express(slots[u]) for u in sorted(slots)}


def cofactor_proportional_to(rows, mi, target):
    """If the cofactor of minor mi in the coaction rows is +-q^e * target
    (an Element), return (sign, e); otherwise None.

    The cofactor maps each first-slot word whose row gives minor mi a
    nonzero coordinate to coord/scale; coord/scale == +-q^e * t is
    checked as coord == +-q^e * (scale * t).
    """
    cofactor = {u: (found[1][mi], found[0]) for u, found in rows.items()
                if found is not None and found[1][mi]}
    if set(cofactor) != set(target.terms):
        return None
    units = {_unit_ratio(c, scale * target.terms[w])
             for w, (c, scale) in cofactor.items()}
    if len(units) != 1:
        return None
    return units.pop()
