"""Exact linear algebra by one fraction-free elimination.

SpanSolver keeps an incrementally built echelon of sparse vectors
(word -> coefficient maps) with fraction-free row operations (Bareiss
1968), which stay exact without dividing rows by their content; a
transformation record lets queries be expressed back in the original
basis as one common scale and ring numerators:
scale*vec = sum coords[j]*basis[j].  The elimination only multiplies
and subtracts, so it runs over any coefficient ring whose unit it is
given: Scalar, the Laurent ring Z[i][q, q^-1] (the default), or
GaussRational, the field Q(i) of the q = 1 layer.  The span is the one
over the ring's fraction field; a caller that needs the coordinates
themselves divides each numerator by the scale, and over Scalar that
division (``Scalar.exact_div``) fails when a coordinate leaves the ring.
``kernel_basis`` solves a homogeneous system over Q(i) with the same
solver.
"""

from __future__ import annotations

from .kernel import accumulate
from .scalars import ONE, GaussRational


def _word_key(w):
    return (len(w), w)


def _combine(pc, a, e, b):
    """pc*a - e*b over sparse maps, dropping the zeros."""
    ne = -e
    return accumulate({k: pc * c for k, c in a.items()},
                      ((k, ne * c) for k, c in b.items()))


class SpanSolver:
    """Echelon of added vectors; answers membership and coordinates.

    ``unit`` is the one of the coefficient ring the vectors live in.
    A pivot is (sort key, lead, lead coefficient, row, trans), never
    rewritten: the echelon is plain, as no row holds a word above its
    lead, so a lead _eliminate has cleared never comes back.
    """

    def __init__(self, unit=ONE):
        self.unit = unit
        self.zero = unit - unit
        self.pivots = []
        self.nbasis = 0

    @property
    def rank(self):
        return len(self.pivots)

    def _eliminate(self, row, trans):
        """Reduce (row, trans) against the pivots.

        Each step keeps row = scale*input + sum trans[j]*basis[j], where
        scale is the product of the pivot coefficients used; returns
        (row, trans, scale).
        """
        scale = self.unit
        for _key, lead, pc, prow, ptrans in self.pivots:
            e = row.get(lead)
            if e is None:
                continue
            row = _combine(pc, row, e, prow)
            trans = _combine(pc, trans, e, ptrans)
            scale = pc * scale
        return row, trans, scale

    def add(self, vec):
        """Add a basis vector; returns True when it enlarges the span.

        A vector with no nonzero coefficient is dependent, like any other
        that leaves the span as it is: it takes an index and no pivot.
        """
        idx = self.nbasis
        self.nbasis += 1
        row, trans, _scale = self._eliminate(
            {w: c for w, c in vec.items() if c}, {idx: self.unit})
        if not row:
            return False
        lead = max(row, key=_word_key)
        # leads are distinct, so the sort never compares past the key
        self.pivots.append((_word_key(lead), lead, row[lead], row, trans))
        self.pivots.sort(reverse=True)
        return True

    def express(self, vec):
        """Coordinates of vec over the added vectors, or None.

        Returns (scale, coords): a nonzero ring element and a list of
        nbasis ring elements with scale*vec == sum coords[j]*basis[j].
        Vectors that were dependent when added always receive coordinate
        zero.
        """
        row, trans, scale = self._eliminate(
            {w: c for w, c in vec.items() if c}, {})
        if row:
            return None
        # the reduced row is scale*vec + sum trans[j]*basis[j] = 0
        zero = self.zero
        return scale, [-trans.get(j, zero) for j in range(self.nbasis)]


def span_dimension(vectors):
    solver = SpanSolver()
    for v in vectors:
        solver.add(v)
    return solver.rank


def kernel_basis(cols):
    """Basis of {v : sum_c v[c] cols[c] = 0} over Q(i), one vector per
    free column.

    Column c, a list of GaussRationals, goes into a SpanSolver as the
    vector {(r,): cols[c][r]}, so solver index c is column c.  A column
    that ``add`` finds dependent, a zero one included, is free; its basis
    vector is one at the column, minus its coordinates over the earlier
    pivot columns: the RREF basis.
    """
    solver = SpanSolver(GaussRational(1))
    vecs = [{(r,): x for r, x in enumerate(col)} for col in cols]
    free = [c for c, vec in enumerate(vecs) if not solver.add(vec)]
    basis = []
    for f in free:
        scale, coords = solver.express(vecs[f])
        inv = scale.inverse_of_unit()
        vec = [-(c * inv) if c else solver.zero for c in coords]
        vec[f] = solver.unit
        basis.append(vec)
    return basis
