"""Exact linear algebra over Q(i)[q,q^-1] and over Q.

SpanSolver keeps an incrementally built echelon of sparse vectors
(word -> Scalar maps) with fraction-free row operations, which stay
exact without dividing rows by their content; a transformation record
lets queries be expressed back in the original basis as one common
scale and ring numerators: scale*vec = sum coords[j]*basis[j].  The
span is the one over the fraction field Q(i)(q); a caller that needs
the coordinates themselves divides each numerator by the scale.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ONE, ZERO


class DegenerateBasisError(ValueError):
    pass


def _word_key(w):
    return (len(w), w)


def _combine(pc, a, e, b):
    """pc*a - e*b over sparse maps, dropping the zeros."""
    out = {k: pc * c for k, c in a.items()}
    for k, c in b.items():
        prev = out.get(k)
        v = -(e * c) if prev is None else prev - e * c
        if v:
            out[k] = v
        elif prev is not None:
            del out[k]
    return out


class _Pivot:
    __slots__ = ("lead", "lead_coef", "row", "trans")

    def __init__(self, row, trans):
        self.row = row
        self.trans = trans
        self.lead = max(row, key=_word_key)
        self.lead_coef = row[self.lead]


class SpanSolver:
    """Echelon of added vectors; answers membership and coordinates."""

    def __init__(self):
        self.pivots = []
        self.nbasis = 0
        self.dependent = []

    @property
    def rank(self):
        return len(self.pivots)

    def _eliminate(self, row, trans):
        """Reduce (row, trans) against the pivots.

        Each step keeps row = scale*input + sum trans[j]*basis[j], where
        scale is the product of the pivot coefficients used; returns
        (row, trans, scale).
        """
        scale = ONE
        for p in self.pivots:
            e = row.get(p.lead)
            if e is None:
                continue
            pc = p.lead_coef
            row = _combine(pc, row, e, p.row)
            trans = _combine(pc, trans, e, p.trans)
            scale = pc * scale
        return row, trans, scale

    def add(self, vec):
        """Add a basis vector; returns True when it enlarges the span."""
        idx = self.nbasis
        self.nbasis += 1
        row = {w: c for w, c in vec.items() if c}
        if not row:
            raise DegenerateBasisError("zero vector in basis (index %d)" % idx)
        row, trans, _scale = self._eliminate(row, {idx: ONE})
        if not row:
            self.dependent.append(idx)
            return False
        piv = _Pivot(row, trans)
        # keep reduced echelon form: clear the new lead from older rows so
        # that no pivot's lead occurs in any other pivot's support
        for p in self.pivots:
            e = p.row.get(piv.lead)
            if e is None:
                continue
            p.row = _combine(piv.lead_coef, p.row, e, piv.row)
            p.trans = _combine(piv.lead_coef, p.trans, e, piv.trans)
            p.lead_coef = p.row[p.lead]
        self.pivots.append(piv)
        self.pivots.sort(key=lambda p: _word_key(p.lead), reverse=True)
        return True

    def express(self, vec):
        """Coordinates of vec over the added vectors, or None.

        Returns (scale, coords): a nonzero Scalar and a list of nbasis
        Scalars with scale*vec == sum coords[j]*basis[j].  Vectors that
        were dependent when added always receive coordinate zero.
        """
        row, trans, scale = self._eliminate(
            {w: c for w, c in vec.items() if c}, {})
        if row:
            return None
        # the reduced row is scale*vec + sum trans[j]*basis[j] = 0
        return scale, [-trans.get(j, ZERO) for j in range(self.nbasis)]


def span_dimension(vectors):
    solver = SpanSolver()
    for v in vectors:
        if v:
            solver.add(v)
    return solver.rank


def rational_kernel_basis(rows, ncols):
    """Basis of the kernel over Q, by back-substitution on the RREF."""
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
