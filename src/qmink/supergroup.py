"""The 25-generator quantum matrix superalgebra behind SL_q(4|1).

Generators a[i,j] (1 <= i,j <= 5) carry parity p(i)+p(j) mod 2 with
p(1..4)=0, p(5)=1, ordered row-major.  The four quadratic relation
families are installed as rewrite rules sending the larger product to
smaller words; odd squares vanish.  Also provides the matrix
comultiplication and the quantum minors on columns (1,2).
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import Generator, Presentation, TensorPoly
from .kernel import accumulate
from .scalars import ONE, QINV, Scalar


# a[i,j] runs over 1 <= i, j <= SIZE; index SIZE is the odd one
SIZE = 5
# rank -> (i, j) of a[i,j], row-major
INDICES = tuple((i, j) for i in range(1, SIZE + 1) for j in range(1, SIZE + 1))

# the eleven column-(1,2) minors D[i,j], in the order of the closure
# table and of the Grassmannian's generators; no other pair is a minor
MINOR_ORDER = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
               (1, 5), (2, 5), (3, 5), (4, 5), (5, 5))
# their names, in the same order
MINOR_NAMES = tuple("D[%d,%d]" % ij for ij in MINOR_ORDER)


def index_parity(i):
    return 1 if i == SIZE else 0


def _rank(i, j):
    return (i - 1) * SIZE + j - 1


def manin_generators():
    """Row-major a[i,j] generators for M_q(4|1)."""
    return [Generator("a[%d,%d]" % (i, j),
                      (index_parity(i) + index_parity(j)) % 2)
            for i, j in INDICES]


@lru_cache(maxsize=None)
def build_slq41():
    """Manin relations on the SIZE x SIZE supermatrix bialgebra: the
    quantum supergroup presentation used everywhere downstream."""
    pres = Presentation(manin_generators())
    odd = pres.parities
    qm1 = QINV - Scalar.q_pow(1)  # q^-1 - q
    for g, (i, j) in enumerate(INDICES):
        for h in range(g + 1, len(INDICES)):
            k, l = INDICES[h]
            sign = -ONE if odd[g] and odd[h] else ONE
            if i == k or j == l:
                # same row (j < l) or same column (i < k):
                # g h = sign * q^eps * h g, eps set by the shared index
                eps = 1 if index_parity(i if i == k else j) else -1
                pres.add_rule((h, g), {(g, h): sign * Scalar.q_pow(-eps)})
            elif j > l:
                # i < k, j > l: g h = sign * h g
                pres.add_rule((h, g), {(g, h): sign})
            else:
                # i < k, j < l: g h = sign * h g + sign (q^-1 - q) a_kj a_il
                w = (_rank(k, j), _rank(i, l))
                pres.add_rule((h, g), {(g, h): sign, w: -qm1})
    return pres


# -- comultiplication ---------------------------------------------------------


@lru_cache(maxsize=None)
def _delta_gen_cached(rank):
    """Delta(a[i,j]) = sum_k a[i,k] (x) a[k,j], a[i,j] the generator of
    this rank."""
    i, j = INDICES[rank]
    return TensorPoly(build_slq41(), {((_rank(i, k),), (_rank(k, j),)): ONE
                                      for k in range(1, SIZE + 1)})


def comultiply(p):
    """Matrix comultiplication extended multiplicatively with Koszul signs.

    Each word's coefficient scales Delta of its first letter, before the
    products, and the words' products are summed into one term map.
    """
    pres = p.alg
    if pres is not build_slq41():
        raise ValueError("comultiply is defined on the SL_q(4|1) presentation")
    out = {}
    for w, c in p.terms.items():
        if not w:
            accumulate(out, ((((), ()), c),))
            continue
        # scale and the products build new term maps: the cache stays as is
        t = _delta_gen_cached(w[0]).scale(c)
        for r in w[1:]:
            t = t * _delta_gen_cached(r)
        accumulate(out, t.terms.items())
    return TensorPoly(pres, out)


# -- quantum minors -----------------------------------------------------------


def minor(i, j):
    """Column-(1,2) quantum minor D[i,j] of the Grassmannian generators,
    an Element of build_slq41()."""
    if (i, j) not in MINOR_ORDER:
        raise ValueError("invalid minor index pair (%d, %d)" % (i, j))
    if (i, j) == (5, 5):
        return build_slq41().word(["a[5,1]", "a[5,2]"])
    return general_minor((i, j), (1, 2))


def general_minor(rows, cols):
    """Quantum 2x2 minor on arbitrary strictly increasing rows and columns."""
    r1, r2 = rows
    c1, c2 = cols
    if not (1 <= r1 < r2 <= 5 and 1 <= c1 < c2 <= 5):
        raise ValueError("minor rows/cols must be strictly increasing in 1..5")
    pres = build_slq41()
    a = pres.word(["a[%d,%d]" % (r1, c1), "a[%d,%d]" % (r2, c2)])
    b = pres.word(["a[%d,%d]" % (r1, c2), "a[%d,%d]" % (r2, c1)])
    return a - b.scale(QINV)
