"""Dense 5x5 matrices over Q(i) as lists of rows: the representation that
the sparse entry maps of qmink.realforms replaced, kept as the reference
the tests compare the sparse product, supercommutator and sigma against.

A dense matrix is a list of rows of GaussRationals, zeros included; a
dense supermatrix is a pair (rows, parity).
"""

from qmink.classical import GI
from qmink.scalars import GaussRational

ZERO = GaussRational(0)
ONE = GaussRational(1)


def zeros(m, n):
    return [[ZERO for _ in range(n)] for _ in range(m)]


def dense(entries, m=5, n=5):
    """The m x n rows of a sparse entry map."""
    rows = zeros(m, n)
    for (i, j), c in entries.items():
        rows[i][j] = c
    return rows


def mat_mul(a, b):
    m, k, n = len(a), len(b), len(b[0])
    out = zeros(m, n)
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
    m, n = len(a), len(a[0])
    return [[a[i][j].conjugate() for i in range(m)] for j in range(n)]


def f_matrix():
    """F = i [[0, -I2], [I2, 0]] (4x4)."""
    f = zeros(4, 4)
    for k in range(2):
        f[k][k + 2] = -GI
        f[k + 2][k] = GI
    return f


def parity(rows):
    """The (4|1) grading of the rows: 1 when a nonzero entry lies in the
    alpha column or the beta row, 0 otherwise."""
    return 1 if any([r[4] for r in rows[:4]] + rows[4][:4]) else 0


def supercommutator(x, px, y, py):
    """[x, y] = xy - (-1)^{|x||y|} yx on the rows x and y of parities
    px and py."""
    xy, yx = mat_mul(x, y), mat_mul(y, x)
    return mat_add(xy, yx) if px and py else mat_sub(xy, yx)


def sigma(rows):
    """sigma(p, alpha; beta, d) = (-F p^+ F, iF beta^+; i alpha^+ F, -conj d),
    block by block."""
    f = f_matrix()
    p = [list(r[:4]) for r in rows[:4]]
    alpha = [[r[4]] for r in rows[:4]]
    beta = [list(rows[4][:4])]
    new_p = mat_scale(-ONE, mat_mul(f, mat_mul(mat_dagger(p), f)))
    new_alpha = mat_scale(GI, mat_mul(f, mat_dagger(beta)))
    new_beta = mat_scale(GI, mat_mul(mat_dagger(alpha), f))
    out = zeros(5, 5)
    for i in range(4):
        for j in range(4):
            out[i][j] = new_p[i][j]
        out[i][4] = new_alpha[i][0]
        out[4][i] = new_beta[0][i]
    out[4][4] = -rows[4][4].conjugate()
    return out
