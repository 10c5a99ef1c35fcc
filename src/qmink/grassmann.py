"""Supercommutative algebras (q = 1) with a hermitian involution.

Built on the same rewriting engine as the quantum layer: a Grassmann
algebra is a confluent presentation whose rules swap generators with
Koszul signs and kill odd squares.  Its coefficients are GaussRationals,
elements of Q(i).  On top sit rational elements (numerators over
central, odd-free denominators, so that inverses of even elements exist
via a finite Neumann expansion) and dense matrices with a dagger.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg

from .algebra import Element, Generator, Presentation
from .scalars import GaussRational


def supercommutative_presentation(variables):
    """Presentation from a list of (name, parity) in rank order."""
    gens = [Generator(name, (r,), parity, r)
            for r, (name, parity) in enumerate(variables)]
    one = GaussRational(1)
    pres = Presentation(gens, odd_squares_vanish=True, supercommutative=True,
                        unit=one)
    for a in gens:
        for b in gens:
            if b.rank <= a.rank:
                continue
            sign = -one if (a.parity and b.parity) else one
            pres.add_rule((b.rank, a.rank), {(a.rank, b.rank): sign})
    return pres


def exact_divide(pres, num, g):
    """Quotient q with q * g == num, or None; g must be odd-free.

    Multivariate division by lead reduction in graded-lex order, words
    compared as (len(w), w) on sorted tuples.  That order is a monomial
    order (compatible with multiset union), and g has no odd letters, so
    multiplying by a word of g brings no Koszul sign and kills no odd
    square.  With a monomial-unit lead coefficient in g, the reduction
    therefore finds q exactly when it exists.

    Early rejection: if num = q*g, then num's lead word is
    lead(q)*lead(g) and its trailing word is trail(q)*trail(g).  Each of
    these products lies strictly above (below) every other product of a
    word of q with a word of g, and its coefficient is nonzero because
    the coefficient ring, Q(i) or Q(i)[q, q^-1], is a domain.  So when
    num's lead word does not contain g's lead word, or num's trailing
    word does not contain g's trailing word, there is no quotient, and
    None is returned before any coefficient arithmetic.

    The remainder is a dict plus a heap of its words (Monagan & Pearce,
    CASC 2007), keyed (-len(w), -w letterwise) so that heapq's smallest
    entry is the graded-lex largest word.  A word is pushed when it
    enters the remainder and skipped when popped after it has left.
    Every product term lies below the current lead, so the leads come
    out in the same order as a rescan of the whole remainder gives.
    """
    gt = g.terms
    if not gt:
        raise ZeroDivisionError
    key = lambda w: (len(w), w)
    glead = max(gt, key=key)
    glc = gt[glead]
    if glc.monomial_unit() is None:
        return None
    r = dict(num.terms)
    if not r:
        return Element(pres, {})
    if _multiset_difference(max(r, key=key), glead) is None or \
            _multiset_difference(min(r, key=key), min(gt, key=key)) is None:
        return None
    heap = [(-len(w), tuple(map(neg, w)), w) for w in r]
    heapify(heap)
    glc_inv = glc.inverse_of_unit()
    minus_g = [(w2, -c2) for w2, c2 in gt.items()]
    q = {}
    while heap:
        lw = heappop(heap)[2]
        lc = r.get(lw)
        if lc is None:
            continue
        qw = _multiset_difference(lw, glead)
        if qw is None:
            return None
        qc = lc * glc_inv
        q[qw] = qc
        for w2, c2 in minus_g:
            w = tuple(sorted(qw + w2))
            c = qc * c2  # nonzero: the coefficient ring is a domain
            prev = r.get(w)
            if prev is None:
                r[w] = c
                heappush(heap, (-len(w), tuple(map(neg, w)), w))
            else:
                v = prev + c
                if v:
                    r[w] = v
                else:
                    del r[w]
    return Element(pres, q)


def _multiset_difference(w, sub):
    """w minus sub as sorted tuples, or None when sub is not contained."""
    out = list(w)
    try:
        for x in sub:
            out.remove(x)
    except ValueError:
        return None
    return tuple(out)


class GrassmannAlgebra:
    """Supercommutative algebra with an antilinear involution.

    ``conjugation`` selects how the involution acts on products:
    "reverse" uses (ab)* = b* a*; "plain" uses (ab)* = a* b*.  Both are
    antilinear (i -> -i) and involutive; they differ by a Koszul sign
    on words with two or more odd letters.
    """

    def __init__(self, variables, conjugation="plain"):
        """variables: list of (name, parity, conjugate_name).

        conjugate_name may equal name (self-conjugate variable).
        """
        if conjugation not in ("plain", "reverse"):
            raise ValueError("conjugation must be 'plain' or 'reverse'")
        self.conjugation = conjugation
        self.pres = supercommutative_presentation(
            [(n, p) for (n, p, _c) in variables])
        conj = {}
        by_name = {n: r for r, (n, _p, _c) in enumerate(variables)}
        for r, (_n, _p, cname) in enumerate(variables):
            if cname not in by_name:
                raise ValueError("unknown conjugate partner %r" % cname)
            conj[r] = by_name[cname]
        for r, rc in conj.items():
            if conj[rc] != r:
                raise ValueError("conjugation table is not involutive")
            if self.pres.parities[r] != self.pres.parities[rc]:
                raise ValueError("conjugate partners must share parity")
        self._conj = conj

    # element constructors delegate to the presentation
    def zero(self):
        return self.pres.zero()

    def one(self):
        return self.pres.one()

    def scalar(self, s):
        """The constant s, a GaussRational or an int."""
        if isinstance(s, int):
            s = GaussRational(s)
        elif not isinstance(s, GaussRational):
            raise TypeError("a Grassmann constant is a GaussRational or an "
                            "int, not %r" % (s,))
        return self.pres.scalar(s)

    def gen(self, name):
        return self.pres.gen(name)

    def star(self, el):
        """The involution, extended per the algebra's product convention."""
        out = {}
        conj = self._conj
        reverse = self.conjugation == "reverse"
        for w, c in el.terms.items():
            src = reversed(w) if reverse else w
            img = tuple(conj[r] for r in src)
            cc = c.conjugate()
            for sw, sc in self.pres.nf_word(img):
                prev = out.get(sw)
                v = cc * sc if prev is None else prev + cc * sc
                if v:
                    out[sw] = v
                elif prev is not None:
                    del out[sw]
        return Element(self.pres, out)

    def body(self, el):
        """Terms containing no odd generator (the non-nilpotent part)."""
        par = self.pres.parities
        return Element(self.pres, {w: c for w, c in el.terms.items()
                                   if not any(par[r] for r in w)})

    def soul(self, el):
        par = self.pres.parities
        return Element(self.pres, {w: c for w, c in el.terms.items()
                                   if any(par[r] for r in w)})


class GrassmannRational:
    """num / (product of factors), factors central (odd-free) and nonzero.

    Denominators are kept factored, and numerators are cancelled by
    exact division wherever a factor can divide, which keeps the
    double-inverse and conjugation chains of the group computations from
    blowing up.  A product divides each numerator by the other operand's
    factors only (cross-cancellation); a sum (``rational_sum``) takes one
    least common multiple of the factor multisets and tries every factor
    of it against the summed numerator once.
    """

    __slots__ = ("ga", "num", "den")

    def __init__(self, ga, num, den=(), _reduced=False):
        if isinstance(den, Element):
            den = (den,)
        self.ga = ga
        self.num = num
        self.den = tuple(den)
        if not _reduced:
            self._normalize()

    def _normalize(self):
        ga = self.ga
        if not self.num:
            self.den = ()
            return
        factors = []
        for f in self.den:
            if not f:
                raise ZeroDivisionError("zero denominator factor")
            if ga.soul(f):
                raise ValueError("denominator factors must be odd-free")
            mono = None
            if len(f.terms) == 1 and () in f.terms:
                mono = f.terms[()]
            if mono is not None:
                self.num = self.num.scale(mono.inverse_of_unit())
            else:
                factors.append(f)
        self.num, self.den = _cancel(ga, self.num, factors)

    def _den_counter(self):
        counts = {}
        for f in self.den:
            counts[f] = counts.get(f, 0) + 1
        return counts

    def _coerce(self, other):
        if isinstance(other, GrassmannRational):
            if other.ga is not self.ga:
                raise ValueError("mixed algebras")
            return other
        if isinstance(other, Element):
            return GrassmannRational(self.ga, other, (), _reduced=True)
        if isinstance(other, (GaussRational, int)):
            return GrassmannRational(self.ga, self.ga.scalar(other), (),
                                     _reduced=True)
        raise TypeError(other)

    def __add__(self, other):
        return rational_sum(self.ga, (self, self._coerce(other)))

    def __radd__(self, other):
        return self + other

    def __neg__(self):
        return GrassmannRational(self.ga, -self.num, self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Cross-cancel, then multiply: each numerator has already been
        tried against its own denominator, so only the other operand's
        factors are tried."""
        other = self._coerce(other)
        num, den = self.ga.zero(), ()
        if self.num and other.num:
            a, b_den = _cancel(self.ga, self.num, other.den)
            b, a_den = _cancel(self.ga, other.num, self.den)
            num = a * b
            if num:
                den = a_den + b_den
        return GrassmannRational(self.ga, num, den, _reduced=True)

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def inverse(self):
        """1/(b + n) = sum_k (-n)^k b^{-k-1}, n nilpotent, b the body."""
        ga = self.ga
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        b = ga.body(self.num)
        if not b:
            raise ZeroDivisionError("element has zero body, not invertible")
        n = ga.soul(self.num)
        if not n:
            num = ga.one()
            for f in self.den:
                num = num * f
            return GrassmannRational(ga, num, (b,))
        npows = [ga.one()]
        while npows[-1]:
            npows.append(npows[-1] * n)
        k_max = len(npows) - 2
        bpow = [ga.one()]
        for _ in range(k_max):
            bpow.append(bpow[-1] * b)
        total = ga.zero()
        for k in range(k_max + 1):
            term = npows[k] * bpow[k_max - k]
            total = total + (term if k % 2 == 0 else -term)
        num = total
        for f in self.den:
            num = num * f
        return GrassmannRational(ga, num, (b,) * (k_max + 1))

    def star(self):
        return GrassmannRational(self.ga, self.ga.star(self.num),
                                 tuple(self.ga.star(f) for f in self.den))

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        return (self - other).is_zero()

    def to_text(self):
        if not self.den:
            return self.num.to_text()
        dent = " * ".join("(%s)" % f.to_text() for f in self.den)
        return "(%s) / %s" % (self.num.to_text(), dent)

    def __repr__(self):
        return "<%s>" % self.to_text()


def _cancel(ga, num, den):
    """num divided by every factor of den that divides it exactly, and
    the factors left over."""
    left = []
    for f in den:
        quo = exact_divide(ga.pres, num, f)
        if quo is None:
            left.append(f)
        else:
            num = quo
    return num, tuple(left)


def rational_sum(ga, terms):
    """Sum of GrassmannRationals over one lcm of their denominators.

    The numerators are brought to the lcm and added into one numerator,
    which is normalized once, against every factor of the lcm.
    """
    terms = [t for t in terms if t.num]
    counters = [t._den_counter() for t in terms]
    lcm = {}
    for counts in counters:
        for f, k in counts.items():
            if lcm.get(f, 0) < k:
                lcm[f] = k
    num = ga.zero()
    for t, counts in zip(terms, counters):
        a = t.num
        for f, k in lcm.items():
            for _ in range(k - counts.get(f, 0)):
                a = a * f
        num = num + a
    den = tuple(f for f, k in lcm.items() for _ in range(k))
    return GrassmannRational(ga, num, den)


class GrassmannMatrix:
    """Dense matrix with GrassmannRational entries."""

    __slots__ = ("ga", "rows")

    def __init__(self, ga, rows):
        self.ga = ga
        self.rows = [[self._coerce(ga, x) for x in row] for row in rows]

    @staticmethod
    def _coerce(ga, x):
        if isinstance(x, GrassmannRational):
            return x
        if isinstance(x, Element):
            return GrassmannRational(ga, x)
        if isinstance(x, (GaussRational, int)):
            return GrassmannRational(ga, ga.scalar(x))
        raise TypeError(x)

    @classmethod
    def identity(cls, ga, n):
        return cls(ga, [[1 if i == j else 0 for j in range(n)]
                        for i in range(n)])

    @classmethod
    def zeros(cls, ga, m, n):
        return cls(ga, [[0] * n for _ in range(m)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __add__(self, other):
        return GrassmannMatrix(self.ga, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return GrassmannMatrix(self.ga, [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return GrassmannMatrix(self.ga, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, GrassmannMatrix):
            m, k = self.shape
            k2, n = other.shape
            if k != k2:
                raise ValueError("shape mismatch")
            return GrassmannMatrix(self.ga, [
                [rational_sum(self.ga, [self.rows[i][t] * other.rows[t][j]
                                        for t in range(k)])
                 for j in range(n)]
                for i in range(m)])
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        s = self._coerce(self.ga, s)
        return GrassmannMatrix(self.ga,
                               [[s * a for a in r] for r in self.rows])

    def transpose(self):
        m, n = self.shape
        return GrassmannMatrix(self.ga, [[self.rows[i][j] for i in range(m)]
                                         for j in range(n)])

    def dagger(self):
        """Entrywise involution followed by transpose."""
        m, n = self.shape
        return GrassmannMatrix(self.ga,
                               [[self.rows[i][j].star() for i in range(m)]
                                for j in range(n)])

    def inverse(self):
        """Gauss-Jordan; pivots need invertible body."""
        ga = self.ga
        m, n = self.shape
        if m != n:
            raise ValueError("only square matrices invert")
        work = [[self.rows[i][j] for j in range(n)] for i in range(n)]
        out = [[GrassmannMatrix._coerce(ga, 1 if i == j else 0)
                for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if ga.body(work[r][col].num):
                    piv = r
                    break
            if piv is None:
                raise ZeroDivisionError("matrix has no invertible pivot "
                                        "in column %d" % col)
            work[col], work[piv] = work[piv], work[col]
            out[col], out[piv] = out[piv], out[col]
            inv = work[col][col].inverse()
            work[col] = [inv * x for x in work[col]]
            out[col] = [inv * x for x in out[col]]
            for r in range(n):
                if r == col:
                    continue
                f = work[r][col]
                if f.is_zero():
                    continue
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
                out[r] = [a - f * b for a, b in zip(out[r], out[col])]
        return GrassmannMatrix(ga, out)

    def is_zero(self):
        return all(a.is_zero() for r in self.rows for a in r)

    def __eq__(self, other):
        if not isinstance(other, GrassmannMatrix):
            return NotImplemented
        return (self - other).is_zero()

    def block(self, r0, r1, c0, c1):
        return GrassmannMatrix(self.ga, [row[c0:c1]
                                         for row in self.rows[r0:r1]])

    @classmethod
    def vstack(cls, *mats):
        ga = mats[0].ga
        rows = []
        for m in mats:
            rows.extend(m.rows)
        return cls(ga, rows)

    def to_text(self):
        return "[" + "; ".join(", ".join(a.to_text() for a in r)
                               for r in self.rows) + "]"

    def __repr__(self):
        return "<%s>" % self.to_text()


@dataclass
class SymbolSpec:
    """Helper for declaring batches of variables with conjugate partners."""

    variables: list

    @classmethod
    def empty(cls):
        return cls([])

    def even(self, *names):
        """Even variables, each with a fresh starred conjugate partner."""
        for name in names:
            self.variables.append((name, 0, name + "*"))
            self.variables.append((name + "*", 0, name))
        return self

    def even_self(self, *names):
        """Self-conjugate ("real") even variables."""
        for name in names:
            self.variables.append((name, 0, name))
        return self

    def odd(self, *names):
        for name in names:
            self.variables.append((name, 1, name + "*"))
            self.variables.append((name + "*", 1, name))
        return self

    def odd_self(self, *names):
        for name in names:
            self.variables.append((name, 1, name))
        return self

    def build(self, conjugation="plain"):
        return GrassmannAlgebra(self.variables, conjugation)
