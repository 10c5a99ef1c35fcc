"""Supercommutative (Grassmann) algebras at q = 1, with a hermitian involution.

Normal forms are closed: a word's letters sorted by rank, times the
Koszul sign of its odd letters, and zero when an odd letter repeats; no
rule is built or rewritten.  Element terms are keyed by packed int words
(``GrassmannAlgebra._pack_layout``), which only this module reads.
Coefficients are GaussRationals, elements of Q(i).  On top sit rational
elements (numerators over central, odd-free denominators, so that
inverses of even elements exist via a finite Neumann expansion) and
dense matrices with a dagger.  Each algebra keeps a factor basis, the
denominator factors it has seen so far, and every denominator is a
product of its members.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .algebra import AlgebraError, Element, Generator
from .kernel import accumulate
from .scalars import GaussRational

# packed words: the value bits of an even letter's field, and the highest
# total degree a word may have, which every field holds
_EVEN_FIELD_BITS = 7
MAX_DEGREE = (1 << _EVEN_FIELD_BITS) - 1


def _odd_inversions(m1, m2):
    """Pairs of a bit of m1 above a bit of m2: the odd letters a word with
    mask m1 moves past when it is sorted together with one of mask m2."""
    k = 0
    while m2:
        low = m2 & -m2
        k += (m1 & -(low << 1)).bit_count()
        m2 ^= low
    return k


def exact_divide(ga, num, g):
    """Quotient q with q * g == num, or None; g must be odd-free.

    Multivariate division by lead reduction in the order of the packed
    words, a graded monomial order: int order, and a product of words is
    the sum of their ints.  g has no odd letters, so multiplying by a
    word of g brings no Koszul sign and kills no odd square.  The
    coefficients lie in the field Q(i), so g's lead coefficient is a
    unit, and the reduction therefore finds q exactly when it exists.

    A word a contains a word b when no field of a is below b's field.
    With the guard bits G of the layout set in a, (a | G) - b clears the
    guard of each field that is short and of no other, so a contains b
    exactly when the guards survive, and then the quotient word is the
    difference without G.

    Early rejection: if num = q*g, then num's lead word is
    lead(q)*lead(g) and its trailing word is trail(q)*trail(g).  Each of
    these products lies strictly above (below) every other product of a
    word of q with a word of g, and its coefficient is nonzero because
    the coefficient ring Q(i) is a field.  So when
    num's lead word does not contain g's lead word, or num's trailing
    word does not contain g's trailing word, there is no quotient, and
    None is returned before any coefficient arithmetic.

    Linear divisors, g = a + b*x with a constant a and one even letter
    x: group num's terms by their cofactor of x, the word with every x
    removed.  x is central and occurs in no cofactor, and distinct
    cofactors are independent, so g divides num exactly when each
    group, read as a polynomial in x, vanishes at the root x = -a/b
    (the factor theorem; von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 5).  Every group is tested, with an exit at the first
    that does not vanish, and None is returned before the heap division
    runs.  Testing the lead word's group alone is not enough: in the
    q = 1 suites it often vanishes while another group does not.  When
    all groups vanish, the heap division finds the quotient.

    The remainder is a dict plus a heap of its negated words (Monagan &
    Pearce, CASC 2007), so that heapq's smallest entry is the largest
    word.  A word is pushed when it enters the remainder and skipped when
    popped after it has left.  Every product term lies below the current
    lead, so the leads come out in the same order as a rescan of the
    whole remainder gives.
    """
    gt = g.terms
    if not gt:
        raise ZeroDivisionError
    glead = max(gt)
    r = dict(num.terms)
    if not r:
        return Element(ga, {})
    guards = ga.guards
    if ((max(r) | guards) - glead) & guards != guards or \
            ((min(r) | guards) - min(gt)) & guards != guards:
        return None
    x = ga.even_letter_ranks.get(glead) if len(gt) == 2 and 0 in gt \
        else None
    if x is not None and not _vanishes_at_root(ga, r, x, gt[0], gt[glead]):
        return None
    heap = [-w for w in r]
    heapify(heap)
    glc_inv = gt[glead].inverse_of_unit()
    minus_g = [(w2, -c2) for w2, c2 in gt.items()]
    q = {}
    while heap:
        lw = -heappop(heap)
        lc = r.get(lw)
        if lc is None:
            continue
        qw = (lw | guards) - glead
        if qw & guards != guards:
            return None
        qw ^= guards
        qc = lc * glc_inv
        q[qw] = qc
        for w2, c2 in minus_g:
            w = qw + w2
            c = qc * c2  # nonzero: the coefficient ring is a domain
            prev = r.get(w)
            if prev is None:
                r[w] = c
                heappush(heap, -w)
            else:
                v = prev + c
                if v:
                    r[w] = v
                else:
                    del r[w]
    return Element(ga, q)


def _vanishes_at_root(ga, terms, x, a, b):
    """Whether every x-group of terms vanishes at x = -a/b.

    A group holds the terms with one cofactor of x, the word with every
    x removed, and reads as a polynomial in x.
    """
    shift, mask = ga.fields[x]
    step = ga.letter_keys[x]
    groups = {}
    for w, c in terms.items():
        k = (w >> shift) & mask
        groups.setdefault(w - k * step, []).append((k, c))
    root = -(a * b.inverse_of_unit())
    powers = [ga.unit, root]
    for group in groups.values():
        total = None
        for k, c in group:
            while len(powers) <= k:
                powers.append(powers[-1] * root)
            c = c * powers[k] if k else c
            total = c if total is None else total + c
        if total:
            return False
    return True


def d_dx(el, rank):
    """Partial derivative with respect to the even generator `rank`."""
    ga = el.alg
    if ga.parities[rank]:
        raise ValueError("d_dx differentiates by an even generator, not %s"
                         % ga.generators[rank].name)
    shift, mask = ga.fields[rank]
    step = ga.letter_keys[rank]
    out = {}
    for w, c in el.terms.items():
        n = (w >> shift) & mask
        if n:
            # distinct words stay distinct with one `rank` less
            out[w - step] = c * GaussRational(n)
    return Element(ga, out)


class GrassmannAlgebra:
    """Supercommutative algebra with an antilinear involution.

    The involution acts on products without reversing them, (ab)* =
    a* b*; it is antilinear (i -> -i) and involutive.  The reversing
    convention (ab)* = b* a* differs from it by a Koszul sign on words
    with two or more odd letters, and breaks the group involution of the
    real super Poincare group.
    """

    def __init__(self, variables):
        """variables: list of (name, parity, conjugate_name) in rank order.

        conjugate_name may equal name (self-conjugate variable).
        """
        self.generators = tuple(Generator(n, p) for n, p, _c in variables)
        self.parities = tuple(g.parity for g in self.generators)
        self.unit = GaussRational(1)
        self._ranks = {g.name: r for r, g in enumerate(self.generators)}
        self._pack_layout()
        conj = {}
        for r, (_n, _p, cname) in enumerate(variables):
            if cname not in self._ranks:
                raise ValueError("unknown conjugate partner %r" % cname)
            conj[r] = self._ranks[cname]
        for r, rc in conj.items():
            if conj[rc] != r:
                raise ValueError("conjugate partner table is not involutive")
            if self.parities[r] != self.parities[rc]:
                raise ValueError("conjugate partners must share parity")
        self._conj = conj
        # the odd-free denominator factors seen so far, in order of
        # arrival, each keyed by its value; no member divides a later one
        self.factor_basis = {}
        self._member_ids = set()

    def _pack_layout(self):
        """Fields of the packed words.

        A normal word is one int: a field per rank, rank 0 lowest, each
        with a guard bit above it, and the total degree above them all.
        An odd field is one bit, so w & odd_bits is the word's odd mask;
        an even field holds any exponent up to MAX_DEGREE.  A product of
        words is the sum of their ints, and int order is a graded
        monomial order.  An exponent is at most the total degree, so a
        word of degree at most MAX_DEGREE fills no field past its width.
        """
        fields = []
        shift = odd = guards = 0
        for p in self.parities:
            width = 1 if p else _EVEN_FIELD_BITS
            fields.append((shift, (1 << width) - 1))
            if p:
                odd |= 1 << shift
            guards |= 1 << (shift + width)
            shift += width + 1
        self.fields = tuple(fields)
        self.odd_bits = odd
        self.guards = guards
        self.letter_keys = tuple((1 << s) | (1 << shift) for s, _m in fields)
        self.even_letter_ranks = {k: r for r, k in enumerate(self.letter_keys)
                                  if not self.parities[r]}
        # the least int of a word of degree MAX_DEGREE + 1
        self._key_limit = (MAX_DEGREE + 1) << shift
        self._letters = {}

    def rank(self, name):
        r = self._ranks.get(name)
        if r is None:
            raise AlgebraError("unknown generator %r" % name)
        return r

    # -- words ---------------------------------------------------------------

    def letters(self, key):
        """The sorted letters of the packed word key (memoized)."""
        w = self._letters.get(key)
        if w is None:
            w = ()
            for r, (shift, mask) in enumerate(self.fields):
                e = (key >> shift) & mask
                if e:
                    w += (r,) * e
            self._letters[key] = w
        return w

    def word_text(self, key):
        w = self.letters(key)
        if not w:
            return "1"
        return "*".join(self.generators[r].name for r in w)

    def _term_order(self, term):
        """Sort key of a term: its letters as (len(w), w)."""
        w = self.letters(term[0])
        return (len(w), w)

    # -- normal forms and products ---------------------------------------------

    def normal_form(self, terms):
        """Packed normal form of a map (or iterable of pairs) from raw
        letter tuples to coefficients."""
        items = terms.items() if isinstance(terms, dict) else terms
        sc = self._sc_word
        return accumulate({}, ((nf[0], c if nf[1] > 0 else -c)
                               for w, c in items
                               if c and (nf := sc(w)) is not None))

    def _sc_word(self, w):
        """Packed word and Koszul sign of the letters w, or None when an
        odd letter repeats."""
        par = self.parities
        odds = [r for r in w if par[r]]
        if len(set(odds)) != len(odds):
            return None
        if len(w) > MAX_DEGREE:
            raise OverflowError("word of degree %d: packed words hold "
                                "degree %d at most" % (len(w), MAX_DEGREE))
        inv = sum(a > b for i, a in enumerate(odds) for b in odds[i + 1:])
        return sum(self.letter_keys[r] for r in w), -1 if inv & 1 else 1

    def _product(self, t1, t2):
        """Product of two term maps of packed words.

        Packed words w1, w2 with disjoint odd masks m1, m2 multiply to the
        word w1 + w2, times (-1)^k, where k counts the pairs of an odd
        letter of w1 above an odd letter of w2; overlapping masks hold an
        odd square, so the pair contributes nothing.
        """
        if not t1 or not t2:
            return {}
        if max(t1) + max(t2) >= self._key_limit:
            raise OverflowError("product past degree %d, the most packed "
                                "words hold" % MAX_DEGREE)
        odd = self.odd_bits
        b = [(w2, w2 & odd, c2) for w2, c2 in t2.items()]
        # inline: a generator fed to accumulate cost a third more here
        out = {}
        for w1, c1 in t1.items():
            m1 = w1 & odd
            for w2, m2, c2 in b:
                if m1 & m2:
                    continue
                c = c1 * c2
                if m1 and m2 and _odd_inversions(m1, m2) & 1:
                    c = -c
                w = w1 + w2
                prev = out.get(w)
                if prev is None:
                    out[w] = c
                else:
                    c = prev + c
                    if c:
                        out[w] = c
                    else:
                        del out[w]
        return out

    def split_factor(self, f, out):
        """Write the odd-free factor f over the factor basis.

        Appends to out the basis members whose product is f up to a
        constant, and returns the inverse of that constant, or None when
        the product is f itself.  A member passes through by identity.  Any
        other factor must be a nonzero odd-free Element of this algebra, or
        this raises; one equal to a member is that member, and any other
        is trial-divided by the members, earliest first; a member that
        divides it is appended, and the quotient is split in turn.  A
        quotient that no member divides joins the basis, so no member
        divides a later one.  This is factor refinement (Bach, Driscoll &
        Shallit, J. Algorithms 15, 1993) in one direction: the factors of a
        sum's lcm do not divide one another, except a member that arrived
        before its own divisor.
        """
        members = self._member_ids
        if id(f) in members:
            out.append(f)
            return None
        if not isinstance(f, Element):
            raise TypeError(f)
        if f.alg is not self:
            raise ValueError("mixed algebras")
        if not f:
            raise ZeroDivisionError("zero denominator factor")
        if self.soul(f):
            raise ValueError("denominator factors must be odd-free")
        basis = self.factor_basis
        while True:
            # a constant: the empty word packs to 0
            mono = f.terms.get(0) if len(f.terms) == 1 else None
            if mono is not None:
                return mono.inverse_of_unit()
            same = basis.get(f)
            if same is not None:
                out.append(same)
                return None
            for m in basis:
                quo = exact_divide(self, f, m)
                if quo is not None:
                    out.append(m)
                    f = quo
                    break
            else:
                basis[f] = f
                members.add(id(f))
                out.append(f)
                return None

    # -- elements ---------------------------------------------------------------

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {0: self.unit})  # the empty word packs to 0

    def scalar(self, s):
        """The constant s, a GaussRational or an int."""
        if isinstance(s, int):
            s = GaussRational(s)
        elif not isinstance(s, GaussRational):
            raise TypeError("a Grassmann constant is a GaussRational or an "
                            "int, not %r" % (s,))
        return Element(self, {0: s} if s else {})

    def gen(self, name):
        return Element(self, {self.letter_keys[self.rank(name)]: self.unit})

    def star(self, el):
        """The involution, extended letter by letter: (ab)* = a* b*."""
        conj, letters = self._conj, self.letters
        return Element(self, self.normal_form(
            (tuple(conj[r] for r in letters(w)), c.conjugate())
            for w, c in el.terms.items()))

    def body(self, el):
        """Terms containing no odd generator (the non-nilpotent part)."""
        odd = self.odd_bits
        return Element(self, {w: c for w, c in el.terms.items()
                              if not w & odd})

    def soul(self, el):
        odd = self.odd_bits
        return Element(self, {w: c for w, c in el.terms.items() if w & odd})


def symbols(even=(), real=(), odd=(), real_odd=()):
    """The GrassmannAlgebra on these names, ranked in this order: each
    `even` name then its starred conjugate partner, the self-conjugate
    `real` evens, each `odd` name then its partner, the `real_odd`
    names."""
    variables = []
    for names, parity, paired in ((even, 0, True), (real, 0, False),
                                  (odd, 1, True), (real_odd, 1, False)):
        for n in names:
            if paired:
                variables += [(n, parity, n + "*"), (n + "*", parity, n)]
            else:
                variables.append((n, parity, n))
    return GrassmannAlgebra(variables)


class GrassmannRational:
    """num / (product of factors), factors central (odd-free) and nonzero.

    Denominators are kept factored over the algebra's factor basis
    (``GrassmannAlgebra.split_factor``): each new factor is replaced by
    the basis members that divide it and a constant, which moves into the
    numerator, so every factor of a denominator is a basis member, and
    two equal factors are the same object.  Block inverses make factors
    such as (1 - iu) and (1 - iu)(1 - iU); over the basis the second is
    the first times (1 - iU), so a sum's lcm needs no factor twice.
    Numerators are cancelled by exact division wherever a factor can
    divide, which keeps the double-inverse and involution chains of the
    group computations from blowing up.  A product divides each numerator
    by the other operand's factors only (cross-cancellation); a sum
    (``rational_sum``) takes one least common multiple of the factor
    multisets and tries every factor of it against the summed numerator
    once.
    """

    __slots__ = ("ga", "num", "den")

    def __init__(self, ga, num, den=(), _reduced=False):
        self.ga = ga
        self.num = num
        self.den = tuple(den)
        if not _reduced:
            if not isinstance(num, Element):
                raise TypeError(num)
            if num.alg is not ga:
                raise ValueError("mixed algebras")
            self._normalize()

    def _normalize(self):
        ga = self.ga
        factors = []
        for f in self.den:  # zero over a bad factor raises too
            unit = ga.split_factor(f, factors)
            if unit is not None:
                self.num = self.num.scale(unit)
        if self.num:
            self.num, self.den = _cancel(ga, self.num, factors)
        else:
            self.den = ()

    def _den_counter(self):
        """Multiplicity of each factor, keyed by id: equal factors are the
        same basis member, and an int key skips hashing the terms."""
        counts = {}
        for f in self.den:
            counts[id(f)] = counts.get(id(f), 0) + 1
        return counts

    def _coerce(self, other):
        if isinstance(other, GrassmannRational):
            if other.ga is not self.ga:
                raise ValueError("mixed algebras")
            return other
        if isinstance(other, (GaussRational, int)):
            return GrassmannRational(self.ga, self.ga.scalar(other), (),
                                     _reduced=True)
        raise TypeError(other)

    def __add__(self, other):
        return rational_sum(self.ga, (self, self._coerce(other)))

    def __neg__(self):
        return GrassmannRational(self.ga, -self.num, self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

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

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def inverse(self):
        """1/(b - n) = sum_k n^k b^{-k-1}, n = -soul nilpotent, b the body;
        Horner's rule gives the numerator sum_{j<=K} n^j b^{K-j} over
        b^{K+1}, where n^{K+1} = 0."""
        ga = self.ga
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        b = ga.body(self.num)
        if not b:
            raise ZeroDivisionError("element has zero body, not invertible")
        n = -ga.soul(self.num)
        total, p, k = ga.one(), n, 0
        while p:
            total = total * b + p
            p = p * n
            k += 1
        for f in self.den:
            total = total * f
        return GrassmannRational(ga, total, (b,) * (k + 1))

    def star(self):
        return GrassmannRational(self.ga, self.ga.star(self.num),
                                 tuple(self.ga.star(f) for f in self.den))

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, Element):  # refused, not silently unequal
            raise TypeError("wrap an Element in GrassmannRational to "
                            "compare it")
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        except ValueError:  # a value of another algebra is unequal
            return False
        return (self - other).is_zero()


def _cancel(ga, num, den):
    """num divided by every factor of den that divides it exactly, and
    the factors left over."""
    left = []
    for f in den:
        quo = exact_divide(ga, num, f)
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
    factor = {id(f): f for t in terms for f in t.den}
    lcm = {}
    for counts in counters:
        for i, k in counts.items():
            if lcm.get(i, 0) < k:
                lcm[i] = k
    num = ga.zero()
    for t, counts in zip(terms, counters):
        a = t.num
        for i, k in lcm.items():
            for _ in range(k - counts.get(i, 0)):
                a = a * factor[i]
        num = num + a
    den = tuple(factor[i] for i, k in lcm.items() for _ in range(k))
    return GrassmannRational(ga, num, den)


class GrassmannMatrix:
    """Dense matrix with GrassmannRational entries."""

    __slots__ = ("ga", "rows")

    def __init__(self, ga, rows):
        self.ga = ga
        self.rows = [[self._coerce(ga, x) for x in row] for row in rows]
        if len({len(r) for r in self.rows}) > 1:
            raise ValueError("rows of different lengths")

    @staticmethod
    def _coerce(ga, x):
        if isinstance(x, GrassmannRational):
            if x.ga is not ga:
                raise ValueError("mixed algebras")
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

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return GrassmannMatrix(self.ga, [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return GrassmannMatrix(self.ga, [
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if not isinstance(other, GrassmannMatrix):
            return NotImplemented  # scale by a constant with .scale()
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise ValueError("shape mismatch")
        return GrassmannMatrix(self.ga, [
            [rational_sum(self.ga, [self.rows[i][t] * other.rows[t][j]
                                    for t in range(k)])
             for j in range(n)]
            for i in range(m)])

    def scale(self, s):
        s = self._coerce(self.ga, s)
        return GrassmannMatrix(self.ga,
                               [[s * a for a in r] for r in self.rows])

    def transpose(self):
        m, n = self.shape
        return GrassmannMatrix(self.ga, [[self.rows[i][j] for i in range(m)]
                                         for j in range(n)])

    def star(self):
        """The entrywise involution."""
        return GrassmannMatrix(self.ga, [[a.star() for a in r]
                                         for r in self.rows])

    def dagger(self):
        return self.star().transpose()

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
        return other.ga is self.ga and self.shape == other.shape and \
            (self - other).is_zero()

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
