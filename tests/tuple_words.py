"""Supercommutative words as sorted tuples of ranks: the representation
that packed int words replaced, kept as the reference the tests compare
the packed paths against.

A term map here is a dict from tuple words to coefficients.  `parities`
is the tuple of generator parities of the algebra.  The Koszul rule set
(`koszul_presentation`) reduces the same words letter by letter in the
rewriting kernel.
"""

from qmink.algebra import Presentation
from qmink.grassmann import GrassmannAlgebra
from qmink.kernel import accumulate
from qmink.scalars import GaussRational


def grassmann_algebra(variables):
    """The GrassmannAlgebra on (name, parity) pairs in rank order, each
    variable its own conjugate."""
    return GrassmannAlgebra([(n, p, n) for n, p in variables])


def koszul_presentation(ga):
    """A rewriting Presentation of ga over Q(i): b a -> a b for ranks
    a < b, with the sign -1 when both are odd (odd squares vanish by the
    Presentation's own rule)."""
    one = ga.unit
    pres = Presentation(ga.generators, unit=one)
    odd = ga.parities
    for a in range(len(odd)):
        for b in range(a + 1, len(odd)):
            sign = -one if (odd[a] and odd[b]) else one
            pres.add_rule((b, a), {(a, b): sign})
    return pres


def decoded(el):
    """The terms of a supercommutative Element, keyed by tuple words."""
    letters = el.alg.letters
    return {letters(w): c for w, c in el.terms.items()}


def sc_word(parities, w):
    """Sorted word and Koszul sign, or None when an odd letter repeats."""
    odds = [r for r in w if parities[r]]
    if len(set(odds)) != len(odds):
        return None
    inv = sum(1 for i in range(len(odds)) for j in range(i + 1, len(odds))
              if odds[i] > odds[j])
    return tuple(sorted(w)), -1 if inv & 1 else 1


def normal_form(parities, terms):
    out = {}
    for w, c in terms.items():
        nf = sc_word(parities, w) if c else None
        if nf is not None:
            accumulate(out, ((nf[0], c if nf[1] > 0 else -c),))
    return out


def _odd_mask(parities, w):
    """Bit mask of w's odd letters, bit r for rank r."""
    m = 0
    for r in w:
        if parities[r]:
            m |= 1 << r
    return m


def _odd_inversions(m1, m2):
    """Pairs of a bit of m1 above a bit of m2."""
    return sum(1 for a in range(m1.bit_length()) if m1 >> a & 1
               for b in range(a) if m2 >> b & 1)


def sc_product(parities, t1, t2):
    """Product of two term maps: both brought to normal form, then each
    pair of words with disjoint odd masks gives sorted(w1 + w2) with the
    sign of its odd inversions."""
    a, b = normal_form(parities, t1), normal_form(parities, t2)
    out = {}
    for w1, c1 in a.items():
        m1 = _odd_mask(parities, w1)
        for w2, c2 in b.items():
            m2 = _odd_mask(parities, w2)
            if m1 & m2:
                continue
            c = c1 * c2
            if _odd_inversions(m1, m2) & 1:
                c = -c
            accumulate(out, ((tuple(sorted(w1 + w2)), c),))
    return out


def multiset_difference(w, sub):
    """w minus sub as sorted tuples, or None when sub is not contained."""
    out = list(w)
    try:
        for x in sub:
            out.remove(x)
    except ValueError:
        return None
    return tuple(out)


def graded_lex(w):
    """The order exact_divide used on tuple words: (len(w), w)."""
    return (len(w), w)


def packed_order(w):
    """The order of packed words on a sorted tuple word: degree first, then
    the exponents from the highest rank down."""
    return (len(w), w[::-1])


def divide(num, g, key=graded_lex):
    """q with q * g == num, or None, by a full max scan of the remainder
    at every step in the order key, with no early rejection; num and g
    are term maps of normal words, g odd-free."""
    if not g:
        raise ZeroDivisionError
    glead = max(g, key=key)
    glc_inv = g[glead].inverse_of_unit()
    r = dict(num)
    q = {}
    while r:
        lw = max(r, key=key)
        qw = multiset_difference(lw, glead)
        if qw is None:
            return None
        qc = r[lw] * glc_inv
        q[qw] = qc
        accumulate(r, ((tuple(sorted(qw + w2)), -(qc * c2))
                       for w2, c2 in g.items()))
    return q


def star(parities, conj, terms):
    """The letterwise involution (ab)* = a* b*, conj mapping rank to
    rank."""
    return normal_form(parities, {tuple(conj[r] for r in w): c.conjugate()
                                  for w, c in terms.items()})


def d_dx(terms, rank):
    """Partial derivative by the even generator rank, over Q(i)."""
    out = {}
    for w, c in terms.items():
        n = w.count(rank)
        if n:
            i = w.index(rank)
            out[w[:i] + w[i + 1:]] = c * GaussRational(n)
    return out
