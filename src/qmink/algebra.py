"""Parity-graded free algebra with quadratic term rewriting.

A presentation owns an ordered set of generators (each with a Z2
parity; its position, the rank, gives the monomial order) and
degree-preserving quadratic rules rewriting the larger length-2 word
into strictly smaller words under the graded-lexicographic order.
When the rule set is confluent (checked by resolving all length-3
overlap ambiguities) the normal words form a PBW-type basis and normal
forms are unique.  Production rewrites over Z[i][q, q^-1] only: the
q = 1 layer's supercommutative algebras are grassmann.GrassmannAlgebra,
whose normal form is closed.
"""

from __future__ import annotations

from . import kernel
from .kernel import accumulate
from .scalars import ONE, signed_join

class AlgebraError(ValueError):
    pass


class Generator:
    """A generator's name and Z2 parity; its rank is its position in the
    generator tuple of its algebra."""

    __slots__ = ("name", "parity")

    def __init__(self, name, parity):
        self.name = name
        self.parity = parity


class Presentation:
    """Generators, a total order, and an indexed quadratic rule set.

    Values are immutable once rules are installed and every operation is
    pure; the per-word normal-form memo only ever receives idempotent
    writes, so it can be shared by every caller.  ``unit`` is the one of
    the coefficient ring, the Scalar ONE of Z[i][q, q^-1]; the tests pass
    a GaussRational one to rewrite over Q(i), as a reference for the
    closed-form Grassmann normal form.  Odd squares vanish: the rule
    g*g -> 0 comes with every odd generator g.  Each rule is stored once,
    for the kernel: lhs (a, b) under the packed key a*ngens + b, its rhs
    as (word, coefficient) pairs; ``rules`` is the view by word pair.
    """

    def __init__(self, generators, unit=ONE):
        gens = tuple(generators)
        self.generators = gens
        self.ngens = len(gens)
        self.parities = tuple(g.parity for g in gens)
        self.unit = unit
        self._kernel_rules = {}  # packed key -> rhs terms
        self._memo = {}
        self._ranks = {g.name: r for r, g in enumerate(gens)}
        for r, p in enumerate(self.parities):
            if p:
                self._kernel_rules[r * self.ngens + r] = ()

    # -- construction -------------------------------------------------------

    def rank(self, name):
        r = self._ranks.get(name)
        if r is None:
            raise AlgebraError("unknown generator %r" % name)
        return r

    def add_rule(self, lhs, rhs):
        """Install lhs (a length-2 word) -> rhs (word -> coefficient map).

        Refuses a rule whose words are not each two generator ranks, that
        is not parity-preserving, or whose rhs words are not all below
        lhs, so every rule set is order-decreasing and every reduction
        terminates.
        """
        lhs = tuple(lhs)
        rhs = {tuple(w): c for w, c in rhs.items() if c}
        n = self.ngens
        for w in (lhs, *rhs):
            # checked before the packed key is taken: a longer lhs, or a
            # letter out of range, would alias a real pair's key
            if len(w) != 2 or not (0 <= w[0] < n and 0 <= w[1] < n):
                raise AlgebraError("rule word %s is not two generator ranks"
                                   % (w,))
        key = lhs[0] * n + lhs[1]
        if key in self._kernel_rules:
            raise AlgebraError("duplicate rule for %s" % (lhs,))
        lp = self.word_parity(lhs)
        for w in rhs:
            if self.word_parity(w) != lp:
                raise AlgebraError("rule not parity-preserving: %s -> %s"
                                   % (lhs, w))
            if not w < lhs:
                raise AlgebraError("rhs word %s not below lhs %s" % (w, lhs))
        self._kernel_rules[key] = tuple(rhs.items())
        self._memo = {}

    @property
    def rules(self):
        """A new dict of the rules keyed by word pair: lhs -> rhs map."""
        n = self.ngens
        return {divmod(k, n): dict(rhs)
                for k, rhs in self._kernel_rules.items()}

    # -- words ---------------------------------------------------------------

    def word_parity(self, w):
        p = 0
        for r in w:
            p ^= self.parities[r]
        return p

    def word_text(self, w):
        if not w:
            return "1"
        return "*".join(self.generators[r].name for r in w)

    # -- normal forms ---------------------------------------------------------

    def normal_form(self, terms):
        """Reduce a word->coefficient map (or iterable of pairs) to normal form."""
        if not isinstance(terms, dict):
            # run a stream's coefficient products here, not inside the
            # kernel call, whose benchmark trace span must not hold them
            terms = list(terms)
        return kernel.normal_form_terms(terms, self._kernel_rules, self.ngens,
                                        self.unit, self._memo)

    def nf_word(self, w):
        return kernel.nf_word(tuple(w), self._kernel_rules, self.ngens,
                              self.unit, self._memo)

    def _product(self, t1, t2):
        """Normal form of the product of two term maps: every pair of words
        concatenated; normal_form merges equal words itself."""
        t2 = t2.items()
        return self.normal_form((w1 + w2, c1 * c2) for w1, c1 in t1.items()
                                for w2, c2 in t2)

    @staticmethod
    def _term_order(term):
        """Sort key of a term: its word as (len(w), w)."""
        return (len(term[0]), term[0])

    def pbw_dimension(self, d):
        """Number of normal words of total degree d (transfer-matrix count)."""
        if d < 0:
            raise AlgebraError("degree must be >= 0")
        if d == 0:
            return 1
        rules, n = self._kernel_rules, self.ngens
        counts = [1] * n
        for _ in range(d - 1):
            nxt = [0] * n
            for b in range(n):
                s = 0
                for a in range(n):
                    if a * n + b not in rules:
                        s += counts[a]
                nxt[b] = s
            counts = nxt
        return sum(counts)

    # -- elements ---------------------------------------------------------------

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {(): self.unit})

    def scalar(self, s):
        return Element(self, {(): s} if s else {})

    def gen(self, name):
        return Element(self, {(self.rank(name),): self.unit})

    def word(self, names):
        w = tuple(map(self.rank, names))
        return Element(self, dict(self.nf_word(w)))


def terms_text(terms, key_text, order=None):
    """The printed sum of terms, a map key -> nonzero coefficient: the
    one printing rule of every linear combination.

    Terms print from the largest down, under order, a sort key of a
    (key, coefficient) pair (None compares the pairs), each as
    c.to_factor_text() + "*" + key_text(key).  A coefficient whose
    factor text is 1 prints as the bare key, and the constant key, the
    one whose text is 1, as the bare coefficient.  signed_join joins the
    parts; the empty sum is 0.
    """
    if not terms:
        return "0"
    parts = []
    for k, c in sorted(terms.items(), key=order, reverse=True):
        kt = key_text(k)
        if kt == "1":
            parts.append(c.to_text())
        else:
            ct = c.to_factor_text()
            parts.append(kt if ct == "1" else ct + "*" + kt)
    return signed_join(parts)


class TermMap:
    """A sparse linear combination over alg: key -> nonzero coefficient.

    The arithmetic Element, TensorPoly and LocalElement share: sums,
    differences, negation and scalar multiples, all term by term, and
    the printed text.  Sums and differences need the same class and the
    same alg.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.terms.items())))

    def __add__(self, other):
        if other.__class__ is not self.__class__ or other.alg is not self.alg:
            return NotImplemented
        return self.__class__(self.alg, accumulate(dict(self.terms),
                                                   other.terms.items()))

    def __sub__(self, other):
        if other.__class__ is not self.__class__ or other.alg is not self.alg:
            return NotImplemented
        return self.__class__(self.alg, accumulate(
            dict(self.terms), ((k, -c) for k, c in other.terms.items())))

    def __neg__(self):
        return self.__class__(self.alg,
                              {k: -c for k, c in self.terms.items()})

    def scale(self, s):
        if not s:
            return self.__class__(self.alg, {})
        return self.__class__(self.alg,
                              {k: s * c for k, c in self.terms.items()})

    def to_text(self):
        """The printed sum of the terms (terms_text); the class supplies
        the text of one key, _key_text, and the sort key of a term,
        _term_order."""
        return terms_text(self.terms, self._key_text, self._term_order)

    def __repr__(self):
        return "<%s>" % self.to_text()


class Element(TermMap):
    """Polynomial kept in normal form over alg, a Presentation or a
    GrassmannAlgebra, whose word_text, private _product and _term_order
    it calls."""

    __slots__ = ()

    def __mul__(self, other):
        alg = self.alg
        if other.__class__ is not Element or other.alg is not alg:
            return NotImplemented
        return Element(alg, alg._product(self.terms, other.terms))

    def parity(self):
        """Parity when homogeneous; raises for mixed terms.  Words carry
        a parity over a Presentation only."""
        wp = self.alg.word_parity
        ps = {wp(w) for w in self.terms}
        if len(ps) > 1:
            raise AlgebraError("element is not parity-homogeneous")
        return ps.pop() if ps else 0

    # the algebra's own methods: printing calls them with no wrapper
    # call per term in between
    @property
    def _key_text(self):
        return self.alg.word_text

    @property
    def _term_order(self):
        return self.alg._term_order


class TensorPoly(TermMap):
    """Element of A (x) A with Koszul-signed multiplication.

    Terms map pairs of words to scalars.  Products bring both slots to
    normal form, which is slot-linear and therefore commutes with the
    sign bookkeeping.
    """

    __slots__ = ()

    def __mul__(self, other):
        """(a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd.

        One pass, row by row as in Gustavson's sparse product (ACM TOMS
        4, 1978): each pair of terms concatenates both slots, takes their
        normal forms and merges c * cu * cv straight into the result.
        """
        alg = self.alg
        if other.__class__ is not TensorPoly or other.alg is not alg:
            return NotImplemented
        wp = alg.word_parity
        nf = alg.nf_word
        # zero terms are skipped on both sides, so every product is
        # nonzero (the coefficient ring is a domain)
        right = [(x, y, c2, wp(x)) for (x, y), c2 in other.terms.items()
                 if c2]
        out = {}
        for (u, v), c1 in self.terms.items():
            if not c1:
                continue
            odd = wp(v)
            for x, y, c2, x_odd in right:
                c = -(c1 * c2) if odd and x_odd else c1 * c2
                second = nf(v + y)
                for s, cs in nf(u + x):
                    cs = c * cs
                    # inline: a generator fed to accumulate costs too
                    # much here; only a sum can be zero
                    for t, ct in second:
                        k = (s, t)
                        prev = out.get(k)
                        if prev is None:
                            out[k] = cs * ct
                        else:
                            val = prev + cs * ct
                            if val:
                                out[k] = val
                            else:
                                del out[k]
        return TensorPoly(alg, out)

    def _key_text(self, key):
        wt = self.alg.word_text
        return "%s (x) %s" % (wt(key[0]), wt(key[1]))

    @staticmethod
    def _term_order(term):
        """Sort key of a term: its pair of words as (len(u), u, v)."""
        (u, v), _c = term
        return (len(u), u, v)


def overlap_words(pres):
    """All length-3 overlap ambiguities (a, b, c), sorted.

    An overlap word (a, b, c) arises when both (a, b) and (b, c) are rule
    left-hand sides; the diamond lemma requires its two one-step
    reductions to share a normal form (``resolve_overlap``).
    """
    rules = pres.rules
    by_first = {}
    for (a, b) in rules:
        by_first.setdefault(a, []).append(b)
    out = []
    for (a, b) in sorted(rules):
        for c in sorted(by_first.get(b, ())):
            out.append((a, b, c))
    return out


def resolve_overlap(pres, word):
    """Reduce the overlap word both ways; returns their difference.

    Normal forms are canonical and store no zero coefficient, so the two
    reductions agree exactly when their term dicts are equal, and the
    difference is then {}.  It is built only when they differ, as the
    witness of a failing record.
    """
    a, b, c = word
    rules, n = pres._kernel_rules, pres.ngens
    left = {}
    for w, coeff in rules[a * n + b]:
        left[w + (c,)] = coeff
    right = {}
    for w, coeff in rules[b * n + c]:
        right[(a,) + w] = coeff
    left = pres.normal_form(left)
    right = pres.normal_form(right)
    if left == right:
        return {}
    return accumulate(left, ((k, -v) for k, v in right.items()))
