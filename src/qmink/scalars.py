"""Exact coefficient arithmetic: Gaussian-integer Laurent polynomials in q.

A Scalar is an element of Z[i][q, q^-1], stored as a map
``exponent -> (re, im)`` of Gaussian integers.  The representation is
canonical: no zero pair is stored.  Every value the quantum layer builds
lies in this ring: its relations, minors and localization use only +-1,
+-q^+-1 and q^-1 - q, and its one division, ``exact_div`` in the closure
table, refuses a quotient outside the ring.  So the quantum layer
computes in a subring of Q(i)[q, q^-1], the ring the paper states its
values in, and every value it reports lies in both.

A GaussRational is an element of Q(i) alone, the coefficient ring of the
q = 1 layer and of the su(2,2|1) matrices.  ``Scalar.at_q_one`` carries
a Scalar across, evaluated at q = 1; nothing carries one back.
"""

from __future__ import annotations

import sys
from math import gcd


class ScalarError(ArithmeticError):
    pass


class DigitLimitError(ScalarError):
    """A coefficient has more digits than Python converts to text."""


class Scalar:
    """Element of Z[i][q, q^-1] with exact arithmetic."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        self._c = {e: (re, im) for e, (re, im) in (coeffs or {}).items()
                   if re or im}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def from_int(cls, n):
        return _ONE if n == 1 else cls({0: (n, 0)})

    @classmethod
    def q_pow(cls, k):
        return _ONE if k == 0 else _scalar({k: (1, 0)})

    @classmethod
    def term(cls, exp, re, im=0):
        """Single Laurent term (re + im*i) * q^exp."""
        return cls({exp: (re, im)})

    # -- ring operations ---------------------------------------------------

    def __bool__(self):
        return bool(self._c)

    def __add__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        c2 = other._c
        if not c2:
            return self
        c1 = self._c
        if not c1:
            return other
        if len(c1) == 1 and len(c2) == 1:
            (e, (re, im)), = c2.items()
            p = c1.get(e)
            if p is not None:
                re += p[0]
                im += p[1]
                return _scalar({e: (re, im)}) if re or im else _ZERO
        out = dict(c1)
        for e, t in c2.items():
            p = out.get(e)
            out[e] = t if p is None else (p[0] + t[0], p[1] + t[1])
        if len(out) < len(c1) + len(c2):
            # an exponent met its own: that pair may have cancelled
            out = {e: t for e, t in out.items() if t[0] or t[1]}
            if not out:
                return _ZERO
        return _scalar(out)

    def __neg__(self):
        return _scalar({e: (-re, -im) for e, (re, im) in self._c.items()})

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        # the unit by identity: the kernel, ONE and q_pow(0) hand out _ONE
        if other is _ONE:
            return self
        if self is _ONE:
            return other
        c1, c2 = self._c, other._c
        if len(c1) > len(c2):
            c1, c2 = c2, c1
        out = {}
        if len(c1) == 1:
            # a term times anything: Z[i] is a domain and the exponents
            # stay apart, so no product term is zero or meets another
            (e1, (a, b)), = c1.items()
            for e2, (c, d) in c2.items():
                out[e1 + e2] = (a * c - b * d, a * d + b * c)
            return _scalar(out)
        for e1, (a, b) in c1.items():
            for e2, (c, d) in c2.items():
                e = e1 + e2
                re, im = a * c - b * d, a * d + b * c
                p = out.get(e)
                out[e] = (re, im) if p is None else (p[0] + re, p[1] + im)
        return _scalar({e: t for e, t in out.items() if t[0] or t[1]})

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        return "Scalar(%s)" % self.to_text()

    # -- structure ---------------------------------------------------------

    def at_q_one(self):
        """The value at q = 1: the GaussRational of the summed coefficients."""
        re = sum(r for r, _ in self._c.values())
        im = sum(m for _, m in self._c.values())
        return _raw(re, im, 1)

    def max_exp(self):
        return max(self._c) if self._c else 0

    # -- exact division ----------------------------------------------------

    def exact_div(self, other):
        """Exact quotient in Z[i][q, q^-1]; ScalarError when there is none.

        Long division from the top term: each quotient term is the
        remainder's top term over the divisor's lead term.  An exact
        quotient has no exponent below min(self) - min(other), so the first
        quotient term that would fall below it proves a remainder: then
        self/other is no Laurent polynomial at all.  A quotient term
        whose coefficient is not a Gaussian integer proves that self/other
        lies outside Z[i][q, q^-1].  The error message says which.
        """
        div = other._c
        if not div:
            raise ZeroDivisionError("division by zero scalar")
        if not self._c:
            return _ZERO
        top = max(div)
        c, d = div[top]
        nrm = c * c + d * d
        low = min(self._c) - min(div)
        quo, rem = {}, self
        while rem._c:
            e = max(rem._c)
            k = e - top
            if k < low:
                raise ScalarError("not a Laurent polynomial")
            # (a + b*i)/(c + d*i) = (a + b*i)(c - d*i)/nrm
            a, b = rem._c[e]
            re, ru = divmod(a * c + b * d, nrm)
            im, iu = divmod(b * c - a * d, nrm)
            if ru or iu:
                raise ScalarError("not a Laurent polynomial over Z[i]")
            quo[k] = (re, im)
            rem = rem - _scalar({k: (re, im)}) * other
        return _scalar(quo)

    # -- printing ----------------------------------------------------------

    def to_text(self):
        """Canonical text in the CLI scalar grammar (sum of monomial units)."""
        if not self._c:
            return "0"
        parts = []
        try:
            for e in sorted(self._c, reverse=True):
                re, im = self._c[e]
                parts.append(_monomial_text(e, re, im))
        except ValueError:  # past sys.get_int_max_str_digits()
            raise _digit_limit_error() from None
        return signed_join(parts)

    def to_factor_text(self):
        """Text safe to juxtapose in a product (parenthesized when a sum)."""
        t = self.to_text()
        if len(self._c) > 1 or t.startswith("-"):
            return "(" + t + ")"
        return t


_new = object.__new__


def _scalar(c):
    """A Scalar from a map already in canonical form: no zero pair."""
    x = _new(Scalar)
    x._c = c
    return x


def signed_join(parts):
    """The printed sum of parts: " - " before a part that starts with a
    minus sign, which it takes the place of, and " + " before the rest."""
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _digit_limit_error():
    return DigitLimitError(
        "a coefficient has more than %d digits, Python's limit for "
        "printing an integer" % sys.get_int_max_str_digits())


def _gauss_text(re, im, den):
    if im == 0:
        return str(re) if den == 1 else "%d/%d" % (re, den)
    if re == 0:
        if den == 1:
            return "i" if im == 1 else ("-i" if im == -1 else "%d*i" % im)
        return "%d/%d*i" % (im, den)
    s = "%d%+d*i" % (re, im)
    return "(%s)" % s if den == 1 else "(%s)/%d" % (s, den)


def _monomial_text(e, re, im):
    c = _gauss_text(re, im, 1)
    if e == 0:
        return c
    qp = "q" if e == 1 else "q^%d" % e
    if c == "1":
        return qp
    if c == "-1":
        return "-" + qp
    return "%s*%s" % (c, qp)


ZERO = _ZERO = _scalar({})
ONE = _ONE = _scalar({0: (1, 0)})
I = _scalar({0: (0, 1)})
Q = _scalar({1: (1, 0)})
QINV = _scalar({-1: (1, 0)})


class GaussRational:
    """Element (re + im*i)/den of Q(i), the coefficient ring at q = 1.

    Canonical: den >= 1, gcd(re, im, den) == 1, and zero is (0, 0, 1).
    With den == 1 it prints exactly as the Scalar with the same value at
    exponent 0.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re, im=0, den=1):
        if den == 0:
            raise ZeroDivisionError("scalar denominator is zero")
        if den < 0:
            re, im, den = -re, -im, -den
        g = gcd(re, im, den)
        self.re = re // g
        self.im = im // g
        self.den = den // g

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if other.__class__ is not GaussRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im and \
            self.den == other.den

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __add__(self, other):
        if other.__class__ is not GaussRational:
            return NotImplemented
        a, b = self.den, other.den
        if a == b:
            re, im, den = self.re + other.re, self.im + other.im, a
        else:
            g = gcd(a, b)
            ma, mb = b // g, a // g
            re = self.re * ma + other.re * mb
            im = self.im * ma + other.im * mb
            den = a * ma
        return _reduced(re, im, den)

    def __sub__(self, other):
        if other.__class__ is not GaussRational:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _raw(-self.re, -self.im, self.den)

    def __mul__(self, other):
        if other.__class__ is not GaussRational:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        # a factor of +-1 by value: no product, no gcd
        if other.den == 1 and not d and (c == 1 or c == -1):
            return self if c == 1 else _raw(-a, -b, self.den)
        if self.den == 1 and not b and (a == 1 or a == -1):
            return other if a == 1 else _raw(-c, -d, other.den)
        return _reduced(a * c - b * d, a * d + b * c, self.den * other.den)

    def conjugate(self):
        """i -> -i."""
        return _raw(self.re, -self.im, self.den)

    def inverse_of_unit(self):
        """Inverse; every nonzero element of Q(i) is a unit."""
        re, im, den = self.re, self.im, self.den
        if not (re or im):
            raise ScalarError("zero is not invertible")
        return _reduced(re * den, -im * den, re * re + im * im)

    def to_text(self):
        if not (self.re or self.im):
            return "0"
        try:
            return _gauss_text(self.re, self.im, self.den)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise _digit_limit_error() from None

    def to_factor_text(self):
        t = self.to_text()
        return "(" + t + ")" if t.startswith("-") else t

    def __repr__(self):
        return "GaussRational(%s)" % self.to_text()


def _raw(re, im, den):
    """A GaussRational from parts already in canonical form."""
    x = _new(GaussRational)
    x.re = re
    x.im = im
    x.den = den
    return x


def _reduced(re, im, den):
    """A GaussRational from parts with den >= 1, dividing out their gcd."""
    if den > 1:
        g = gcd(re, im, den)  # den when re == im == 0: zero is (0, 0, 1)
        if g > 1:
            re //= g
            im //= g
            den //= g
    x = _new(GaussRational)
    x.re = re
    x.im = im
    x.den = den
    return x
