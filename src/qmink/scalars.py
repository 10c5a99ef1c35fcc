"""Exact coefficient arithmetic: Gaussian-rational Laurent polynomials in q.

A Scalar is an element of Q(i)[q, q^-1], stored as a map
``exponent -> (re, im)`` of Gaussian *integer* numerators over a single
positive integer denominator.  The representation is canonical: no zero
numerator pairs, gcd(content, denominator) == 1, denominator >= 1.
Conjugation sends i to -i and fixes q.

A GaussRational is an element of Q(i) alone, the coefficient ring of the
q = 1 layer.  ``GaussRational.from_scalar`` and ``to_scalar`` carry a
q-free Scalar across and back.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd


class ScalarError(ArithmeticError):
    pass


class DigitLimitError(ScalarError):
    """A coefficient has more digits than Python converts to text."""


def _content(coeffs, den):
    g = den
    for re, im in coeffs.values():
        g = gcd(g, gcd(abs(re), abs(im)))
        if g == 1:
            return 1
    return g


class Scalar:
    """Element of Q(i)[q, q^-1] with exact arithmetic."""

    __slots__ = ("_c", "_den", "_hash")

    def __init__(self, coeffs=None, den=1, _normalized=False):
        if coeffs is None:
            coeffs = {}
        if not _normalized:
            coeffs = {e: (re, im) for e, (re, im) in coeffs.items() if re or im}
            if den == 0:
                raise ZeroDivisionError("scalar denominator is zero")
            if den < 0:
                den = -den
                coeffs = {e: (-re, -im) for e, (re, im) in coeffs.items()}
            if not coeffs:
                den = 1
            else:
                g = _content(coeffs, den)
                if g > 1:
                    den //= g
                    coeffs = {e: (re // g, im // g) for e, (re, im) in coeffs.items()}
        self._c = coeffs
        self._den = den
        self._hash = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def from_int(cls, n):
        return cls({0: (n, 0)})

    @classmethod
    def rational(cls, num, den=1):
        return cls({0: (num, 0)}, den)

    @classmethod
    def gauss(cls, re, im, den=1):
        return cls({0: (re, im)}, den)

    @classmethod
    def q_pow(cls, k):
        return cls({k: (1, 0)})

    @classmethod
    def term(cls, exp, re, im=0, den=1):
        """Single Laurent term (re + im*i)/den * q^exp."""
        return cls({exp: (re, im)}, den)

    # -- ring operations ---------------------------------------------------

    def __bool__(self):
        return bool(self._c)

    def is_zero(self):
        return not self._c

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        c1, c2 = self._c, other._c
        if not c2:
            return self
        if not c1:
            return other
        a, b = self._den, other._den
        if len(c1) == 1 and len(c2) == 1:
            e, = c1
            if e in c2:
                # one term plus one term at the same exponent: the content
                # can only share factors with the common denominator
                (r1, i1), (r2, i2) = c1[e], c2[e]
                if a == b:
                    den, re, im = a, r1 + r2, i1 + i2
                else:
                    g = gcd(a, b)
                    ma, mb = b // g, a // g
                    den, re, im = a * ma, r1 * ma + r2 * mb, i1 * ma + i2 * mb
                if not (re or im):
                    return _ZERO
                if den > 1:
                    g = gcd(den, gcd(re, im))
                    if g > 1:
                        den //= g
                        re //= g
                        im //= g
                return Scalar({e: (re, im)}, den, _normalized=True)
        g = gcd(a, b)
        ma, mb = b // g, a // g
        out = {e: (re * ma, im * ma) for e, (re, im) in self._c.items()}
        for e, (re, im) in other._c.items():
            pre, pim = out.get(e, (0, 0))
            out[e] = (pre + re * mb, pim + im * mb)
        return Scalar(out, a * ma)

    def __neg__(self):
        return Scalar({e: (-re, -im) for e, (re, im) in self._c.items()},
                      self._den, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        if not other._c:
            return self
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        c1, c2 = self._c, other._c
        if not c1 or not c2:
            return _ZERO
        den = self._den * other._den
        if len(c1) == 1 and len(c2) == 1:
            # monomial times monomial: one term, nonzero (Q(i) is a domain),
            # and its content can only share factors with den
            e1, = c1
            e2, = c2
            (a, b), (c, d) = c1[e1], c2[e2]
            re, im = a * c - b * d, a * d + b * c
            if den > 1:
                g = gcd(den, gcd(re, im))
                if g > 1:
                    den //= g
                    re //= g
                    im //= g
            return Scalar({e1 + e2: (re, im)}, den, _normalized=True)
        out = {}
        for e1, (a, b) in c1.items():
            for e2, (c, d) in c2.items():
                e = e1 + e2
                re, im = a * c - b * d, a * d + b * c
                pre, pim = out.get(e, (0, 0))
                out[e] = (pre + re, pim + im)
        return Scalar(out, den)

    def conjugate(self):
        """i -> -i, q fixed."""
        return Scalar({e: (re, -im) for e, (re, im) in self._c.items()},
                      self._den, _normalized=True)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._den == other._den and self._c == other._c

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self._den, frozenset(self._c.items())))
        return h

    def __repr__(self):
        return "Scalar(%s)" % self.to_text()

    # -- structure ---------------------------------------------------------

    def coefficients(self):
        """Exponent -> Gaussian rational (re, im), as Fractions."""
        d = self._den
        return {e: (Fraction(re, d), Fraction(im, d))
                for e, (re, im) in self._c.items()}

    def monomial_unit(self):
        """Return (exp, re, im, den) when self = (re+im*i)/den * q^exp, else None."""
        if len(self._c) != 1:
            return None
        (e, (re, im)), = self._c.items()
        return (e, re, im, self._den)

    def inverse_of_unit(self):
        """Inverse, defined only for monomial units c*q^k."""
        mono = self.monomial_unit()
        if mono is None:
            raise ScalarError("only monomial units c*q^k are invertible: %r" % self)
        e, re, im, den = mono
        nrm = re * re + im * im
        return Scalar({-e: (re * den, -im * den)}, nrm)

    def subs_q_one(self):
        """Evaluate q -> 1 (stays a Scalar, concentrated in exponent 0)."""
        re = sum(r for r, _ in self._c.values())
        im = sum(m for _, m in self._c.values())
        return Scalar({0: (re, im)}, self._den)

    def min_exp(self):
        return min(self._c) if self._c else 0

    def max_exp(self):
        return max(self._c) if self._c else 0

    # -- exact division and gcd (used by fraction-free elimination) --------

    def _as_field_poly(self):
        """Shift to q-exponent >= 0 and return (shift, {exp: (Fraction, Fraction)})."""
        if not self._c:
            return 0, {}
        s = self.min_exp()
        d = self._den
        return s, {e - s: (Fraction(re, d), Fraction(im, d))
                   for e, (re, im) in self._c.items()}

    @staticmethod
    def _from_field_poly(shift, poly):
        den = 1
        for re, im in poly.values():
            den = den * re.denominator // gcd(den, re.denominator)
            den = den * im.denominator // gcd(den, im.denominator)
        coeffs = {e + shift: (int(re * den), int(im * den))
                  for e, (re, im) in poly.items() if re or im}
        return Scalar(coeffs, den)

    def exact_div(self, other):
        """Exact quotient in Q(i)[q,q^-1]; raises ScalarError on nonzero remainder."""
        if not other._c:
            raise ZeroDivisionError("division by zero scalar")
        if not self._c:
            return _ZERO
        s1, p1 = self._as_field_poly()
        s2, p2 = other._as_field_poly()
        q, r = _poly_divmod(p1, p2)
        if r:
            raise ScalarError("non-exact scalar division")
        return Scalar._from_field_poly(s1 - s2, q)

    def gcd_with(self, other):
        """A gcd in Q(i)[q] of the two scalars, normalized monic, at shift 0."""
        if not self._c:
            return _normalize_monic(other)
        if not other._c:
            return _normalize_monic(self)
        _, a = self._as_field_poly()
        _, b = other._as_field_poly()
        while b:
            _, r = _poly_divmod(a, b)
            a, b = b, r
        return _normalize_monic(Scalar._from_field_poly(0, a))

    # -- printing ----------------------------------------------------------

    def to_text(self):
        """Canonical text in the CLI scalar grammar (sum of monomial units)."""
        if not self._c:
            return "0"
        parts = []
        try:
            for e in sorted(self._c, reverse=True):
                re, im = self._c[e]
                parts.append(_monomial_text(e, re, im, self._den))
        except ValueError:  # past sys.get_int_max_str_digits()
            raise _digit_limit_error() from None
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def to_factor_text(self):
        """Text safe to juxtapose in a product (parenthesized when a sum)."""
        t = self.to_text()
        if len(self._c) > 1 or t.startswith("-"):
            return "(" + t + ")"
        return t


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


def _monomial_text(e, re, im, den):
    c = _gauss_text(re, im, den)
    if e == 0:
        return c
    qp = "q" if e == 1 else "q^%d" % e
    if c == "1":
        return qp
    if c == "-1":
        return "-" + qp
    return "%s*%s" % (c, qp)


def _normalize_monic(s):
    if not s._c:
        return _ZERO
    _, p = s._as_field_poly()
    lead = p[max(p)]
    lr, li = lead
    nrm = lr * lr + li * li
    out = {}
    for e, (re, im) in p.items():
        out[e] = ((re * lr + im * li) / nrm, (im * lr - re * li) / nrm)
    return Scalar._from_field_poly(0, out)


def _poly_divmod(a, b):
    """Long division in Q(i)[q] on {exp: (Fraction re, Fraction im)} maps."""
    if not b:
        raise ZeroDivisionError
    a = dict(a)
    db = max(b)
    br, bi = b[db]
    bn = br * br + bi * bi
    quo = {}
    while a and max(a) >= db:
        da = max(a)
        ar, ai = a[da]
        # (ar + ai*i) / (br + bi*i)
        cr = (ar * br + ai * bi) / bn
        ci = (ai * br - ar * bi) / bn
        quo[da - db] = (cr, ci)
        for e, (re, im) in b.items():
            t = e + da - db
            pre, pim = a.get(t, (Fraction(0), Fraction(0)))
            nre = pre - (cr * re - ci * im)
            nim = pim - (cr * im + ci * re)
            if nre or nim:
                a[t] = (nre, nim)
            else:
                a.pop(t, None)
    return quo, a


class ScalarFraction:
    """Element of the fraction field Q(i)(q): a reduced pair of Scalars."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = _ONE
        if not den:
            raise ZeroDivisionError("zero denominator in Q(i)(q)")
        if num:
            g = num.gcd_with(den)
            if g.monomial_unit() is None or g.max_exp() != 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            # normalize: denominator's lowest term becomes 1*q^0
            e = den.min_exp()
            lo = Scalar({e: den._c[e]}, den._den, _normalized=True)
            u = lo.inverse_of_unit()
            num, den = num * u, den * u
        else:
            den = _ONE
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            other = ScalarFraction(other)
        if not isinstance(other, ScalarFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if isinstance(other, Scalar):
            other = ScalarFraction(other)
        return ScalarFraction(self.num * other.den + other.num * self.den,
                              self.den * other.den)

    def __neg__(self):
        return ScalarFraction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            other = ScalarFraction(other)
        return ScalarFraction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            other = ScalarFraction(other)
        return ScalarFraction(self.num * other.den, self.den * other.num)

    def as_scalar(self):
        """Collapse to a Scalar when the denominator divides the numerator."""
        if self.den == _ONE:
            return self.num
        return self.num.exact_div(self.den)

    def is_polynomial(self):
        try:
            self.as_scalar()
            return True
        except ScalarError:
            return False

    def to_text(self):
        if self.den == _ONE:
            return self.num.to_text()
        return "(%s)/(%s)" % (self.num.to_text(), self.den.to_text())

    def __repr__(self):
        return "ScalarFraction(%s)" % self.to_text()


_ZERO = Scalar({}, 1, _normalized=True)
_ONE = Scalar({0: (1, 0)}, 1, _normalized=True)
_I = Scalar({0: (0, 1)}, 1, _normalized=True)

ZERO = _ZERO
ONE = _ONE
I = _I
Q = Scalar({1: (1, 0)}, 1, _normalized=True)
QINV = Scalar({-1: (1, 0)}, 1, _normalized=True)


class GaussRational:
    """Element (re + im*i)/den of Q(i), the coefficient ring at q = 1.

    Canonical: den >= 1, gcd(re, im, den) == 1, and zero is (0, 0, 1).
    It prints exactly as the Scalar with the same value at exponent 0.
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

    @classmethod
    def from_scalar(cls, s):
        """The q-free Scalar s as a GaussRational; ScalarError if q occurs."""
        c = s._c
        if not c:
            return _GZERO
        if len(c) != 1 or 0 not in c:
            raise ScalarError("scalar depends on q: %r" % (s,))
        re, im = c[0]
        return cls(re, im, s._den)

    def to_scalar(self):
        """The same value as a Scalar, at exponent 0."""
        if not (self.re or self.im):
            return _ZERO
        return Scalar({0: (self.re, self.im)}, self.den, _normalized=True)

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
        return _reduced(a * c - b * d, a * d + b * c, self.den * other.den)

    def conjugate(self):
        """i -> -i."""
        return _raw(self.re, -self.im, self.den)

    def monomial_unit(self):
        """(0, re, im, den) when nonzero, else None, as Scalar has it."""
        if not (self.re or self.im):
            return None
        return (0, self.re, self.im, self.den)

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


_new = object.__new__


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


_GZERO = _raw(0, 0, 1)
