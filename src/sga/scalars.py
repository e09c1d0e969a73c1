"""Exact scalars in the ring Q(i, sqrt(2)).

Every matrix entry produced by the chiral construction, by the spinor
metrics, and by plane rotors at multiples of pi/2 lies in the field
Q(i, sqrt2).  A scalar is stored as five integers (a, b, c, d, q) encoding

    ((a + b*sqrt2) + i*(c + d*sqrt2)) / q

with q > 0 and gcd(a, b, c, d, q) = 1, so zero is canonical and equality
is structural.  A float mode (a bare complex payload) exists for rotor
tests at angles where cos/sin leave the ring; mixed arithmetic promotes
to float.  An exact value compares with a float exactly, as a Fraction
does, so a value with a sqrt2 part never equals a float, and equal values
hash alike.

The entries of the signed-monomial operators are the units
i**p * sqrt2**e that ``unit`` makes.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, sqrt

_SQRT2 = sqrt(2.0)


class Scalar:
    __slots__ = ("a", "b", "c", "d", "q", "f")

    def __init__(self, a=0, b=0, c=0, d=0, q=1, _float=None):
        if _float is not None:
            self.f = complex(_float)
            self.a = self.b = self.c = self.d = 0
            self.q = 1
            return
        self.f = None
        if q != 1:
            if q == 0:
                raise ZeroDivisionError("scalar denominator is zero")
            if q < 0:
                a, b, c, d, q = -a, -b, -c, -d, -q
            g = gcd(gcd(abs(a), abs(b)), gcd(gcd(abs(c), abs(d)), q))
            if g > 1:
                a //= g
                b //= g
                c //= g
                d //= g
                q //= g
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.q = q

    # -- constructors -------------------------------------------------

    @classmethod
    def from_fraction(cls, x):
        x = Fraction(x)
        return cls(x.numerator, 0, 0, 0, x.denominator)

    @classmethod
    def from_parts(cls, re_rat=0, re_rt2=0, im_rat=0, im_rt2=0):
        """Exact scalar from four rationals: (re_rat + re_rt2*sqrt2) + i*(...)."""
        ra, rb, ia, ib = (Fraction(v) for v in (re_rat, re_rt2, im_rat, im_rt2))
        q = 1
        for v in (ra, rb, ia, ib):
            q = q * v.denominator // gcd(q, v.denominator)
        return cls(
            int(ra * q), int(rb * q), int(ia * q), int(ib * q), q
        )

    @classmethod
    def from_complex(cls, z):
        return cls(_float=complex(z))

    # -- predicates ---------------------------------------------------

    @property
    def is_exact(self):
        return self.f is None

    def is_zero(self):
        if self.f is not None:
            return self.f == 0
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def is_real(self):
        if self.f is not None:
            return self.f.imag == 0
        return self.c == 0 and self.d == 0

    def is_rational(self):
        return self.is_exact and self.b == 0 and self.c == 0 and self.d == 0

    def real_sign(self):
        """Exact sign of the real part a/q + (b/q)*sqrt2 (-1, 0 or +1)."""
        if self.f is not None:
            x = self.f.real
            return 0 if x == 0 else (1 if x > 0 else -1)
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a^2 with 2 b^2
        if a * a > 2 * b * b:
            return 1 if a > 0 else -1
        if a * a < 2 * b * b:
            return 1 if b > 0 else -1
        return 0  # unreachable: a^2 = 2 b^2 has no nonzero integer solution

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        if self.f is not None or other.f is not None:
            return Scalar(_float=self.to_complex() + other.to_complex())
        if self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0:
            return other
        if other.a == 0 and other.b == 0 and other.c == 0 and other.d == 0:
            return self
        q1, q2 = self.q, other.q
        return Scalar(
            self.a * q2 + other.a * q1,
            self.b * q2 + other.b * q1,
            self.c * q2 + other.c * q1,
            self.d * q2 + other.d * q1,
            q1 * q2,
        )

    __radd__ = __add__

    def __neg__(self):
        if self.f is not None:
            return Scalar(_float=-self.f)
        s = Scalar.__new__(Scalar)
        s.a, s.b, s.c, s.d, s.q, s.f = -self.a, -self.b, -self.c, -self.d, self.q, None
        return s

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        if self.f is not None or other.f is not None:
            return Scalar(_float=self.to_complex() * other.to_complex())
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        if (a1 == 0 and b1 == 0 and c1 == 0 and d1 == 0) or (
            a2 == 0 and b2 == 0 and c2 == 0 and d2 == 0
        ):
            return ZERO
        # (R1 + i I1)(R2 + i I2) with R, I elements of Q(sqrt2)
        return Scalar(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + 2 * b1 * d2 + c1 * a2 + 2 * d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            self.q * other.q,
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.f is not None:
            return Scalar(_float=1.0 / self.f)
        # 1/z = conj(z) / (z conj(z)); z conj(z) = e + f*sqrt2 is real
        zc = self.conjugate()
        nrm = self * zc  # real element of Q(sqrt2), times 1/q^2 already folded in
        e, f2, q = nrm.a, nrm.b, nrm.q
        den = e * e - 2 * f2 * f2
        # 1/(e + f*sqrt2) = (e - f*sqrt2) / (e^2 - 2 f^2), all over q
        inv_norm = Scalar(e * q, -f2 * q, 0, 0, den)
        return zc * inv_norm

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if self.f is not None or other.f is not None:
            return Scalar(_float=self.to_complex() / other.to_complex())
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self):
        """Complex conjugation with respect to i; sqrt2 is left fixed."""
        if self.f is not None:
            return Scalar(_float=self.f.conjugate())
        return Scalar(self.a, self.b, -self.c, -self.d, self.q)

    # -- conversions ---------------------------------------------------

    def to_complex(self):
        if self.f is not None:
            return self.f
        return complex(
            (self.a + self.b * _SQRT2) / self.q,
            (self.c + self.d * _SQRT2) / self.q,
        )

    def real_fractions(self):
        return Fraction(self.a, self.q), Fraction(self.b, self.q)

    def imag_fractions(self):
        return Fraction(self.c, self.q), Fraction(self.d, self.q)

    def to_json(self):
        if self.f is not None:
            return [self.f.real, self.f.imag]
        re = self.real_fractions()
        im = self.imag_fractions()
        return {
            "re": [str(re[0]), str(re[1])],
            "im": [str(im[0]), str(im[1])],
        }

    @classmethod
    def from_json(cls, obj):
        """Parse a JSON scalar; ValueError if it is malformed.

        An int is exact; a float or an [re, im] pair of numbers is a float
        scalar; {"re": [rat, rt2], "im": [rat, rt2]} with rationals such as
        "1/2" is exact.
        """
        if _is_json_number(obj):
            return cls(obj) if isinstance(obj, int) else cls(_float=complex(obj))
        if isinstance(obj, list) and len(obj) == 2 and all(map(_is_json_number, obj)):
            return cls(_float=complex(float(obj[0]), float(obj[1])))
        if isinstance(obj, dict) and set(obj) == {"re", "im"}:
            parts = (obj["re"], obj["im"])
            if all(isinstance(p, list) and len(p) == 2 for p in parts):
                try:
                    return cls.from_parts(*(Fraction(x) for p in parts for x in p))
                except (TypeError, ValueError, ZeroDivisionError):
                    pass
        raise ValueError(f"not a JSON scalar: {obj!r:.60}")

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if self.f is None and other.f is None:
            return (
                self.a == other.a
                and self.b == other.b
                and self.c == other.c
                and self.d == other.d
                and self.q == other.q
            )
        if self.f is not None and other.f is not None:
            return self.f == other.f
        exact, z = (self, other.f) if self.f is None else (other, self.f)
        # exactly, as a Fraction compares with a float; a sqrt2 part is irrational
        return (
            exact.b == 0
            and exact.d == 0
            and _rational(exact.a, exact.q) == z.real
            and _rational(exact.c, exact.q) == z.imag
        )

    def __hash__(self):
        if self.f is not None:
            return hash(self.f)
        if self.b or self.d:
            return hash((self.a, self.b, self.c, self.d, self.q))
        # hash like the equal int, Fraction, float or complex
        re = hash(_rational(self.a, self.q))
        return re if self.c == 0 else _complex_hash(re, hash(_rational(self.c, self.q)))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.f is not None:
            return f"Scalar({self.f!r})"
        terms = []
        for coef, unit in ((self.a, ""), (self.b, "*rt2"), (self.c, "*i"), (self.d, "*i*rt2")):
            if coef:
                frac = Fraction(coef, self.q)
                terms.append(f"{frac}{unit}")
        return "Scalar(" + (" + ".join(terms) if terms else "0") + ")"


def _rational(x, q):
    """x / q as an int or a Fraction (x may be an int-valued float when q is 1)."""
    return x if q == 1 else Fraction(x, q)


def _complex_hash(re, im):
    """hash(complex(x, y)) from hash(x) and hash(y), combined as CPython does."""
    width = sys.hash_info.width
    h = (re + sys.hash_info.imag * im) % (1 << width)
    if h >= 1 << (width - 1):
        h -= 1 << width
    return -2 if h == -1 else h


def _is_json_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar(x)
    if isinstance(x, Fraction):
        return Scalar.from_fraction(x)
    if isinstance(x, float):
        return Scalar(_float=complex(x))
    if isinstance(x, complex):
        return Scalar(_float=x)
    return NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)
TWO = Scalar(2)
HALF = Scalar(1, 0, 0, 0, 2)
I = Scalar(0, 0, 1)
SQRT2 = Scalar(0, 1)
INV_SQRT2 = Scalar(0, 1, 0, 0, 2)

# cos and sin of k*pi/4 for k mod 8; everything a plane rotor at a
# multiple of pi/2 ever needs
_COS_QUARTER = (ONE, INV_SQRT2, ZERO, -INV_SQRT2, -ONE, -INV_SQRT2, ZERO, INV_SQRT2)
_SIN_QUARTER = (ZERO, INV_SQRT2, ONE, INV_SQRT2, ZERO, -INV_SQRT2, -ONE, -INV_SQRT2)


def cos_quarter_turns(k):
    """Exact cos(k*pi/4)."""
    return _COS_QUARTER[k % 8]


def sin_quarter_turns(k):
    """Exact sin(k*pi/4)."""
    return _SIN_QUARTER[k % 8]


def i_power(k):
    """Exact i**k."""
    return (ONE, I, -ONE, -I)[k % 4]


_UNITS = {}


def unit(p, e):
    """Exact i**p * sqrt2**e, for any int p and e."""
    key = (p & 3, e)
    s = _UNITS.get(key)
    if s is None:
        s = _UNITS[key] = i_power(p) * SQRT2**e
    return s


def approx_equal(x, y, tol=1e-12):
    """Entrywise comparison usable across exact and float scalars."""
    return abs(x.to_complex() - y.to_complex()) <= tol
