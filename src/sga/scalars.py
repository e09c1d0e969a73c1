"""Exact scalars in the ring Q(i, sqrt(2)).

Every matrix entry produced by the chiral construction, by the spinor
metrics, and by plane rotors at multiples of pi/2 lies in the field
Q(i, sqrt2).  A scalar is stored as five integers (a, b, c, d, q) encoding

    ((a + b*sqrt2) + i*(c + d*sqrt2)) / q

with q > 0 and gcd(a, b, c, d, q) = 1, so zero is canonical and equality
is structural.  A Scalar meets ints and Fractions in arithmetic and
comparison, and a rational one hashes like the equal int or Fraction;
floats are not scalars.  Float work, such as a rotor at an angle outside
the quarter turns, runs on numpy arrays (``Matrix.to_numpy``), and a JSON
float is read as the exact rational of its shortest decimal.

A product or sum is computed on the numerators and normalised with one
five-argument gcd, skipped when q is 1; negation and conjugation only
flip signs and need none.  ``times_unit`` multiplies by a unit the same
way, with the conjugation folded in on request.  Matrix products sum raw
numerators per entry themselves and make one Scalar per entry (see
``matrices``).

The entries of the signed-monomial operators are the units
i**p * sqrt2**e that ``unit`` makes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, sqrt

_SQRT2 = sqrt(2.0)


class Scalar:
    __slots__ = ("a", "b", "c", "d", "q")

    def __init__(self, a=0, b=0, c=0, d=0, q=1):
        for n in (a, b, c, d, q):
            if not isinstance(n, int):
                raise TypeError(f"a Scalar's numerators and denominator are ints, not {type(n).__name__}")
        if q != 1:
            if q == 0:
                raise ZeroDivisionError("scalar denominator is zero")
            if q < 0:
                a, b, c, d, q = -a, -b, -c, -d, -q
            g = gcd(a, b, c, d, q)
            if g > 1:
                a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
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

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def is_real(self):
        return self.c == 0 and self.d == 0

    def real_sign(self):
        """Exact sign of the real part a/q + (b/q)*sqrt2 (-1, 0 or +1)."""
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
        if self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0:
            return other
        if other.a == 0 and other.b == 0 and other.c == 0 and other.d == 0:
            return self
        q1, q2 = self.q, other.q
        if q1 == q2:
            return _normalised(self.a + other.a, self.b + other.b,
                               self.c + other.c, self.d + other.d, q1)
        return _normalised(
            self.a * q2 + other.a * q1,
            self.b * q2 + other.b * q1,
            self.c * q2 + other.c * q1,
            self.d * q2 + other.d * q1,
            q1 * q2,
        )

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.a, -self.b, -self.c, -self.d, self.q)

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
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        if (a1 == 0 and b1 == 0 and c1 == 0 and d1 == 0) or (
            a2 == 0 and b2 == 0 and c2 == 0 and d2 == 0
        ):
            return ZERO
        # (R1 + i I1)(R2 + i I2) with R, I elements of Q(sqrt2)
        return _normalised(
            a1 * a2 + 2 * (b1 * b2 - d1 * d2) - c1 * c2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + 2 * (b1 * d2 + d1 * b2) + c1 * a2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            self.q * other.q,
        )

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
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
        return _raw(self.a, self.b, -self.c, -self.d, self.q)

    def times_unit(self, p, e=0, conj=False):
        """self * i**p * sqrt2**e, with self conjugated first when `conj`.

        The value is conjugated, rotated and rescaled in integers: for
        e = 0 the numerators are only permuted and negated, so no gcd is
        needed.
        """
        a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
        if conj:
            c, d = -c, -d
        p &= 3
        if p == 1:
            a, b, c, d = -c, -d, a, b
        elif p == 2:
            a, b, c, d = -a, -b, -c, -d
        elif p == 3:
            a, b, c, d = c, d, -a, -b
        if not e:
            return _raw(a, b, c, d, q)
        if e & 1:  # (a + b sqrt2) sqrt2 = 2b + a sqrt2
            a, b, c, d = 2 * b, a, 2 * d, c
        m = e >> 1  # the remaining power of two
        if m > 0:
            a, b, c, d = a << m, b << m, c << m, d << m
        elif m < 0:
            q <<= -m
        return _normalised(a, b, c, d, q)

    # -- conversions ---------------------------------------------------

    def to_complex(self):
        return complex(
            (self.a + self.b * _SQRT2) / self.q,
            (self.c + self.d * _SQRT2) / self.q,
        )

    def real_fractions(self):
        return Fraction(self.a, self.q), Fraction(self.b, self.q)

    def imag_fractions(self):
        return Fraction(self.c, self.q), Fraction(self.d, self.q)

    def to_json(self):
        re = self.real_fractions()
        im = self.imag_fractions()
        return {
            "re": [str(re[0]), str(re[1])],
            "im": [str(im[0]), str(im[1])],
        }

    @classmethod
    def from_json(cls, obj):
        """Parse a JSON scalar; ValueError if it is malformed.

        Three forms are read, all exactly: a number, an [re, im] pair of
        numbers, and {"re": [rat, rt2], "im": [rat, rt2]} with rationals
        such as "1/2" or numbers.  A JSON float stands for the rational of
        its shortest decimal, as repr writes it: 1.5 is 3/2 and 0.1 is
        1/10.  NaN and the infinities are malformed.
        """
        try:
            if _is_json_number(obj):
                return cls.from_fraction(_decimal(obj))
            if isinstance(obj, list) and len(obj) == 2 and all(map(_is_json_number, obj)):
                return cls.from_parts(_decimal(obj[0]), 0, _decimal(obj[1]), 0)
            if isinstance(obj, dict) and set(obj) == {"re", "im"}:
                parts = (obj["re"], obj["im"])
                if all(isinstance(p, list) and len(p) == 2 for p in parts):
                    return cls.from_parts(*(_decimal(x) for p in parts for x in p))
        except (TypeError, ValueError, ZeroDivisionError):
            pass
        raise ValueError(f"not a JSON scalar: {obj!r:.60}")

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return other
        return (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
            and self.q == other.q
        )

    def __hash__(self):
        if self.b or self.c or self.d:
            return hash((self.a, self.b, self.c, self.d, self.q))
        return hash(_rational(self.a, self.q))  # like the equal int or Fraction

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        terms = []
        for coef, unit in ((self.a, ""), (self.b, "*rt2"), (self.c, "*i"), (self.d, "*i*rt2")):
            if coef:
                frac = Fraction(coef, self.q)
                terms.append(f"{frac}{unit}")
        return "Scalar(" + (" + ".join(terms) if terms else "0") + ")"


def _raw(a, b, c, d, q):
    """The exact scalar with these numerators, which are already in lowest terms."""
    s = _new(Scalar)
    s.a = a  # one store each: packing the five into a tuple costs a fifth of the call
    s.b = b
    s.c = c
    s.d = d
    s.q = q
    return s


def _normalised(a, b, c, d, q):
    """The exact scalar ((a + b*sqrt2) + i*(c + d*sqrt2)) / q for q > 0, in lowest terms."""
    if q != 1:
        g = gcd(a, b, c, d, q)
        if g > 1:
            a, b, c, d, q = a // g, b // g, c // g, d // g, q // g
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.c = c
    s.d = d
    s.q = q
    return s


def _rational(x, q):
    """x / q as an int or a Fraction."""
    return x if q == 1 else Fraction(x, q)


def _is_json_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _decimal(x):
    """The exact rational of a JSON value, a float read as its shortest decimal; ValueError for NaN or infinity."""
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar(x)
    if isinstance(x, Fraction):
        return Scalar.from_fraction(x)
    return NotImplemented


_new = object.__new__

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
