"""Ring axioms and conversions for the exact scalar type."""

import json
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from sga.scalars import (
    HALF,
    I,
    INV_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    Scalar,
    cos_quarter_turns,
    i_power,
    sin_quarter_turns,
)

ints = st.integers(min_value=-6, max_value=6)
denoms = st.integers(min_value=1, max_value=5)
scalars = st.builds(Scalar, ints, ints, ints, ints, denoms)


@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == Scalar(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert I * I == -ONE


@given(scalars)
def test_conjugation_involution(x):
    assert x.conjugate().conjugate() == x


@given(scalars)
def test_negation_and_zero(x):
    assert x + (-x) == ZERO
    assert x * ZERO == ZERO
    assert x * ONE == x


@given(scalars)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE


@given(scalars, scalars)
def test_float_agreement(x, y):
    got = (x * y + x).to_complex()
    want = x.to_complex() * y.to_complex() + x.to_complex()
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_canonical_zero():
    assert Scalar(0, 0, 0, 0, 7) == ZERO
    assert Scalar(2, 0, 0, 0, 4) == HALF
    assert not ZERO
    assert ONE


@given(scalars)
def test_json_round_trip(x):
    blob = json.dumps(x.to_json())
    assert Scalar.from_json(json.loads(blob)) == x


def test_json_shape():
    s = Scalar.from_parts(Fraction(1, 2), Fraction(-3), 0, Fraction(1, 4))
    assert s.to_json() == {"re": ["1/2", "-3"], "im": ["0", "1/4"]}


def test_json_floats_read_as_exact_decimals():
    """A JSON float, alone, in a pair or in a part, stands for the rational of its shortest decimal."""
    for blob, want in (
        (1.5, Scalar(3, 0, 0, 0, 2)),
        (0.1, Scalar(1, 0, 0, 0, 10)),
        (-2.0, Scalar(-2)),
        (1e22, Scalar(10**22)),
        (2.5e-7, Scalar(1, 0, 0, 0, 4 * 10**6)),
        ([0.25, -1.5], Scalar(1, 0, -6, 0, 4)),
        ([1, 0], ONE),
        ({"re": [0.1, "1/2"], "im": [0, -0.5]}, Scalar(2, 10, 0, -10, 20)),
    ):
        got = Scalar.from_json(json.loads(json.dumps(blob)))
        assert type(got.a) is int and got == want, blob
        assert Scalar.from_json(json.loads(json.dumps(got.to_json()))) == want


def test_floats_are_not_scalars():
    """Floats and complex numbers neither mix with a Scalar in arithmetic nor compare equal to one."""
    x = Scalar(1, 0, 0, 0, 2)
    for value in (0.5, 1j, 2.0):
        for op in (lambda: x + value, lambda: value * x, lambda: x - value, lambda: value / x):
            with pytest.raises(TypeError):
                op()
        assert x != value and value != x


@pytest.mark.parametrize("part", [0.5, Fraction(1, 2), 1j, 2.0])
def test_the_constructor_takes_int_parts_only(part):
    """A float, Fraction or complex part would build a value that neither prints nor compares as its number."""
    for args in ((part,), (1, part), (1, 0, 0, 0, part)):
        with pytest.raises(TypeError):
            Scalar(*args)
    assert Scalar.from_fraction(Fraction(1, 2)) == HALF


def test_real_sign_exact():
    assert (SQRT2 - ONE).real_sign() == 1
    assert (ONE - SQRT2).real_sign() == -1
    assert (SQRT2 * HALF - ONE).real_sign() == -1  # sqrt2/2 < 1
    assert ZERO.real_sign() == 0
    assert Scalar(3, -2).real_sign() == 1  # 3 - 2 sqrt2 is barely positive
    assert Scalar(2, -2).real_sign() == -1  # 2 - 2 sqrt2 < 0


def test_quarter_turn_tables():
    for k in range(-8, 9):
        c, s = cos_quarter_turns(k), sin_quarter_turns(k)
        assert c * c + s * s == ONE
    assert i_power(2) == -ONE
    assert i_power(-1) == -I


@given(scalars)
def test_power(x):
    assert x**3 == x * x * x
    if not x.is_zero():
        assert x**-2 == (x * x).inverse()


def test_rational_hash_agrees_with_equality():
    assert hash(Scalar(1)) == hash(1) == hash(Scalar.from_fraction(Fraction(2, 2)))
    assert hash(Scalar(1, 0, 0, 0, 2)) == hash(Fraction(1, 2)) == hash(HALF)
    assert hash(Scalar(-3)) == hash(-3)
    assert len({Scalar(1), Scalar(2, 0, 0, 0, 2), 1, Fraction(1)}) == 1


@given(ints, denoms)
def test_rational_hash_matches_fraction(a, q):
    x = Scalar(a, 0, 0, 0, q)
    assert x == Fraction(a, q) and hash(x) == hash(Fraction(a, q))


def test_json_ints_are_exact():
    for blob in (3, 3.0, [3, 0], [3.0, 0.0]):
        got = Scalar.from_json(blob)
        assert got == Scalar(3) and type(got.a) is int and hash(got) == hash(3)


@pytest.mark.parametrize(
    "blob",
    ["1", True, None, [1], [1, 2, 3], ["1", "0"], {"re": ["1", "0"]},
     {"re": ["x", "0"], "im": ["0", "0"]}, {"re": ["1/0", "0"], "im": ["0", "0"]},
     {"re": "10", "im": ["0", "0"]}, float("nan"), float("inf"), -float("inf"), [float("nan"), 0],
     [0, float("inf")], {"re": [float("nan"), "0"], "im": ["0", "0"]}],
)
def test_json_rejects_malformed(blob):
    with pytest.raises(ValueError):
        Scalar.from_json(blob)


def test_irrational_and_inexact_rationals_never_equal_floats():
    """No Scalar equals a float, not even one whose value the float holds exactly."""
    assert SQRT2 != 2**0.5
    assert len({SQRT2, 2**0.5}) == 2
    assert Scalar(1, 0, 0, 0, 3) != 1 / 3
    assert Scalar(1, 0, 0, 0, 4) != 0.25 and Scalar(1, 0, 0, 0, 4) == Fraction(1, 4)
    assert Scalar(1, 0, -3, 0, 2) != complex(0.5, -1.5)


@given(scalars, scalars)
def test_equal_scalars_hash_alike(x, y):
    values = [x, y, Scalar(x.a, 0, x.c, 0, x.q), Scalar(x.a, 0, 0, 0, x.q), Scalar(0, 0, x.c, 0, x.q),
              Fraction(x.a, x.q), Fraction(y.a, y.q), x.a]
    for u in values:
        for v in values:
            if u == v:
                assert hash(u) == hash(v), (u, v)


# -- exact arithmetic against sympy ------------------------------------------------

RT2 = sympy.sqrt(2)


def to_sympy(x):
    return (x.a + x.b * RT2 + sympy.I * (x.c + x.d * RT2)) / sympy.Integer(x.q)


def from_sympy(expr):
    """The Scalar equal to `expr`, an element of Q(i, sqrt2) written in sympy."""
    re, im = sympy.expand(sympy.radsimp(expr)).as_real_imag()
    parts = []
    for part in (sympy.expand(re), sympy.expand(im)):
        rt2 = part.coeff(RT2)
        parts += [sympy.expand(part - rt2 * RT2), rt2]
    assert all(isinstance(p, sympy.Rational) for p in parts), expr
    return Scalar.from_parts(*(Fraction(int(p.p), int(p.q)) for p in parts))


def in_lowest_terms(x):
    return x.q > 0 and gcd(x.a, x.b, x.c, x.d, x.q) == 1


@settings(max_examples=150, deadline=None)
@example(Scalar(1, 0, 0, 0, 2), Scalar(2, 2, 0, 0, 1))  # product (2 + 2 sqrt2)/2: numerators share 2
@example(Scalar(1, 1, 0, 0, 2), Scalar(1, -1, 2, 0, 2))  # sum (2 + 2i)/2
@example(Scalar(3, 3, 0, 0, 2), Scalar(1, 0, 1, 0, 3))  # product (3 + 3 sqrt2)(1 + i)/6: numerators share 3
@given(scalars, scalars)
def test_arithmetic_matches_sympy(x, y):
    sx, sy = to_sympy(x), to_sympy(y)
    assert x == from_sympy(sx) and in_lowest_terms(x)
    results = [
        (x * y, sx * sy),
        (x + y, sx + sy),
        (x - y, sx - sy),
        (-x, -sx),
        (x.conjugate(), sympy.conjugate(sx)),
    ]
    if not x.is_zero():
        results.append((x.inverse(), 1 / sx))
    for got, want in results:
        assert got == from_sympy(want) and in_lowest_terms(got), (got, want)
    assert x.real_sign() == sympy.sign(sympy.re(sx))


@settings(max_examples=60, deadline=None)
@given(scalars, st.integers(-5, 5), st.integers(-4, 4), st.booleans())
def test_times_unit_matches_sympy(x, p, e, conj):
    got = x.times_unit(p, e, conj)
    sx = sympy.conjugate(to_sympy(x)) if conj else to_sympy(x)
    assert got == from_sympy(sx * sympy.I**p * RT2**e) and in_lowest_terms(got)
