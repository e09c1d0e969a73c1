"""Ring axioms and conversions for the exact scalar type."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

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


def test_float_mode_round_trip():
    z = Scalar.from_complex(0.25 - 1.5j)
    assert not z.is_exact
    assert Scalar.from_json(z.to_json()) == z


def test_mixed_mode_promotes():
    z = Scalar.from_complex(2.0) * HALF
    assert not z.is_exact
    assert z.to_complex() == 1.0


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
    assert hash(Scalar(1)) == hash(1) == hash(Scalar(1.0)) == hash(Scalar.from_complex(1))
    assert hash(Scalar(1, 0, 0, 0, 2)) == hash(Fraction(1, 2)) == hash(Scalar(0.5))
    assert hash(Scalar(-3)) == hash(-3)
    assert len({Scalar(1), Scalar(1.0), 1}) == 1


@given(ints, denoms)
def test_rational_hash_matches_fraction(a, q):
    x = Scalar(a, 0, 0, 0, q)
    assert x == Fraction(a, q) and hash(x) == hash(Fraction(a, q))


def test_json_ints_are_exact():
    assert Scalar.from_json(3).is_exact and Scalar.from_json(3) == Scalar(3)
    assert not Scalar.from_json(3.0).is_exact
    assert not Scalar.from_json([1, 0]).is_exact


@pytest.mark.parametrize(
    "blob",
    ["1", True, None, [1], [1, 2, 3], ["1", "0"], {"re": ["1", "0"]},
     {"re": ["x", "0"], "im": ["0", "0"]}, {"re": ["1/0", "0"], "im": ["0", "0"]},
     {"re": "10", "im": ["0", "0"]}],
)
def test_json_rejects_malformed(blob):
    with pytest.raises(ValueError):
        Scalar.from_json(blob)


def test_irrational_and_inexact_rationals_never_equal_floats():
    assert SQRT2 != Scalar(_float=2**0.5)
    assert len({SQRT2, Scalar(_float=2**0.5)}) == 2
    assert Scalar(1, 0, 0, 0, 3) != Scalar(_float=1 / 3)
    assert Fraction(1, 3) != 1 / 3  # the rule Scalar follows
    assert Scalar(1, 0, 0, 0, 4) == Scalar(_float=0.25) and hash(Scalar(1, 0, 0, 0, 4)) == hash(0.25)
    assert Scalar(1, 0, -3, 0, 2) == complex(0.5, -1.5)
    assert hash(Scalar(1, 0, -3, 0, 2)) == hash(complex(0.5, -1.5))


@given(scalars, scalars)
def test_equal_scalars_hash_alike(x, y):
    values = [x, y, Scalar(_float=x.to_complex()), Scalar(_float=y.to_complex()),
              Scalar(x.a, 0, x.c, 0, x.q), Scalar(x.a, 0, 0, 0, x.q)]
    for u in values:
        u_float = Scalar(_float=u.to_complex())
        for v in values + [u_float, u.to_complex()]:
            if u == v:
                assert hash(u) == hash(v), (u, v)
