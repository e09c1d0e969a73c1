"""Exact matrix arithmetic against brute-force oracles."""

import json
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from strategies import rep_configs

from sga.blades import CHIRAL, BladeIndex, blade_matrix
from sga.cli import main
from sga.elements import outer_product
from sga.matrices import (
    DEFAULT_MAX_DIM,
    Matrix,
    Monomial,
    OuterProduct,
    anticommutator,
    commutator,
    max_dimension,
)
from sga.representation import build_representation
from sga.scalars import HALF, I, INV_SQRT2, ONE, SQRT2, ZERO, Scalar
from sga.symmetry import conjugate


def rand_scalar(rng):
    return Scalar(rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-3, 3), 0, rng.choice((1, 2)))


def rand_matrix(rng, n, m=None):
    m = n if m is None else m
    return Matrix([[rand_scalar(rng) for _ in range(m)] for _ in range(n)])


def rand_sparse_matrix(rng, n, m, density=0.2):
    return Matrix([
        [rand_scalar(rng) if rng.random() < density else ZERO for _ in range(m)]
        for _ in range(n)
    ])


def dense_items(m):
    """Nonzero entries in row-major order, read from the dense view."""
    return [(i, j, s) for i, row in enumerate(m.rows) for j, s in enumerate(row) if not s.is_zero()]


def naive_product(a, b):
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = ZERO
            for k in range(a.ncols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        out.append(row)
    return Matrix(out)


def test_product_matches_naive_oracle():
    rng = Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        k = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = rand_matrix(rng, n, k)
        b = rand_matrix(rng, k, m)
        assert a @ b == naive_product(a, b)


def test_shape_mismatch():
    with pytest.raises(ValueError):
        rand_matrix(Random(0), 2, 3) @ rand_matrix(Random(0), 2, 3)


def test_transpose_dagger_trace():
    rng = Random(3)
    a = rand_matrix(rng, 4)
    assert a.transpose().transpose() == a
    assert a.dagger() == a.conj().transpose()
    assert (a + a.transpose()).transpose() == a + a.transpose()
    assert a.trace() == sum((a[i, i] for i in range(4)), ZERO)


def test_inverse_and_determinant():
    rng = Random(11)
    for _ in range(10):
        a = rand_matrix(rng, 3)
        det = a.determinant()
        if det.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        assert a @ a.inverse() == Matrix.identity(3)
        # determinant is multiplicative
        b = rand_matrix(rng, 3)
        assert (a @ b).determinant() == det * b.determinant()


def test_determinant_frozen_cases():
    assert Matrix.identity(4).determinant() == ONE
    swap = Matrix([[ZERO, ONE], [ONE, ZERO]])
    assert swap.determinant() == -ONE
    assert Matrix.diagonal([SQRT2, SQRT2]).determinant() == Scalar(2)


def test_scalar_multiple_of_identity():
    assert Matrix.identity(3).scale(I).scalar_multiple_of_identity() == I
    assert Matrix([[ONE, ONE], [ZERO, ONE]]).scalar_multiple_of_identity() is None


def test_json_round_trip_is_bit_exact():
    rng = Random(13)
    a = rand_matrix(rng, 3)
    blob = json.dumps(a.to_json())
    assert Matrix.from_json(json.loads(blob)) == a


def json_round_trip(m):
    return Matrix.from_json(json.loads(json.dumps(m.to_json())))


@pytest.mark.parametrize("shape", [(5, 5), (4, 1), (1, 4)])
def test_sparse_json_round_trips(shape):
    rng = Random(31)
    n, m = shape
    for _ in range(20):
        a = rand_sparse_matrix(rng, n, m, density=0.4)
        blob = a.to_json()
        assert blob["shape"] == [n, m]
        assert [(i, j) for i, j, _ in blob["entries"]] == [(i, j) for i, j, _ in a.nonzero_items()]
        assert json_round_trip(a) == a
    zero = Matrix.zeros(n, m)
    assert zero.to_json() == {"shape": [n, m], "entries": []}
    assert json_round_trip(zero) == zero


def test_dense_json_forms_decode_like_sparse():
    rng = Random(5)
    for shape in ((4, 4), (4, 1), (1, 4)):
        m = rand_sparse_matrix(rng, *shape, density=0.5)
        dense = [[s.to_json() for s in row] for row in m.rows]
        assert Matrix.from_json(dense) == m
        assert Matrix.from_json({"entries": dense}) == m
        assert Matrix.from_json(m.to_json()) == m


def test_sparse_json_drops_zero_values_and_sorts_columns():
    m = Matrix.from_json({"shape": [2, 3], "entries": [[1, 2, 5], [1, 0, 0], [0, 1, -1]]})
    assert m == Matrix([[ZERO, -ONE, ZERO], [ZERO, ZERO, Scalar(5)]])
    assert hash(m) == hash(Matrix([[ZERO, -ONE, ZERO], [ZERO, ZERO, Scalar(5)]]))
    assert list(m.sparse_rows[1]) == [2]


MALFORMED_SPARSE = {
    "shape-one-int": {"shape": [2], "entries": []},
    "shape-negative": {"shape": [2, -1], "entries": []},
    "shape-float": {"shape": [2, 2.0], "entries": []},
    "shape-bool": {"shape": [True, 2], "entries": []},
    "shape-not-a-list": {"shape": "2x2", "entries": []},
    "entries-missing": {"shape": [2, 2]},
    "entries-not-a-list": {"shape": [2, 2], "entries": {"0": 1}},
    "entry-pair": {"shape": [2, 2], "entries": [[0, 0]]},
    "entry-quad": {"shape": [2, 2], "entries": [[0, 0, 1, 1]]},
    "entry-not-a-list": {"shape": [2, 2], "entries": [5]},
    "row-index-float": {"shape": [2, 2], "entries": [[0.0, 0, 1]]},
    "column-index-float": {"shape": [2, 2], "entries": [[0, 1.0, 1]]},
    "row-index-bool": {"shape": [2, 2], "entries": [[True, 0, 1]]},
    "column-index-bool": {"shape": [2, 2], "entries": [[0, True, 1]]},
    "index-string": {"shape": [2, 2], "entries": [["0", 0, 1]]},
    "row-out-of-range": {"shape": [2, 2], "entries": [[2, 0, 1]]},
    "column-out-of-range": {"shape": [2, 2], "entries": [[0, 2, 1]]},
    "index-negative": {"shape": [2, 2], "entries": [[0, -1, 1]]},
    "repeated": {"shape": [2, 2], "entries": [[0, 0, 1], [1, 1, 1], [0, 0, 1]]},
    "repeated-zero": {"shape": [2, 2], "entries": [[1, 1, 0], [1, 1, 2]]},
    "bad-value": {"shape": [2, 2], "entries": [[0, 0, "x"]]},
    "object-without-keys": {"rows": [[1, 0], [0, 1]]},
    "shape-over-cap": {"shape": [257, 257], "entries": []},
    "shape-huge": {"shape": [2, 10**12], "entries": []},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SPARSE))
def test_malformed_sparse_json(name, tmp_path, capsys):
    blob = MALFORMED_SPARSE[name]
    with pytest.raises(ValueError):
        Matrix.from_json(blob)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code = main(["decompose", "-K", "2", "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sparse_json_shape_follows_the_dimension_cap(monkeypatch):
    monkeypatch.setenv("SGA_MAX_DIM", "4")
    assert Matrix.from_json({"shape": [4, 1], "entries": [[3, 0, 1]]}) == Matrix.unit_column(4, 3)
    with pytest.raises(ValueError, match="SGA_MAX_DIM"):
        Matrix.from_json({"shape": [1, 8], "entries": []})


@pytest.mark.parametrize("value", ["abc", "0", "-4", "2.5"])
def test_max_dimension_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("SGA_MAX_DIM", value)
    with pytest.raises(ValueError, match="SGA_MAX_DIM"):
        max_dimension()


def test_max_dimension_default_and_override(monkeypatch):
    monkeypatch.delenv("SGA_MAX_DIM", raising=False)
    assert max_dimension() == DEFAULT_MAX_DIM
    monkeypatch.setenv("SGA_MAX_DIM", "")
    assert max_dimension() == DEFAULT_MAX_DIM
    monkeypatch.setenv("SGA_MAX_DIM", "1")
    assert max_dimension() == 1


def test_unit_column():
    e2 = Matrix.unit_column(4, 2)
    assert e2[2, 0] == ONE and e2[0, 0] == ZERO


ROW_CONSTRUCTORS = [
    ("zeros", (2,)),
    ("zeros", (2, 3)),
    ("identity", (2,)),
    ("diagonal", ([ONE, ZERO, I],)),
    ("diagonal", ([],)),
    ("column", ([ONE, HALF],)),
    ("row_vector", ([ONE, HALF],)),
    ("unit_column", (2, 0)),
    ("from_items", (2, 2, [(0, 1, ONE), (0, 1, ONE), (1, 0, HALF)])),
    ("from_items", (2, 2, [])),
    ("from_json", ([[1]],)),
    ("from_json", ({"shape": [2, 2], "entries": [[0, 1, 1]]},)),
]


@pytest.mark.parametrize("cls", [Monomial, OuterProduct])
@pytest.mark.parametrize("name, args", ROW_CONSTRUCTORS)
def test_row_constructors_build_a_plain_matrix_on_the_subclasses(cls, name, args):
    """A subclass inherits the row-based constructors, and they build what Matrix's build."""
    if cls is Monomial and name == "identity":
        assert Monomial.identity(1) == Matrix.identity(2)  # the word identity takes a bit count
        return
    got = getattr(cls, name)(*args)
    assert type(got) is Matrix
    assert got == getattr(Matrix, name)(*args)


def test_vectors_write_their_nonzero_entries_and_keep_their_shape():
    assert (Matrix.column([]).nrows, Matrix.column([]).ncols) == (0, 1)
    assert (Matrix.row_vector([]).nrows, Matrix.row_vector([]).ncols) == (1, 0)
    entries = [ZERO, HALF, ZERO, -I]
    col, row = Matrix.column(iter(entries)), Matrix.row_vector(iter(entries))
    assert col.sparse_rows == {1: {0: HALF}, 3: {0: -I}} and col == Matrix([[s] for s in entries])
    assert row.sparse_rows == {0: {1: HALF, 3: -I}} and row == Matrix([entries])
    assert Matrix.row_vector([ZERO, ZERO]).sparse_rows == {} and Matrix.row_vector([ZERO, ZERO]).ncols == 2


@pytest.mark.parametrize("m", [Matrix.identity(2), Monomial(1)], ids=["Matrix", "Monomial"])
def test_a_product_with_a_non_matrix_is_a_type_error(m):
    for other in (3, 0.5, "x", None, [[1, 0], [0, 1]]):
        with pytest.raises(TypeError):
            m @ other
        with pytest.raises(TypeError):
            other @ m


def test_nonzero_items():
    m = Matrix([[ZERO, ONE], [SQRT2, ZERO]])
    assert list(m.nonzero_items()) == [(0, 1, ONE), (1, 0, SQRT2)]


def test_sparse_products_match_oracles():
    rng = Random(17)
    for _ in range(40):
        n, k, m = (rng.randint(1, 9) for _ in range(3))
        a = rand_sparse_matrix(rng, n, k)
        b = rand_sparse_matrix(rng, k, m)
        product = a @ b
        assert product == naive_product(a, b)
        assert np.allclose(product.to_numpy(), a.to_numpy() @ b.to_numpy())
        assert list(product.nonzero_items()) == dense_items(product)


def test_sparse_entrywise_operations_match_dense():
    rng = Random(19)
    for _ in range(40):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        a = rand_sparse_matrix(rng, n, m)
        b = rand_sparse_matrix(rng, n, m)
        s = rand_scalar(rng)
        pairs = list(zip(a.rows, b.rows))
        assert (a + b).rows == tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in pairs)
        assert (a - b).rows == tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in pairs)
        assert (-a).rows == tuple(tuple(-x for x in r) for r in a.rows)
        assert a.scale(s).rows == tuple(tuple(s * x for x in r) for r in a.rows)
        assert a.conj().rows == tuple(tuple(x.conjugate() for x in r) for r in a.rows)
        assert a.transpose().rows == tuple(zip(*a.rows))
        assert np.allclose((a + b).to_numpy(), a.to_numpy() + b.to_numpy())
        assert a.trace() == sum((a[i, i] for i in range(min(n, m))), ZERO)
        for i in range(n):
            for j in range(m):
                assert a[i, j] == a.rows[i][j]


def test_exact_cancellation_leaves_no_entries():
    rng = Random(23)
    for _ in range(20):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        a = rand_sparse_matrix(rng, n, m, density=0.5)
        zero = a + (-a)
        assert zero.is_zero() and list(zero.nonzero_items()) == []
        assert zero == Matrix.zeros(n, m) and hash(zero) == hash(Matrix.zeros(n, m))
        assert a - a == Matrix.zeros(n, m)
        assert zero != Matrix.zeros(m, n) or n == m


def test_products_whose_entries_cancel():
    ones = Matrix([[ONE, ONE], [ONE, ONE]])
    alternating = Matrix([[ONE, -ONE], [-ONE, ONE]])
    assert ones @ alternating == Matrix.zeros(2)
    assert list((ones @ alternating).nonzero_items()) == []
    # half the entries of the product cancel
    mixed = Matrix([[ONE, ONE], [ONE, -ONE]])
    assert list((mixed @ mixed).nonzero_items()) == [(0, 0, Scalar(2)), (1, 1, Scalar(2))]
    rng = Random(29)
    for _ in range(10):
        a = rand_sparse_matrix(rng, 5, 5, density=0.4)
        assert commutator(a, a @ a).is_zero()
        assert commutator(a, a @ a) == naive_product(a, a @ a) - naive_product(a @ a, a)
    sigma1 = Matrix([[ZERO, ONE], [ONE, ZERO]])
    sigma2 = Matrix([[ZERO, -I], [I, ZERO]])
    assert anticommutator(sigma1, sigma2) == Matrix.zeros(2)


def test_scalar_multiple_of_identity_with_zero_first_entry():
    assert Matrix.zeros(3).scalar_multiple_of_identity() == ZERO
    assert Matrix.diagonal([ZERO, ONE]).scalar_multiple_of_identity() is None
    assert Matrix([[ZERO, ONE], [ZERO, ZERO]]).scalar_multiple_of_identity() is None
    assert Matrix([[ONE, ZERO], [ONE, ONE]]).scalar_multiple_of_identity() is None
    assert Matrix.zeros(2, 3).scalar_multiple_of_identity() is None


def test_nonzero_items_stay_row_major_after_product_and_transpose():
    rng = Random(37)
    for _ in range(20):
        a = rand_sparse_matrix(rng, 6, 7, 0.3)
        b = rand_sparse_matrix(rng, 7, 5, 0.3)
        for m in (a @ b, a.transpose(), (a @ b).transpose(), b.transpose() @ a.transpose()):
            items = list(m.nonzero_items())
            assert [(i, j) for i, j, _ in items] == sorted((i, j) for i, j, _ in items)
            assert items == dense_items(m)


def test_hash_agrees_with_equality_across_construction_paths():
    eps = Matrix([[ZERO, ONE], [-ONE, ZERO]])
    swap = Matrix([[ZERO, ONE], [ONE, ZERO]])
    reached = [
        Matrix.diagonal([ONE, -ONE]) @ swap,
        -(-eps),
        -(swap @ Matrix.diagonal([ONE, -ONE])),
        (eps @ eps) @ (-eps),
        Matrix.from_items(2, 2, [(0, 1, ONE), (1, 0, -ONE), (1, 1, ONE), (1, 1, -ONE)]),
        eps.scale(Fraction(2, 2)),
    ]
    for m in reached:
        assert m == eps and hash(m) == hash(eps)
    assert len({eps, *reached}) == 1


# -- the product kernel ------------------------------------------------------------


exact_entries = st.builds(
    Scalar,
    st.integers(-3, 3), st.integers(-2, 2), st.integers(-3, 3), st.integers(-2, 2),
    st.integers(1, 4),
)
sides = st.integers(1, 6)


@st.composite
def exact_matrices(draw, nrows, ncols):
    """nrows x ncols, each entry drawn from `exact_entries` with a drawn density in [0.2, 1]."""
    density = draw(st.floats(0.2, 1.0))
    size = nrows * ncols
    draws = draw(st.lists(st.floats(0, 1), min_size=size, max_size=size))
    values = draw(st.lists(exact_entries, min_size=size, max_size=size))
    flat = [v if u < density else ZERO for u, v in zip(draws, values)]
    return Matrix([flat[i * ncols:(i + 1) * ncols] for i in range(nrows)])


@st.composite
def product_pairs(draw):
    # n x 1 and 1 x n factors (outer and inner products) come up often
    n, k, m = draw(st.sampled_from([(4, 1, 4), (1, 4, 1), (1, 1, 1)]) | st.tuples(sides, sides, sides))
    return draw(exact_matrices(n, k)), draw(exact_matrices(k, m))


def check_product(a, b):
    product = a @ b
    assert product == naive_product(a, b)
    assert np.allclose(product.to_numpy(), a.to_numpy() @ b.to_numpy(), rtol=0, atol=1e-9)
    assert list(product.nonzero_items()) == dense_items(product)
    return product


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_exact_products_match_the_oracles(pair):
    check_product(*pair)


MIXED = build_representation(spacelike=5, timelike=1)  # dim 8; axis 6 is timelike


def operators():
    rep = MIXED
    return {
        "C": rep.C,
        "eps": rep.eps,
        "Gamma": rep.Gamma,
        "timelike gamma": rep.gamma(6),
        "C dagger": rep.C.dagger(),
        "chiral generator": rep.gamma_chiral(2),  # units sqrt2 * (+-1)
    }


OPERATOR_NAMES = sorted(operators())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(OPERATOR_NAMES), st.integers(1, 8), st.data())
def test_products_with_operators_match_the_oracles(name, other_side, data):
    op = operators()[name]
    assert type(op) is Monomial
    dim = op.nrows
    right = data.draw(exact_matrices(dim, other_side))
    left = data.draw(exact_matrices(other_side, dim))
    for product in (check_product(op, right), check_product(left, op)):
        assert type(product) is not Monomial
    square = data.draw(exact_matrices(dim, dim))
    assert type(check_product(op, square)) is not Monomial
    assert type(check_product(square, op)) is not Monomial


@pytest.mark.parametrize("name", OPERATOR_NAMES)
def test_operator_matrices_compare_and_hash_like_dense_rows(name):
    op = operators()[name]
    dense = Matrix(op.rows)
    assert type(dense) is not Monomial
    assert dense == op and op == dense and hash(dense) == hash(op)
    assert dense.sparse_rows == op.sparse_rows
    for a, b in ((op, op), (op, operators()["C"])):
        product = a @ b
        assert type(product) is Monomial
        assert product == dense @ Matrix(b.rows) == naive_product(a, b)
    assert -op == op.times_unit(2) and op.scale(I) == op.times_unit(1)
    assert op.scale(-INV_SQRT2) == op.times_unit(2, -1) and op.scale(Scalar(0, 0, 4)) == op.times_unit(1, 4)
    derived = (
        (-op, -dense),
        (op.scale(I), dense.scale(I)),
        (op.scale(-INV_SQRT2), dense.scale(-INV_SQRT2)),
        (op.scale(Scalar(0, 0, 4)), dense.scale(Scalar(0, 0, 4))),
        (op.transpose(), dense.transpose()),
        (op.conj(), dense.conj()),
        (op.dagger(), dense.dagger()),
    )
    for got, plain in derived:
        assert type(got) is Monomial and type(plain) is not Monomial
        assert got == plain and plain == got and hash(got) == hash(plain)
        assert got == Matrix(plain.rows)
    for factor in (Scalar(3), Scalar(1, 1), Scalar(0, 0, 3, 0, 2)):  # not of the form i**p * sqrt2**e
        assert type(op.scale(factor)) is not Monomial  # no unit: the general path
        assert op.scale(factor) == dense.scale(factor)


def test_exact_products_make_no_scalar_products(monkeypatch):
    """The product kernels multiply numerators in plain ints; a product of two Scalars fails here.

    The operations on dim-64 outer products act on their factors, so reading the rows fails too.
    """
    rng = Random(41)
    a, b = rand_matrix(rng, 16), rand_matrix(rng, 16)
    rep = MIXED  # N = 6
    m = rand_matrix(rng, rep.dim)
    column, row = rand_matrix(rng, rep.dim, 1), rand_matrix(rng, 1, rep.dim)
    factor = Scalar(1, 1, 0, 0, 3)  # (1 + sqrt2)/3, not a unit
    c, eps = Matrix(rep.C.rows), Matrix(rep.eps.rows)
    rep64 = build_representation(spacelike=12)
    psi, chi, phi = (rand_matrix(rng, 64, 1) for _ in range(3))
    first, second = outer_product(rep64, psi, chi).payload, outer_product(rep64, phi, psi).payload
    twin = outer_product(rep64, psi.scale(2), chi.scale(HALF)).payload  # first, from other factors
    mv = rand_matrix(rng, 64)
    assert all(isinstance(x, OuterProduct) for x in (first, second, twin))
    calls = []
    original = Scalar.__mul__

    def counting(x, y):
        calls.append(1)
        return original(x, y)

    def fail(*args):
        raise AssertionError("conjugate built an intermediate matrix")

    def fail_rows(*args):
        raise AssertionError("an outer product read its rows")

    monkeypatch.setattr(Scalar, "__mul__", counting)
    monkeypatch.setattr(Scalar, "__rmul__", counting)
    product = a @ b
    outer = column @ row
    scaled = a.scale(factor)
    conj_row = conjugate(rep, row)
    with monkeypatch.context() as no_matrices:
        no_matrices.setattr(Matrix, "conj", fail)
        no_matrices.setattr(Matrix, "__matmul__", fail)
        conj = conjugate(rep, m)
    with monkeypatch.context() as factored:
        factored.setattr(OuterProduct, "sparse_rows", property(fail_rows))
        conj_first = conjugate(rep64, first)
        negated, scaled_second = -first, second.scale(factor)
        compared = [first == second, first == twin, negated == first]
        trace = first.trace()
        times_mv, mv_times = first @ mv, mv @ second
    assert len(calls) == 0
    assert Scalar(2) * Scalar(3) == Scalar(6) and len(calls) == 1  # the count sees a product
    monkeypatch.undo()
    assert product == naive_product(a, b)
    assert outer == naive_product(column, row)
    assert scaled == Matrix([[factor * x for x in r] for r in a.rows])
    assert conj == naive_product(naive_product(c, m.conj()), c.dagger())
    assert conj_row == naive_product(naive_product(c, naive_product(eps, row.transpose()).conj()).transpose(), eps)
    rows_first, rows_second = Matrix(first.sparse_rows, 64, 64), Matrix(second.sparse_rows, 64, 64)
    assert conj_first == conjugate(rep64, rows_first)
    assert negated == -rows_first and scaled_second == rows_second.scale(factor)
    assert compared == [rows_first == rows_second, True, False]
    assert trace == rows_first.trace()
    assert times_mv == rows_first @ mv and mv_times == mv @ rows_second


@pytest.mark.parametrize("factor,want", [
    (Fraction(1, 3), Scalar(1, 0, 0, 0, 3)),
    (Fraction(-4, 2), Scalar(-2)),
    (3, Scalar(3)),
    (SQRT2, SQRT2),
])
def test_scaling_keeps_an_exact_factor_exact(factor, want):
    m = Matrix([[ONE, I], [ZERO, SQRT2]])
    expected = Matrix([[want, I * want], [ZERO, SQRT2 * want]])
    for got in (m.scale(factor), m * factor, factor * m):
        assert got == expected


@pytest.mark.parametrize("factor", ["2", None, [1], 0.5, 1j])
def test_scaling_by_an_unsupported_type_is_a_type_error(factor):
    m = Matrix.identity(2)
    with pytest.raises(TypeError):
        m.scale(factor)
    with pytest.raises(TypeError):
        m * factor
    with pytest.raises(TypeError):
        factor * m


# -- sparse storage: nonempty rows only ------------------------------------------


def test_sparse_kernels_cost_the_nonzeros_at_any_dimension(monkeypatch):
    """At dim 2**64 each kernel runs on the stored nonzeros alone, with no dimension cap in the way."""
    from sga.bitcodes import Bitcode
    from sga.elements import Element, lower_index, raise_index, row_of
    from sga.matrices import sandwich
    from sga.representation import RepConfig, Signature

    monkeypatch.delenv("SGA_MAX_DIM", raising=False)
    n, top = 64, 1 << 63
    dim = 1 << n
    a, b = Matrix.unit_column(dim, 5), Matrix.unit_column(dim, dim - 1).scale(I)
    assert a.sparse_rows == {5: {0: ONE}} and (a.nrows, a.ncols) == (dim, 1)
    assert Matrix.zeros(dim).is_zero() and Matrix.zeros(dim, 1) == a - a
    total = a + b
    assert total.sparse_rows == {5: {0: ONE}, dim - 1: {0: I}}
    assert (a - b).sparse_rows == {5: {0: ONE}, dim - 1: {0: -I}}
    assert total.scale(SQRT2).sparse_rows == {5: {0: SQRT2}, dim - 1: {0: I * SQRT2}}
    row = total.transpose()
    assert (row.nrows, row.ncols) == (1, dim) and row.sparse_rows == {0: {5: ONE, dim - 1: I}}
    assert row.transpose() == total and total != a and total[-1, 0] == I and total[6, 0] == ZERO

    # i X**x Z**2: column j goes to row j ^ x with the unit i * (-1)**(j >> 1 & 1)
    flip, keep_even_pairs = Monomial(n, x=1 | top, z=2, p=1), Monomial(n, m=2)
    moved = {top - 2: {0: ONE}, top + 4: {0: I}}
    assert sandwich(flip, total).sparse_rows == moved and (flip @ total).sparse_rows == moved
    assert list(moved) == sorted(moved)
    assert sandwich(keep_even_pairs, total).sparse_rows == {5: {0: ONE}}
    assert sandwich(None, row, flip).sparse_rows == {0: {top - 2: ONE, top + 4: I}} == (row @ flip).sparse_rows
    assert sandwich(None, row, keep_even_pairs).sparse_rows == {0: {5: ONE}}

    # basis spinors of a K=128 representation
    rep = build_representation(RepConfig(Signature(spacelike=128)))
    index = 3 << 40 | 9
    psi = Element.basis_spinor(rep, Bitcode.from_index(index, n))
    lowered, raised = row_of(rep, psi).payload, raise_index(rep, psi)
    assert lowered.nrows == 1 and list(lowered.sparse_rows[0]) == [index ^ (dim - 1)]
    assert list(raised.payload.sparse_rows) == [index ^ (dim - 1)]
    assert raised.payload[index ^ (dim - 1), 0] in (ONE, -ONE)
    assert lower_index(rep, raised) == psi

    # equal matrices built by different paths hash equal: the rows stay in increasing order
    c = Matrix.from_items(dim, dim, [(dim - 1, 0, ONE), (3, dim - 2, I), (top, 7, SQRT2)])
    d = Matrix.from_items(dim, dim, [(0, 1, -ONE), (3, 4, HALF), (top, 7, -SQRT2)])
    assert c + d == d + c and hash(c + d) == hash(d + c)
    assert list((c + d).sparse_rows) == [0, 3, dim - 1]
    assert c.transpose().transpose() == c and hash(c.transpose().transpose()) == hash(c)
    back = flip.dagger() @ (flip @ c)
    assert back == c and hash(back) == hash(c) and hash(flip.dagger() @ (flip @ total)) == hash(total)


def test_entry_reads_check_both_bounds():
    m = Matrix([[ONE, ZERO, I], [ZERO, SQRT2, -ONE]])
    for key in ((2, 0), (0, 3), (-3, 0), (0, -4)):
        with pytest.raises(IndexError):
            m[key]
    assert m[-1, -1] == -ONE and m[-2, 0] == ONE and m[1, 0] == ZERO
    for index in (4, -1):
        with pytest.raises(IndexError):
            Matrix.unit_column(4, index)


# -- signed monomials acting on numpy arrays ---------------------------------------


def array_operators(rep):
    """eps, C, Gamma, the gammas, a chiral projector, a paired blade and the zero operator: all Monomials."""
    ops = {"eps": rep.eps, "C": rep.C, "Gamma": rep.Gamma, "zero": Monomial.zero(rep.n_bits)}
    ops.update((f"gamma_{a}", rep.gamma(a)) for a in range(1, rep.N + 1))
    if rep.n_bits:
        # g gbar / 2 projects onto the indices whose plane-1 bit is down: a masked word
        ops["projector"] = (rep.gamma_chiral(1) @ rep.gamma_chiral(1, barred=True)).scale(HALF)
        ops["paired blade"] = blade_matrix(rep, BladeIndex(CHIRAL, ((1, False), (1, True))))
    assert all(type(m) is Monomial for m in ops.values())
    return ops


@settings(max_examples=40, deadline=None)
@given(rep_configs(max_n=9), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_monomials_act_on_arrays_as_their_numpy_matrices(config, k, complex_values, seed):
    """M @ X, X @ M and M @ x equal the products with M.to_numpy(): each output entry is one unit times one input entry."""
    rep = build_representation(config)
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if complex_values else x

    left, right, vector = draw(rep.dim, k), draw(k, rep.dim), draw(rep.dim)
    for name, m in array_operators(rep).items():
        dense = m.to_numpy()
        for got, want in ((m @ left, dense @ left), (right @ m, right @ dense),
                          (m @ vector, dense @ vector), (vector @ m, vector @ dense)):
            assert got.shape == want.shape and got.dtype == complex, name
            np.testing.assert_array_equal(got, want, err_msg=name)


def test_an_array_of_the_wrong_shape_is_a_value_error():
    m = build_representation(spacelike=4, timelike=1).C
    for bad in (np.ones((3, 4)), np.ones(5), np.ones((4, 4, 4)), np.ones(())):
        with pytest.raises(ValueError):
            m @ bad
    for bad in (np.ones((4, 3)), np.ones(5), np.ones((4, 4, 4))):
        with pytest.raises(ValueError):
            bad @ m


def test_a_matrix_that_is_not_an_operator_times_an_array_is_a_type_error():
    """Only a Monomial acts on a numpy array; numpy defers to every Matrix instead of wrapping it in an object array."""
    outer = Matrix.column([ONE, I, ZERO, SQRT2]) @ Matrix.row_vector([HALF, ZERO, -ONE, I])
    assert type(outer) is OuterProduct
    sparse = rand_sparse_matrix(Random(7), 4, 4, density=0.4)
    assert not sparse.is_zero()
    array = np.eye(4)
    for m in (Matrix.identity(4), outer, sparse):
        with pytest.raises(TypeError):
            m @ array
        with pytest.raises(TypeError):
            array @ m
    assert isinstance(Monomial.identity(2) @ array, np.ndarray)
    assert isinstance(array @ Monomial.identity(2), np.ndarray)


def test_the_conjugate_transpose_of_an_operator_is_an_operator():
    c = MIXED.C
    dagger = c.dagger()
    assert type(dagger) is Monomial
    np.testing.assert_array_equal(dagger.to_numpy(), c.to_numpy().conj().T)
    assert dagger == Matrix(c.rows).dagger()
