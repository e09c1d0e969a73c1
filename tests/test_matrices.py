"""Exact matrix arithmetic against brute-force oracles."""

import json
from random import Random

import numpy as np
import pytest

from sga.cli import main
from sga.matrices import (
    DEFAULT_MAX_DIM,
    Matrix,
    anticommutator,
    commutator,
    max_dimension,
)
from sga.scalars import I, ONE, SQRT2, ZERO, Scalar


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


def rand_float_scalar(rng):
    return Scalar(_float=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))


def json_round_trip(m):
    return Matrix.from_json(json.loads(json.dumps(m.to_json())))


@pytest.mark.parametrize("shape", [(5, 5), (4, 1), (1, 4)])
def test_sparse_json_round_trips(shape):
    rng = Random(31)
    n, m = shape
    for _ in range(20):
        exact = rand_sparse_matrix(rng, n, m, density=0.4)
        floats = Matrix([
            [rand_float_scalar(rng) if rng.random() < 0.4 else ZERO for _ in range(m)]
            for _ in range(n)
        ])
        for a in (exact, floats):
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
        eps.scale(Scalar(1.0)),
    ]
    for m in reached:
        assert m == eps and hash(m) == hash(eps)
    assert len({eps, *reached}) == 1
