"""Species grid, exclusion, chains, index raising and the scalar product."""

from random import Random
from types import SimpleNamespace

import pytest

from sga.bitcodes import Bitcode, all_bitcodes
from sga.elements import (
    Element,
    ForbiddenProduct,
    FormalSum,
    lower_index,
    multiply,
    outer_product,
    raise_index,
    row_of,
    scalar_product,
    simplify_chain,
)
from sga.matrices import Matrix
from sga.representation import RepConfig, Signature, build_representation
from sga.scalars import INV_SQRT2, ONE, SQRT2, ZERO, Scalar
from sga.suites import random_spinor, random_multivector, random_scalar
from sga.symmetry import plane_rotor, rotate


def rep_for(k, m=0, **kw):
    return build_representation(RepConfig(Signature(spacelike=k, timelike=m), **kw))


@pytest.fixture(scope="module")
def pauli():
    return rep_for(3)


@pytest.fixture(scope="module")
def dirac():
    return rep_for(3, 1)


def test_row_of_values(pauli):
    up = Element.basis_spinor(pauli, "u")
    down = Element.basis_spinor(pauli, "d")
    assert row_of(pauli, up).payload == Matrix.row_vector([ZERO, ONE])
    assert row_of(pauli, down).payload == Matrix.row_vector([-ONE, ZERO])
    two = rep_for(2)
    assert row_of(two, Element.basis_spinor(two, "u")).payload == Matrix.row_vector(
        [ZERO, ONE]
    )


def test_grid_products(pauli):
    up = Element.basis_spinor(pauli, "u")
    down = Element.basis_spinor(pauli, "d")
    r = row_of(pauli, down)
    out = multiply(r, up)
    assert out.species == "scalar" and out.payload == -ONE
    outer = multiply(up, row_of(pauli, up))
    assert outer.species == "multivector"
    assert outer.payload == pauli.gamma_chiral(1).scale(INV_SQRT2)
    mv = Element.multivector(pauli, pauli.gamma(1))
    assert multiply(mv, up).species == "column"
    assert multiply(r, mv).species == "row"
    assert multiply(mv, mv).species == "multivector"
    s = Element.scalar(pauli, SQRT2)
    assert multiply(s, up).payload == up.payload.scale(SQRT2)
    assert multiply(mv, s).payload == pauli.gamma(1).scale(SQRT2)


def test_exclusion(pauli):
    up = Element.basis_spinor(pauli, "u")
    down = Element.basis_spinor(pauli, "d")
    with pytest.raises(ForbiddenProduct):
        multiply(up, down)
    with pytest.raises(ForbiddenProduct):
        multiply(row_of(pauli, up), row_of(pauli, down))
    out = multiply(up, down, forbidden_as_zero=True)
    assert isinstance(out, FormalSum) and out.is_zero()


def test_illegal_shapes_are_forbidden(pauli):
    up = Element.basis_spinor(pauli, "u")
    mv = Element.multivector(pauli, pauli.gamma(1))
    with pytest.raises(ForbiddenProduct):
        multiply(up, mv)  # column * multivector has no legal reading
    # and it is not excused by the zero flag: only the exclusion pairs are
    with pytest.raises(ForbiddenProduct):
        multiply(up, mv, forbidden_as_zero=True)


def test_rep_mismatch(pauli, dirac):
    with pytest.raises(ValueError):
        multiply(Element.basis_spinor(pauli, "u"), Element.basis_spinor(dirac, "uu"))


def test_formal_sums(pauli):
    up = Element.basis_spinor(pauli, "u")
    down = Element.basis_spinor(pauli, "d")
    mv = Element.multivector(pauli, pauli.gamma(1))
    s = down + mv
    assert isinstance(s, FormalSum) and len(s.terms) == 2
    collapsed = s + (-down)
    assert isinstance(collapsed, Element) and collapsed.species == "multivector"
    # multiplication distributes over the terms
    r = row_of(pauli, up)
    prod = multiply(r, s)  # row*column -> scalar, row*mv -> row
    assert isinstance(prod, FormalSum)
    species = sorted(t.species for t in prod.terms)
    assert species == ["row", "scalar"]
    # a term that collapses to zero is dropped, unwrapping the sum
    prod2 = multiply(r, up + mv)  # row(u)*u vanishes by antisymmetry
    assert isinstance(prod2, Element) and prod2.species == "row"


def test_scalar_product_symmetry(pauli):
    rng = Random(5)
    sign = Scalar(pauli.metric_square_sign)
    for _ in range(20):
        psi = random_spinor(pauli, rng)
        chi = random_spinor(pauli, rng)
        assert scalar_product(pauli, psi, chi) == sign * scalar_product(pauli, chi, psi)
        # antisymmetric metric forces null self-products
        assert scalar_product(pauli, psi, psi).is_zero()


def test_scalar_product_values(pauli):
    up = pauli.basis_spinor(Bitcode.from_string("u"))
    down = pauli.basis_spinor(Bitcode.from_string("d"))
    assert scalar_product(pauli, down, up) == -ONE
    assert scalar_product(pauli, up, down) == ONE
    two = rep_for(2)
    u2 = two.basis_spinor(Bitcode.from_string("u"))
    d2 = two.basis_spinor(Bitcode.from_string("d"))
    assert scalar_product(two, u2, d2) == ONE == scalar_product(two, d2, u2)


def test_outer_product_examples(pauli, dirac):
    up = pauli.basis_spinor(Bitcode.from_string("u"))
    down = pauli.basis_spinor(Bitcode.from_string("d"))
    singlet = (
        outer_product(pauli, down, up).payload - outer_product(pauli, up, down).payload
    )
    assert singlet == Matrix.identity(2)
    triplet = (
        outer_product(pauli, up, down).payload + outer_product(pauli, down, up).payload
    )
    assert triplet == -pauli.gamma(3)
    dd = dirac.basis_spinor(Bitcode.from_string("dd"))
    uu = dirac.basis_spinor(Bitcode.from_string("uu"))
    commutator = (
        outer_product(dirac, dd, uu).payload - outer_product(dirac, uu, dd).payload
    )
    half = Scalar(1, 0, 0, 0, 2)
    assert commutator == (Matrix.identity(4) + dirac.kappa).scale(half)


def test_outer_rotor_covariance(pauli):
    rng = Random(9)
    rot = plane_rotor(pauli, 1, quarters=1)
    for _ in range(10):
        chi = random_spinor(pauli, rng)
        psi = random_spinor(pauli, rng)
        lhs = outer_product(pauli, rot.matrix @ chi, rot.matrix @ psi).payload
        rhs = rot.matrix @ outer_product(pauli, chi, psi).payload @ rot.reverse_matrix
        assert lhs == rhs


def test_row_transforms_with_the_reverse(pauli):
    rng = Random(11)
    rot = plane_rotor(pauli, 1, quarters=3)
    psi = random_spinor(pauli, rng)
    rotated_column = Element.column(pauli, rot.matrix @ psi)
    assert row_of(pauli, rotated_column).payload == row_of(pauli, psi).payload @ rot.reverse_matrix
    assert rotate(pauli, rot, row_of(pauli, psi)).payload == row_of(pauli, psi).payload @ rot.reverse_matrix


def test_simplify_chain_associativity(pauli):
    up = Element.basis_spinor(pauli, "u")
    down = Element.basis_spinor(pauli, "d")
    chain = [down, row_of(pauli, up), down, row_of(pauli, up)]
    result = simplify_chain(chain)
    # (e_d e_u.)(e_d e_u.) = (e_u . e_d) e_d e_u. = + e_d e_u.
    assert result.payload == outer_product(pauli, down, up).payload
    # (e_u e_d.)(e_d e_u.) = e_u (e_d . e_d) e_u. and e_d . e_d = 0
    chain = [up, row_of(pauli, down), down, row_of(pauli, up)]
    assert simplify_chain(chain).payload.is_zero()


def test_simplify_chain_forbidden(pauli):
    up = Element.basis_spinor(pauli, "u")
    with pytest.raises(ForbiddenProduct):
        simplify_chain([up, up, row_of(pauli, up)])
    out = simplify_chain([up, up, row_of(pauli, up)], forbidden_as_zero=True)
    assert isinstance(out, FormalSum) and out.is_zero()


def test_chain_matches_matrix_product(dirac):
    rng = Random(21)
    for _ in range(20):
        chi = random_spinor(dirac, rng)
        psi = random_spinor(dirac, rng)
        phi = random_spinor(dirac, rng)
        xi = random_spinor(dirac, rng)
        chain = simplify_chain(
            [
                Element.column(dirac, chi),
                row_of(dirac, psi),
                Element.column(dirac, phi),
                row_of(dirac, xi),
            ]
        )
        direct = (
            chi @ (psi.transpose() @ dirac.eps) @ phi @ (xi.transpose() @ dirac.eps)
        )
        assert chain.payload == direct


def test_raise_lower_round_trip():
    for n in (2, 3, 4):
        rep = rep_for(n)
        for code in all_bitcodes(rep.n_bits):
            col = rep.basis_spinor(code)
            assert lower_index(rep, raise_index(rep, col)) == col
            raised = raise_index(rep, col)
            # supported on the flipped bitcode
            support = [i for i, _, _ in raised.nonzero_items()]
            assert support == [rep.spinor_index(code.flip())]


def test_raise_values(pauli):
    up = pauli.basis_spinor(Bitcode.from_string("u"))
    down = pauli.basis_spinor(Bitcode.from_string("d"))
    assert raise_index(pauli, up) == -down  # resolved by inverting the metric
    two = rep_for(2)
    assert raise_index(two, two.basis_spinor(Bitcode.from_string("u"))) == two.basis_spinor(
        Bitcode.from_string("d")
    )


def test_mixed_species_sum_rejects_unlike_payload(pauli):
    with pytest.raises(ValueError):
        Element.column(pauli, Matrix.identity(2))
    with pytest.raises(TypeError):
        Element.scalar(pauli, Matrix.identity(2))


def randint_scalar(rng, allow_zero=True):
    """The draw ``random_scalar`` reproduces, written with ``randint`` and ``choice``."""
    while True:
        s = Scalar(rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(-2, 2), rng.randint(-1, 1),
                   rng.choice((1, 2)))
        if allow_zero or not s.is_zero():
            return s


@pytest.mark.parametrize("allow_zero", (True, False))
def test_random_scalar_keeps_the_randint_stream(allow_zero):
    for seed in range(40):
        ours, theirs = Random(seed), Random(seed)
        for _ in range(200):
            assert random_scalar(ours, allow_zero) == randint_scalar(theirs, allow_zero)
        assert ours.getstate() == theirs.getstate()


def dense_spinor(rep, rng, nonzero=True):
    """The builder ``random_spinor`` replaces: dim drawn entries, zeros included, in dense rows."""
    while True:
        col = Matrix([[randint_scalar(rng)] for _ in range(rep.dim)])
        if not nonzero or not col.is_zero():
            return col


def dense_multivector(rep, rng, density=0.4):
    """The builder ``random_multivector`` replaces: dim x dim dense rows, an entry drawn where random() < density."""
    return Matrix([[randint_scalar(rng) if rng.random() < density else ZERO for _ in range(rep.dim)]
                   for _ in range(rep.dim)])


@pytest.mark.parametrize("n", (3, 6, 8))
def test_random_inputs_keep_the_dense_draws(n):
    """The sparse builders give the dense builders' matrices and leave the Random in the same state.

    ``sga verify`` prints the same text for every seed, so only this test
    shows that a seed still draws the same inputs.
    """
    rep = rep_for(n)
    for seed in range(8):
        ours, theirs = Random(seed), Random(seed)
        for nonzero in (True, False):
            for _ in range(3):
                assert random_spinor(rep, ours, nonzero) == dense_spinor(rep, theirs, nonzero)
        for density in (0.4, 0.05, 1.0):
            assert random_multivector(rep, ours, density) == dense_multivector(rep, theirs, density)
        assert random_multivector(rep, ours) == dense_multivector(rep, theirs)
        assert ours.getstate() == theirs.getstate()


def test_random_spinor_redraws_a_zero_column_as_before():
    tiny = SimpleNamespace(dim=1)  # a zero draw has probability 2/450 per entry
    ours, theirs = Random(5), Random(5)
    draws = [random_spinor(tiny, ours) for _ in range(3000)]
    assert draws == [dense_spinor(tiny, theirs) for _ in range(3000)]
    assert ours.getstate() == theirs.getstate()
    assert all(d.nrows == 1 and d.ncols == 1 and not d.is_zero() for d in draws)
