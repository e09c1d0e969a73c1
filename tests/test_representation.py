"""Construction invariants of the chiral representation.

The metrics have two independent routes: the closed bitcode form used by
the builder and the explicit product of basis vectors.  Tests compare both.
"""

import gc
import weakref
from itertools import combinations

import pytest

from sga.bitcodes import Bitcode, all_bitcodes
from sga.matrices import Matrix, Monomial, anticommutator
from sga.representation import RepConfig, Signature, _even_core, build_representation
from sga.scalars import I, ONE, SQRT2, ZERO, Scalar, i_power


def rep_for(k, m=0, **kw):
    return build_representation(RepConfig(Signature(spacelike=k, timelike=m), **kw))


def product_metric_standard(rep):
    """Independent oracle: the metric as the explicit product of real vectors."""
    out = Matrix.identity(rep.dim)
    for k in range(1, rep.n_bits + 1):
        out = out @ rep.gamma_plus(k)
    return out


def product_metric_alternative(rep, pairs=None):
    out = Matrix.identity(rep.dim)
    for k in range(1, (pairs or rep.n_bits) + 1):
        out = out @ rep.gamma_minus(k).scale(I)
    return out


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_metric_recursion_equals_product(n):
    rep = rep_for(n)
    assert rep.eps_std == product_metric_standard(rep)
    assert rep.eps_alt == product_metric_alternative(rep)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_projected_odd_metric_is_the_imaginary_product(n):
    rep = rep_for(n)
    assert rep.eps == product_metric_alternative(rep)
    assert rep.eps_std == rep.eps_alt


def test_pauli_fixtures():
    rep = rep_for(3)
    assert rep.gamma(1) == Matrix([[ZERO, ONE], [ONE, ZERO]])
    assert rep.gamma(2) == Matrix([[ZERO, -I], [I, ZERO]])
    assert rep.gamma(3) == Matrix([[ONE, ZERO], [ZERO, -ONE]])
    assert rep.gamma_chiral(1) == Matrix([[ZERO, SQRT2], [ZERO, ZERO]])
    assert rep.gamma_chiral(1, barred=True) == Matrix([[ZERO, ZERO], [SQRT2, ZERO]])
    assert rep.eps == Matrix([[ZERO, ONE], [-ONE, ZERO]])
    assert rep.C == rep.eps  # no timelike dimensions


def test_two_dimensional_fixtures():
    rep = rep_for(2)
    assert rep.eps == Matrix([[ZERO, ONE], [ONE, ZERO]])  # single real factor
    assert rep.kappa == Matrix.diagonal([ONE, -ONE])
    assert rep.basis_spinor(Bitcode.from_string("u")) == Matrix.column([ONE, ZERO])


def test_basis_spinor_stacking():
    rep4 = rep_for(4)
    assert rep4.basis_spinor(Bitcode.from_string("uu")) == Matrix.unit_column(4, 0)
    assert rep4.basis_spinor(Bitcode.from_string("du")) == Matrix.unit_column(4, 1)
    assert rep4.basis_spinor(Bitcode.from_string("ud")) == Matrix.unit_column(4, 2)
    # appending an up bit stacks the previous spinor on the upper block
    rep2 = rep_for(2)
    for code in all_bitcodes(1):
        low = rep2.basis_spinor(code)
        up = rep4.basis_spinor(Bitcode(code.bits + (True,)))
        assert up.rows[: 2] == low.rows
        assert all(s.is_zero() for r in up.rows[2:] for s in r)
    with pytest.raises(ValueError):
        rep4.basis_spinor(Bitcode.from_string("u"))


CLIFFORD_CASES = [
    (2, 0),
    (3, 0),
    (4, 0),
    (4, 2),
    (4, 4),
    (3, 1),
    (5, 1),
    (6, 3),
    (0, 4),
    (1, 1),
    (12, 0),
    (11, 1),
]


@pytest.mark.parametrize("k,m", CLIFFORD_CASES)
def test_clifford_relations(k, m):
    rep = rep_for(k, m)
    for a in range(1, rep.N + 1):
        for b in range(a, rep.N + 1):
            got = anticommutator(rep.gamma(a), rep.gamma(b))
            if a == b:
                eta = Scalar(-2 if rep.signature.is_timelike(a) else 2)
                assert got == Matrix.identity(rep.dim).scale(eta)
            else:
                assert got.is_zero()


@pytest.mark.parametrize("k,m", [(2, 0), (4, 0), (3, 1), (6, 0)])
def test_chiral_vectors_are_the_normalized_combinations(k, m):
    rep = rep_for(k, m)
    inv_rt2 = SQRT2.inverse()
    for kk in range(1, rep.n_bits + 1):
        plus, minus = rep.gamma_plus(kk), rep.gamma_minus(kk)
        assert rep.gamma_chiral(kk) == (plus + minus.scale(I)).scale(inv_rt2)
        assert rep.gamma_chiral(kk, barred=True) == (plus - minus.scale(I)).scale(inv_rt2)
        # normalisation: the symmetric half of g gbar is the unit matrix
        g, gb = rep.gamma_chiral(kk), rep.gamma_chiral(kk, barred=True)
        assert anticommutator(g, gb) == Matrix.identity(rep.dim).scale(Scalar(2))
        assert (g @ g).is_zero() and (gb @ gb).is_zero()


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_metric_orthogonality_and_square(n):
    rep = rep_for(n)
    for eps in (rep.eps_std, rep.eps_alt):
        assert eps @ eps.transpose() == Matrix.identity(rep.dim)
        assert eps.conj() == eps  # real
        sq = (eps @ eps).scalar_multiple_of_identity()
        assert sq in (ONE, -ONE)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_chiral_operator_and_pseudoscalar(n, subtests=None):
    rep = rep_for(n)
    ident = Matrix.identity(rep.dim)
    assert rep.kappa @ rep.kappa == ident
    # pseudoscalar square (-1)^n with n the pair count
    sign = Scalar(1 if rep.n_bits % 2 == 0 else -1)
    assert rep.pseudoscalar @ rep.pseudoscalar == ident.scale(sign)
    if n % 2 == 0:
        # pseudoscalar = i^n kappa, and kappa is diagonal with the bit parity
        assert rep.pseudoscalar == rep.kappa.scale(i_power(rep.n_bits))
        for code in all_bitcodes(rep.n_bits):
            col = rep.basis_spinor(code)
            assert rep.kappa @ col == col.scale(Scalar(code.chirality()))
    else:
        assert rep.kappa == ident
        assert rep.pseudoscalar == ident.scale(i_power(rep.n_bits))
        # the projected final vector still measures bit parity
        for code in all_bitcodes(rep.n_bits):
            col = rep.basis_spinor(code)
            assert rep.kappa_diag @ col == col.scale(Scalar(code.chirality()))


def orthonormal_blade(rep, axes):
    m = Matrix.identity(rep.dim)
    for a in axes:
        m = m @ rep.gamma(a)
    return m


def determinant(m):
    """Exact determinant of a square Matrix by Gaussian elimination with pivoting over the scalar field."""
    work = [list(row) for row in m.rows]
    n, det = len(work), ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        p = work[col][col]
        det = det * p
        for r in range(col + 1, n):
            f = work[r][col] / p
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return det


def test_determinant_frozen_cases():
    assert determinant(Matrix.identity(4)) == ONE
    swap = Matrix([[ZERO, ONE], [ONE, ZERO]])
    assert determinant(swap) == -ONE
    assert determinant(Matrix.diagonal([SQRT2, SQRT2])) == Scalar(2)
    assert determinant(Matrix([[ONE, SQRT2], [SQRT2, Scalar(2)]])) == ZERO


@pytest.mark.parametrize("n", [2, 4, 6])
def test_basis_multivector_properties(n):
    """Spacelike basis p-vectors: traceless, unitary, (skew-)Hermitian, det 1."""
    rep = rep_for(n)
    ident = Matrix.identity(rep.dim)
    for p in range(n + 1):
        for axes in combinations(range(1, n + 1), p):
            m = orthonormal_blade(rep, axes)
            if p > 0:
                assert m.trace().is_zero()
            assert m @ m.dagger() == ident
            if (p // 2) % 2 == 0:
                assert m.dagger() == m
            else:
                assert m.dagger() == -m
            det = determinant(m)
            if n == 2 and p == 1:
                assert det == -ONE
            else:
                assert det == ONE


@pytest.mark.parametrize("n,metric,want", [
    (2, "standard", 1), (4, "standard", -1), (6, "standard", 1), (8, "standard", -1),
    (2, "alternative", -1), (4, "alternative", 1), (6, "alternative", -1),
    (3, "standard", -1), (5, "standard", 1),
])
def test_vector_transpose_sign(n, metric, want):
    """gamma^T eps = s eps gamma with one global sign; values from hand oracle."""
    rep = rep_for(n, metric=metric)
    eps = rep.eps_std if metric == "standard" else rep.eps_alt
    want_s = Scalar(want)
    for a in range(1, rep.N + 1):
        g = rep.gamma(a)
        assert g.transpose() @ eps == (eps @ g).scale(want_s)


def test_grade_transpose_law_exhaustive_n4():
    """gamma_A^T eps = s^p (-1)^[p/2] eps gamma_A over every orthonormal blade."""
    rep = rep_for(4)
    s = -1  # the global vector sign at N=4, standard metric
    for p in range(5):
        for axes in combinations(range(1, 5), p):
            m = orthonormal_blade(rep, axes)
            sign = Scalar((s ** p) * (-1) ** (p // 2))
            assert m.transpose() @ rep.eps == (rep.eps @ m).scale(sign)


# -- odd dimensions ----------------------------------------------------------


def test_project_mode_final_vector():
    rep = rep_for(5)
    # the final vector equals the chiral operator of the even subalgebra
    assert rep.gamma(5) == rep.kappa_diag
    even = rep_for(4)
    assert rep.gamma(5) == even.kappa


def test_embed_modes_active_axes():
    for mode in ("embed_scalar_n", "embed_scalar_n_plus_1"):
        rep = rep_for(3, odd_mode=mode)
        assert rep.dim == 4
        assert rep.n_bits == 2
        assert rep.scalar_axis_matrix is not None
        # the scalar axis anticommutes with all active vectors
        for a in range(1, 4):
            assert anticommutator(rep.scalar_axis_matrix, rep.gamma(a)).is_zero()


def test_embed_scalar_choice_differs():
    rep_n = rep_for(3, odd_mode="embed_scalar_n")
    rep_x = rep_for(3, odd_mode="embed_scalar_n_plus_1")
    assert rep_n.gamma(3) != rep_x.gamma(3)
    assert rep_n.scalar_axis_matrix == rep_x.gamma(3)


def test_primed_standard_metric_drops_the_final_vector():
    rep = rep_for(3, odd_mode="embed_scalar_n", metric="prime_standard")
    # equals the two-dimensional standard metric embedded as diag(e, -e)
    low = rep_for(2)
    top = [row + (ZERO, ZERO) for row in low.eps.rows]
    bottom = [(ZERO, ZERO) + tuple(-s for s in row) for row in low.eps.rows]
    assert rep.eps == Matrix(top + bottom)


def test_primed_alternative_is_the_enlarged_alternative():
    rep = rep_for(3, odd_mode="embed_scalar_n_plus_1", metric="prime_alternative")
    full = rep_for(4, metric="alternative")
    assert rep.eps == full.eps_alt


def test_prime_metric_preconditions():
    with pytest.raises(ValueError):
        rep_for(4, metric="prime_standard")
    with pytest.raises(ValueError):
        rep_for(3, metric="prime_standard")  # project mode
    with pytest.raises(ValueError):
        rep_for(3, odd_mode="embed_scalar_n_plus_1", metric="prime_standard")
    with pytest.raises(ValueError):
        rep_for(3, odd_mode="embed_scalar_n", metric="prime_alternative")


# -- signature handling --------------------------------------------------------


def test_timelike_vectors_carry_the_imaginary_factor():
    rep = rep_for(3, 1)
    assert rep.signature.timelike_axes == (4,)
    assert rep.gamma(4) == rep_for(4).gamma(4).scale(I)
    # metrics do not depend on the signature
    assert rep.eps == rep_for(4).eps


def test_explicit_timelike_axes():
    sig = Signature(spacelike=3, timelike=1, timelike_axes=(2,))
    rep = build_representation(RepConfig(sig))
    assert rep.gamma(2) == rep_for(4).gamma(2).scale(I)
    assert rep.plane_is_boost(1) and not rep.plane_is_boost(2)
    assert rep.plane_vectors(1) == (rep.gamma_plus(1), rep.gamma_minus(1).scale(I)) == (rep.gamma(1), rep.gamma(2))
    with pytest.raises(ValueError):
        Signature(spacelike=3, timelike=1, timelike_axes=(2, 3))
    with pytest.raises(ValueError):
        Signature(spacelike=3, timelike=1, timelike_axes=(9,))


@pytest.mark.parametrize("k, m, kw", [
    (4, 0, {}), (3, 1, {}), (4, 1, {}),
    (5, 0, {"odd_mode": "embed_scalar_n"}), (4, 1, {"odd_mode": "embed_scalar_n_plus_1"}),
])
def test_a_plane_out_of_range_is_refused(k, m, kw):
    rep = rep_for(k, m, **kw)
    for plane in (0, -1, rep.n_bits + 1):
        for accessor in (rep.plane_vectors, rep.plane_is_boost):
            with pytest.raises(ValueError, match=f"plane index {plane} out of range 1..{rep.n_bits}"):
                accessor(plane)


def test_plane_vectors_are_the_axes_vectors_and_the_scalar_dimension():
    """Plane k holds gamma_plus(k) and gamma_minus(k), times i where the axis they build is timelike."""
    rep = rep_for(4, 1, odd_mode="embed_scalar_n")  # axes 1..4 and 6 are built; 5 is the scalar dimension
    assert rep.plane_vectors(1) == (rep.gamma(1), rep.gamma(2))
    assert rep.plane_vectors(2) == (rep.gamma(3), rep.gamma(4))
    assert rep.plane_vectors(3) == (rep.scalar_axis_matrix, rep.gamma(5)) == (rep.gamma_plus(3), rep.gamma_minus(3).scale(I))
    assert [rep.plane_is_boost(k) for k in (1, 2, 3)] == [False, False, True]


def test_dimension_cap(monkeypatch):
    """Building is uncapped; listing an operator's entries meets the cap."""
    rep = build_representation(RepConfig(Signature(spacelike=18)))
    assert rep.dim == 512
    with pytest.raises(ValueError, match="SGA_MAX_DIM"):
        rep.eps.to_json()
    monkeypatch.setenv("SGA_MAX_DIM", "8")
    rep = rep_for(8)
    with pytest.raises(ValueError, match="SGA_MAX_DIM"):
        rep.eps.sparse_rows
    with pytest.raises(ValueError, match="SGA_MAX_DIM"):
        list(rep.gamma(1).nonzero_items())
    assert len(rep_for(6).eps.sparse_rows) == 8


def test_no_identity_is_built_past_the_cap(monkeypatch):
    """At K=34 the projector and the rotor meet the cap before any identity is built, and is_identity builds none."""
    from sga.blades import chiral_projector
    from sga.matrices import max_dimension
    from sga.symmetry import plane_rotor

    monkeypatch.delenv("SGA_MAX_DIM", raising=False)
    asked, identity = [], Matrix.identity.__func__
    monkeypatch.setattr(Matrix, "identity", classmethod(lambda cls, n: asked.append(n) or identity(cls, n)))
    rep = rep_for(34)
    for build in (lambda: chiral_projector(rep, "right"), lambda: plane_rotor(rep, 1, quarters=1)):
        with pytest.raises(ValueError, match="SGA_MAX_DIM"):
            build()
    assert (rep.Gamma @ rep.Gamma).is_identity()
    assert not rep.kappa.is_identity() and not Monomial.zero(rep.n_bits).is_identity()
    assert all(n <= max_dimension() for n in asked)


@pytest.mark.parametrize("k, m", [(1, 0), (2, 0), (3, 1), (4, 0), (2, 3), (5, 0), (7, 1), (8, 0)])
def test_is_identity_agrees_with_the_dense_comparison(k, m):
    rep = rep_for(k, m)
    ident = Matrix([[ONE if i == j else ZERO for j in range(rep.dim)] for i in range(rep.dim)])
    half = Matrix([[ONE if i == j and i % 2 else ZERO for j in range(rep.dim)] for i in range(rep.dim)])
    ops = [rep.Gamma @ rep.Gamma, rep.kappa, rep.kappa @ rep.kappa, rep.eps, rep.eps @ rep.eps, rep.C,
           Monomial.identity(rep.n_bits), Monomial.identity(rep.n_bits).scale(I), Monomial.zero(rep.n_bits),
           Matrix.zeros(rep.dim), ident, ident.scale(-ONE), half, Matrix.zeros(rep.dim, 1)]
    ops += [rep.gamma(a) @ rep.gamma(a) for a in range(1, k + m + 1)]
    for op in ops:
        dense = Matrix(op.rows)
        want = dense.nrows == dense.ncols and dense.rows == ident.rows
        assert op.is_identity() == want and dense.is_identity() == want, op


def test_n17_fits_default_cap():
    rep = rep_for(17)
    assert rep.dim == 256


# -- serialization ---------------------------------------------------------------


def test_representation_json_keys():
    rep = rep_for(3, 1)
    blob = rep.to_json()
    for key in ("epsilon", "epsilon_alt", "kappa", "pseudoscalar", "Gamma", "C"):
        assert key in blob
    for k in (1, 2):
        for key in (
            f"gamma_plus_{k}",
            f"gamma_minus_{k}",
            f"gamma_chiral_{k}",
            f"gamma_chiral_{k}bar",
        ):
            assert key in blob
    assert Matrix.from_json(blob["epsilon"]) == rep.eps


def test_odd_rep_dumps_final_vector():
    rep = rep_for(3)
    assert Matrix.from_json(rep.to_json()["gamma_N"]) == rep.gamma(3)


def test_operator_attributes_are_monomials_read_as_themselves():
    rep = rep_for(4, 1)
    for name in ("kappa_diag", "kappa", "eps_std", "eps_alt", "eps",
                 "pseudoscalar", "Gamma", "C"):
        m = getattr(rep, name)
        assert type(m) is Monomial and getattr(rep, name) is m
    assert type(rep.gamma(1)) is Monomial and isinstance(rep.C, Matrix)
    assert rep.scalar_axis_matrix is None
    assert rep.eps.transpose() == Matrix(rep.eps.sparse_rows, rep.dim, rep.dim).transpose()


def test_a_used_representation_is_freed_without_the_cycle_collector():
    # its blade cache can hold megabytes, so no
    # reference cycle may keep it alive until the collector runs
    from sga.blades import verify_isomorphism

    enabled = gc.isenabled()
    gc.disable()
    try:
        rep = rep_for(5, 1)
        for name in ("pseudoscalar", "C", "kappa"):
            getattr(rep, name)
        verify_isomorphism(rep)
        ref = weakref.ref(rep)
        del rep
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def operator_words(rep):
    """The words of every operator the representation holds or gives, by name."""
    out = {name: getattr(rep, name) for name in ("kappa_diag", "kappa", "eps_std", "eps_alt", "eps",
                                                 "Gamma", "C", "pseudoscalar")}
    for a in range(1, rep.N + 1):
        out[f"gamma {a}"] = rep.gamma(a)
    for k in range(1, rep.n_bits + 1):
        out[f"plane {k}"] = rep.plane_vectors(k)
        out[f"chiral {k}"] = rep.gamma_chiral(k), rep.gamma_chiral(k, barred=True)
    return {name: repr(m) for name, m in out.items()}


def test_the_plane_words_are_shared_per_plane_count_and_never_change():
    """Every representation with three planes reads the same core objects, and no build or use alters them."""
    from sga.blades import decompose_multivector, verify_isomorphism
    from sga.symmetry import plane_rotor

    spacelike = build_representation(spacelike=6)
    before = operator_words(spacelike)
    core = _even_core(3)
    core_before = repr(core)
    assert spacelike._orth is core[1] and spacelike.eps_std is core[2] and spacelike.eps_alt is core[3]
    assert all(type(part) is tuple for part in core[:2])
    others = [
        RepConfig(Signature(4, 2)),
        RepConfig(Signature(3, 3, (1, 4, 6)), metric="alternative"),
        RepConfig(Signature(4, 1), metric="prime_standard", odd_mode="embed_scalar_n"),
        RepConfig(Signature(3, 2), metric="prime_alternative", odd_mode="embed_scalar_n_plus_1"),
        RepConfig(Signature(5, 2)),
    ]
    for config in others:
        rep = build_representation(config)
        assert rep.n_bits == 3 and rep._chiral is core[0] and rep._orth is core[1] and rep.kappa_diag is core[4]
        operator_words(rep)
        verify_isomorphism(rep)
        decompose_multivector(rep, rep.gamma(1) @ rep.C)
        plane_rotor(rep, 1, 1)
    assert _even_core(3) is core and repr(core) == core_before
    assert operator_words(spacelike) == before
