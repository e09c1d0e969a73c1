"""Rotors, conjugation, reversal and axis reflections."""

import cmath
import math
from dataclasses import replace
from random import Random

import numpy as np
import pytest

from sga.bitcodes import Bitcode, all_bitcodes
from sga.blades import CHIRAL, BladeIndex, blade_matrix, decompose_multivector
from sga.elements import COLUMN, MULTIVECTOR, ROW, Element, outer_product, row_of, scalar_product
from sga.matrices import Matrix, commutator
from sga.representation import RepConfig, Signature, build_representation
from sga.scalars import HALF, I, INV_SQRT2, ONE, ZERO, Scalar
from sga.suites import random_multivector, random_spinor
from sga.symmetry import (
    axis_reflection_classify,
    bivector_rotor,
    conjugate,
    is_real_element,
    metric_preserved,
    plane_rotor,
    reverse_multivector,
    rotate,
)


def rep_for(k, m=0, **kw):
    return build_representation(RepConfig(Signature(spacelike=k, timelike=m), **kw))


# -- rotors ---------------------------------------------------------------


def test_quarter_turn_rotor_values():
    rep = rep_for(2)
    rot = plane_rotor(rep, 1, quarters=1)
    phase_up = (ONE - I) * INV_SQRT2  # exp(-i pi/4)
    phase_down = (ONE + I) * INV_SQRT2
    assert rot.matrix == Matrix.diagonal([phase_up, phase_down])
    # the chiral vector picks up exp(-i pi/2) = -i
    g = rep.gamma_chiral(1)
    assert rot.matrix @ g @ rot.reverse_matrix == g.scale(-I)
    assert (rot.matrix @ rot.reverse_matrix).is_identity()


def test_rotor_angle_dispatch():
    rep = rep_for(2)
    exact = plane_rotor(rep, 1, math.pi / 2)
    assert exact.mode == "exact"
    assert exact.matrix == plane_rotor(rep, 1, quarters=1).matrix
    loose = plane_rotor(rep, 1, 0.7)
    assert loose.mode == "float"
    with pytest.raises(ValueError):
        plane_rotor(rep, 1, 0.7, exact=True)


def test_zero_angle_is_identity():
    rep = rep_for(4)
    for k in (1, 2):
        assert plane_rotor(rep, k, quarters=0).matrix.is_identity()


def test_metric_invariance_quarter_turns():
    for k, m in ((2, 0), (4, 0), (5, 0), (3, 1)):
        rep = rep_for(k, m)
        for plane in range(1, rep.n_bits + 1):
            if rep.plane_is_boost(plane):
                continue
            for q in (1, 2, 3):
                assert metric_preserved(rep, plane_rotor(rep, plane, quarters=q))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("metric, odd_mode", [
    ("standard", "embed_scalar_n"), ("alternative", "embed_scalar_n"), ("prime_standard", "embed_scalar_n"),
    ("alternative", "embed_scalar_n_plus_1"), ("prime_alternative", "embed_scalar_n_plus_1"),
])
def test_the_plane_of_the_embedded_scalar_is_refused(n, metric, odd_mode):
    """The plane that holds an embed mode's scalar dimension has no rotor; every other plane keeps the metric."""
    rep = rep_for(n, metric=metric, odd_mode=odd_mode)
    scalar_plane = next(k for k in range(1, rep.n_bits + 1)
                        if rep.scalar_axis_matrix in rep.plane_vectors(k))
    for theta in (None, 0.7):
        with pytest.raises(ValueError, match=f"plane {scalar_plane} holds the scalar dimension of the {odd_mode}"):
            plane_rotor(rep, scalar_plane, theta, quarters=1 if theta is None else None)
    for k in range(1, rep.n_bits + 1):
        if k != scalar_plane:
            assert metric_preserved(rep, plane_rotor(rep, k, quarters=1))


def test_rotor_charge_phases():
    rep = rep_for(4)
    rot = plane_rotor(rep, 2, quarters=1)
    for code in all_bitcodes(2):
        col = rep.basis_spinor(code)
        phase = (ONE - I) * INV_SQRT2 if code.bit(2) else (ONE + I) * INV_SQRT2
        assert rot.matrix @ col == col.scale(phase)
    other = rep.gamma_chiral(1)
    assert rot.matrix @ other @ rot.reverse_matrix == other  # zero charge in plane 2


def test_rotate_species_laws():
    rep = rep_for(4)
    rng = Random(3)
    rot = plane_rotor(rep, 1, quarters=1)
    psi = random_spinor(rep, rng)
    chi = random_spinor(rep, rng)
    col = Element.column(rep, psi)
    assert rotate(rep, rot, col).payload == rot.matrix @ psi
    row = row_of(rep, chi)
    assert rotate(rep, rot, row).payload == row.payload @ rot.reverse_matrix
    mv = Element.multivector(rep, random_multivector(rep, rng))
    assert rotate(rep, rot, mv).payload == rot.matrix @ mv.payload @ rot.reverse_matrix
    s = Element.scalar(rep, Scalar(5))
    assert rotate(rep, rot, s) is s
    # the scalar product is invariant
    assert scalar_product(rep, rot.matrix @ psi, rot.matrix @ chi) == scalar_product(
        rep, psi, chi
    )


def test_float_rotor_metric_invariance():
    rng = Random(5)
    rep = rep_for(4)
    for _ in range(10):
        rot = plane_rotor(rep, rng.choice((1, 2)), rng.uniform(-6, 6), exact=False)
        assert isinstance(rot.matrix, np.ndarray) and isinstance(rot.reverse_matrix, np.ndarray)
        assert metric_preserved(rep, rot) and metric_preserved(rep, rot, tol=1e-12)
    bent = replace(rot, matrix=rot.matrix * (1 + 1e-9))
    assert not metric_preserved(rep, bent) and metric_preserved(rep, bent, tol=1e-6)


def test_rotate_by_a_float_rotor_gives_arrays():
    rep = rep_for(4)
    rng = Random(7)
    rot = plane_rotor(rep, 2, 0.7, exact=False)
    psi, chi = random_spinor(rep, rng), random_spinor(rep, rng)
    mv = random_multivector(rep, rng)
    row = row_of(rep, chi)
    cases = (
        (psi, rot.matrix @ psi.to_numpy()),
        (Element.column(rep, psi), rot.matrix @ psi.to_numpy()),
        (row, row.payload.to_numpy() @ rot.reverse_matrix),
        (row.payload, row.payload.to_numpy() @ rot.reverse_matrix),
        (mv, rot.matrix @ mv.to_numpy() @ rot.reverse_matrix),
        (Element.multivector(rep, mv), rot.matrix @ mv.to_numpy() @ rot.reverse_matrix),
    )
    for x, want in cases:
        got = rotate(rep, rot, x)
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    s = Element.scalar(rep, Scalar(5))
    assert rotate(rep, rot, s) is s


def test_boost_scaling_laws():
    rep = rep_for(3, 1)
    assert rep.plane_is_boost(2)
    theta = 0.83
    rot = plane_rotor(rep, 2, theta, exact=False)
    g = rep.gamma_chiral(2).to_numpy()
    got = rot.matrix @ g @ rot.reverse_matrix
    assert abs(got - g * math.exp(theta)).max() <= 1e-12
    with pytest.raises(ValueError):
        plane_rotor(rep, 2, quarters=1)  # boosts have no exact quarter turn


def test_extra_odd_rotations_count():
    """Projected three-dimensional algebra has three plane rotors, not one."""
    rep = rep_for(3)
    generators = []
    for a in range(1, 4):
        for b in range(a + 1, 4):
            generators.append(rep.gamma(a) @ rep.gamma(b))
    assert len(generators) == 3  # N(N-1)/2
    for gen in generators:
        rot = bivector_rotor(rep, gen, math.pi / 2, exact=True)
        assert metric_preserved(rep, rot)
        assert (rot.matrix @ rot.reverse_matrix).is_identity()


def test_bivector_rotor_float_matches_exact():
    rep = rep_for(4)
    gen = rep.gamma(1) @ rep.gamma(2)
    pairs = [(bivector_rotor(rep, gen, math.pi / 2, exact=True), bivector_rotor(rep, gen, math.pi / 2, exact=False))]
    for k in (1, 2):
        pairs.append((plane_rotor(rep, k, quarters=1), plane_rotor(rep, k, math.pi / 2, exact=False)))
    for exact, loose in pairs:
        assert exact.mode == "exact" and loose.mode == "float"
        for got, want in ((loose.matrix, exact.matrix), (loose.reverse_matrix, exact.reverse_matrix)):
            assert isinstance(got, np.ndarray)
            assert abs(got - want.to_numpy()).max() <= 1e-12
    with pytest.raises(ValueError):
        bivector_rotor(rep, gen, 0.3, exact=True)


def test_reverse_multivector_grades():
    rep = rep_for(4)
    for blade in (
        BladeIndex(CHIRAL, ()),
        BladeIndex(CHIRAL, ((1, False),)),
        BladeIndex(CHIRAL, ((1, False), (2, True))),
        BladeIndex(CHIRAL, ((1, False), (1, True), (2, False))),
        BladeIndex(CHIRAL, ((1, False), (1, True), (2, False), (2, True))),
    ):
        m = blade_matrix(rep, blade)
        want = m.scale(Scalar(blade.reversal_sign()))
        assert reverse_multivector(rep, m) == want
    rot = plane_rotor(rep, 1, quarters=1)
    assert reverse_multivector(rep, rot.matrix) == rot.reverse_matrix


# -- conjugation -------------------------------------------------------------


def test_conjugation_operator_euclidean_is_the_metric():
    rep = rep_for(3)
    assert rep.C == rep.eps
    assert rep.Gamma.is_identity()


def test_dirac_time_product():
    rep = rep_for(3, 1)
    # Gamma = -i gamma_0 with gamma_0 the timelike vector
    assert rep.Gamma == rep.gamma(4).scale(-I)
    assert (rep.Gamma @ rep.Gamma).is_identity()
    assert rep.Gamma.trace().is_zero()
    assert rep.C == rep.eps @ rep.Gamma.transpose()
    assert rep.C.transpose() == rep.C  # symmetric at K - M = 2
    assert rep.C @ rep.C.dagger() == Matrix.identity(4)  # unitary


def test_gamma_phase_sign_flag():
    default = rep_for(3, 1)
    flipped = build_representation(
        RepConfig(Signature(spacelike=3, timelike=1), gamma_phase_sign=-1)
    )
    assert flipped.Gamma == -default.Gamma
    assert (flipped.Gamma @ flipped.Gamma).is_identity()


def test_double_conjugation_signs():
    rng = Random(7)
    for k, m, want in ((3, 1, 1), (3, 0, -1), (2, 0, 1)):
        rep = rep_for(k, m)
        psi = random_spinor(rep, rng)
        assert conjugate(rep, conjugate(rep, psi)) == psi.scale(Scalar(want))


def test_conjugation_is_multiplicative():
    rng = Random(9)
    rep = rep_for(3, 1)
    for _ in range(5):
        a = random_multivector(rep, rng)
        b = random_multivector(rep, rng)
        psi = random_spinor(rep, rng)
        assert conjugate(rep, a @ b) == conjugate(rep, a) @ conjugate(rep, b)
        assert conjugate(rep, a @ psi) == conjugate(rep, a) @ conjugate(rep, psi)


def test_conjugate_commutes_rotations():
    rng = Random(11)
    rep = rep_for(3, 1)
    rot = plane_rotor(rep, 1, quarters=1)
    psi = random_spinor(rep, rng)
    assert conjugate(rep, rot.matrix @ psi) == rot.matrix @ conjugate(rep, psi)
    # and for a float rotor in the boost plane
    c = rep.C.to_numpy()
    rotf = plane_rotor(rep, 2, 0.6, exact=False)
    assert abs(c @ rotf.matrix.conj() - rotf.matrix @ c).max() <= 1e-12
    # including a two-plane float rotor
    gen = rep.gamma(1) @ rep.gamma(3)
    rot2 = bivector_rotor(rep, gen, 0.9)
    assert abs(c @ rot2.matrix.conj() - rot2.matrix @ c).max() <= 1e-12


def test_conjugate_row_and_scalar():
    rng = Random(13)
    rep = rep_for(3, 1)
    psi = random_spinor(rep, rng)
    row = row_of(rep, Element.column(rep, psi))
    conj_row = conjugate(rep, row)
    want = conjugate(rep, psi).transpose() @ rep.eps
    assert conj_row.payload == want
    s = Scalar(1, 2, 3, 4, 5)
    assert conjugate(rep, s) == s.conjugate()


def test_vector_conjugates_follow_the_transpose_sign():
    # conj(gamma_a) = s * (-1)^M gamma_a with s the transpose-law sign
    cases = ((3, 1, -1), (4, 0, -1), (2, 0, 1))
    for k, m, s in cases:
        rep = rep_for(k, m)
        want = Scalar(s * (-1) ** m)
        for a in range(1, rep.N + 1):
            g = rep.gamma(a)
            assert conjugate(rep, g) == g.scale(want)


def test_self_pairing_real_and_indefinite():
    rng = Random(17)
    rep = rep_for(3, 1)
    signs = set()
    for _ in range(60):
        psi = random_spinor(rep, rng)
        val = (row_of(rep, conjugate(rep, psi)).payload @ psi)[0, 0]
        assert val.is_real()
        if not val.is_zero():
            signs.add(val.real_sign())
    assert signs == {1, -1}  # indefinite once a time direction exists


def test_positive_pairing_through_the_time_product():
    rng = Random(19)
    rep = rep_for(3, 1)
    for _ in range(20):
        psi = random_spinor(rep, rng)
        val = (row_of(rep, conjugate(rep, psi)).payload @ (rep.Gamma @ psi))[0, 0]
        assert val == (psi.dagger() @ psi)[0, 0]
        assert val.real_sign() > 0


def test_outer_conjugate_sign():
    rng = Random(23)
    for k, m in ((3, 0), (3, 1), (2, 0)):
        rep = rep_for(k, m)
        sign = Scalar(rep.metric_square_sign)
        for _ in range(5):
            psi = random_spinor(rep, rng)
            chi = random_spinor(rep, rng)
            lhs = conjugate(rep, outer_product(rep, psi, conjugate(rep, chi)).payload)
            rhs = outer_product(rep, conjugate(rep, psi), chi).payload.scale(sign)
            assert lhs == rhs


def test_reality_condition():
    rng = Random(29)
    rep = rep_for(3, 1)
    # real combinations of orthonormal blades are their own conjugates
    m = rep.gamma(1) @ rep.gamma(4) + rep.gamma(2).scale(Scalar(3))
    assert is_real_element(rep, m)
    assert not is_real_element(rep, m.scale(I))
    # where the vector conjugation sign is negative, i times a vector is real
    rep4 = rep_for(4)
    assert is_real_element(rep4, rep4.gamma(1).scale(I))
    assert not is_real_element(rep4, rep4.gamma(1))
    generic = random_multivector(rep, rng)
    assert not is_real_element(rep, generic)


# -- reflections ---------------------------------------------------------------


def test_reflection_classification_dirac():
    rep = rep_for(3, 1)
    # flipping around a spacelike axis reverses the time axis and two spaces
    assert axis_reflection_classify(rep, [1]) == "T"
    # around the timelike axis: all three spacelike axes flip
    assert axis_reflection_classify(rep, [4]) == "P"
    assert axis_reflection_classify(rep, [1, 4]) == "PT"
    assert axis_reflection_classify(rep, [1, 2]) == "neither"


def test_reflection_classification_odd():
    rep = rep_for(3)
    # in odd total dimension a single vector flips an even number of axes
    assert axis_reflection_classify(rep, [3]) == "neither"
    emb = rep_for(3, odd_mode="embed_scalar_n")
    assert axis_reflection_classify(emb, "scalar") == "P"
    emb2 = rep_for(3, odd_mode="embed_scalar_n_plus_1")
    assert axis_reflection_classify(emb2, "scalar") == "P"
    with pytest.raises(ValueError):
        axis_reflection_classify(rep, "scalar")


def test_reflection_classification_time_heavy():
    rep = rep_for(2, 2)
    # timelike generator: flips 2 spacelike and 1 timelike axes
    t_axis = rep.signature.timelike_axes[0]
    assert axis_reflection_classify(rep, [t_axis]) == "T"
    s_axis = 1
    assert axis_reflection_classify(rep, [s_axis]) == "P"


def test_reflection_validation():
    rep = rep_for(3, 1)
    with pytest.raises(ValueError):
        axis_reflection_classify(rep, [])
    with pytest.raises(ValueError):
        axis_reflection_classify(rep, [1, 1])


def test_a_dim_one_element_conjugates_by_its_species():
    # C = -1: a column picks up the sign, a multivector C m* C^-1 does not, and a row picks up eps^T C^T eps = -1
    rep = rep_for(1, odd_mode="project", gamma_phase_sign=-1)
    assert rep.dim == 1 and rep.C == Matrix([[Scalar(-1)]])
    m = Matrix([[Scalar(1, 0, 2)]])  # 1 + 2i
    for species, want in ((COLUMN, -1), (ROW, -1), (MULTIVECTOR, 1)):
        got = conjugate(rep, Element(species, m, rep))
        assert got == Element(species, Matrix([[Scalar(want, 0, -2 * want)]]), rep), species
