"""Rotors, conjugation, reversal and axis reflections."""

import math
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from scipy.linalg import expm

from sga.bitcodes import all_bitcodes
from sga.blades import CHIRAL, BladeIndex, blade_matrix
from sga.elements import COLUMN, MULTIVECTOR, ROW, Element, outer_product, row_of, scalar_product
from sga.matrices import Matrix
from sga.representation import RepConfig, Signature, build_representation
from sga.scalars import I, INV_SQRT2, ONE, Scalar
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
    v1, v2 = rep.plane_vectors(1)
    assert rot.matrix == Matrix.diagonal([phase_up, phase_down]) == bivector_rotor(rep, v1 @ v2, quarters=1).matrix
    # the chiral vector picks up exp(-i pi/2) = -i
    g = rep.gamma_chiral(1)
    assert rot.matrix @ g @ rot.reverse_matrix == g.scale(-I)
    assert (rot.matrix @ rot.reverse_matrix).is_identity()


def plane_sum(rep, *pairs):
    """The bivector sum of gamma(a) @ gamma(b) over the axis pairs (a, b)."""
    out = rep.gamma(pairs[0][0]) @ rep.gamma(pairs[0][1])
    for a, b in pairs[1:]:
        out = out + rep.gamma(a) @ rep.gamma(b)
    return out


BOTH_ERROR = "a rotor needs exactly one of theta, a float angle, and quarters, an int"
BOOST_ERROR = "boost rotors are exact only at zero rapidity"
GENERATOR_ERROR = "an exact rotor needs a generator squaring to -1"


@pytest.mark.parametrize("build, mode, text", [
    (lambda: plane_rotor(rep_for(2), 1, quarters=3), "exact", "plane 1, 3 quarter turns"),
    (lambda: plane_rotor(rep_for(2), 1, quarters=-2), "exact", "plane 1, -2 quarter turns"),
    (lambda: plane_rotor(rep_for(2), 1, math.pi), "float", "plane 1, angle 3.141592653589793"),
    (lambda: plane_rotor(rep_for(2), 1, 0.7), "float", "plane 1, angle 0.7"),
    (lambda: plane_rotor(rep_for(2), 1, 1e-10), "float", "plane 1, angle 1e-10"),
    (lambda: plane_rotor(rep_for(2), 1, 0), "float", "plane 1, angle 0"),
    (lambda: plane_rotor(rep_for(3, 1), 2, quarters=0), "exact", "plane 2, 0 quarter turns"),
    (lambda: plane_rotor(rep_for(3, 1), 2, 0.0), "float", "plane 2, angle 0.0"),
    (lambda: plane_rotor(rep_for(3, 1), 2, quarters=1), None, BOOST_ERROR),
    (lambda: plane_rotor(rep_for(3, 1), 2, math.pi / 2), "float", "plane 2, angle 1.5707963267948966"),
    (lambda: bivector_rotor(rep_for(4), plane_sum(rep_for(4), (1, 2)), quarters=1),
     "exact", "bivector, 1 quarter turns"),
    (lambda: bivector_rotor(rep_for(4), plane_sum(rep_for(4), (1, 2)), math.pi / 2), "float",
     "bivector, angle 1.5707963267948966"),
    (lambda: bivector_rotor(rep_for(4), plane_sum(rep_for(4), (1, 2), (2, 3)), quarters=1), None, GENERATOR_ERROR),
    (lambda: bivector_rotor(rep_for(4), plane_sum(rep_for(4), (1, 2), (2, 3)), quarters=0), None, GENERATOR_ERROR),
    (lambda: bivector_rotor(rep_for(3, 1), plane_sum(rep_for(3, 1), (1, 4)), quarters=0),
     "exact", "bivector, 0 quarter turns"),
    (lambda: bivector_rotor(rep_for(3, 1), plane_sum(rep_for(3, 1), (1, 4)), quarters=2), None, BOOST_ERROR),
    (lambda: plane_rotor(rep_for(2), 1), None, BOTH_ERROR),
    (lambda: plane_rotor(rep_for(2), 1, 0.7, quarters=1), None, BOTH_ERROR),
    (lambda: plane_rotor(rep_for(2), 1, 0.0, quarters=0), None, BOTH_ERROR),
    (lambda: plane_rotor(rep_for(3, 1), 2, 0.3, quarters=0), None, BOTH_ERROR),
    (lambda: bivector_rotor(rep_for(4), plane_sum(rep_for(4), (1, 2))), None, BOTH_ERROR),
    (lambda: bivector_rotor(rep_for(4), plane_sum(rep_for(4), (1, 2)), math.pi / 2, quarters=1), None, BOTH_ERROR),
])
def test_rotor_angle_dispatch(build, mode, text):
    """Quarter turns give the exact rotor and an angle the float one; anything but exactly one of them is refused."""
    if mode is None:
        with pytest.raises(ValueError) as refused:
            build()
        assert str(refused.value) == text
    else:
        rotor = build()
        assert (rotor.mode, rotor.description) == (mode, text)


@pytest.mark.parametrize("quarters", [1.5, 1.0, True, False, "1"])
@pytest.mark.parametrize("build", [
    lambda quarters: plane_rotor(rep_for(2), 1, quarters=quarters),
    lambda quarters: bivector_rotor(rep_for(4), plane_sum(rep_for(4), (1, 2)), quarters=quarters),
])
def test_quarters_must_be_an_int(build, quarters):
    """A float, a bool or any other non-int count of quarter turns is refused by name, not read as a number."""
    with pytest.raises(ValueError) as refused:
        build(quarters)
    assert str(refused.value) == f"quarters must be an int, not {quarters!r}"


@pytest.mark.parametrize("signature", [(2, 0), (4, 0), (5, 0), (3, 1), (4, 1)])
def test_an_exact_bivector_rotor_is_the_plane_rotor(signature):
    """bivector_rotor on a plane's generator at whole quarter turns is that plane's exact rotor."""
    rep = rep_for(*signature)
    for k in range(1, rep.n_bits + 1):
        v1, v2 = rep.plane_vectors(k)
        for q in (0,) if rep.plane_is_boost(k) else (-1, 0, 1, 2, 3, 5):
            plane, bivector = plane_rotor(rep, k, quarters=q), bivector_rotor(rep, v1 @ v2, quarters=q)
            assert bivector.mode == "exact"
            assert (bivector.matrix, bivector.reverse_matrix) == (plane.matrix, plane.reverse_matrix)


def test_an_exact_boost_is_the_identity_at_zero_rapidity_only():
    """A boost at a nonzero whole number of turns is no exact rotor: quarter turns are refused, an angle gives floats."""
    rep = rep_for(3, 1)
    assert rep.plane_is_boost(2)
    assert plane_rotor(rep, 2, quarters=0).matrix.is_identity()
    for q in (4, 8, -4):
        with pytest.raises(ValueError, match=BOOST_ERROR):
            plane_rotor(rep, 2, quarters=q)
    v1, v2 = rep.plane_vectors(2)
    b = (v1 @ v2).to_numpy()
    for theta in (2 * math.pi, 4 * math.pi):
        rot = plane_rotor(rep, 2, theta)
        assert rot.mode == "float"
        want = math.cosh(theta / 2) * np.eye(rep.dim) - math.sinh(theta / 2) * b
        assert relative_error(rot.matrix, want) <= 1e-12
        assert relative_error(rot.matrix, expm(-theta / 2 * b)) <= 1e-12


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
        rot = plane_rotor(rep, rng.choice((1, 2)), rng.uniform(-6, 6))
        assert isinstance(rot.matrix, np.ndarray) and isinstance(rot.reverse_matrix, np.ndarray)
        assert metric_preserved(rep, rot)
    bent = replace(rot, matrix=rot.matrix * (1 + 1e-9))
    assert not metric_preserved(rep, bent)
    assert metric_preserved(rep, replace(rot, matrix=rot.matrix * (1 + 1e-15)))  # within 1e-12: no entry exceeds 1


@pytest.mark.parametrize("rapidity", [1.0, 10.0, 20.0, 40.0, -40.0])
def test_a_boost_preserves_the_metric_at_any_rapidity(rapidity):
    """A boost's entries reach e**(t/2) and its rounding error their square; a change of 1e-6 of its size still fails."""
    rep = rep_for(3, 1)
    assert rep.plane_is_boost(2)
    rot = plane_rotor(rep, 2, rapidity)
    size = abs(rot.matrix).max()
    assert size > 1.5
    assert metric_preserved(rep, rot)
    assert not metric_preserved(rep, replace(rot, matrix=rot.matrix + 1e-6 * size))


def test_rotate_by_a_float_rotor_gives_arrays():
    rep = rep_for(4)
    rng = Random(7)
    rot = plane_rotor(rep, 2, 0.7)
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
    rot = plane_rotor(rep, 2, theta)
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
        rot = bivector_rotor(rep, gen, quarters=1)
        assert metric_preserved(rep, rot)
        assert (rot.matrix @ rot.reverse_matrix).is_identity()


def test_bivector_rotor_float_matches_exact():
    rep = rep_for(4)
    gen = rep.gamma(1) @ rep.gamma(2)
    pairs = [(bivector_rotor(rep, gen, quarters=1), bivector_rotor(rep, gen, math.pi / 2))]
    for k in (1, 2):
        pairs.append((plane_rotor(rep, k, quarters=1), plane_rotor(rep, k, math.pi / 2)))
    for exact, loose in pairs:
        assert exact.mode == "exact" and loose.mode == "float"
        for got, want in ((loose.matrix, exact.matrix), (loose.reverse_matrix, exact.reverse_matrix)):
            assert isinstance(got, np.ndarray)
            assert abs(got - want.to_numpy()).max() <= 1e-12


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("theta", [0.3, 2.9, -7.1, 40])
@pytest.mark.parametrize("signature, pairs", [
    ((4, 0), ((1, 2), (2, 3))),
    ((5, 1), ((1, 2), (2, 6), (4, 5))),  # axis 6 is timelike: a rotation, a boost and a rotation, not commuting
])
def test_a_float_bivector_rotor_is_the_exponential(signature, pairs, theta):
    """A sum of planes is exponentiated in floats, within 1e-12 of scipy's expm."""
    rep = rep_for(*signature)
    generator = plane_sum(rep, *pairs)
    assert not generator.square_sign()
    rot = bivector_rotor(rep, generator, theta)
    assert rot.mode == "float" and rot.description == f"bivector, angle {theta}"
    g = generator.to_numpy()
    assert relative_error(rot.matrix, expm(-theta / 2 * g)) <= 1e-12
    assert relative_error(rot.reverse_matrix, expm(theta / 2 * g)) <= 1e-12


@pytest.mark.parametrize("signature", [(4, 0), (3, 1)])
def test_a_commuting_sum_rotates_as_the_product_of_its_planes(signature):
    """exp of the sum of two planes' generators is the product of the two plane rotors, a boost among them."""
    rep = rep_for(*signature)
    v1, v2, v3, v4 = (*rep.plane_vectors(1), *rep.plane_vectors(2))
    for theta in (0.3, 2.9, -7.1, 40):
        rot = bivector_rotor(rep, v1 @ v2 + v3 @ v4, theta)
        first, second = (plane_rotor(rep, k, theta) for k in (1, 2))
        assert rot.mode == "float"
        assert relative_error(rot.matrix, first.matrix @ second.matrix) <= 1e-12
        assert relative_error(rot.reverse_matrix, first.reverse_matrix @ second.reverse_matrix) <= 1e-12


def test_a_null_rotation_is_one_minus_half_theta_times_b():
    """B = (gamma_1 + gamma_4) gamma_2 squares to zero in (3,1), so exp(-theta/2 B) = 1 - theta/2 B."""
    rep = rep_for(3, 1)
    b = (rep.gamma(1) + rep.gamma(4)) @ rep.gamma(2)
    assert (b @ b).is_zero()
    one, bn = np.eye(rep.dim), b.to_numpy()
    for theta in (0.3, 2.9, -7.1, 40):
        rot = bivector_rotor(rep, b, theta)
        assert rot.mode == "float"
        assert relative_error(rot.matrix, one - theta / 2 * bn) <= 1e-12
        assert relative_error(rot.reverse_matrix, one + theta / 2 * bn) <= 1e-12
        assert metric_preserved(rep, rot)


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
    rotf = plane_rotor(rep, 2, 0.6)
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


@pytest.mark.parametrize("spacelike, timelike", [(1, 0), (0, 1)])
def test_a_dim_one_element_conjugates_by_its_species(spacelike, timelike):
    # every dim-1 representation has C = eps = 1, so each species comes back as itself, complex-conjugated
    rep = rep_for(spacelike, timelike)
    assert rep.dim == 1 and rep.C == Matrix.identity(1)
    m = Matrix([[Scalar(1, 0, 2)]])  # 1 + 2i
    for species in (COLUMN, ROW, MULTIVECTOR):
        got = conjugate(rep, Element(species, m, rep))
        assert got == Element(species, Matrix([[Scalar(1, 0, -2)]]), rep), species
