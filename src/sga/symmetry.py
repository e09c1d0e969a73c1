"""Rotors, conjugation and axis reflections.

A plane rotor is exp(-theta/2 * B) for the bivector B of one constructed
plane.  When both plane axes are spacelike B squares to -1 and the rotor
is cos(theta/2) - sin(theta/2) B, which is exact in the scalar ring for
theta a multiple of pi/2.  When exactly one axis is timelike B squares to
+1 and the rotor is hyperbolic.  The sign of the exponent is fixed so
that the chiral vector of the plane picks up exp(-i*theta) and an up bit
of the plane picks up exp(-i*theta/2).  A rotor at any other angle, a
boost at nonzero rapidity and a general bivector rotor are float rotors:
their matrices are numpy complex arrays, built from the generator's
``to_numpy``, and rotating by one gives a numpy array.  Float checks
multiply those arrays by the signed-monomial operators themselves
(``Monomial @ array`` moves rows by index), not by their ``to_numpy()``.

The conjugation operator ``rep.C`` is the metric times the transposed,
phase normalised product ``rep.Gamma`` of the timelike vectors;
conjugating a column spinor is C psi*, a multivector C m* C^-1 (C is
unitary, so C^-1 = C^dagger), and a row psi^T eps is sent to the row of
C psi*, which is conj(row) @ eps^T C^T eps.  C and eps are signed
monomials, so each conjugation is one ``matrices.sandwich`` pass over the
element's nonzeros, which builds no intermediate Matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blades import decompose_multivector, reconstruct_from_blades
from .elements import COLUMN, MULTIVECTOR, Element, ROW, SCALAR
from .matrices import Matrix, Monomial, sandwich
from .scalars import Scalar, cos_quarter_turns, sin_quarter_turns

QUARTER = math.pi / 2


@dataclass(frozen=True)
class Rotor:
    matrix: object  # an exact Matrix, or the numpy array of a float rotor
    reverse_matrix: object
    mode: str  # "exact" | "float"
    description: str = ""


def _rotor_from_generator(n_bits, generator, c, s):
    cos_part = Monomial.identity(n_bits).scale(c)
    sin_part = generator.scale(s)
    return cos_part - sin_part, cos_part + sin_part


def plane_rotor(rep, k, theta=None, *, quarters=None, exact=None):
    """Rotor (or boost) in constructed plane k.

    `quarters` counts exact quarter turns (theta = quarters * pi/2);
    `theta` is a float angle.  Exact mode refuses angles that are not
    multiples of pi/2 and refuses boosts at nonzero rapidity; a float
    rotor holds numpy arrays.  The plane that holds the scalar dimension
    of an embed odd mode is not a rotation plane of the algebra, and
    raises ValueError.
    """
    a1, a2 = rep.plane_built_axes(k)
    v1 = rep.built_axis_matrix(a1)
    v2 = rep.built_axis_matrix(a2)
    if rep.scalar_axis_matrix in (v1, v2):
        raise ValueError(f"plane {k} holds the scalar dimension of the {rep.odd_mode} odd mode, "
                         "so it is not a rotation plane of the algebra")
    generator = v1 @ v2  # distinct orthogonal vectors: the wedge is the product
    boost = rep.plane_is_boost(k)

    if quarters is not None:
        exact = True
    elif exact is None:
        ratio = theta / QUARTER
        exact = abs(ratio - round(ratio)) < 1e-9
        if exact:
            quarters = round(ratio)
    elif exact:
        ratio = theta / QUARTER
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("exact mode needs an angle that is a multiple of pi/2")
        quarters = round(ratio)

    if exact:
        if boost and quarters % 4 != 0:
            raise ValueError("boost rotors are exact only at zero rapidity")
        c = cos_quarter_turns(quarters)
        s = sin_quarter_turns(quarters)
        m, r = _rotor_from_generator(rep.n_bits, generator, c, s)
        return Rotor(m, r, "exact", f"plane {k}, {quarters} quarter turns")

    import numpy as np

    half = theta / 2.0
    if boost:
        c, s = math.cosh(half), math.sinh(half)
    else:
        c, s = math.cos(half), math.sin(half)
    cos_part, sin_part = c * np.eye(rep.dim), s * generator.to_numpy()
    return Rotor(cos_part - sin_part, cos_part + sin_part, "float", f"plane {k}, angle {theta}")


def bivector_rotor(rep, generator, theta, exact=False):
    """Rotor exp(-theta/2 * B) for a general bivector generator matrix.

    Exact mode requires B*B = -1 and a quarter-turn angle; otherwise the
    exponential of the generator's numpy array is evaluated in floats by
    scaling and squaring, and the rotor holds the arrays.
    """
    if exact:
        sq = (generator @ generator).scalar_multiple_of_identity()
        if sq is None or sq != Scalar(-1):
            raise ValueError("exact mode needs a generator squaring to -1")
        ratio = theta / QUARTER
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("exact mode needs an angle that is a multiple of pi/2")
        q = round(ratio)
        m, r = _rotor_from_generator(
            rep.n_bits, generator, cos_quarter_turns(q), sin_quarter_turns(q)
        )
        return Rotor(m, r, "exact", f"bivector, {q} quarter turns")

    from scipy.linalg import expm

    g = generator.to_numpy()
    return Rotor(expm(-0.5 * theta * g), expm(0.5 * theta * g), "float", f"bivector, angle {theta}")


def rotate(rep, rotor, x):
    """Apply a rotor: multivector -> R m R~, column -> R psi, row -> psi. R~.

    A Matrix is read as a column, a row or a multivector by its shape, in
    that order.  An exact rotor gives a Matrix, or an Element of the same
    species; a float rotor gives the numpy array of the rotated Matrix or
    payload.  A scalar Element is returned as it is.
    """
    if isinstance(x, Element):
        if x.species == SCALAR:
            return x
        species, m = x.species, x.payload
    elif isinstance(x, Matrix):
        species, m = _species_by_shape(x), x
    else:
        raise TypeError("rotate expects a Matrix or an Element")
    if rotor.mode == "float":
        m = m.to_numpy()
    if species == COLUMN:
        out = rotor.matrix @ m
    elif species == ROW:
        out = m @ rotor.reverse_matrix
    else:
        out = rotor.matrix @ m @ rotor.reverse_matrix
    return Element(species, out, rep) if isinstance(x, Element) and rotor.mode == "exact" else out


def _species_by_shape(m):
    """COLUMN, ROW or MULTIVECTOR for a Matrix of one column, one row or neither, in that order."""
    return COLUMN if m.ncols == 1 else ROW if m.nrows == 1 else MULTIVECTOR


def reverse_multivector(rep, m):
    """Blade-wise reversal: grade p picks up (-1)^[p/2]."""
    coeffs = decompose_multivector(rep, m)
    flipped = {
        blade: (c if blade.reversal_sign() == 1 else -c)
        for blade, c in coeffs.items()
    }
    return reconstruct_from_blades(rep, flipped)


def metric_preserved(rep, rotor, tol=None):
    """Check the invariance R^T eps R = eps: exactly for an exact rotor, within tol (1e-12 if None) for a float one.

    For a float rotor the arrays are multiplied by eps itself, a signed
    monomial that moves their columns by index; eps's ``to_numpy()`` is
    only the array the product is compared with.
    """
    if rotor.mode == "exact":
        return rotor.matrix.transpose() @ rep.eps @ rotor.matrix == rep.eps
    return abs(rotor.matrix.T @ rep.eps @ rotor.matrix - rep.eps.to_numpy()).max() <= (tol or 1e-12)


# -- conjugation ---------------------------------------------------------------


def conjugate(rep, x):
    """Conjugate of an element: column -> C psi*, row -> its dressed conjugate, multivector -> C m* C^-1.

    A row psi^T eps conjugates to (C psi*)^T eps, which is conj(row) @
    eps^T C^T eps.  Each species takes one ``sandwich`` pass with the
    words of C, so no intermediate Matrix is built.  A Matrix is read
    as a column, a row or a multivector by its shape; at dim 1, where the
    shapes agree, pass an Element to name its species.
    """
    if isinstance(x, Scalar):
        return x.conjugate()
    if isinstance(x, Element):
        if x.species == SCALAR:
            return Element.scalar(rep, x.payload.conjugate())
        species, m = x.species, x.payload
    elif isinstance(x, Matrix):
        species, m = _species_by_shape(x), x
    else:
        raise TypeError("conjugate expects a Scalar, Matrix or Element")
    c = rep.C
    if species == COLUMN:
        out = sandwich(c, m, conj=True)
    elif species == ROW:
        eps = rep.eps
        out = sandwich(None, m, eps.transpose() @ c.transpose() @ eps, conj=True)
    else:
        out = sandwich(c, m, c.dagger(), conj=True)
    return Element(species, out, rep) if isinstance(x, Element) else out


def is_real_element(rep, m):
    """True when a multivector is its own conjugate."""
    if isinstance(m, Element):
        m = m.payload
    return conjugate(rep, Element.multivector(rep, m)).payload == m


# -- axis reflections ------------------------------------------------------------


def axis_reflection_classify(rep, generators):
    """Classify x -> X x X^-1 for X a product of orthonormal vectors.

    `generators` is a list of distinct axis indices, or the string
    "scalar" for the tagged scalar dimension of an embedded odd algebra.
    Returns "P", "T", "PT" or "neither" according to the parity of the
    flipped spacelike and timelike axis counts, verified against the
    exact matrix action on every basis vector.
    """
    if generators == "scalar":
        if rep.scalar_axis_matrix is None:
            raise ValueError("no scalar dimension outside the embed odd modes")
        x = rep.scalar_axis_matrix
        member_axes = set()
    else:
        axes = list(generators)
        if len(set(axes)) != len(axes) or not axes:
            raise ValueError("generators must be a nonempty set of distinct axes")
        x = Monomial.identity(rep.n_bits)
        for a in axes:
            x = x @ rep.gamma(a)
        member_axes = set(axes)

    sq = (x @ x).sign_against(Monomial.identity(rep.n_bits))
    if not sq:
        raise ValueError("reflection operator does not square to +-1")
    x_inv = x if sq == 1 else -x

    flipped_space = 0
    flipped_time = 0
    p = len(member_axes) if generators != "scalar" else 1
    for a in range(1, rep.N + 1):
        g = rep.gamma(a)
        sign = (x @ g @ x_inv).sign_against(g)
        if not sign:
            raise AssertionError("reflection did not map a basis vector to +-itself")
        flipped = sign == -1
        expected = (p - (1 if a in member_axes else 0)) % 2 == 1
        if flipped != expected:
            raise AssertionError("reflection parity disagrees with the matrix action")
        if flipped:
            if rep.signature.is_timelike(a):
                flipped_time += 1
            else:
                flipped_space += 1

    p_bearing = flipped_space % 2 == 1
    t_bearing = flipped_time % 2 == 1
    if p_bearing and t_bearing:
        return "PT"
    if p_bearing:
        return "P"
    if t_bearing:
        return "T"
    return "neither"
