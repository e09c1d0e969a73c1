"""Rotors, conjugation and axis reflections.

A plane rotor is exp(-theta/2 * B) for the bivector B of one constructed
plane.  When both plane axes are spacelike B squares to -1 and the rotor
is cos(theta/2) - sin(theta/2) B, which is exact in the scalar ring for
theta a multiple of pi/2.  When exactly one axis is timelike B squares to
+1 and the rotor is hyperbolic, handled in float mode.  The sign of the
exponent is fixed so that the chiral vector of the plane picks up
exp(-i*theta) and an up bit of the plane picks up exp(-i*theta/2).

The conjugation operator is the metric times the transposed, phase
normalised product of the timelike vectors; conjugating a spinor is
C psi*, a multivector C m* C^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .blades import blade_matrix, decompose_multivector, reconstruct_from_blades
from .elements import COLUMN, Element, MULTIVECTOR, ROW, SCALAR
from .matrices import Matrix
from .scalars import Scalar, cos_quarter_turns, sin_quarter_turns

QUARTER = math.pi / 2


@dataclass(frozen=True)
class Rotor:
    matrix: Matrix
    reverse_matrix: Matrix
    mode: str  # "exact" | "float"
    description: str = ""

    def reversed(self):
        return Rotor(self.reverse_matrix, self.matrix, self.mode, self.description)


def _rotor_from_generator(dim, generator, c, s):
    ident = Matrix.identity(dim)
    cos_part = ident.scale(c)
    sin_part = generator.scale(s)
    return cos_part - sin_part, cos_part + sin_part


def plane_rotor(rep, k, theta=None, *, quarters=None, exact=None):
    """Rotor (or boost) in constructed plane k.

    `quarters` counts exact quarter turns (theta = quarters * pi/2);
    `theta` is a float angle.  Exact mode refuses angles that are not
    multiples of pi/2 and refuses boosts at nonzero rapidity.
    """
    a1, a2 = rep.plane_built_axes(k)
    v1 = rep.built_axis_matrix(a1)
    v2 = rep.built_axis_matrix(a2)
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
        m, r = _rotor_from_generator(rep.dim, generator, c, s)
        return Rotor(m, r, "exact", f"plane {k}, {quarters} quarter turns")

    half = theta / 2.0
    if boost:
        c, s = math.cosh(half), math.sinh(half)
    else:
        c, s = math.cos(half), math.sin(half)
    m, r = _rotor_from_generator(
        rep.dim, generator, Scalar.from_complex(c), Scalar.from_complex(s)
    )
    return Rotor(m, r, "float", f"plane {k}, angle {theta}")


def bivector_rotor(rep, generator, theta, exact=False):
    """Rotor exp(-theta/2 * B) for a general bivector generator matrix.

    Exact mode requires B*B = -1 and a quarter-turn angle; otherwise the
    exponential is evaluated in floats by scaling and squaring.
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
            rep.dim, generator, cos_quarter_turns(q), sin_quarter_turns(q)
        )
        return Rotor(m, r, "exact", f"bivector, {q} quarter turns")

    from scipy.linalg import expm

    g = generator.to_numpy()
    fwd = expm(-0.5 * theta * g)
    rev = expm(0.5 * theta * g)
    to_matrix = lambda arr: Matrix(
        [[Scalar.from_complex(z) for z in row] for row in arr]
    )
    return Rotor(to_matrix(fwd), to_matrix(rev), "float", f"bivector, angle {theta}")


def rotate(rep, rotor, x):
    """Apply a rotor: multivector -> R m R~, column -> R psi, row -> psi. R~."""
    if isinstance(x, Matrix):
        if x.ncols == 1:
            return rotor.matrix @ x
        if x.nrows == 1:
            return x @ rotor.reverse_matrix
        return rotor.matrix @ x @ rotor.reverse_matrix
    if isinstance(x, Element):
        if x.species == SCALAR:
            return x
        if x.species == COLUMN:
            return Element.column(rep, rotor.matrix @ x.payload)
        if x.species == ROW:
            return Element.row(rep, x.payload @ rotor.reverse_matrix)
        return Element.multivector(rep, rotor.matrix @ x.payload @ rotor.reverse_matrix)
    raise TypeError("rotate expects a Matrix or an Element")


def reverse_multivector(rep, m):
    """Blade-wise reversal: grade p picks up (-1)^[p/2]."""
    coeffs = decompose_multivector(rep, m)
    flipped = {
        blade: (c if blade.reversal_sign() == 1 else -c)
        for blade, c in coeffs.items()
    }
    return reconstruct_from_blades(rep, flipped)


def metric_preserved(rep, rotor, tol=None):
    """Check the invariance R^T eps R = eps (exact or within tol)."""
    lhs = rotor.matrix.transpose() @ rep.eps @ rotor.matrix
    if tol is None and rotor.mode == "exact":
        return lhs == rep.eps
    return lhs.approx_equal(rep.eps, tol or 1e-12)


# -- conjugation ---------------------------------------------------------------


@dataclass(frozen=True)
class ConjugationData:
    C: Matrix
    Gamma: Matrix
    phase: Scalar


def conjugation_operator(rep):
    """The rotation-covariant conjugation tensor and the time product."""
    return ConjugationData(rep.C, rep.Gamma, rep.gamma_phase)


def conjugate(rep, x):
    """Conjugate of an element: spinor -> C psi*, multivector -> C m* C^-1."""
    if isinstance(x, Scalar):
        return x.conjugate()
    if isinstance(x, Matrix):
        if x.ncols == 1:
            return rep.C @ x.conj()
        if x.nrows == 1:
            psi = rep.eps @ x.transpose()  # undo the metric dressing
            return ((rep.C @ psi.conj()).transpose()) @ rep.eps
        return rep.C @ x.conj() @ rep.C.dagger()
    if isinstance(x, Element):
        if x.species == SCALAR:
            return Element.scalar(rep, x.payload.conjugate())
        return Element(x.species, conjugate(rep, x.payload), rep)
    raise TypeError("conjugate expects a Scalar, Matrix or Element")


def is_real_element(rep, m, tol=None):
    """True when a multivector is its own conjugate."""
    if isinstance(m, Element):
        m = m.payload
    conj = rep.C @ m.conj() @ rep.C.dagger()
    exact = all(s.is_exact for _, _, s in m.nonzero_items())
    if exact and tol is None:
        return conj == m
    return conj.approx_equal(m, tol or 1e-12)


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
        x = Matrix.identity(rep.dim)
        for a in axes:
            x = x @ rep.gamma(a)
        member_axes = set(axes)

    sq = (x @ x).scalar_multiple_of_identity()
    if sq is None or sq not in (Scalar(1), Scalar(-1)):
        raise ValueError("reflection operator does not square to +-1")
    x_inv = x if sq == Scalar(1) else -x

    flipped_space = 0
    flipped_time = 0
    p = len(member_axes) if generators != "scalar" else 1
    for a in range(1, rep.N + 1):
        g = rep.gamma(a)
        image = x @ g @ x_inv
        if image == g:
            flipped = False
        elif image == -g:
            flipped = True
        else:
            raise AssertionError("reflection did not map a basis vector to +-itself")
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
