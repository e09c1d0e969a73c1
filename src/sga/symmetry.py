"""Rotors, conjugation and axis reflections.

A rotor is exp(-theta/2 * B) for a bivector B, and one constructor
builds them all.  A B squaring to -1 gives cos(theta/2) - sin(theta/2) B,
exact in the scalar ring for theta a multiple of pi/2; a B squaring to
+1, such as a plane with exactly one timelike axis, gives the hyperbolic
cosh - sinh B, exact only at zero rapidity.  The sign of the exponent is
fixed so that the chiral vector of a plane picks up exp(-i*theta) and an
up bit of the plane picks up exp(-i*theta/2).  Every other rotor is a
float rotor whose matrices are numpy complex arrays: the same closed form
on the generator's ``to_numpy``, or, for any other B (a sum of planes or
a null B), a scaling-and-squaring exponential.  Rotating by a float
rotor gives a numpy array, and float checks multiply those arrays by the
operators' ``to_numpy()``.

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


def _rotor(rep, generator, theta, quarters, exact, label):
    """exp(-theta/2 * B) for the generator B, a Rotor whose description starts with `label`.

    `quarters` counts quarter turns and demands an exact rotor, as
    `exact` True does; `exact` None takes one where theta allows it.
    """
    if quarters is None and theta is None:
        raise ValueError("a rotor needs an angle theta or a number of quarter turns")
    exact = quarters is not None or exact
    square = generator.square_sign()
    if exact and not square:
        raise ValueError("exact mode needs a generator squaring to -1")
    if quarters is None and (exact or exact is None):
        ratio = theta / QUARTER
        if abs(ratio - round(ratio)) <= 1e-9:
            quarters = round(ratio)
        elif exact:
            raise ValueError("exact mode needs an angle that is a multiple of pi/2")
    if quarters is not None and (square < 0 or quarters == 0):
        cos_part = Monomial.identity(rep.n_bits).scale(cos_quarter_turns(quarters))
        sin_part = generator.scale(sin_quarter_turns(quarters))
        return Rotor(cos_part - sin_part, cos_part + sin_part, "exact", f"{label}, {quarters} quarter turns")
    if exact:
        raise ValueError("boost rotors are exact only at zero rapidity")

    import numpy as np

    g, half = generator.to_numpy(), theta / 2.0
    if not square:
        return Rotor(_expm(-half * g), _expm(half * g), "float", f"{label}, angle {theta}")
    c, s = (math.cos(half), math.sin(half)) if square < 0 else (math.cosh(half), math.sinh(half))
    cos_part, sin_part = c * np.eye(rep.dim), s * g
    return Rotor(cos_part - sin_part, cos_part + sin_part, "float", f"{label}, angle {theta}")


def _expm(a):
    """exp(a) of a square numpy array: a Taylor series at a / 2**k, squared k times, for a / 2**k of norm below 1/2."""
    import numpy as np

    k = max(math.frexp(np.abs(a).sum(axis=1).max())[1] + 1, 0)
    a = a / 2.0**k
    out = term = np.eye(len(a), dtype=complex)
    for n in range(1, 19):
        term = term @ a / n
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def plane_rotor(rep, k, theta=None, *, quarters=None, exact=None):
    """Rotor (or boost) in constructed plane k, generated by the product of the plane's two vectors.

    `quarters` counts exact quarter turns (theta = quarters * pi/2);
    `theta` is a float angle.  Exact mode refuses angles that are not
    multiples of pi/2 and refuses boosts at nonzero rapidity, and with
    `exact` None a boost at nonzero rapidity is a float rotor; a float
    rotor holds numpy arrays.  The plane that holds the scalar dimension
    of an embed odd mode is not a rotation plane of the algebra, and
    raises ValueError.
    """
    v1, v2 = rep.plane_vectors(k)
    if rep.scalar_axis_matrix in (v1, v2):
        raise ValueError(f"plane {k} holds the scalar dimension of the {rep.odd_mode} odd mode, "
                         "so it is not a rotation plane of the algebra")
    return _rotor(rep, v1 @ v2, theta, quarters, exact, f"plane {k}")  # orthogonal: v1 @ v2 is the wedge


def bivector_rotor(rep, generator, theta, exact=False):
    """Rotor exp(-theta/2 * B) for a bivector generator matrix B.

    B*B = -1 gives the closed form cos - sin B and B*B = +1 the
    hyperbolic one; exact mode takes those at a quarter-turn angle, and
    a boost only at zero rapidity.  Any other B is a float rotor, its
    exponential evaluated by scaling and squaring; a float rotor holds
    numpy arrays.
    """
    return _rotor(rep, generator, theta, None, bool(exact), "bivector")


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


def metric_preserved(rep, rotor):
    """Check the invariance R^T eps R = eps: exactly for an exact rotor, within 1e-12 on eps's ``to_numpy()`` for a float one."""
    if rotor.mode == "exact":
        return rotor.matrix.transpose() @ rep.eps @ rotor.matrix == rep.eps
    eps = rep.eps.to_numpy()
    return abs(rotor.matrix.T @ eps @ rotor.matrix - eps).max() <= 1e-12


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

    sq = x.square_sign()
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
