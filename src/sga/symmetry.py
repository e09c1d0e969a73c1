"""Rotors, conjugation and axis reflections.

A rotor is exp(-theta/2 * B) for a bivector B, and the argument decides
which of the two rotors it is: `quarters`, an int, asks for the exact
rotor at theta = quarters * pi/2, and `theta` asks for the float rotor
at that angle.  Exactly one of them is given.  A B squaring to -1 gives
cos(theta/2) - sin(theta/2) B, exact in the scalar ring at whole quarter
turns; a B squaring to +1, such as a plane with exactly one timelike
axis, gives the hyperbolic cosh - sinh B, exact only at zero quarter
turns.  The sign of the exponent is fixed so that the chiral vector of
a plane picks up exp(-i*theta) and an up bit of the plane picks up
exp(-i*theta/2).  A float rotor's matrices are numpy complex arrays:
the same closed form on the generator's ``to_numpy``, or, for any other
B (a sum of planes or a null B), a scaling-and-squaring exponential.
Rotating by a float rotor gives a numpy array, and float checks multiply
those arrays by the operators' ``to_numpy()``.

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


@dataclass(frozen=True)
class Rotor:
    matrix: object  # an exact Matrix, or the numpy array of a float rotor
    reverse_matrix: object
    mode: str  # "exact" | "float"
    description: str = ""


def _rotor(rep, generator, theta, quarters, label):
    """exp(-theta/2 * B) for the generator B, a Rotor whose description starts with `label`.

    An int `quarters` gives the exact rotor at theta = quarters * pi/2,
    and `theta` the float rotor; exactly one of them is given.
    """
    if (theta is None) == (quarters is None):
        raise ValueError("a rotor needs exactly one of theta, a float angle, and quarters, an int")
    square = generator.square_sign()
    if quarters is not None:
        if not isinstance(quarters, int) or isinstance(quarters, bool):
            raise ValueError(f"quarters must be an int, not {quarters!r}")
        if not square:
            raise ValueError("an exact rotor needs a generator squaring to -1")
        if square > 0 and quarters:
            raise ValueError("boost rotors are exact only at zero rapidity")
        cos_part = Monomial.identity(rep.n_bits).scale(cos_quarter_turns(quarters))
        sin_part = generator.scale(sin_quarter_turns(quarters))
        return Rotor(cos_part - sin_part, cos_part + sin_part, "exact", f"{label}, {quarters} quarter turns")

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


def plane_rotor(rep, k, theta=None, *, quarters=None):
    """Rotor (or boost) in constructed plane k, generated by the product of the plane's two vectors.

    `quarters`, an int, gives the exact rotor at theta = quarters * pi/2,
    and `theta` the float rotor, whose matrices are numpy arrays; give
    exactly one.  A boost is exact only at zero quarter turns.  The
    plane that holds the scalar dimension of an embed odd mode is not a
    rotation plane of the algebra, and raises ValueError.
    """
    v1, v2 = rep.plane_vectors(k)
    if rep.scalar_axis_matrix in (v1, v2):
        raise ValueError(f"plane {k} holds the scalar dimension of the {rep.odd_mode} odd mode, "
                         "so it is not a rotation plane of the algebra")
    return _rotor(rep, v1 @ v2, theta, quarters, f"plane {k}")  # orthogonal: v1 @ v2 is the wedge


def bivector_rotor(rep, generator, theta=None, *, quarters=None):
    """Rotor exp(-theta/2 * B) for a bivector generator matrix B.

    `quarters`, an int, gives the exact rotor at theta = quarters * pi/2,
    and `theta` the float rotor, whose matrices are numpy arrays; give
    exactly one.  B*B = -1 gives the closed form cos - sin B and B*B = +1
    the hyperbolic one, exact only at zero quarter turns.  Any other B
    only has a float rotor, its exponential evaluated by scaling and
    squaring.
    """
    return _rotor(rep, generator, theta, quarters, "bivector")


def rotate(rep, rotor, x):
    """Apply a rotor: multivector -> R m R~, column -> R psi, row -> psi. R~.

    A Matrix is read as a column, a row or a multivector by its shape, in
    that order.  An exact rotor gives a Matrix, or an Element of the same
    species; a float rotor gives the numpy array of the rotated Matrix or
    payload.  A scalar Element is returned as it is.
    """
    if isinstance(x, Element) and x.species == SCALAR:
        return x
    species, m = _species_by_shape(x, "rotate expects a Matrix or an Element")
    if rotor.mode == "float":
        m = m.to_numpy()
    if species == COLUMN:
        out = rotor.matrix @ m
    elif species == ROW:
        out = m @ rotor.reverse_matrix
    else:
        out = rotor.matrix @ m @ rotor.reverse_matrix
    return Element(species, out, rep) if isinstance(x, Element) and rotor.mode == "exact" else out


def _species_by_shape(x, refusal):
    """(species, Matrix) of an Element, or of a Matrix read as a column, a row or a multivector by its shape, in that order.

    Anything else raises TypeError(refusal).
    """
    if isinstance(x, Element):
        return x.species, x.payload
    if not isinstance(x, Matrix):
        raise TypeError(refusal)
    return (COLUMN if x.ncols == 1 else ROW if x.nrows == 1 else MULTIVECTOR), x


def reverse_multivector(rep, m):
    """Blade-wise reversal: grade p picks up (-1)^[p/2]."""
    coeffs = decompose_multivector(rep, m)
    flipped = {
        blade: (c if blade.reversal_sign() == 1 else -c)
        for blade, c in coeffs.items()
    }
    return reconstruct_from_blades(rep, flipped)


def metric_preserved(rep, rotor):
    """Check the invariance R^T eps R = eps: exactly for an exact rotor, on eps's ``to_numpy()`` for a float one.

    An entry of R^T eps R sums products of two entries of R, so its
    rounding error grows as the square of R's largest entry magnitude s: a
    float rotor passes within 1e-12 * max(1, s)**2, which is 1e-12 for a
    rotation and grows with a boost's rapidity.
    """
    if rotor.mode == "exact":
        return rotor.matrix.transpose() @ rep.eps @ rotor.matrix == rep.eps
    eps, r = rep.eps.to_numpy(), rotor.matrix
    size = max(1.0, abs(r).max())
    return abs(r.T @ eps @ r - eps).max() <= 1e-12 * size * size


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
    if isinstance(x, Element) and x.species == SCALAR:
        return Element.scalar(rep, x.payload.conjugate())
    species, m = _species_by_shape(x, "conjugate expects a Scalar, Matrix or Element")
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
