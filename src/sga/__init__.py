"""Exact kernel for spinors, Clifford algebras and their outer-product algebra.

The package builds the chiral representation in any dimension and
signature over the exact scalar ring Q(i, sqrt2), implements the
multiplication grid of scalars, column spinors, row spinors and
multivectors, translates between spinor outer products and basis blades
in both directions, and computes the mod-8 classification tables from
first principles.
"""

from .bitcodes import Bitcode, all_bitcodes
from .blades import (
    BladeIndex,
    blade_matrix,
    chiral_project,
    chiral_projector,
    decompose_multivector,
    gamma_coefficients,
    spinor_outer_decompose,
    verify_isomorphism,
)
from .elements import (
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
from .expressions import evaluate_chain, parse_chain
from .matrices import Matrix
from .representation import (
    RepConfig,
    Representation,
    Signature,
    build_representation,
)
from .scalars import Scalar
from .symmetry import (
    Rotor,
    axis_reflection_classify,
    bivector_rotor,
    conjugate,
    is_real_element,
    plane_rotor,
    reverse_multivector,
    rotate,
)

__all__ = [
    "Bitcode",
    "BladeIndex",
    "Element",
    "ForbiddenProduct",
    "FormalSum",
    "Matrix",
    "RepConfig",
    "Representation",
    "Rotor",
    "Scalar",
    "Signature",
    "all_bitcodes",
    "axis_reflection_classify",
    "bivector_rotor",
    "blade_matrix",
    "build_representation",
    "chiral_project",
    "chiral_projector",
    "conjugate",
    "decompose_multivector",
    "evaluate_chain",
    "gamma_coefficients",
    "is_real_element",
    "lower_index",
    "multiply",
    "outer_product",
    "parse_chain",
    "plane_rotor",
    "raise_index",
    "reverse_multivector",
    "rotate",
    "row_of",
    "scalar_product",
    "simplify_chain",
    "spinor_outer_decompose",
    "verify_isomorphism",
]

__version__ = "0.1.0"
