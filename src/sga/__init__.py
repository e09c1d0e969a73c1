"""Exact kernel for spinors, Clifford algebras and their outer-product algebra.

The package builds the chiral representation in any dimension and
signature over the exact scalar ring Q(i, sqrt2), implements the
multiplication grid of scalars, column spinors, row spinors and
multivectors, translates between spinor outer products and basis blades
in both directions, and computes the mod-8 classification tables from
first principles.

``import sga`` loads no submodule.  Each public name is imported from its
module on first use (PEP 562) and kept in the package namespace, so later
lookups cost a dict hit.
"""

from importlib import import_module

# each public name and the module that defines it; __all__ is read off this table
_EXPORTS = {
    "Bitcode": "bitcodes", "all_bitcodes": "bitcodes",
    "BladeIndex": "blades", "blade_matrix": "blades", "chiral_project": "blades",
    "chiral_projector": "blades", "decompose_multivector": "blades", "gamma_coefficients": "blades",
    "spinor_outer_decompose": "blades", "verify_isomorphism": "blades",
    "Element": "elements", "ForbiddenProduct": "elements", "FormalSum": "elements",
    "lower_index": "elements", "multiply": "elements", "outer_product": "elements",
    "raise_index": "elements", "row_of": "elements", "scalar_product": "elements",
    "simplify_chain": "elements",
    "evaluate_chain": "expressions", "parse_chain": "expressions",
    "Matrix": "matrices",
    "RepConfig": "representation", "Representation": "representation", "Signature": "representation",
    "build_representation": "representation",
    "Scalar": "scalars",
    "Rotor": "symmetry", "axis_reflection_classify": "symmetry", "bivector_rotor": "symmetry",
    "conjugate": "symmetry", "is_real_element": "symmetry", "plane_rotor": "symmetry",
    "reverse_multivector": "symmetry", "rotate": "symmetry",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
