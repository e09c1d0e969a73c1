"""Tiny chain-expression language for the command line.

Tokens, separated by whitespace or juxtaposed:

    e[uud]     column basis spinor for the bitcode (u/d, or arrows; e[] at dim 1)
    e[uud]'    the matching row spinor (metric-dressed)
    g[2]       chiral vector of plane 2
    g[2bar]    its barred partner
    g[+2]      first orthonormal vector of plane 2, times i if timelike
    g[-2]      second orthonormal vector of plane 2, times i if timelike
    a[3]       orthonormal vector of axis 3, times i if timelike; in the
               odd project mode a[N] is the final vector, which is no
               plane's

A sequence of tokens denotes the product chain, reduced left to right.
"""

from __future__ import annotations

import re

from .bitcodes import Bitcode
from .elements import Element, row_of, simplify_chain

_TOKEN = re.compile(r"e\[([^\]]*)\](')?|g\[([^\]]+)\]|a\[([^\]]+)\]|(\S)")


def parse_chain(rep, text):
    """Parse a chain expression into a list of elements."""
    elements = []
    for match in _TOKEN.finditer(text):
        spinor_bits, primed, gamma_spec, axis_spec, stray = match.groups()
        if stray is not None:
            raise ValueError(f"unexpected character {stray!r} in chain expression")
        if spinor_bits is not None:
            code = Bitcode.from_string(spinor_bits)
            column = Element.basis_spinor(rep, code)
            elements.append(row_of(rep, column) if primed else column)
        elif axis_spec is not None:
            elements.append(Element.multivector(rep, _axis_token(rep, axis_spec)))
        else:
            elements.append(Element.multivector(rep, _gamma_token(rep, gamma_spec)))
    if not elements:
        raise ValueError("empty chain expression")
    return elements


def _gamma_token(rep, spec):
    spec = spec.strip()
    if spec[:1] in ("+", "-"):
        return rep.plane_vectors(_plane(rep, spec[1:], spec))["+-".index(spec[0])]
    if spec.endswith("bar"):
        return rep.gamma_chiral(_plane(rep, spec[:-3], spec), barred=True)
    return rep.gamma_chiral(_plane(rep, spec, spec))


def _plane(rep, text, spec):
    """The plane number `text` of the token g[spec]; a ValueError naming the token unless it is a number in 1..n_bits."""
    try:
        k = int(text)
    except ValueError:
        raise ValueError(f"g[{spec}]: expected a plane number, optionally after + or - "
                         f"or before 'bar', got {text!r}") from None
    if not 1 <= k <= rep.n_bits:
        raise ValueError(f"g[{spec}]: plane {k} out of range 1..{rep.n_bits}")
    return k


def _axis_token(rep, spec):
    """rep.gamma(axis) for the token a[spec]; a ValueError naming the token if the axis is not a number in 1..N."""
    try:
        axis = int(spec)
    except ValueError:
        raise ValueError(f"a[{spec}]: expected an axis number, got {spec.strip()!r}") from None
    if not 1 <= axis <= rep.N:
        raise ValueError(f"a[{spec}]: axis {axis} out of range 1..{rep.N}")
    return rep.gamma(axis)


def evaluate_chain(rep, text, forbidden_as_zero=False):
    return simplify_chain(parse_chain(rep, text), forbidden_as_zero=forbidden_as_zero)
