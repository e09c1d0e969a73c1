"""Tiny chain-expression language for the command line.

Tokens, separated by whitespace or juxtaposed:

    e[uud]     column basis spinor for the bitcode (u/d, or arrows)
    e[uud]'    the matching row spinor (metric-dressed)
    g[2]       chiral vector of plane 2
    g[2bar]    its barred partner
    g[+2]      orthonormal plus vector of plane 2
    g[-2]      orthonormal minus vector of plane 2

A sequence of tokens denotes the product chain, reduced left to right.
"""

from __future__ import annotations

import re

from .bitcodes import Bitcode
from .elements import Element, row_of, simplify_chain

_TOKEN = re.compile(r"e\[([^\]]+)\](')?|g\[([^\]]+)\]|(\S)")


def parse_chain(rep, text):
    """Parse a chain expression into a list of elements."""
    elements = []
    for match in _TOKEN.finditer(text):
        spinor_bits, primed, gamma_spec, stray = match.groups()
        if stray is not None:
            raise ValueError(f"unexpected character {stray!r} in chain expression")
        if spinor_bits is not None:
            code = Bitcode.from_string(spinor_bits)
            column = Element.basis_spinor(rep, code)
            elements.append(row_of(rep, column) if primed else column)
        else:
            elements.append(Element.multivector(rep, _gamma_token(rep, gamma_spec)))
    if not elements:
        raise ValueError("empty chain expression")
    return elements


def _gamma_token(rep, spec):
    spec = spec.strip()
    if spec.startswith("+"):
        return rep.gamma_plus(_plane(spec[1:], spec))
    if spec.startswith("-"):
        return rep.gamma_minus(_plane(spec[1:], spec))
    if spec.endswith("bar"):
        return rep.gamma_chiral(_plane(spec[:-3], spec), barred=True)
    return rep.gamma_chiral(_plane(spec, spec))


def _plane(text, spec):
    """The plane number `text` of the token g[spec]; a ValueError naming the token if it is not a number."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"g[{spec}]: expected a plane number, optionally after + or - "
                         f"or before 'bar', got {text!r}") from None


def evaluate_chain(rep, text, forbidden_as_zero=False):
    return simplify_chain(parse_chain(rep, text), forbidden_as_zero=forbidden_as_zero)
