"""Chain expression parsing and evaluation."""

import re

import pytest

from sga.elements import ForbiddenProduct
from sga.expressions import evaluate_chain, parse_chain
from sga.representation import RepConfig, Signature, build_representation
from sga.scalars import INV_SQRT2, ONE


@pytest.fixture(scope="module")
def pauli():
    return build_representation(RepConfig(Signature(spacelike=3)))


def test_parse_species(pauli):
    elems = parse_chain(pauli, "e[u] e[d]' g[1] g[1bar] g[+1] g[-1]")
    assert [e.species for e in elems] == [
        "column",
        "row",
        "multivector",
        "multivector",
        "multivector",
        "multivector",
    ]
    assert elems[2].payload == pauli.gamma_chiral(1)
    assert elems[3].payload == pauli.gamma_chiral(1, barred=True)
    assert elems[4].payload == pauli.gamma_plus(1)
    assert elems[5].payload == pauli.gamma_minus(1)


def test_orthonormal_tokens_are_the_plane_vectors_as_built():
    """g[+k] and g[-k] read plane k's vectors: in (3,1) g[-2] is the timelike gamma_4, which squares to -1."""
    dirac = build_representation(RepConfig(Signature(spacelike=3, timelike=1)))
    for k in (1, 2):
        assert tuple(e.payload for e in parse_chain(dirac, f"g[+{k}] g[-{k}]")) == dirac.plane_vectors(k)
    assert parse_chain(dirac, "g[-2]")[0].payload == dirac.gamma(4)
    assert evaluate_chain(dirac, "g[-2] g[-2]").payload.scalar_multiple_of_identity() == -ONE
    assert evaluate_chain(dirac, "g[+2] g[+2]").payload.scalar_multiple_of_identity() == ONE


def test_axis_tokens_are_the_representation_vectors():
    """a[k] is gamma(k), times i when timelike; in the odd project mode a[N] is the final vector, no plane's."""
    dirac = build_representation(RepConfig(Signature(spacelike=3, timelike=1)))
    assert [e.payload for e in parse_chain(dirac, "a[1]a[2] a[3] a[4]")] == [dirac.gamma(a) for a in range(1, 5)]
    assert evaluate_chain(dirac, "a[4] a[4]").payload.scalar_multiple_of_identity() == -ONE
    odd = build_representation(RepConfig(Signature(spacelike=4, timelike=1)))
    final = parse_chain(odd, "a[5]")[0].payload
    assert final == odd.gamma(5) and final not in {m for k in (1, 2) for m in odd.plane_vectors(k)}
    for token in ("a[0]", "a[6]", "a[x]"):
        with pytest.raises(ValueError, match=re.escape(token)):
            parse_chain(odd, token)


def test_eval_scalar_example(pauli):
    result = evaluate_chain(pauli, "e[d]' e[u]")
    assert result.species == "scalar" and result.payload == -ONE


def test_eval_outer(pauli):
    result = evaluate_chain(pauli, "e[u] e[u]'")
    assert result.species == "multivector"
    assert result.payload == pauli.gamma_chiral(1).scale(INV_SQRT2)


def test_eval_arrows(pauli):
    assert evaluate_chain(pauli, "e[↓]' e[↑]").payload == -ONE


def test_forbidden_chain(pauli):
    with pytest.raises(ForbiddenProduct):
        evaluate_chain(pauli, "e[u] e[d]")
    assert evaluate_chain(pauli, "e[u] e[d]", forbidden_as_zero=True).is_zero()


def test_parse_errors(pauli):
    with pytest.raises(ValueError):
        parse_chain(pauli, "")
    with pytest.raises(ValueError):
        parse_chain(pauli, "q[1]")
    with pytest.raises(ValueError):
        parse_chain(pauli, "e[ux]")
    with pytest.raises(ValueError):
        parse_chain(pauli, "g[7]")
