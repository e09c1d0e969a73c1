"""Differential tests of the signed-monomial kernel against independent oracles.

The oracle for the representation is the block-doubling construction the
closed forms replaced: each new plane doubles the spinor space, embeds
every earlier vector g as diag(g, -g) and adjoins the new plane's vectors
as off-diagonal blocks.  It is kept here, built with ``Matrix`` only.
Blades are checked against ordered ``Matrix`` products of the gammas, and
blade coefficients against trace(raised @ m) / dim computed the same way.
"""

from functools import lru_cache
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from sga.blades import (
    ORTHONORMAL,
    BladeIndex,
    all_chiral_blades,
    blade_matrix,
    canonicalize,
    decompose_multivector,
    _unit_product,
    raised_blade_matrix,
    reconstruct_from_blades,
)
from sga.matrices import Matrix, Monomial
from sga.representation import METRIC_CHOICES, ODD_MODES, RepConfig, Signature, build_representation
from sga.scalars import I, ONE, SQRT2, Scalar, i_power, unit


# -- the block-doubling oracle -------------------------------------------------


def block2(tl, tr, bl, br, half):
    """The 2x2 block matrix [[tl, tr], [bl, br]]; None blocks are zero."""

    def band(left, right):
        for i in range(half):
            row = dict(left.sparse_rows[i]) if left is not None else {}
            if right is not None:
                row.update((j + half, s) for j, s in right.sparse_rows[i].items())
            yield row

    return Matrix([*band(tl, tr), *band(bl, br)], 2 * half)


def block_diag(m, bottom):
    return block2(m, None, None, bottom, m.nrows)


@lru_cache(maxsize=None)
def oracle_core(pairs):
    """The even algebra on `pairs` planes, built by block doubling."""
    dim = 1
    one = Matrix([[ONE]])
    eps_std = eps_alt = kappa = one
    chiral, orth = [], []
    for j in range(1, pairs + 1):
        ident = Matrix.identity(dim)
        rt2 = ident.scale(SQRT2)
        chiral = [(block_diag(g, -g), block_diag(gb, -gb)) for g, gb in chiral]
        orth = [(block_diag(p, -p), block_diag(m, -m)) for p, m in orth]
        chiral.append((block2(None, rt2, None, None, dim), block2(None, None, rt2, None, dim)))
        orth.append((
            block2(None, ident, ident, None, dim),
            block2(None, ident.scale(-I), ident.scale(I), None, dim),
        ))
        sign_std = ONE if (j - 1) % 2 == 0 else -ONE
        sign_alt = ONE if j % 2 == 0 else -ONE
        eps_std = block2(None, eps_std, eps_std.scale(sign_std), None, dim)
        eps_alt = block2(None, eps_alt, eps_alt.scale(sign_alt), None, dim)
        kappa = block_diag(kappa, -kappa)
        dim *= 2
    return {"dim": dim, "chiral": chiral, "orth": orth,
            "eps_std": eps_std, "eps_alt": eps_alt, "kappa": kappa}


def product(matrices, dim):
    out = Matrix.identity(dim)
    for m in matrices:
        out = out @ m
    return out


def oracle_operators(config):
    """gammas, eps, kappa, pseudoscalar, Gamma and C from the oracle core."""
    sig = config.signature
    n = sig.total
    odd = n % 2 == 1
    project = odd and config.odd_mode == "project"
    core = oracle_core((n + 1) // 2 if odd and not project else n // 2)
    dim = core["dim"]
    full = [m for pair in core["orth"] for m in pair]
    scalar_axis = None
    if not odd:
        spacelike, kappa = full, core["kappa"]
        eps_std, eps_alt = core["eps_std"], core["eps_alt"]
    elif project:
        spacelike, kappa = full + [core["kappa"]], Matrix.identity(dim)
        eps_std = eps_alt = core["eps_alt"]
    else:
        if config.odd_mode == "embed_scalar_n":
            active, scalar_axis = list(range(n - 1)) + [n], full[n - 1]
        else:
            active, scalar_axis = list(range(n)), full[n]
        spacelike, kappa = [full[a] for a in active], core["kappa"]
        eps_std = core["eps_std"]
        eps_alt = product([core["orth"][k][1].scale(I) for k in range((n - 1) // 2)], dim)
    if not odd or project or config.metric == "standard":
        eps = eps_alt if config.metric in ("alternative", "prime_alternative") else eps_std
    elif config.metric == "alternative":
        eps = eps_alt
    elif config.metric == "prime_standard":
        eps = core["eps_std"] @ scalar_axis
    else:
        eps = core["eps_alt"]
    gammas = [g.scale(I) if sig.is_timelike(a + 1) else g for a, g in enumerate(spacelike)]
    if project:
        ps = Matrix.identity(dim).scale(i_power(n // 2))
    else:
        ps = product(spacelike, dim)
    if config.timelike_pseudoscalar_phase and sig.timelike:
        ps = ps.scale(i_power(sig.timelike))
    raw = product([gammas[a - 1] for a in sig.timelike_axes], dim)
    sign = Scalar(config.gamma_phase_sign)
    if (raw @ raw).scalar_multiple_of_identity() == ONE:
        phase = sign
    else:
        phase = (-I if sig.timelike == 1 else I) * sign
    gamma_matrix = raw.scale(phase)
    return {"gammas": gammas, "eps": eps, "kappa": kappa, "pseudoscalar": ps,
            "Gamma": gamma_matrix, "C": eps @ gamma_matrix.transpose()}


def valid_choices(n):
    """Every valid (metric, odd_mode) pair for total dimension n."""
    out = []
    for odd_mode in ODD_MODES:
        for metric in METRIC_CHOICES:
            try:
                RepConfig(Signature(n), metric=metric, odd_mode=odd_mode)
            except ValueError:
                continue
            out.append((metric, odd_mode))
    return out


def assert_matches_oracle(config):
    rep = build_representation(config)
    want = oracle_operators(config)
    for axis in range(1, rep.N + 1):
        assert rep.gamma(axis) == want["gammas"][axis - 1], axis
    for name, got in (("eps", rep.eps), ("kappa", rep.kappa), ("pseudoscalar", rep.pseudoscalar),
                      ("Gamma", rep.Gamma), ("C", rep.C)):
        assert got == want[name], name


# -- the representation against the oracle -------------------------------------


@pytest.mark.parametrize("pairs", range(1, 9))
def test_closed_form_generators_equal_block_doubling(pairs):
    rep = build_representation(spacelike=2 * pairs)
    core = oracle_core(pairs)
    assert rep.dim == core["dim"]
    for k in range(1, pairs + 1):
        g, gb = core["chiral"][k - 1]
        plus, minus = core["orth"][k - 1]
        assert rep.gamma_chiral(k) == g and rep.gamma_chiral(k, barred=True) == gb
        assert rep.gamma_plus(k) == plus and rep.gamma_minus(k) == minus
    assert rep.eps_std == core["eps_std"]
    assert rep.eps_alt == core["eps_alt"]
    assert rep.kappa_diag == core["kappa"]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_every_metric_and_odd_mode_matches_the_oracle(n):
    for metric, odd_mode in valid_choices(n):
        for axes in ((), (1,), (2, n)):
            config = RepConfig(Signature(n - len(axes), len(axes), axes), metric=metric,
                               odd_mode=odd_mode, gamma_phase_sign=-1,
                               timelike_pseudoscalar_phase=True)
            assert_matches_oracle(config)


@st.composite
def rep_configs(draw):
    n = draw(st.integers(min_value=1, max_value=17))
    axes = draw(st.lists(st.integers(min_value=1, max_value=n), unique=True, max_size=n))
    metric, odd_mode = draw(st.sampled_from(valid_choices(n)))
    return RepConfig(
        Signature(n - len(axes), len(axes), tuple(axes)),
        metric=metric,
        odd_mode=odd_mode,
        gamma_phase_sign=draw(st.sampled_from((1, -1))),
        timelike_pseudoscalar_phase=draw(st.booleans()),
        max_dim=512,
    )


@settings(max_examples=40, deadline=None)
@given(rep_configs())
def test_random_signatures_match_the_oracle(config):
    assert_matches_oracle(config)


# -- blades against Matrix products --------------------------------------------


def oracle_chiral_blade(rep, factors):
    """The ordered Matrix product of the blade's per-plane factors."""
    out = Matrix.identity(rep.dim)
    for k in sorted({k for k, _ in factors}):
        flags = [barred for kk, barred in factors if kk == k]
        if len(flags) == 2:  # the paired wedge g^gbar = g gbar - 1
            factor = rep.gamma_chiral(k) @ rep.gamma_chiral(k, barred=True) - Matrix.identity(rep.dim)
        else:
            factor = rep.gamma_chiral(k, barred=flags[0])
        out = out @ factor
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_blade_matrices_are_ordered_products_of_the_gammas(n):
    rep = build_representation(spacelike=n - 1, timelike=1)
    for blade in all_chiral_blades(rep):
        assert blade_matrix(rep, blade) == oracle_chiral_blade(rep, blade.factors), blade.label()
    for grade in range(n + 1):
        for axes in combinations(range(1, n + 1), grade):
            blade = BladeIndex(ORTHONORMAL, axes)
            assert blade_matrix(rep, blade) == product([rep.gamma(a) for a in axes], rep.dim)


def oracle_raised(rep, blade):
    barred, sign = canonicalize([(k, not b) for k, b in blade.factors])
    return oracle_chiral_blade(rep, barred).scale(Scalar(sign * blade.reversal_sign()))


def random_dense(rng, dim):
    return Matrix([[Scalar(rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-3, 3),
                           rng.randint(-1, 1), rng.choice((1, 2, 3)))
                    for _ in range(dim)] for _ in range(dim)])


@pytest.mark.parametrize("n,metric", [(2, "standard"), (4, "alternative"), (5, "standard"), (6, "standard")])
def test_dense_decomposition_equals_the_trace_formula(n, metric):
    rep = build_representation(spacelike=n, metric=metric)
    rng = Random(n)
    inv_dim = Scalar(1, 0, 0, 0, rep.dim)
    for _ in range(2):
        m = random_dense(rng, rep.dim)
        coeffs = decompose_multivector(rep, m, all_blades=True)
        for blade in all_chiral_blades(rep):
            raised = oracle_raised(rep, blade)
            assert raised_blade_matrix(rep, blade) == raised
            want = (raised @ m).trace() * inv_dim
            assert coeffs.get(blade, Scalar(0)) == want, blade.label()
        assert reconstruct_from_blades(rep, coeffs) == m


@given(st.builds(Scalar, *[st.integers(-9, 9)] * 4, st.integers(1, 12)),
       st.integers(min_value=0, max_value=3), st.integers(min_value=-7, max_value=7))
def test_integer_unit_products_equal_scalar_products(x, p, e):
    den = 3 * (x.q << max(0, -(e >> 1)))
    a, b, c, d, f = _unit_product(x, p, e, den)
    assert f == 0 and Scalar(a, b, c, d, den) == x * unit(p, e)


def test_float_coefficients_reconstruct():
    rep = build_representation(spacelike=4)
    rng = Random(5)
    m = Matrix([[Scalar(_float=complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(4)]
                for _ in range(4)])
    coeffs = decompose_multivector(rep, m, all_blades=True)
    assert reconstruct_from_blades(rep, coeffs).approx_equal(m)


# -- the monomial type against Matrix ------------------------------------------


@st.composite
def monomials(draw, dim=None):
    if dim is None:
        dim = draw(st.integers(min_value=1, max_value=12))
    perm = draw(st.permutations(range(dim)))
    empty = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    cols = [-1 if e else j for j, e in zip(perm, empty)]
    phases = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=dim, max_size=dim))
    exps = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=dim, max_size=dim))
    return Monomial(cols, phases, exps)


@st.composite
def monomial_pairs(draw):
    a = draw(monomials())
    return a, draw(monomials(a.dim))


@given(monomial_pairs())
def test_monomial_product_agrees_with_matrix(pair):
    a, b = pair
    assert (a @ b).to_matrix() == a.to_matrix() @ b.to_matrix()


@given(monomials(), st.integers(min_value=-5, max_value=5), st.integers(min_value=-4, max_value=4))
def test_monomial_scale_agrees_with_matrix(a, p, e):
    assert a.scale(p, e).to_matrix() == a.to_matrix().scale(unit(p, e))


@given(monomials())
def test_monomial_transpose_and_listings(a):
    assert a.transpose().to_matrix() == a.to_matrix().transpose()
    assert list(a.to_matrix().nonzero_items()) == [(i, j, unit(p, e)) for i, j, p, e in a.entries]
    assert a.units == {(p, e) for _, _, p, e in a.entries}


def test_paired_wedge_is_the_plane_bivector():
    rep = build_representation(spacelike=6)
    for k in range(1, 4):
        g, gb = rep.gamma_chiral(k), rep.gamma_chiral(k, barred=True)
        bivector = (rep.gamma_plus(k) @ rep.gamma_minus(k)).scale(-I)
        assert g @ gb - Matrix.identity(rep.dim) == bivector


def test_monomial_columns_are_distinct():
    with pytest.raises(ValueError):
        Monomial([0, 0], [0, 0], [0, 0])
    with pytest.raises(ValueError):
        Monomial([2, -1], [0, 0], [0, 0])
