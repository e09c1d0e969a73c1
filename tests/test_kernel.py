"""Differential tests of the signed-monomial kernel against independent oracles.

The oracle for the representation is the block-doubling construction the
closed forms replaced: each new plane doubles the spinor space, embeds
every earlier vector g as diag(g, -g) and adjoins the new plane's vectors
as off-diagonal blocks.  It is kept here, built with ``Matrix`` only.
Blades are checked against ordered ``Matrix`` products of the gammas, and
the blade coefficients of the per-plane transform against trace(raised @
m) / dim computed the same way and against ``blade_coefficient``, and
the raised blades read off the bits against the canonicalize route on
words up to N = 64.
Orthonormal blades are also checked against the bitmap product of
geometric algebra, which needs no matrices, in up to 64 dimensions, and
the axes against the Clifford relations.  Each word operation of a
Monomial, and the factored outer product, is checked against the plain
Matrix of its rows on the general kernel.
"""

import copy
import pickle
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_blades import canonicalize
from strategies import rep_configs, valid_choices
from test_matrices import naive_product

from sga.blades import (
    CHIRAL,
    ORTHONORMAL,
    BladeIndex,
    all_chiral_blades,
    blade_coefficient,
    blade_matrix,
    decompose_multivector,
    raised_blade_matrix,
    reconstruct_from_blades,
)
from sga.elements import COLUMN, MULTIVECTOR, ROW, SCALAR, Element, multiply
from sga.matrices import Matrix, Monomial, OuterProduct
from sga.representation import (
    ODD_MODES, RepConfig, Signature, _even_core, build_representation,
)
from sga.scalars import HALF, I, ONE, SQRT2, ZERO, Scalar, i_power, unit
from sga.symmetry import conjugate, metric_preserved, plane_rotor


# -- the block-doubling oracle -------------------------------------------------


def block2(tl, tr, bl, br, half):
    """The 2x2 block matrix [[tl, tr], [bl, br]]; None blocks are zero."""

    def band(left, right):
        for i in range(half):
            row = dict(left.sparse_rows.get(i, {})) if left is not None else {}
            if right is not None:
                row.update((j + half, s) for j, s in right.sparse_rows.get(i, {}).items())
            yield row

    rows = [*band(tl, tr), *band(bl, br)]
    return Matrix({i: row for i, row in enumerate(rows) if row}, 2 * half, 2 * half)


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
    raw = product([gammas[a - 1] for a in sig.timelike_axes], dim)
    if (raw @ raw).scalar_multiple_of_identity() == ONE:
        gamma_matrix = raw
    else:
        gamma_matrix = raw.scale(-I if sig.timelike == 1 else I)
    return {"gammas": gammas, "eps": eps, "kappa": kappa, "pseudoscalar": ps,
            "Gamma": gamma_matrix, "C": eps @ gamma_matrix.transpose()}


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
                               odd_mode=odd_mode)
            assert_matches_oracle(config)


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


def raised_by_canonicalize(rep, blade):
    """The raised blade on words: its factors raised one by one, reversed, and put back in order by canonicalize.

    A chiral factor is raised by barring it, an axis a by the sign of g_a**2.
    """
    if blade.kind == CHIRAL:
        factors, sign = canonicalize(reversed([(k, not barred) for k, barred in blade.factors]))
    else:
        factors, sign = canonicalize(reversed(blade.factors))
        for a in factors:
            sign *= (rep.gamma(a) @ rep.gamma(a)).sign_against(Monomial.identity(rep.n_bits))
    return blade_matrix(rep, BladeIndex(blade.kind, factors)).scale(Scalar(sign))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_raised_blades_from_the_bits_equal_the_canonicalize_route(data):
    """Word equality up to N = 64, for chiral and orthonormal blades."""
    rep = build_representation(data.draw(rep_configs(max_n=64)))
    n = rep.n_bits
    chiral = data.draw(st.sets(st.tuples(st.integers(1, max(n, 1)), st.booleans()), max_size=2 * n))
    axes = data.draw(st.sets(st.integers(1, rep.N)))
    for blade in BladeIndex(CHIRAL, tuple(sorted(chiral))), BladeIndex(ORTHONORMAL, tuple(sorted(axes))):
        got = raised_blade_matrix(rep, blade)
        assert type(got) is Monomial and got == raised_by_canonicalize(rep, blade), blade.label()


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
        coeffs = decompose_multivector(rep, m)
        for blade in all_chiral_blades(rep):
            raised = oracle_raised(rep, blade)
            assert raised_blade_matrix(rep, blade) == raised
            want = (raised @ m).trace() * inv_dim
            assert coeffs.get(blade, Scalar(0)) == want, blade.label()
        assert reconstruct_from_blades(rep, coeffs) == m


def trace_reference(rep, m):
    """The nonzero blade coefficients of m by the trace formula, blade by blade."""
    return {b: c for b in all_chiral_blades(rep) if not (c := blade_coefficient(rep, b, m)).is_zero()}


@st.composite
def sparse_matrices(draw, dim):
    """Up to eight entries with sqrt2 and i parts over 1..3."""
    index = st.integers(min_value=0, max_value=dim - 1)
    exact = st.builds(Scalar, *[st.integers(-3, 3)] * 4, st.integers(1, 3))
    return Matrix.from_items(dim, dim, draw(st.lists(st.tuples(index, index, exact), max_size=8)))


@pytest.mark.parametrize("odd_mode", (None, *ODD_MODES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_transform_equals_the_trace_formula_and_inverts(odd_mode, data):
    config = data.draw(rep_configs(max_n=16, odd_mode=odd_mode))
    rep = build_representation(config)
    m = data.draw(sparse_matrices(rep.dim))
    coeffs = decompose_multivector(rep, m)
    if config.signature.total <= 10:
        assert coeffs == trace_reference(rep, m)
    assert reconstruct_from_blades(rep, coeffs) == m


@pytest.mark.parametrize("odd_mode", (None, *ODD_MODES))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_every_blade_reconstructs_to_its_matrix(odd_mode, data):
    rep = build_representation(data.draw(rep_configs(max_n=8, odd_mode=odd_mode)))
    for blade in all_chiral_blades(rep):
        assert reconstruct_from_blades(rep, {blade: ONE}) == blade_matrix(rep, blade), blade.label()


# -- the packed transform on wide values and mixed magnitudes -----------------------

WIDE = 2 ** 70


@st.composite
def wide_matrices(draw, dim):
    """Up to twelve exact entries with numerators up to 2**70 in size over denominators up to 10**6."""
    index = st.integers(min_value=0, max_value=dim - 1)
    part = st.integers(-WIDE, WIDE)
    exact = st.builds(Scalar, part, part, part, part, st.integers(1, 10 ** 6))
    return Matrix.from_items(dim, dim, draw(st.lists(st.tuples(index, index, exact), max_size=12)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_packed_transform_is_exact_on_wide_values(data):
    rep = build_representation(data.draw(rep_configs(max_n=10)))
    m = data.draw(wide_matrices(rep.dim))
    coeffs = decompose_multivector(rep, m)
    assert coeffs == trace_reference(rep, m)
    assert reconstruct_from_blades(rep, coeffs) == m


@pytest.mark.parametrize("signs", ((1, 1, 1, 1), (-1, -1, -1, -1), (1, -1, -1, 1)))
def test_the_packed_transform_holds_the_largest_sums(signs):
    """Every diagonal entry at 2**70 in each part, over 1 or a prime near 10**6.

    The unit coefficient sums all 2**n of them with one sign, so each lane
    holds its largest possible sum; mixed signs put negative values next to
    positive ones in the packed int.
    """
    rep = build_representation(spacelike=10)
    parts = [s * WIDE for s in signs]
    m = Matrix.diagonal([Scalar(*parts, 999_983 if i % 3 else 1) for i in range(rep.dim)])
    coeffs = decompose_multivector(rep, m)
    assert coeffs == trace_reference(rep, m)
    assert reconstruct_from_blades(rep, coeffs) == m


@st.composite
def mixed_matrices(draw, dim):
    """Up to twelve entries over denominators up to 10**6, with numerators drawn up to 3 or up to 2**70."""
    index = st.integers(min_value=0, max_value=dim - 1)
    part = st.integers(-3, 3) | st.integers(-WIDE, WIDE)
    exact = st.builds(Scalar, part, part, part, part, st.integers(1, 10 ** 6))
    return Matrix.from_items(dim, dim, draw(st.lists(st.tuples(index, index, exact), max_size=12)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_packed_transform_keeps_exactness_on_mixed_values(data):
    """Small and 2**70-wide numerators share the packed lanes and still give the trace formula's coefficients."""
    rep = build_representation(data.draw(rep_configs(max_n=10)))
    m = data.draw(mixed_matrices(rep.dim))
    coeffs = decompose_multivector(rep, m)
    for blade in all_chiral_blades(rep):
        got, want = coeffs.get(blade, ZERO), blade_coefficient(rep, blade, m)
        assert got == want and (blade not in coeffs or not got.is_zero()), blade.label()
    assert reconstruct_from_blades(rep, coeffs) == m


# -- orthonormal blades against the bitmap product -------------------------------


def bitmap_blade_product(a, b, squares):
    """e_A e_B = sign * e_(A ^ B) for axis bitmaps A and B; squares[k] is the square of axis k + 1.

    The sign is the parity of the swaps that sort the factors of e_A e_B
    into increasing order, times the square of each axis in A & B
    (Dorst, Fontijne & Mann, Geometric Algebra for Computer Science, ch. 19).
    """
    sign = 1
    rest = a >> 1
    while rest:  # each axis of B passes every larger axis of A
        if (rest & b).bit_count() & 1:
            sign = -sign
        rest >>= 1
    for k, square in enumerate(squares):
        if (a & b) >> k & 1:
            sign *= square
    return sign, a ^ b


def word_gammas(n, timelike):
    """The n orthonormal vectors as Pauli-string words of the even core; axis a + 1 is timelike when bit a is set.

    As in the representation, the plus and minus generators of each plane
    come first, an odd n takes kappa as its final vector, and a timelike
    vector is i times its spacelike form.
    """
    _, orth, _, _, kappa = _even_core(n // 2)
    gammas = [g for pair in orth for g in pair] + [kappa] * (n % 2)
    return [g.times_unit(1) if timelike >> a & 1 else g for a, g in enumerate(gammas)]


def word_blade(gammas, bitmap):
    out = Monomial.identity(gammas[0].n)
    for a, g in enumerate(gammas):
        if bitmap >> a & 1:
            out = out @ g
    return out


@st.composite
def bitmap_cases(draw, max_n):
    n = draw(st.integers(min_value=1, max_value=max_n))
    axes = st.integers(min_value=0, max_value=(1 << n) - 1)
    return n, draw(axes), draw(axes), draw(axes)


@settings(max_examples=200, deadline=None)
@given(bitmap_cases(64))
def test_orthonormal_blades_multiply_like_bitmaps(case):
    n, timelike, a, b = case
    gammas = word_gammas(n, timelike)
    sign, ab = bitmap_blade_product(a, b, [-1 if timelike >> k & 1 else 1 for k in range(n)])
    want = word_blade(gammas, ab)
    assert word_blade(gammas, a) @ word_blade(gammas, b) == (want if sign == 1 else -want)


@settings(max_examples=40, deadline=None)
@given(bitmap_cases(10))
def test_bitmap_product_agrees_with_the_blade_matrices(case):
    n, timelike, a, b = case
    axes = tuple(k + 1 for k in range(n) if timelike >> k & 1)
    rep = build_representation(RepConfig(Signature(n - len(axes), len(axes), axes)))

    def blade(bitmap):
        return blade_matrix(rep, BladeIndex(ORTHONORMAL, tuple(k + 1 for k in range(n) if bitmap >> k & 1)))

    sign, ab = bitmap_blade_product(a, b, [-1 if timelike >> k & 1 else 1 for k in range(n)])
    assert blade(a) @ blade(b) == blade(ab).scale(sign)


# -- the monomial type against Matrix ------------------------------------------


def plain(m):
    """The ordinary Matrix of m's rows, whose products, scaling and comparisons run on the general kernel."""
    return Matrix(m.sparse_rows, m.nrows, m.ncols)


def assert_same(got, want):
    """got has the rows of the ordinary Matrix want, and compares and hashes like it either way round."""
    assert plain(got).sparse_rows == want.sparse_rows
    assert got == want and want == got and hash(got) == hash(want)


def assert_word_result(got, want):
    """got is a Monomial equal to the ordinary Matrix want."""
    assert type(got) is Monomial and type(want) is Matrix
    assert_same(got, want)


def matrix_of_words(n, x, z, m, v, p, e):
    """The Matrix of i**p sqrt2**e X**x Z**z P(m, v), entry by entry from the definition."""
    dim = 1 << n
    return Matrix.from_items(dim, dim, [
        (j ^ x, j, unit(p + 2 * (j & z).bit_count(), e)) for j in range(dim) if j & m == v
    ])


@st.composite
def words(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=0, max_value=6))
    bits = st.integers(min_value=0, max_value=(1 << n) - 1)
    x, z, m, v = draw(bits), draw(bits), draw(bits), draw(bits)
    p = draw(st.integers(min_value=-5, max_value=5))
    return n, x, z, m, v & m, p, draw(st.integers(min_value=-4, max_value=4))


@st.composite
def monomials(draw, n=None):
    n, *rest = draw(words(n))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return Monomial.zero(n)
    return Monomial(n, *rest)


@st.composite
def monomial_pairs(draw):
    a = draw(monomials())
    return a, draw(monomials(a.n))


def assert_canonical(mono):
    """`mono` is what the constructor makes of its own words, or the zero operator."""
    if mono.v < 0:
        assert mono == Monomial.zero(mono.n) and mono.is_zero() and plain(mono).is_zero()
        return
    assert mono.z & mono.m == 0 and mono.v & ~mono.m == 0 and 0 <= mono.p < 4
    again = Monomial(mono.n, mono.x, mono.z, mono.m, mono.v, mono.p, mono.e)
    assert mono == again and hash(mono) == hash(again)


@given(words())
def test_monomial_words_follow_the_definition(w):
    mono = Monomial(*w)
    assert_same(mono, matrix_of_words(*w))
    assert list(mono.nonzero_items()) == list(matrix_of_words(*w).nonzero_items())
    assert_canonical(mono)


@given(monomials())
def test_monomials_copy_and_pickle_as_their_words(mono):
    for copied in (copy.copy(mono), copy.deepcopy(mono), pickle.loads(pickle.dumps(mono))):
        assert type(copied) is Monomial and repr(copied) == repr(mono)
        assert_same(copied, plain(mono))


@given(monomial_pairs())
def test_monomial_product_agrees_with_matrix(pair):
    a, b = pair
    assert_word_result(a @ b, plain(a) @ plain(b))


@given(monomials(), st.integers(min_value=-5, max_value=5), st.integers(min_value=-4, max_value=4))
def test_monomial_scale_agrees_with_matrix(a, p, e):
    u = unit(p, e)
    want = plain(a).scale(u)
    assert_word_result(a.times_unit(p, e), want)
    assert_word_result(a.scale(u), want)
    assert_word_result(-a, -plain(a))
    for factor in (Scalar(3), Scalar(1, 1), ZERO):  # not units: the general path
        got = a.scale(factor)
        assert type(got) is Matrix and got == plain(a).scale(factor)


@given(monomials())
def test_monomial_transpose_and_listings(a):
    m = plain(a)
    assert_word_result(a.transpose(), m.transpose())
    assert_word_result(a.conj(), m.conj())
    assert_word_result(a.dagger(), m.conj().transpose())
    assert list(a.nonzero_items()) == list(m.nonzero_items()) == [
        (i, j, unit(q, a.e)) for i, j, q in a.row_items()
    ]
    assert a.is_zero() == m.is_zero()


@given(monomial_pairs(), st.integers(min_value=-5, max_value=5), st.integers(min_value=-4, max_value=4))
def test_monomial_results_are_normalised(pair, p, e):
    # two Monomials compare by their words, so every result must be canonical
    a, b = pair
    for m in (a @ b, a.times_unit(p, e), a.transpose(), a.dagger(), a @ a.transpose()):
        assert_canonical(m)


@given(monomial_pairs(), st.integers(min_value=0, max_value=3))
def test_monomial_sign_against_agrees_with_matrix(pair, p):
    a, b = pair
    for other in (b, a.times_unit(p)):
        m, n = plain(a), plain(other)
        assert a.sign_against(other) == (1 if m == n else -1 if m == -n else 0)


@given(monomials())
def test_monomial_square_sign_agrees_with_matrix(a):
    """square_sign reads the words; the definition squares the plain rows and compares with +-1."""
    square, one = plain(a) @ plain(a), Matrix.identity(a.nrows)
    assert a.square_sign() == (1 if square == one else -1 if square == -one else 0)


@given(monomials())
def test_monomial_symmetry_sign_agrees_with_matrix(a):
    """symmetry_sign reads the words; the definition transposes the plain rows and compares with +-a."""
    t = plain(a).transpose()
    assert a.symmetry_sign() == (1 if t == plain(a) else -1 if t == -plain(a) else 0)


@settings(max_examples=40, deadline=None)
@given(rep_configs(max_n=8), st.integers(0, 2**32))
def test_equal_matrices_hash_equal_whatever_their_type(config, seed):
    """A Monomial or an OuterProduct hashes like the plain Matrix of its rows."""
    rep, rng = build_representation(config), Random(seed)
    operators = [rep.gamma(a) for a in range(1, rep.N + 1)]
    operators += [rep.eps, rep.eps_alt, rep.kappa, rep.Gamma, rep.C, rep.pseudoscalar, Monomial.zero(rep.n_bits)]
    for k in range(1, rep.n_bits + 1):
        g, gb = rep.gamma_chiral(k), rep.gamma_chiral(k, barred=True)
        operators += [g, gb, g @ gb, -(gb @ g), g @ g]  # masked words and the zero word
    u, v = random_exact(rng, rep.dim, 1, 0.7), random_exact(rng, 1, rep.dim, 0.7)
    outers = [OuterProduct(u, v), rep.eps @ OuterProduct(u, v) @ rep.gamma(1), OuterProduct(u, v).transpose()]
    for m in operators + outers:
        assert m == plain(m) and hash(m) == hash(plain(m))
    assert hash(OuterProduct(Matrix.zeros(rep.dim, 1), v)) == hash(Matrix.zeros(rep.dim))


def test_hashing_an_operator_lists_no_row_at_any_n(monkeypatch):
    rep = build_representation(spacelike=64)
    g1, g2 = rep.gamma(1), rep.gamma(2)

    def listed(self):
        raise AssertionError("a row was listed")

    monkeypatch.setattr(Monomial, "row_items", listed)
    operators = {g1, g2, g1 @ g1 @ g1, g2 @ g1 @ g1}  # g1 squares to 1
    assert len(operators) == 2 and operators == {g1, g2}
    zero, g = Monomial.zero(rep.n_bits), rep.gamma_chiral(1)
    assert {zero, g @ g} == {zero} and len({g, g @ rep.gamma_chiral(1, barred=True)}) == 2


def test_monomial_equality_checks_the_shape():
    one = Monomial.identity(1)
    assert one == Matrix.identity(2) and Matrix.identity(2) == one
    assert one != Monomial.identity(2) and one != Matrix.identity(4) and one != Matrix.zeros(2, 1)
    assert one != Matrix.diagonal([ONE, ZERO]) and one != Matrix.identity(2).scale(I)
    assert (one == "identity") is False


def test_nilpotent_generators_square_to_the_zero_operator():
    rep = build_representation(spacelike=6)
    zero = Monomial.zero(rep.n_bits)
    for k in range(1, 4):
        for barred in (False, True):
            g = rep.gamma_chiral(k, barred)
            assert g @ g == zero
            assert (plain(g) @ plain(g)).is_zero()
            assert zero @ g == g @ zero == zero.transpose() == zero.dagger() == zero.times_unit(1, 1)
    assert list(zero.row_items()) == [] and list(zero.nonzero_items()) == []
    assert zero.is_zero() and zero == Matrix.zeros(rep.dim)
    assert zero.sign_against(zero) == 1 and zero.sign_against(Monomial.identity(rep.n_bits)) == 0


def test_paired_wedge_is_the_plane_bivector():
    rep = build_representation(spacelike=6)
    for k in range(1, 4):
        g, gb = rep.gamma_chiral(k), rep.gamma_chiral(k, barred=True)
        bivector = (rep.gamma_plus(k) @ rep.gamma_minus(k)).scale(-I)
        assert g @ gb - Matrix.identity(rep.dim) == bivector


def test_monomial_words_are_validated():
    for bad in (
        (2, 4, 0, 0, 0),  # x outside the two index bits
        (2, 0, 8, 0, 0),
        (2, -1, 0, 0, 0),
        (2, 0, 0, 1, 2),  # v not a submask of m
        (2, 0, 0, 0, -1),
        (-1, 0, 0, 0, 0),
    ):
        with pytest.raises(ValueError):
            Monomial(*bad)


# -- conjugation and element products against independent references ------------


def random_exact(rng, nrows, ncols, density=0.5):
    """An exact matrix whose entries have sqrt2 and i parts over 1..3, each nonzero with probability `density`."""
    return Matrix([[Scalar(rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-3, 3), rng.randint(-2, 2),
                           rng.choice((1, 2, 3))) if rng.random() < density else Scalar(0)
                    for _ in range(ncols)] for _ in range(nrows)])


def entrywise_conj(m):
    return Matrix([[s.conjugate() for s in r] for r in m.rows])


def dense_transpose(m):
    return Matrix([list(col) for col in zip(*m.rows)])


def conjugate_reference(rep, x, species):
    """C x*, the row (C psi*)^T eps of psi = eps x^T, or C x* C^dagger, from naive products of dense rows."""
    c = Matrix(rep.C.rows)
    if species == COLUMN:
        return naive_product(c, entrywise_conj(x))
    if species == ROW:
        eps = Matrix(rep.eps.rows)
        psi = naive_product(eps, dense_transpose(x))
        return naive_product(dense_transpose(naive_product(c, entrywise_conj(psi))), eps)
    return naive_product(naive_product(c, entrywise_conj(x)), dense_transpose(entrywise_conj(c)))


def shapes(rep):
    return {COLUMN: (rep.dim, 1), ROW: (1, rep.dim), MULTIVECTOR: (rep.dim, rep.dim)}


@pytest.mark.parametrize("odd_mode", (None, *ODD_MODES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_conjugation_equals_the_three_product_reference(odd_mode, data):
    rep = build_representation(data.draw(rep_configs(max_n=8, odd_mode=odd_mode)))
    rng = Random(data.draw(st.integers(0, 2**32)))
    for species, shape in shapes(rep).items():
        x = random_exact(rng, *shape)
        got = conjugate(rep, Element(species, x, rep)).payload
        assert got == conjugate_reference(rep, x, species)
        if rep.dim > 1:  # a Matrix is read by its shape
            assert conjugate(rep, x) == got
        assert type(got) is not Monomial


@pytest.mark.parametrize("odd_mode", (None, *ODD_MODES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_conjugation_is_multiplicative_and_squares_to_the_symmetry_sign(odd_mode, data):
    rep = build_representation(data.draw(rep_configs(max_n=8, odd_mode=odd_mode)))
    rng = Random(data.draw(st.integers(0, 2**32)))
    a, b, psi, row = (Element(species, random_exact(rng, *shapes(rep)[species]), rep)
                      for species in (MULTIVECTOR, MULTIVECTOR, COLUMN, ROW))

    def conj(x):
        return conjugate(rep, x)

    for x, y in ((a, b), (a, psi), (row, a)):
        assert conj(multiply(x, y)) == multiply(conj(x), conj(y))
    c = rep.C
    sign = c.transpose().sign_against(c)  # C^T = +-C
    assert sign in (1, -1)
    assert conj(conj(psi)) == psi.scale(sign)
    assert conj(conj(row)) == row.scale(sign)
    assert conj(conj(a)) == a


PRODUCT_SPECIES = (
    *((SCALAR, s) for s in (SCALAR, COLUMN, ROW, MULTIVECTOR)),
    *((s, SCALAR) for s in (COLUMN, ROW, MULTIVECTOR)),
    (ROW, COLUMN), (COLUMN, ROW), (MULTIVECTOR, MULTIVECTOR), (MULTIVECTOR, COLUMN), (ROW, MULTIVECTOR),
)


def random_element(rep, rng, species):
    if species == SCALAR:
        return Element.scalar(rep, random_exact(rng, 1, 1, density=1)[0, 0])
    return Element(species, random_exact(rng, *shapes(rep)[species]), rep)


def as_numpy(x):
    return np.array(x.payload.to_complex()) if x.species == SCALAR else x.payload.to_numpy()


@pytest.mark.parametrize("odd_mode", (None, *ODD_MODES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_element_products_and_scaling_match_numpy(odd_mode, data):
    rep = build_representation(data.draw(rep_configs(max_n=8, odd_mode=odd_mode)))
    rng = Random(data.draw(st.integers(0, 2**32)))
    for pair in PRODUCT_SPECIES:
        x, y = (random_element(rep, rng, s) for s in pair)
        got = multiply(x, y)
        want = as_numpy(x) * as_numpy(y) if SCALAR in pair else as_numpy(x) @ as_numpy(y)
        assert np.allclose(as_numpy(got), want, rtol=0, atol=1e-9), pair
    for factor in (Scalar(1, 1, 0, 0, 3), Scalar(2, -1, 1, 1, 5)):  # (1 + sqrt2)/3 and another non-unit
        for species in (COLUMN, ROW, MULTIVECTOR):
            x = random_element(rep, rng, species)
            got = x.scale(factor)
            assert np.allclose(as_numpy(got), factor.to_complex() * as_numpy(x), rtol=0, atol=1e-9)


# -- the Clifford relations ------------------------------------------------------


def algebra_axes(rep):
    """(operator, square) of the vector of each axis 1..N."""
    return [(rep.gamma(a), -1 if rep.signature.is_timelike(a) else 1) for a in range(1, rep.N + 1)]


def plane_axes(rep):
    """(operator, square) of the two vectors of each plane, as ``plane_vectors`` gives them.

    Each is gamma_plus(k) or gamma_minus(k), times i or not, and is the
    vector of an algebra axis, whose square it takes, or else the scalar
    dimension of an embed odd mode, which squares to 1.  Every axis but
    the projected mode's final vector (the chiral operator) is met once.
    """
    axes = algebra_axes(rep)
    out, met = [], 0
    for k in range(1, rep.n_bits + 1):
        for g, v in zip((rep.gamma_plus(k), rep.gamma_minus(k)), rep.plane_vectors(k)):
            assert v in (g, g.times_unit(1)), k
            squares = [square for a, square in axes if a == v]
            if squares:
                met += 1
            else:
                assert v == rep.scalar_axis_matrix, k
            out.append((v, squares[0] if squares else 1))
    assert met == rep.N - (rep.odd_mode == "project")
    return out


@settings(max_examples=40, deadline=None)
@given(rep_configs(max_n=64))
def test_the_axis_words_satisfy_the_clifford_relations(config):
    """g_a g_b + g_b g_a = 2 eta_ab: each vector squares to its eta, and distinct vectors anticommute."""
    rep = build_representation(config)
    one = Monomial.identity(rep.n_bits)
    for axes in (algebra_axes(rep), plane_axes(rep)):
        for (a, (ga, square)), (b, (gb, _)) in combinations_with_replacement(enumerate(axes), 2):
            if a == b:
                assert ga @ ga == (one if square == 1 else -one), a
            else:
                assert ga @ gb == -(gb @ ga), (a, b)


@settings(max_examples=25, deadline=None)
@given(rep_configs(max_n=10))
def test_the_axis_matrices_satisfy_the_clifford_relations(config):
    rep = build_representation(config)
    ident = Matrix.identity(rep.dim)
    for axes in (algebra_axes(rep), plane_axes(rep)):
        dense = [(plain(op), square) for op, square in axes]  # products on the general kernel
        for (a, (ga, square)), (b, (gb, _)) in combinations_with_replacement(enumerate(dense), 2):
            assert ga @ gb + gb @ ga == ident.scale(2 * square if a == b else 0), (a, b)


@settings(max_examples=30, deadline=None)
@given(rep_configs(max_n=10))
def test_quarter_turn_rotors_preserve_the_metric_on_dense_matrices(config):
    """R^T eps R = eps for every quarter-turn rotor of a rotation plane, on plain copies of R and eps.

    A boost has no exact quarter turn, and a plane that holds the scalar
    dimension of an embed odd mode is not a rotation plane of the algebra.
    """
    rep = build_representation(config)
    eps = plain(rep.eps)
    scalar = rep.scalar_axis_matrix
    for k in range(1, rep.n_bits + 1):
        if rep.plane_is_boost(k):
            continue
        if scalar in rep.plane_vectors(k):
            continue
        for quarters in range(4):
            rotor = plane_rotor(rep, k, quarters=quarters)
            r = plain(rotor.matrix)
            assert r.transpose() @ eps @ r == eps, (k, quarters)
            assert metric_preserved(rep, rotor)


# -- the factored outer product against its rows ---------------------------------


def assert_fast_paths_match_the_rows(rep, rng, outer):
    rows = plain(outer)
    assert rows == naive_product(outer.u, outer.v)
    assert_same(outer, rows)
    factor = Scalar(1, 1, 0, 0, 3)  # (1 + sqrt2)/3
    for got, want in (
        (-outer, -rows),
        (outer.scale(factor), rows.scale(factor)),
        (outer.scale(-1), -rows),
        (outer.scale(0), Matrix.zeros(rep.dim)),
        (outer.scale(I), rows.scale(I)),
        (outer.transpose(), rows.transpose()),
        (outer.conj(), rows.conj()),
        (outer.dagger(), rows.dagger()),
        (conjugate(rep, Element.multivector(rep, outer)).payload,
         conjugate(rep, Element.multivector(rep, rows)).payload),
    ):
        assert_same(got, want)
    assert outer.trace() == rows.trace()
    assert outer.is_zero() == rows.is_zero()
    other = OuterProduct(random_exact(rng, rep.dim, 1, 0.7), random_exact(rng, 1, rep.dim, 0.7))
    dense = random_exact(rng, rep.dim, rep.dim)
    for op in (dense, rep.C, rep.gamma(1), other):
        assert_same(outer @ op, rows @ plain(op))
        assert_same(op @ outer, plain(op) @ rows)
    column, row = random_exact(rng, rep.dim, 1), random_exact(rng, 1, rep.dim)
    assert_same(outer @ column, rows @ column)
    assert_same(row @ outer, row @ rows)
    twin = OuterProduct(outer.u.scale(2), outer.v.scale(HALF))  # equal, from other factors
    assert_same(twin, rows)
    assert outer == twin and twin == outer
    variants = [OuterProduct(outer.u, outer.v.scale(2)), OuterProduct(outer.u.scale(I), outer.v), other, -outer]
    if rep.dim > 1 and not outer.is_zero():  # the twin changed in one entry off the pivot row or column
        i = next(i for i, _, _ in outer.u.nonzero_items())
        j = next(j for _, j, _ in outer.v.nonzero_items())
        variants.append(OuterProduct(twin.u + Matrix.unit_column(rep.dim, (i + 1) % rep.dim), twin.v))
        variants.append(OuterProduct(twin.u, twin.v + Matrix.unit_column(rep.dim, (j + 1) % rep.dim).transpose()))
        # the twin without the pivot-row entry of u, so its row i is zero
        variants.append(OuterProduct(Matrix({k: r for k, r in twin.u.sparse_rows.items() if k != i}, rep.dim, 1), twin.v))
    for changed in variants:
        want = plain(changed) == rows
        assert (outer == changed) == want and (changed == outer) == want


@pytest.mark.parametrize("odd_mode", (None, *ODD_MODES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_outer_product_fast_paths_match_its_rows(odd_mode, data):
    rep = build_representation(data.draw(rep_configs(max_n=8, odd_mode=odd_mode)))
    rng = Random(data.draw(st.integers(0, 2**32)))
    dim = rep.dim
    u, v = random_exact(rng, dim, 1, 0.7), random_exact(rng, 1, dim, 0.7)
    product = u @ v
    factored = sum(1 for _ in u.nonzero_items()) > 1 and sum(1 for _ in v.nonzero_items()) > 1
    assert isinstance(product, OuterProduct) == factored  # two nonzeros or more in each factor
    assert_same(product, naive_product(u, v))
    for copied in (copy.copy(product), copy.deepcopy(product), pickle.loads(pickle.dumps(product))):
        assert type(copied) is type(product)
        assert_same(copied, naive_product(u, v))
    assert_fast_paths_match_the_rows(rep, rng, OuterProduct(u, v))
    for zero in (OuterProduct(Matrix.zeros(dim, 1), v), OuterProduct(u, Matrix.zeros(1, dim))):
        assert zero.is_zero() and zero.trace() == ZERO
        assert zero == Matrix.zeros(dim) and zero == OuterProduct(Matrix.zeros(dim, 1), Matrix.zeros(1, dim))
        assert (zero == OuterProduct(u, v)) == naive_product(u, v).is_zero()
        assert_fast_paths_match_the_rows(rep, rng, zero)
    # factors that both differ: equality is that of the materialised rows, also off by a sign or one entry
    outer, factor = OuterProduct(u, v), Scalar(1, 1, 0, 0, 3)
    changed_entry = v + Matrix.unit_column(dim, dim - 1).transpose()
    for a, b in ((u.scale(2), v.scale(HALF)), (u.scale(2), v.scale(-HALF)), (u.scale(I), v.scale(-I)),
                 (u.scale(SQRT2), v.scale(SQRT2 * HALF)), (u.scale(factor), v.scale(factor)),
                 (u.scale(-ONE), changed_entry.scale(-ONE)), (u.scale(HALF), changed_entry.scale(2))):
        other = OuterProduct(a, b)
        want = Matrix.__eq__(plain(other), plain(outer))
        assert (other == outer) == want and (outer == other) == want
