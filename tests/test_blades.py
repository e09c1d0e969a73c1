"""Blade dictionary: coefficients, decompositions, projectors, round trips."""

import re
from itertools import combinations
from random import Random

import pytest

from sga import blades, matrices
from sga.bitcodes import Bitcode, all_bitcodes
from sga.blades import (
    CHIRAL,
    BladeIndex,
    all_chiral_blades,
    blade_coefficient,
    blade_matrix,
    chiral_project,
    chiral_projector,
    decompose_multivector,
    gamma_coefficients,
    raised_blade_matrix,
    reconstruct_from_blades,
    reconstruct_from_outer,
    spinor_outer_decompose,
    verify_isomorphism,
)
from sga.elements import outer_product, scalar_product
from sga.matrices import Matrix, Monomial
from sga.representation import METRIC_CHOICES, ODD_MODES, RepConfig, Signature, build_representation
from sga.scalars import HALF, I, ONE, SQRT2, ZERO, Scalar
from sga.suites import random_multivector, random_spinor


def rep_for(k, m=0, **kw):
    return build_representation(RepConfig(Signature(spacelike=k, timelike=m), **kw))


def metric_column_map(rep):
    """For each bitcode b, the (column, sign) of the single nonzero of e_b. , from the metric read-off the blades use."""
    out = {}
    for b in all_bitcodes(rep.n_bits):
        [(_, col, sign)] = blades._outer_keys(rep, [(0, b.index(), ONE)], False)
        out[b] = col, sign
    return out


def outer_basis_matrix(rep, a, b):
    """The matrix e_a e_b. (single nonzero entry)."""
    return outer_product(rep, rep.basis_spinor(a), rep.basis_spinor(b)).payload


def canonicalize(factors):
    """Sort generator factors, tracking the permutation sign."""
    items = list(factors)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            raise ValueError("repeated generator in blade")
    return tuple(items), sign


def test_canonicalize_tracks_the_sign():
    factors, sign = canonicalize([(2, False), (1, False)])
    assert factors == ((1, False), (2, False)) and sign == -1
    factors, sign = canonicalize([(1, True), (1, False)])
    assert factors == ((1, False), (1, True)) and sign == -1
    with pytest.raises(ValueError):
        canonicalize([(1, False), (1, False)])


def test_blade_index_validation():
    with pytest.raises(ValueError):
        BladeIndex(CHIRAL, ((2, False), (1, False)))  # out of order
    blade = BladeIndex(CHIRAL, ((1, False), (1, True)))
    assert blade.grade == 2
    assert blade.reversal_sign() == -1
    assert blade.label() == "g1^g1bar"
    assert BladeIndex(CHIRAL, ()).label() == "unit"


def test_pair_blade_is_diagonal():
    rep = rep_for(2)
    blade = BladeIndex(CHIRAL, ((1, False), (1, True)))
    assert blade_matrix(rep, blade) == Matrix.diagonal([ONE, -ONE])


def test_blade_matrices_multiply_like_generators():
    rep = rep_for(6)
    rng = Random(3)
    blades = all_chiral_blades(rep)
    # blades on disjoint planes cannot contract, so the wedge is the product
    for _ in range(40):
        a = rng.choice(blades)
        b = rng.choice(blades)
        if {k for k, _ in a.factors} & {k for k, _ in b.factors}:
            continue
        merged, sign = canonicalize(a.factors + b.factors)
        got = blade_matrix(rep, a) @ blade_matrix(rep, b)
        want = blade_matrix(rep, BladeIndex(CHIRAL, merged)).scale(Scalar(sign))
        assert got == want


def test_all_chiral_blades_is_a_fresh_list_of_the_canonical_blades():
    """Each call returns a new list, by grade and then factor order, of one set of shared frozen blades."""
    gens = [(k, barred) for k in (1, 2, 3) for barred in (False, True)]
    want = [BladeIndex(CHIRAL, combo) for p in range(7) for combo in combinations(gens, p)]
    first = all_chiral_blades(rep_for(6))
    assert first == want and len(set(first)) == 64
    first.reverse()
    second = all_chiral_blades(rep_for(6, metric="alternative"))
    assert second == want and second is not first
    assert all(a is b for a, b in zip(second, reversed(first)))


def test_each_chiral_blade_index_is_built_once(monkeypatch):
    """With both caches cleared, the 4**6 blades on six planes make 4**6 BladeIndex checks, not two per blade."""
    rep = rep_for(12)
    first = all_chiral_blades(rep)
    built, post_init = [], BladeIndex.__post_init__
    monkeypatch.setattr(BladeIndex, "__post_init__", lambda blade: built.append(1) or post_init(blade))
    blades._chiral_blades.cache_clear()
    blades._blade_of_bits.cache_clear()
    assert all_chiral_blades(rep) == first
    assert len(built) == 4 ** 6


def test_metric_column_map_signs():
    """The map describes the single nonzero of each metric-dressed row spinor, for every metric and odd mode."""
    checked = 0
    for n in range(1, 11):
        for odd_mode in ODD_MODES if n % 2 else ("project",):
            for metric in METRIC_CHOICES:
                try:
                    rep = rep_for(n, metric=metric, odd_mode=odd_mode)
                except ValueError:
                    continue  # a primed metric outside its embed mode
                checked += 1
                for b, (col, sign) in metric_column_map(rep).items():
                    row = rep.basis_spinor(b).transpose() @ rep.eps
                    entries = [ZERO] * rep.dim
                    entries[col] = sign
                    assert row == Matrix([entries]), (n, metric, odd_mode, str(b))
                    if rep.odd_mode in (None, "project"):
                        assert col == rep.spinor_index(b.flip())
    assert checked == 5 * 2 + 5 * 8  # even N: two metrics; odd N: two projected, three per embed mode


def test_unit_blade_coefficient_is_half_metric():
    rep = rep_for(2)
    unit = BladeIndex(CHIRAL, ())
    for a in all_bitcodes(1):
        for b in all_bitcodes(1):
            upper, _ = gamma_coefficients(rep, unit, a, b)
            eps_ba = scalar_product(rep, rep.basis_spinor(b), rep.basis_spinor(a))
            assert upper == eps_ba * HALF


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("metric", ["standard", "alternative"])
def test_coefficients_invert_each_other(n, metric):
    """Both directions of the coefficient pair reproduce the objects exactly."""
    rep = rep_for(n, metric=metric)
    codes = all_bitcodes(rep.n_bits)
    blades = all_chiral_blades(rep)
    for a in codes:
        for b in codes:
            target = outer_basis_matrix(rep, a, b)
            acc = Matrix.zeros(rep.dim)
            for blade in blades:
                upper, _ = gamma_coefficients(rep, blade, a, b)
                if not upper.is_zero():
                    acc = acc + blade_matrix(rep, blade).scale(upper)
            assert acc == target
    for blade in blades:
        target = blade_matrix(rep, blade)
        acc = Matrix.zeros(rep.dim)
        for a in codes:
            for b in codes:
                _, lower = gamma_coefficients(rep, blade, a, b)
                if not lower.is_zero():
                    acc = acc + outer_basis_matrix(rep, a, b).scale(lower)
        assert acc == target


def test_decompose_examples():
    rep = rep_for(2)
    unit = BladeIndex(CHIRAL, ())
    coeffs = decompose_multivector(rep, Matrix.identity(2))
    assert coeffs == {unit: ONE}
    coeffs = decompose_multivector(rep, Matrix([[ZERO, SQRT2], [ZERO, ZERO]]))
    assert coeffs == {BladeIndex(CHIRAL, ((1, False),)): ONE}

    rep4 = rep_for(4)
    half_plus = (Matrix.identity(4) + rep4.kappa).scale(HALF)
    coeffs = decompose_multivector(rep4, half_plus)
    assert reconstruct_from_blades(rep4, coeffs) == half_plus
    full_pair = BladeIndex(
        CHIRAL, ((1, False), (1, True), (2, False), (2, True))
    )
    assert coeffs[BladeIndex(CHIRAL, ())] == HALF
    assert full_pair in coeffs


def test_decompose_agrees_with_coefficient_formula():
    """The transform, the trace route and the metric-pairing route agree on random matrices."""
    rng = Random(17)
    for metric in ("standard", "alternative"):
        rep = rep_for(4, metric=metric)
        for _ in range(5):
            m = random_multivector(rep, rng)
            by_trace = {b: c for b in all_chiral_blades(rep) if (c := blade_coefficient(rep, b, m))}
            assert decompose_multivector(rep, m) == by_trace
            outer = spinor_outer_decompose(rep, m)
            for blade in all_chiral_blades(rep):
                acc = ZERO
                for (a, b), c in outer.items():
                    upper, _ = gamma_coefficients(rep, blade, a, b)
                    acc = acc + c * upper
                assert acc == by_trace.get(blade, ZERO)


def test_the_transform_builds_no_blade_and_reads_no_trace(monkeypatch):
    """Decomposing and rebuilding a dense N=12 matrix builds no blade monomial and calls no trace formula."""
    rep = build_representation(RepConfig(Signature(spacelike=12)))
    rng = Random(43)
    m = Matrix([[Scalar(rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(-2, 2), 0, rng.choice((1, 2)))
                 for _ in range(64)] for _ in range(64)])
    calls = []
    monkeypatch.setattr(blades, "blade_coefficient", lambda *args: calls.append(args))
    coeffs = decompose_multivector(rep, m)
    assert reconstruct_from_blades(rep, coeffs) == m
    assert not calls and not rep._blade_cache
    blades.blade_coefficient(rep, BladeIndex(CHIRAL, ()), m)
    assert len(calls) == 1  # the count sees a call


def test_reconstruct_refuses_a_plane_above_the_representation():
    rep = rep_for(4)
    for blade in (BladeIndex(CHIRAL, ((3, False),)), BladeIndex(CHIRAL, ((1, False), (5, True)))):
        with pytest.raises(ValueError, match="plane above 2"):
            reconstruct_from_blades(rep, {blade: ONE})
    top = BladeIndex(CHIRAL, ((2, False), (2, True)))
    assert reconstruct_from_blades(rep, {top: ONE}) == blade_matrix(rep, top)


def test_spinor_outer_round_trip_random():
    rng = Random(23)
    rep = rep_for(4)
    for _ in range(10):
        m = random_multivector(rep, rng)
        assert reconstruct_from_outer(rep, spinor_outer_decompose(rep, m)) == m
        assert (
            reconstruct_from_blades(rep, decompose_multivector(rep, m)) == m
        )


def test_outer_decompose_single_entry():
    rep = rep_for(3)
    down, up = all_bitcodes(1)[1], all_bitcodes(1)[0]
    m = outer_basis_matrix(rep, down, up)
    assert spinor_outer_decompose(rep, m) == {(down, up): ONE}


def test_triplet_outer_coefficients():
    # the symmetric (u, d) outer pair carries the third vector with weight -1
    rep = rep_for(3)
    coeffs = spinor_outer_decompose(rep, -rep.gamma(3))
    up, down = all_bitcodes(1)
    assert coeffs[(up, down)] == ONE and coeffs[(down, up)] == ONE


def test_trace_outer(subtests=None):
    """The trace of an outer product's payload is the scalar product: Tr(chi psi.) = psi . chi."""
    rng = Random(29)
    rep = rep_for(3)
    for _ in range(20):
        psi = random_spinor(rep, rng)
        chi = random_spinor(rep, rng)
        assert outer_product(rep, chi, psi).payload.trace() == scalar_product(rep, psi, chi)
    assert Matrix.identity(8).trace() == Scalar(8)


def test_projected_odd_quotient():
    """With the chiral operator set to one, the final vector lands on the full pair blade."""
    rep = rep_for(3)
    coeffs = decompose_multivector(rep, rep.gamma(3))
    assert coeffs == {BladeIndex(CHIRAL, ((1, False), (1, True))): ONE}
    report = verify_isomorphism(rep)
    assert not report["failures"]
    assert report["blades_checked"] == 4  # the quotient basis in one lower dimension


def test_chiral_projectors():
    rep = rep_for(4)
    pr = chiral_projector(rep, "right")
    pl = chiral_projector(rep, "left")
    ident = Matrix.identity(4)
    assert pr + pl == ident
    assert (pr @ pl).is_zero()
    # they are idempotents, not involutions
    assert pr @ pr == pr and pl @ pl == pl
    assert pr @ pr != ident

    rng = Random(31)
    m = random_multivector(rep, rng)
    assert chiral_project(rep, m, "right") + chiral_project(rep, m, "left") == m

    dd = rep.basis_spinor(Bitcode.from_string("dd"))
    uu = rep.basis_spinor(Bitcode.from_string("uu"))
    singlet = (
        outer_product(rep, dd, uu).payload - outer_product(rep, uu, dd).payload
    )
    assert pr == singlet

    with pytest.raises(ValueError):
        chiral_projector(rep_for(3), "right")
    assert chiral_projector(rep_for(3, odd_mode="embed_scalar_n_plus_1"), "right") is not None


def test_chiral_projector_names_its_handedness():
    rep = rep_for(4)
    right, left = chiral_projector(rep, "right"), chiral_projector(rep, "left")
    assert right == (Matrix.identity(4) + rep.kappa).scale(HALF) and left == Matrix.identity(4) - right
    for names, want in ((("R", "+", 1), right), (("L", "-", -1), left)):
        for h in names:
            assert chiral_projector(rep, h) == want, h
    for bad in ("rigth", "", "r", 0, 2, None):
        with pytest.raises(ValueError, match="unknown handedness"):
            chiral_projector(rep, bad)


def test_outer_products_grade_by_column_chirality():
    rep = rep_for(4)
    rng = Random(37)
    pr = chiral_projector(rep, "right")
    right = rep.basis_spinor(Bitcode.from_string("uu"))
    for _ in range(5):
        psi = random_spinor(rep, rng)
        m = outer_product(rep, right, psi).payload
        assert pr @ m == m
    # a right-handed multivector is a blade plus its dual: two-blade support
    blade = blade_matrix(rep, BladeIndex(CHIRAL, ((1, False),)))
    projected = chiral_project(rep, blade, "right")
    coeffs = decompose_multivector(rep, projected)
    assert len(coeffs) == 2
    grades = sorted(b.grade for b in coeffs)
    assert grades == [1, 3]


def test_raised_blade_cache_consistency():
    rep = rep_for(4)
    blade = BladeIndex(CHIRAL, ((1, False), (2, True)))
    raised = raised_blade_matrix(rep, blade)
    # pairing normalisation: trace(raised @ blade) = dim
    assert (raised @ blade_matrix(rep, blade)).trace() == Scalar(rep.dim)
    # and the pairing annihilates every other blade
    for other in all_chiral_blades(rep):
        if other != blade:
            assert (raised @ blade_matrix(rep, other)).trace().is_zero()


def test_verify_isomorphism_small():
    for n in (2, 4):
        for metric in ("standard", "alternative"):
            report = verify_isomorphism(rep_for(n, metric=metric))
            assert not report["failures"]
            assert report["blades_checked"] == 2 ** n
            assert report["outer_checked"] == 4 ** (n // 2)


def test_embedded_isomorphism():
    report = verify_isomorphism(rep_for(3, odd_mode="embed_scalar_n_plus_1"))
    assert not report["failures"]
    assert report["blades_checked"] == 16


def test_verify_isomorphism_builds_each_spinor_once(monkeypatch):
    """On N=6 the outer leg builds dim columns and dim rows, and its products are the basis outer products."""
    rep = rep_for(6)
    calls = []
    products = []
    basis_spinor, row_of, multiply = rep.basis_spinor, blades.row_of, blades.multiply
    monkeypatch.setattr(rep, "basis_spinor", lambda b: calls.append(b) or basis_spinor(b))
    monkeypatch.setattr(blades, "row_of", lambda r, psi: calls.append(psi) or row_of(r, psi))
    monkeypatch.setattr(blades, "multiply", lambda x, y: products.append(multiply(x, y)) or products[-1])
    assert not verify_isomorphism(rep)["failures"]
    assert len(calls) <= 2 * rep.dim
    codes = all_bitcodes(rep.n_bits)
    assert len(products) == rep.dim ** 2
    for k, product in enumerate(products):
        a, b = codes[k // rep.dim], codes[k % rep.dim]
        assert product.payload == outer_basis_matrix(rep, a, b), (str(a), str(b))


@pytest.mark.parametrize("n", [18, 40])
def test_outer_round_trip_at_large_n(monkeypatch, n):
    """A three-entry matrix goes to outer coefficients and back without listing a dim-sized map or the bitcodes."""
    monkeypatch.delenv("SGA_MAX_DIM", raising=False)
    made = []
    from_index = Bitcode.from_index
    monkeypatch.setattr(Bitcode, "from_index", staticmethod(lambda i, bits: made.append(i) or from_index(i, bits)))
    for metric in ("standard", "alternative"):
        rep = rep_for(n - 1, 1, metric=metric)
        top = rep.dim - 1
        m = Matrix.from_items(rep.dim, rep.dim, [(0, top, ONE), (top, 5, -SQRT2), (top // 3, top // 7, HALF * I)])
        coeffs = spinor_outer_decompose(rep, m)
        assert len(coeffs) == 3 and all(len(a) == len(b) == rep.n_bits for a, b in coeffs)
        assert reconstruct_from_outer(rep, coeffs) == m
    assert len(made) <= 2 * 2 * 3  # the row and column codes of three entries, per metric


def test_outer_dictionary_rejects_wrong_lengths():
    rep = rep_for(4)
    up = Bitcode.from_string("ud")
    for short in (Bitcode.from_string("u"), Bitcode.from_string("udu")):
        for key in ((short, up), (up, short)):
            with pytest.raises(ValueError, match="does not match 2 planes"):
                reconstruct_from_outer(rep, {key: ONE})
    with pytest.raises(ValueError, match="dimension"):
        spinor_outer_decompose(rep, Matrix.identity(2))
    assert reconstruct_from_outer(rep, {(up, up): ONE}) == outer_basis_matrix(rep, up, up)


# -- the batched round trip against the per-element one ------------------------------


def per_element_verify(rep):
    """The Brauer-Weyl round trip one basis element at a time, through the public dictionary alone."""
    failures = []
    blades = all_chiral_blades(rep)
    for blade in blades:
        m = blade_matrix(rep, blade)
        if reconstruct_from_outer(rep, spinor_outer_decompose(rep, m)) != m:
            failures.append(f"blade {blade.label()} failed the outer round trip")
        if decompose_multivector(rep, m) != {blade: ONE}:
            failures.append(f"blade {blade.label()} does not decompose to itself")
    codes = all_bitcodes(rep.n_bits)
    for a in codes:
        for b in codes:
            m = outer_basis_matrix(rep, a, b)
            if reconstruct_from_blades(rep, decompose_multivector(rep, m)) != m:
                failures.append(f"outer product ({a}, {b}) failed the blade round trip")
    return {"dim": rep.dim, "blades_checked": len(blades), "outer_checked": rep.dim ** 2, "failures": failures}


REFERENCE_CONFIGS = (
    [(n, metric, "project") for n in range(1, 9) for metric in ("standard", "alternative")]
    + [(n, metric, mode) for n in (1, 3, 5, 7) for metric, mode in (
        ("standard", "embed_scalar_n"), ("alternative", "embed_scalar_n"), ("prime_standard", "embed_scalar_n"),
        ("standard", "embed_scalar_n_plus_1"), ("alternative", "embed_scalar_n_plus_1"),
        ("prime_alternative", "embed_scalar_n_plus_1"),
    )]
)


@pytest.mark.parametrize("n, metric, odd_mode", REFERENCE_CONFIGS)
def test_verify_isomorphism_equals_the_per_element_round_trip(n, metric, odd_mode):
    rep = rep_for(n - n // 3, n // 3, metric=metric, odd_mode=odd_mode)
    report = verify_isomorphism(rep)
    assert report == per_element_verify(rep)
    assert not report["failures"]


def faulty_outer_keys(outer_keys):
    """The metric read-off with the sign of outer index 1 flipped on the way back."""
    def faulty(rep, items, forward):
        if not forward:
            items = ((i, j, -value if j == 1 else value) for i, j, value in items)
        return outer_keys(rep, items, forward)
    return faulty


def faulty_unpacked(unpacked):
    """The unpacking, with every value at an odd power of sqrt2 doubled."""
    def faulty(v, width, den, e):
        s = unpacked(v, width, den, e)
        return s + s if e & 1 else s
    return faulty


@pytest.mark.parametrize("n, metric, odd_mode", [
    (2, "standard", "project"), (4, "alternative", "project"), (5, "standard", "project"),
    (5, "prime_standard", "embed_scalar_n"), (6, "standard", "project"), (8, "alternative", "project"),
])
def test_injected_faults_give_the_per_element_failures_in_order(monkeypatch, n, metric, odd_mode):
    """A flipped metric sign and a corrupted unpacked value fail the same blades and products, in the same order."""
    monkeypatch.setattr(blades, "_outer_keys", faulty_outer_keys(blades._outer_keys))
    monkeypatch.setattr(blades, "_unpacked", faulty_unpacked(blades._unpacked))
    rep = rep_for(n, metric=metric, odd_mode=odd_mode)
    report = verify_isomorphism(rep)
    assert report == per_element_verify(rep)
    failures = report["failures"]
    for kind, checked in (("failed the outer round trip", "blades_checked"),
                          ("does not decompose to itself", "blades_checked"),
                          ("failed the blade round trip", "outer_checked")):
        assert 0 < sum(kind in f for f in failures) < report[checked], kind
    assert any("outer round trip" in f and "itself" in g for f, g in zip(failures, failures[1:]))


def extra_entries(rep, t, m):
    """Entries to add to outer product t, whose one entry is m's: for t = 1 mod 3 a second entry, 2, in another
    coset of its diagonal; for t = 2 mod 3 a second entry, i/sqrt2, on another diagonal."""
    [(i, j, _)] = m.nonzero_items()
    x = i ^ j
    if t % 3 == 1 and x:  # diagonal x has a second coset r & x
        i2 = i ^ (x & -x)
        return [(i2, i2 ^ x, Scalar(2))]
    if t % 3 == 2:
        return [(i, j ^ 1 if t % 2 else j ^ (rep.dim - 1), HALF * I * SQRT2)]
    return []


@pytest.mark.parametrize("n, metric", [(4, "standard"), (6, "alternative"), (8, "standard")])
@pytest.mark.parametrize("faulty", [False, True])
def test_the_shared_lanes_never_mix_products(monkeypatch, n, metric, faulty):
    """Outer products that gain entries in other cosets and on other diagonals fail as each alone fails, in order."""
    rep = rep_for(n, metric=metric)
    if faulty:
        monkeypatch.setattr(blades, "_unpacked", faulty_unpacked(blades._unpacked))
    products, multiply = [], blades.multiply

    def widened(column, row):
        p = multiply(column, row)
        m = p.payload
        m = Matrix.from_items(rep.dim, rep.dim, list(m.nonzero_items()) + extra_entries(rep, len(products), m))
        products.append(m)
        return type(p)(p.species, m, p.rep)

    monkeypatch.setattr(blades, "multiply", widened)
    failures = verify_isomorphism(rep)["failures"]
    assert len(products) == rep.dim ** 2
    spans = [(len(m.sparse_rows), len({i ^ j for i, j, _ in m.nonzero_items()})) for m in products]
    assert (2, 1) in spans and (1, 2) in spans  # a second coset of one diagonal, and a second diagonal
    codes = all_bitcodes(rep.n_bits)
    alone = [f"outer product ({codes[t // rep.dim]}, {codes[t % rep.dim]}) failed the blade round trip"
             for t, m in enumerate(products) if reconstruct_from_blades(rep, decompose_multivector(rep, m)) != m]
    assert [f for f in failures if f.startswith("outer product")] == alone
    assert (0 < len(alone) < len(products)) if faulty else not failures


def random_element(rng, n, count):
    """Up to `count` nonzero {(r, c): Scalar} entries on n bits; at a repeated position the last value is kept."""
    entries = {(rng.randrange(1 << n), rng.randrange(1 << n)): Scalar(
        rng.randint(-3, 3), rng.randint(-2, 2), rng.randint(-3, 3), rng.randint(-1, 1), rng.choice((1, 2, 3)))
        for _ in range(count)}
    return {key: s for key, s in entries.items() if not s.is_zero()}


def assert_each_element_alone(n, elements, forward):
    """Several elements transform in one call as each does alone, though their lanes share one int per position."""
    assert blades._plane_transform(n, elements, forward) == [
        blades._plane_transform(n, [element], forward)[0] for element in elements]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("forward", [True, False])
def test_the_lanes_never_carry(n, forward):
    """Random elements, a full diagonal of wide values, and negative slots next to zero slots."""
    rng = Random(97 + 2 * n + forward)
    for _ in range(4):
        elements = [random_element(rng, n, rng.randint(0, 2 ** n)) for _ in range(rng.randint(1, 9))]
        diagonal = rng.randrange(1 << n)  # and one batch on a single diagonal, as the round trip runs it
        elements.append({(r, r ^ diagonal): s for (r, _), s in random_element(rng, n, 2 ** n).items()})
        assert_each_element_alone(n, elements, forward)

    # 2**n elements filling one diagonal, numerators up to 2**70 over denominators up to 10**6
    big, dens = 2 ** 70, [1] + [rng.randint(2, 10 ** 6) for _ in range(3)]
    diagonal = rng.randrange(1 << n)
    full = [{(r, r ^ diagonal): Scalar(*(rng.randint(-big, big) for _ in range(4)), rng.choice(dens))
             for r in range(2 ** n)} for _ in range(2 ** n)]
    assert_each_element_alone(n, full, forward)

    # constant negative elements, whose transforms are zero at most positions, between empty ones
    top = Scalar(-big, -big, -big, -big, dens[-1])
    signs = [{(r, r ^ diagonal): top for r in range(2 ** n)}, {}, {(r, r ^ diagonal): -ONE for r in range(2 ** n)},
             {}, {}, {(0, diagonal): -HALF}, {(r, r ^ diagonal): top for r in range(0, 2 ** n, 2)}]
    assert_each_element_alone(n, signs, forward)


def test_verify_isomorphism_runs_one_transform_per_diagonal(monkeypatch):
    """On N=8 the round trip runs the shared core 3 * 2**n times, once per diagonal for the blades and twice for
    the outer products, and reads no blade's rows."""
    rep = rep_for(8)
    transforms, read = [], []
    diagonal_lanes, rows = blades._diagonal_lanes, Monomial.sparse_rows
    monkeypatch.setattr(blades, "_diagonal_lanes", lambda *args: transforms.append(1) or diagonal_lanes(*args))
    monkeypatch.setattr(Monomial, "sparse_rows", property(lambda m: read.append(m) or rows.fget(m)))
    assert not verify_isomorphism(rep)["failures"]
    assert len(transforms) == 3 * 2 ** rep.n_bits
    built = list(rep._blade_cache.values())
    assert len(built) == 4 ** rep.n_bits
    assert not [m for m in read if any(m is b for b in built)]
    built[-1].sparse_rows
    assert read[-1] is built[-1]  # the count sees a read


# -- the word side of the transform against the entry side ------------------------------


def entry_side(n, words):
    """The entry-side transform of each word, from its listed nonzero entries."""
    return blades._plane_transform(n, [{(i, j): s for i, j, s in w.nonzero_items()} for w in words], True)


WORD_CONFIGS = [(n, metric, mode) for n in range(1, 11) for metric in ("standard", "alternative")
                for mode in (ODD_MODES if n % 2 else ("project",))]


@pytest.mark.parametrize("n, metric, odd_mode", WORD_CONFIGS)
def test_the_word_side_agrees_with_the_entry_side_on_every_blade(n, metric, odd_mode):
    """Each diagonal's blades, read from their words in one call, transform as each blade's entries do alone."""
    rep = rep_for(n - n // 3, n // 3, metric=metric, odd_mode=odd_mode)
    diagonals = {}
    for blade in all_chiral_blades(rep):
        r, c = blade._planes
        diagonals.setdefault(r ^ c, []).append(blade_matrix(rep, blade))
    for words in diagonals.values():
        assert blades._word_transform(rep.n_bits, words) == [entry_side(rep.n_bits, [w])[0] for w in words]


def random_word(rng, n):
    """A Monomial on n bits with random words: a projector mask, phase and any power of sqrt2, negative or odd."""
    m = rng.randrange(1 << n)
    v = rng.randrange(1 << n) & m
    return Monomial(n, rng.randrange(1 << n), rng.randrange(1 << n), m, v, rng.randrange(4), rng.randint(-5, 5))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_the_word_side_agrees_with_the_entry_side_on_any_word(n):
    """Masked, sqrt2-scaled and zero words, alone and several in one call on mixed diagonals."""
    rng = Random(31 + n)
    words = [random_word(rng, n) for _ in range(12)]
    words += [Monomial.zero(n), Monomial.identity(n).times_unit(1, -3), Monomial(n, x=(1 << n) - 1, m=(1 << n) - 1)]
    assert any(w.m for w in words) and any(w.e & 1 for w in words)
    rng.shuffle(words)
    assert blades._word_transform(n, words) == entry_side(n, words)
    for w in words:
        assert blades._word_transform(n, [w]) == entry_side(n, [w])


@pytest.mark.parametrize("n, metric, odd_mode", [(3, "standard", "project"), (4, "alternative", "project"),
                                                 (5, "alternative", "embed_scalar_n"), (6, "standard", "project")])
def test_decompose_of_a_monomial_is_that_of_its_plain_matrix(n, metric, odd_mode):
    rep = rep_for(n - 1, 1, metric=metric, odd_mode=odd_mode)
    rng = Random(n)
    words = [rep.eps, rep.kappa, rep.C, rep.gamma(1), rep.gamma(n) @ rep.gamma(1), Monomial.zero(rep.n_bits)]
    words += [random_word(rng, rep.n_bits) for _ in range(6)]
    chiral = all_chiral_blades(rep)
    words += [blade_matrix(rep, blade) for blade in rng.sample(chiral, min(6, len(chiral)))]
    for m in words:
        plain = Matrix.from_items(rep.dim, rep.dim, m.nonzero_items())
        assert type(m) is Monomial and type(plain) is Matrix
        assert decompose_multivector(rep, m) == decompose_multivector(rep, plain), m


def test_the_cap_is_read_once_per_call(monkeypatch):
    """Above SGA_MAX_DIM the round trip and a blade's decomposition refuse with the cap's message; else one read each."""
    rep = rep_for(8)
    blade = blade_matrix(rep, all_chiral_blades(rep)[7])
    refusal = re.escape(f"matrix dimension {rep.dim} exceeds cap {rep.dim - 1}; raise SGA_MAX_DIM to override")
    monkeypatch.setenv("SGA_MAX_DIM", str(rep.dim - 1))
    with pytest.raises(ValueError, match=refusal):
        verify_isomorphism(rep)
    with pytest.raises(ValueError, match=refusal):
        decompose_multivector(rep, blade)
    monkeypatch.delenv("SGA_MAX_DIM")
    reads = []
    max_dimension = matrices.max_dimension
    monkeypatch.setattr(matrices, "max_dimension", lambda: reads.append(1) or max_dimension())
    assert not verify_isomorphism(rep)["failures"]
    assert len(reads) == 1  # not one per blade: there are 256
    reads.clear()
    assert decompose_multivector(rep, blade) == {all_chiral_blades(rep)[7]: ONE}
    assert len(reads) == 1
