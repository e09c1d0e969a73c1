"""Named verification suites bundling the algebraic identity checks.

Each suite returns a list of Check records; the CLI prints one line per
check and exits nonzero when any fails.  The acceptance test module runs
the same functions, so the command line and the test suite cannot drift
apart.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from random import Random

from .bitcodes import Bitcode, all_bitcodes
from .blades import verify_isomorphism
from .elements import (
    Element,
    ForbiddenProduct,
    FormalSum,
    antisymmetrized_outer,
    multiply,
    outer_product,
    row_of,
    scalar_product,
    simplify_chain,
    symmetrized_outer,
)
from .matrices import Matrix, anticommutator
from .representation import build_representation
from .scalars import HALF, I, INV_SQRT2, ONE, SQRT2, Scalar, ZERO
from .symmetry import (
    conjugate,
    metric_preserved,
    plane_rotor,
    axis_reflection_classify,
)
from .tables import (
    conjugation_symmetry_table,
    gamma_commutation_table,
    metric_symmetry_table,
    period8_check,
)

DEFAULT_SEED = 1


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _check(name, ok, detail=""):
    return Check(name, bool(ok), detail)


def _mat(rows):
    return Matrix([[_s(x) for x in row] for row in rows])


def _s(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar(x)
    raise TypeError(x)


# the 450 Scalars ``random_scalar`` can give, by draw index; the two zero draws are ZERO itself
_DRAWS = tuple(ZERO if s.is_zero() else s
               for s in (Scalar(a, b, c, d, q) for a in range(-2, 3) for b in range(-1, 2)
                         for c in range(-2, 3) for d in range(-1, 2) for q in (1, 2)))


def _draw(bits):
    """One draw of ``random_scalar`` from ``bits`` = rng.getrandbits: a shared Scalar, or ZERO."""
    while (a := bits(3)) >= 5:
        pass
    while (b := bits(2)) >= 3:
        pass
    while (c := bits(3)) >= 5:
        pass
    while (d := bits(2)) >= 3:
        pass
    while (q := bits(2)) >= 2:
        pass
    return _DRAWS[(((a * 3 + b) * 5 + c) * 3 + d) * 2 + q]


def random_scalar(rng, allow_zero=True):
    """((a + b sqrt2) + i (c + d sqrt2)) / q with a, c in -2..2, b, d in -1..1 and q in {1, 2}.

    Each draw takes k = n.bit_length() random bits and draws again while
    they read n or more, as ``Random.randint`` and ``Random.choice`` draw
    from n values, so a seed gives the stream that ``randint(-2, 2)``,
    ``randint(-1, 1)``, ``randint(-2, 2)``, ``randint(-1, 1)``,
    ``choice((1, 2))`` would, at half the cost.  The result is one of the
    450 Scalars those values give, built once and shared by every draw
    (Scalars are immutable); a zero draw gives ZERO itself.
    """
    bits = rng.getrandbits
    while True:
        s = _draw(bits)
        if allow_zero or s is not ZERO:
            return s


def random_spinor(rep, rng, nonzero=True):
    """A dim x 1 column of ``random_scalar`` draws, drawn again while it is zero if `nonzero`.

    Only the nonzero draws are written, straight into sparse rows, so no
    zero entry is stored or scanned; the stream is that of drawing every
    entry.
    """
    bits, dim = rng.getrandbits, rep.dim
    while True:
        rows = {i: {0: s} for i in range(dim) if (s := _draw(bits)) is not ZERO}
        if rows or not nonzero:
            return Matrix(rows, dim, 1)


def random_multivector(rep, rng, density=0.4):
    """A dim x dim matrix whose entry (i, j) is a ``random_scalar`` draw where rng.random() < density, else zero.

    Entries are drawn row by row, random() first, and only the nonzero
    draws are written, straight into sparse rows; the stream is that of
    the dense rows.
    """
    bits, random, dim, rows = rng.getrandbits, rng.random, rep.dim, {}
    for i in range(dim):
        if row := {j: s for j in range(dim) if random() < density and (s := _draw(bits)) is not ZERO}:
            rows[i] = row
    return Matrix(rows, dim, dim)


# ---------------------------------------------------------------- pauli


def pauli_suite(seed=DEFAULT_SEED):
    """Two-component spinors and the three-dimensional algebra, projected."""
    rep = build_representation(spacelike=3)
    checks = []

    sigma1 = _mat([[0, 1], [1, 0]])
    sigma2 = Matrix([[ZERO, -I], [I, ZERO]])
    sigma3 = _mat([[1, 0], [0, -1]])
    checks.append(_check("pauli: orthonormal vectors",
                         rep.gamma(1) == sigma1 and rep.gamma(2) == sigma2 and rep.gamma(3) == sigma3))

    chiral_up = Matrix([[ZERO, SQRT2], [ZERO, ZERO]])
    chiral_down = Matrix([[ZERO, ZERO], [SQRT2, ZERO]])
    checks.append(
        _check(
            "pauli: chiral vectors carry sqrt2 entries",
            rep.gamma_chiral(1) == chiral_up
            and rep.gamma_chiral(1, barred=True) == chiral_down,
        )
    )

    eps = _mat([[0, 1], [-1, 0]])
    checks.append(_check("pauli: spinor metric", rep.eps == eps))

    up = rep.basis_spinor(Bitcode.from_string("u"))
    down = rep.basis_spinor(Bitcode.from_string("d"))
    ident = Matrix.identity(2)
    checks.append(
        _check(
            "pauli: antisymmetric singlet is the unit",
            antisymmetrized_outer(rep, down, up) == ident,
        )
    )
    triplet_ok = (
        symmetrized_outer(rep, up, up) == chiral_up.scale(SQRT2)
        and symmetrized_outer(rep, up, down) == -sigma3
        and symmetrized_outer(rep, down, down) == -(chiral_down.scale(SQRT2))
    )
    checks.append(_check("pauli: symmetric triplet gives the chiral vectors", triplet_ok))
    return checks


# ---------------------------------------------------------------- dirac


def dirac_suite(seed=DEFAULT_SEED):
    """The sixteen outer-product identities of the four-dimensional algebra.

    Bitcodes list the boost bit first (plane 1 is the boost plane, plane 2
    the spin plane); right-handed spinors have aligned bits.
    """
    rep = build_representation(spacelike=3, timelike=1)
    checks = []

    spinor = {
        code: rep.basis_spinor(Bitcode.from_string(code))
        for code in ("uu", "du", "ud", "dd")
    }
    kappa = rep.kappa
    ident = Matrix.identity(4)
    g1 = rep.gamma_chiral(1)
    g1b = rep.gamma_chiral(1, barred=True)
    g2 = rep.gamma_chiral(2)
    g2b = rep.gamma_chiral(2, barred=True)
    w11 = g1 @ g1b - ident  # paired wedge of plane 1
    w22 = g2 @ g2b - ident

    def sym(a, b):
        return symmetrized_outer(rep, spinor[a], spinor[b])

    def asym(a, b):
        return antisymmetrized_outer(rep, spinor[a], spinor[b])

    half_plus = (ident + kappa).scale(HALF)
    half_minus = (ident - kappa).scale(HALF)
    checks.append(_check("dirac: right-handed singlet", asym("dd", "uu") == half_plus))
    checks.append(_check("dirac: left-handed singlet", asym("ud", "du") == half_minus))

    bivectors = [
        ("dirac: right bivector (uu,uu)", sym("uu", "uu"), g1 @ g2),
        ("dirac: right bivector (uu,dd)", sym("uu", "dd"), -(w11 + w22).scale(HALF)),
        ("dirac: right bivector (dd,dd)", sym("dd", "dd"), g1b @ g2b),
        ("dirac: left bivector (du,du)", sym("du", "du"), g1b @ g2),
        ("dirac: left bivector (du,ud)", sym("du", "ud"), (w11 - w22).scale(HALF)),
        ("dirac: left bivector (ud,ud)", sym("ud", "ud"), g1 @ g2b),
    ]
    for name, got, want in bivectors:
        checks.append(_check(name, got == want))

    vectors = [
        ("dirac: chiral vector (uu,du)", sym("uu", "du"), g2.scale(INV_SQRT2)),
        ("dirac: chiral vector (dd,ud)", sym("dd", "ud"), -(g2b.scale(INV_SQRT2))),
        ("dirac: chiral vector (uu,ud)", sym("uu", "ud"), -(g1.scale(INV_SQRT2))),
        ("dirac: chiral vector (dd,du)", sym("dd", "du"), -(g1b.scale(INV_SQRT2))),
    ]
    for name, got, want in vectors:
        checks.append(_check(name, got == want))

    pseudovectors = [
        ("dirac: pseudovector (uu,du)", asym("uu", "du"), (kappa @ g2).scale(INV_SQRT2)),
        ("dirac: pseudovector (dd,ud)", asym("dd", "ud"), -((kappa @ g2b).scale(INV_SQRT2))),
        ("dirac: pseudovector (uu,ud)", asym("uu", "ud"), -((kappa @ g1).scale(INV_SQRT2))),
        ("dirac: pseudovector (dd,du)", asym("dd", "du"), -((kappa @ g1b).scale(INV_SQRT2))),
    ]
    for name, got, want in pseudovectors:
        checks.append(_check(name, got == want))
    return checks


# ---------------------------------------------------------------- brauer-weyl


def brauer_weyl_suite(seed=DEFAULT_SEED, dimensions=(2, 4, 6, 8, 10, 12)):
    """Exhaustive blade/outer round trips for even dimensions, both metrics."""
    checks = []
    for n in dimensions:
        for metric in ("standard", "alternative"):
            rep = build_representation(spacelike=n, metric=metric)
            report = verify_isomorphism(rep)
            checks.append(
                _check(
                    f"isomorphism: N={n} {metric}",
                    not report["failures"],
                    f"{report['blades_checked']} blades, {report['outer_checked']} outer products"
                    + (f"; first failure: {report['failures'][0]}" if report["failures"] else ""),
                )
            )
    return checks


# ---------------------------------------------------------------- sign laws


def _standard_sign(code):
    sign = 1
    for k, bit in enumerate(code.bits, start=1):
        if bit and (k - 1) % 2 == 1:
            sign = -sign
    return sign


def _alternative_sign(code):
    sign = 1
    for k, bit in enumerate(code.bits, start=1):
        if bit and k % 2 == 1:
            sign = -sign
    return sign


def sign_law_suite(seed=DEFAULT_SEED, n_max=12):
    """Per-bitcode metric sign formulas and the symmetry classification."""
    checks = []
    for n in range(2, n_max + 1, 2):
        rep = build_representation(spacelike=n)
        ok_std = ok_alt = True
        for code in all_bitcodes(rep.n_bits):
            col = rep.basis_spinor(code)
            flipped = rep.basis_spinor(code.flip())
            if rep.eps_std @ col != flipped.scale(Scalar(_standard_sign(code))):
                ok_std = False
            if rep.eps_alt @ col != flipped.scale(Scalar(_alternative_sign(code))):
                ok_alt = False
        checks.append(_check(f"sign law: standard metric N={n}, all bitcodes", ok_std))
        checks.append(_check(f"sign law: alternative metric N={n}, all bitcodes", ok_alt))
    for n in range(3, n_max + 1, 2):
        rep = build_representation(spacelike=n)
        ok = all(
            rep.eps @ rep.basis_spinor(code)
            == rep.basis_spinor(code.flip()).scale(Scalar(_alternative_sign(code)))
            for code in all_bitcodes(rep.n_bits)
        )
        checks.append(
            _check(
                f"sign law: projected odd metric N={n}, all bitcodes",
                ok,
                "odd projected metric follows the alternative-product sign rule",
            )
        )

    rows = metric_symmetry_table(n_max)
    by_n = {r.N: r for r in rows}
    consistent = True
    for n, row in by_n.items():
        rep = build_representation(spacelike=n)
        sq_std = (rep.eps_std @ rep.eps_std).scalar_multiple_of_identity()
        sq_alt = (rep.eps_alt @ rep.eps_alt).scalar_multiple_of_identity()
        if (1 if sq_std == ONE else -1) != row.sq_standard:
            consistent = False
        if (1 if sq_alt == ONE else -1) != row.sq_alternative:
            consistent = False
        # the square also follows from composing the sign law with the bit flip
        code = Bitcode.all_up(rep.n_bits)
        law = (
            _alternative_sign(code) * _alternative_sign(code.flip())
            if n % 2
            else _standard_sign(code) * _standard_sign(code.flip())
        )
        target = row.sq_alternative if n % 2 else row.sq_standard
        if law != target:
            consistent = False
    checks.append(
        _check("sign law: metric squares match the computed symmetry table", consistent)
    )
    checks.append(
        _check(
            "sign law: dimension-3 and dimension-4 standard metrics antisymmetric",
            by_n[3].sq_standard == -1 and by_n[4].sq_standard == -1,
        )
    )
    return checks


# ---------------------------------------------------------------- periodicity


def periodicity_suite(seed=DEFAULT_SEED, n_max=17, d_range=(-4, 12)):
    checks = []
    metric_rows = metric_symmetry_table(n_max)
    commutation_rows = gamma_commutation_table(n_max)
    for label, rows in (("metric", metric_rows), ("commutation", commutation_rows)):
        report = period8_check(rows)
        checks.append(
            _check(
                f"period 8: {label} table over N=1..{n_max}",
                report["ok"],
                f"{report['pairs_compared']} pairs compared"
                + ("" if report["ok"] else f"; {report['violations'][0]}"),
            )
        )
    conj_rows = conjugation_symmetry_table(*d_range)
    report = period8_check(conj_rows)
    checks.append(
        _check(
            f"period 8: conjugation table over K-M={d_range[0]}..{d_range[1]}",
            report["ok"],
            f"{report['pairs_compared']} pairs compared",
        )
    )
    metric_by_n = {r.N: r for r in metric_rows}
    match = all(
        metric_by_n[((r.difference - 1) % 8) + 1].sq_standard == r.sym_standard
        and metric_by_n[((r.difference - 1) % 8) + 1].sq_alternative == r.sym_alternative
        for r in conj_rows
    )
    checks.append(
        _check(
            "period 8: conjugation symmetry equals the metric table at N = K-M (mod 8)",
            match,
        )
    )
    return checks


# ---------------------------------------------------------------- rotors


ROTOR_SIGNATURES = ((2, 0), (3, 0), (4, 0), (3, 1), (4, 1), (6, 0))


def rotor_suite(seed=DEFAULT_SEED, float_angles=20):
    rng = Random(seed)
    checks = []
    for spacelike, timelike in ROTOR_SIGNATURES:
        rep = build_representation(spacelike=spacelike, timelike=timelike)
        label = f"({spacelike},{timelike})"
        for k in range(1, rep.n_bits + 1):
            if rep.plane_is_boost(k):
                continue
            rot = plane_rotor(rep, k, quarters=1)
            ok = metric_preserved(rep, rot)
            ok = ok and (rot.matrix @ rot.reverse_matrix).is_identity()
            # chiral vectors pick up exp(-i theta) exactly at theta = pi/2
            g = rep.gamma_chiral(k)
            gb = rep.gamma_chiral(k, barred=True)
            ok = ok and rot.matrix @ g @ rot.reverse_matrix == g.scale(-I)
            ok = ok and rot.matrix @ gb @ rot.reverse_matrix == gb.scale(I)
            # basis spinors pick up exp(-+ i theta / 2)
            phase_up = (ONE - I) * INV_SQRT2
            phase_down = (ONE + I) * INV_SQRT2
            for code in all_bitcodes(rep.n_bits):
                col = rep.basis_spinor(code)
                want = col.scale(phase_up if code.bit(k) else phase_down)
                ok = ok and rot.matrix @ col == want
            checks.append(_check(f"rotor: exact quarter turn {label} plane {k}", ok))

        for k in range(1, rep.n_bits + 1):
            if rep.plane_is_boost(k):
                continue
            ok = True
            g = rep.gamma_chiral(k)
            g_values = g.to_numpy()
            for _ in range(float_angles):
                theta = rng.uniform(-2 * math.pi, 2 * math.pi)
                rot = plane_rotor(rep, k, theta, exact=False)
                ok = ok and metric_preserved(rep, rot, tol=1e-12)
                got = rot.matrix @ g @ rot.reverse_matrix
                ok = ok and abs(got - g_values * cmath.exp(-1j * theta)).max() <= 1e-12
            checks.append(
                _check(f"rotor: {float_angles} random angles {label} plane {k}", ok)
            )

    rep = build_representation(spacelike=3, timelike=1)
    boost_plane = next(k for k in range(1, rep.n_bits + 1) if rep.plane_is_boost(k))
    ok = True
    g, gb = rep.gamma_chiral(boost_plane), rep.gamma_chiral(boost_plane, barred=True)
    g_values, gb_values = g.to_numpy(), gb.to_numpy()
    for _ in range(10):
        theta = rng.uniform(-1.5, 1.5)
        rot = plane_rotor(rep, boost_plane, theta, exact=False)
        ok = ok and metric_preserved(rep, rot, tol=1e-12)
        ok = ok and abs(rot.matrix @ g @ rot.reverse_matrix - g_values * math.exp(theta)).max() <= 1e-12
        ok = ok and abs(rot.matrix @ gb @ rot.reverse_matrix - gb_values * math.exp(-theta)).max() <= 1e-12
        for code in all_bitcodes(rep.n_bits):
            col = rep.basis_spinor(code).to_numpy()
            factor = math.exp(theta / 2) if code.bit(boost_plane) else math.exp(-theta / 2)
            ok = ok and abs(rot.matrix @ col - col * factor).max() <= 1e-12
    checks.append(_check("rotor: boost laws in plane with one timelike axis", ok))
    return checks


# ---------------------------------------------------------------- conjugation


CONJUGATION_SIGNATURES = ((2, 0), (3, 0), (3, 1), (4, 1), (9, 1), (11, 1))


def conjugation_suite(seed=DEFAULT_SEED, positivity_samples=100):
    rng = Random(seed)
    checks = []
    for spacelike, timelike in CONJUGATION_SIGNATURES:
        rep = build_representation(spacelike=spacelike, timelike=timelike)
        label = f"({spacelike},{timelike})"

        ok = True
        for k in range(1, rep.n_bits + 1):
            if rep.plane_is_boost(k):
                theta = rng.uniform(-1.5, 1.5)
                rot = plane_rotor(rep, k, theta, exact=False)
                ok = ok and abs(rep.C @ rot.matrix.conj() - rot.matrix @ rep.C).max() <= 1e-12
            else:
                rot = plane_rotor(rep, k, quarters=rng.choice((1, 2, 3)))
                ok = ok and rep.C @ rot.matrix.conj() == rot.matrix @ rep.C
        checks.append(_check(f"conjugation: C commutes rotors to conjugates {label}", ok))

        if timelike:
            gsq = (rep.Gamma @ rep.Gamma).is_identity()
            checks.append(_check(f"conjugation: time product squares to one {label}", gsq))
            checks.append(
                _check(
                    f"conjugation: time product is traceless {label}",
                    rep.Gamma.trace().is_zero(),
                )
            )

        sym = 1 if rep.C.transpose() == rep.C else -1
        psi = random_spinor(rep, rng)
        double = conjugate(rep, conjugate(rep, psi))
        checks.append(
            _check(
                f"conjugation: double conjugate sign matches C symmetry {label}",
                double == psi.scale(Scalar(sym)),
                f"sign {sym:+d}",
            )
        )

        ok83 = True
        sign_eps = Scalar(rep.metric_square_sign)
        for _ in range(10):
            psi = random_spinor(rep, rng)
            chi = random_spinor(rep, rng)
            lhs = conjugate(rep, outer_product(rep, psi, conjugate(rep, chi)).payload)
            rhs = outer_product(rep, conjugate(rep, psi), chi).payload.scale(sign_eps)
            ok83 = ok83 and lhs == rhs
        checks.append(
            _check(
                f"conjugation: outer-product conjugate carries the metric sign {label}",
                ok83,
            )
        )

    rep = build_representation(spacelike=3, timelike=1)
    row = next(r for r in conjugation_symmetry_table(2, 2, samples_per_row=2))
    checks.append(
        _check(
            "conjugation: K-M=2 operator symmetric (computed table anchor)",
            row.sym_standard == 1 and (rep.C.transpose() == rep.C),
        )
    )

    ok88 = True
    for _ in range(positivity_samples):
        psi = random_spinor(rep, rng)
        lhs = (row_of(rep, conjugate(rep, psi)).payload @ (rep.Gamma @ psi))[0, 0]
        direct = (psi.dagger() @ psi)[0, 0]
        ok88 = ok88 and lhs == direct and lhs.is_real() and lhs.real_sign() > 0
    checks.append(
        _check(
            f"conjugation: conj(psi).Gamma psi = psi^dagger psi > 0 on {positivity_samples} spinors",
            ok88,
        )
    )
    return checks


# ---------------------------------------------------------------- exclusion


def exclusion_suite(seed=DEFAULT_SEED, pairs=100):
    rng = Random(seed)
    checks = []
    for n in (2, 3, 4):
        rep = build_representation(spacelike=n)
        raised = 0
        zeroed = 0
        for _ in range(pairs):
            a = Element.column(rep, random_spinor(rep, rng))
            b = Element.column(rep, random_spinor(rep, rng))
            ra = row_of(rep, a)
            rb = row_of(rep, b)
            try:
                multiply(a, b)
            except ForbiddenProduct:
                try:
                    multiply(ra, rb)
                except ForbiddenProduct:
                    raised += 1
            out1 = multiply(a, b, forbidden_as_zero=True)
            out2 = multiply(ra, rb, forbidden_as_zero=True)
            if (
                isinstance(out1, FormalSum)
                and out1.is_zero()
                and isinstance(out2, FormalSum)
                and out2.is_zero()
            ):
                zeroed += 1
        checks.append(
            _check(
                f"exclusion: N={n} column*column and row*row",
                raised == pairs and zeroed == pairs,
                f"{raised}/{pairs} raised, {zeroed}/{pairs} zero formal elements",
            )
        )
    return checks


# ---------------------------------------------------------------- odd dimensions


def odd_dimension_suite(seed=DEFAULT_SEED):
    checks = []
    rep = build_representation(spacelike=3)
    checks.append(
        _check(
            "odd: projected final vector is diag(1,-1)",
            rep.gamma(3) == _mat([[1, 0], [0, -1]]),
        )
    )
    checks.append(
        _check(
            "odd: projected pseudoscalar is i times the unit",
            rep.pseudoscalar == Matrix.identity(2).scale(I),
        )
    )

    def clifford_ok(rep):
        for a in range(1, rep.N + 1):
            for b in range(a, rep.N + 1):
                want = Matrix.zeros(rep.dim)
                if a == b:
                    eta = -2 if rep.signature.is_timelike(a) else 2
                    want = Matrix.identity(rep.dim).scale(Scalar(eta))
                if anticommutator(rep.gamma(a), rep.gamma(b)) != want:
                    return False
        return True

    checks.append(_check("odd: projected mode Clifford relations", clifford_ok(rep)))

    for mode in ("embed_scalar_n", "embed_scalar_n_plus_1"):
        emb = build_representation(spacelike=3, odd_mode=mode)
        checks.append(
            _check(
                f"odd: {mode} Clifford relations",
                clifford_ok(emb),
            )
        )
        checks.append(
            _check(
                f"odd: {mode} scalar-axis reflection is a parity",
                axis_reflection_classify(emb, "scalar") == "P",
            )
        )
    return checks


# ---------------------------------------------------------------- traces and chains


_LEGAL_NEXT = {
    "scalar": ("scalar", "column", "row", "multivector"),
    "column": ("scalar", "row"),
    "row": ("scalar", "column", "multivector"),
    "multivector": ("scalar", "column", "multivector"),
}


def _random_element(rep, rng, species):
    if species == "scalar":
        return Element.scalar(rep, random_scalar(rng))
    if species == "column":
        return Element.column(rep, random_spinor(rep, rng))
    if species == "row":
        return row_of(rep, random_spinor(rep, rng))
    return Element.multivector(rep, random_multivector(rep, rng))


def _reduced_species(current, nxt):
    if current == "scalar":
        return nxt
    if nxt == "scalar":
        return current
    table = {
        ("row", "column"): "scalar",
        ("column", "row"): "multivector",
        ("multivector", "multivector"): "multivector",
        ("multivector", "column"): "column",
        ("row", "multivector"): "row",
    }
    return table[(current, nxt)]


def trace_chain_suite(seed=DEFAULT_SEED, samples=100):
    rng = Random(seed)
    checks = []

    rep = build_representation(spacelike=6)
    ok_trace = True
    for _ in range(samples):
        psi = random_spinor(rep, rng)
        chi = random_spinor(rep, rng)
        outer = outer_product(rep, chi, psi).payload
        ok_trace = ok_trace and outer.trace() == scalar_product(rep, psi, chi)
    checks.append(
        _check(f"trace: Tr(chi psi.) = psi.chi on {samples} random pairs", ok_trace)
    )

    rep = build_representation(spacelike=8)  # dimension 16
    ok_chain = True
    for _ in range(samples):
        species = [rng.choice(("scalar", "column", "row", "multivector"))]
        while len(species) < 4:
            species.append(rng.choice(_LEGAL_NEXT[_reduce_all(species)]))
        elements = [_random_element(rep, rng, s) for s in species]
        result = simplify_chain(elements)
        ok_chain = ok_chain and _direct_product_matches(rep, elements, result)
    checks.append(
        _check(f"chains: {samples} random 4-element chains match matrix products", ok_chain)
    )
    return checks


def _reduce_all(species):
    current = species[0]
    for s in species[1:]:
        current = _reduced_species(current, s)
    return current


def _direct_product_matches(rep, elements, result):
    # full matrix-product evaluation, with 1x1 products read as scalars
    acc_scalar = ONE
    acc_matrix = None
    for e in elements:
        if e.species == "scalar":
            acc_scalar = acc_scalar * e.payload
            continue
        if acc_matrix is not None and acc_matrix.nrows == 1 and acc_matrix.ncols == 1:
            acc_scalar = acc_scalar * acc_matrix[0, 0]
            acc_matrix = None
        acc_matrix = e.payload if acc_matrix is None else acc_matrix @ e.payload
    if acc_matrix is None:
        return result.payload == acc_scalar
    want = acc_matrix.scale(acc_scalar)
    got = result.payload
    if isinstance(got, Scalar):
        return want.nrows == 1 and want.ncols == 1 and want[0, 0] == got
    return want == got


# ---------------------------------------------------------------- registry


SUITES = {
    "pauli": pauli_suite,
    "dirac": dirac_suite,
    "brauer-weyl": brauer_weyl_suite,
    "rotors": rotor_suite,
    "conjugation": conjugation_suite,
}

EXTRA_SUITES = {
    "sign-laws": sign_law_suite,
    "periodicity": periodicity_suite,
    "exclusion": exclusion_suite,
    "odd-dimensions": odd_dimension_suite,
    "traces-chains": trace_chain_suite,
}


def run_suite(name, seed=DEFAULT_SEED):
    if name == "all":
        checks = []
        for fn in list(SUITES.values()) + list(EXTRA_SUITES.values()):
            checks.extend(fn(seed))
        return checks
    fn = SUITES.get(name) or EXTRA_SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}")
    return fn(seed)
