"""Basis blades and the spinor-outer-product <-> multivector dictionary.

Chiral basis blades are wedges of the 2n chiral generators taken in the
canonical order g_1 < g_1bar < g_2 < ... ; orthonormal blades are wedges
of distinct orthonormal axes.  Because factors from different planes
anticommute with vanishing dot products, a canonical chiral blade
factorises into a product of per-plane factors, the paired factor being
g_k g_kbar - 1 = -i plus_k minus_k.  Every blade is built as that ordered
product of the representation's generator monomials, so it is a signed
monomial too: one unit i**p * sqrt2**e per row.

The two directions of the dictionary are:

  * every matrix decomposes exactly over basis blades, the coefficient of
    a blade being trace(raised_blade @ m) / 2**n; with one unit per row
    of the raised blade, that is one index compare per nonzero of m;
  * every matrix decomposes exactly over the basis outer products
    e_a e_b., each of which has a single nonzero entry, so that direction
    is a direct read-off against the metric's sign pattern.

Raising a blade bars every chiral index (k <-> kbar), applies the metric
sign to orthonormal indices, and reverses the factor order.
``blade_matrix`` and ``raised_blade_matrix`` give the equal ``Matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm
from operator import add

from .bitcodes import all_bitcodes
from .elements import outer_product, row_of
from .matrices import Matrix, Monomial
from .scalars import HALF, ONE, Scalar, ZERO, unit

CHIRAL = "chiral"
ORTHONORMAL = "orthonormal"


@dataclass(frozen=True)
class BladeIndex:
    """Canonically ordered multi-index of distinct generators."""

    kind: str
    factors: tuple  # chiral: ((k, barred), ...); orthonormal: (axis, ...)

    def __post_init__(self):
        if self.kind not in (CHIRAL, ORTHONORMAL):
            raise ValueError(f"unknown blade kind {self.kind!r}")
        if len(set(self.factors)) != len(self.factors):
            raise ValueError("repeated generator in blade index")
        if tuple(sorted(self.factors)) != self.factors:
            raise ValueError("blade index not in canonical order")

    @property
    def grade(self):
        return len(self.factors)

    def reversal_sign(self):
        return -1 if (self.grade // 2) % 2 else 1

    def label(self):
        if not self.factors:
            return "unit"
        if self.kind == CHIRAL:
            return "^".join(f"g{k}bar" if barred else f"g{k}" for k, barred in self.factors)
        return "^".join(f"e{a}" for a in self.factors)

    def k_charge(self, k):
        """Net charge of plane k: +1 per unbarred k index, -1 per barred."""
        if self.kind != CHIRAL:
            return 0
        charge = 0
        for kk, barred in self.factors:
            if kk == k:
                charge += -1 if barred else 1
        return charge


def chiral_blade(factors):
    canon, sign = canonicalize(factors)
    if sign != 1:
        raise ValueError("factors not in canonical order; use canonicalize()")
    return BladeIndex(CHIRAL, canon)


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


def all_chiral_blades(rep):
    """All 4**n basis blades over the representation's chiral generators."""
    gens = []
    for k in range(1, rep.n_bits + 1):
        gens.append((k, False))
        gens.append((k, True))
    blades = []
    for p in range(len(gens) + 1):
        for combo in combinations(gens, p):
            blades.append(BladeIndex(CHIRAL, combo))
    return blades


def blade_matrix(rep, blade):
    """Exact matrix of a canonical basis blade."""
    return blade_monomial(rep, blade).to_matrix()


def blade_monomial(rep, blade):
    """A canonical basis blade as a signed monomial: the ordered product of its generators."""
    cached = rep._blade_cache.get(blade)
    if cached is not None:
        return cached
    if blade.kind == CHIRAL:
        m = _chiral_blade_monomial(rep, blade)
    else:
        m = Monomial.identity(rep.dim)
        for axis in blade.factors:
            m = m @ rep.gamma_monomial(axis)
    rep._blade_cache[blade] = m
    return m


def _chiral_blade_monomial(rep, blade):
    # peel off the last plane so prefixes are shared through the cache
    factors = blade.factors
    if not factors:
        return Monomial.identity(rep.dim)
    last = factors[-1][0]
    prefix = tuple(f for f in factors if f[0] != last)
    if prefix:
        plane = BladeIndex(CHIRAL, factors[len(prefix):])
        return blade_monomial(rep, BladeIndex(CHIRAL, prefix)) @ blade_monomial(rep, plane)
    if len(factors) == 2:  # the paired wedge g gbar - 1 = -i plus_k minus_k
        return (rep.orth_monomial(last) @ rep.orth_monomial(last, minus=True)).scale(3)
    return rep.chiral_monomial(last, barred=factors[0][1])


def raised_blade_matrix(rep, blade):
    """Matrix of the index-raised blade (bar, metric signs, reversed order)."""
    return _raised_monomial(rep, blade).to_matrix()


def _raised_monomial(rep, blade):
    cached = rep._raised_cache.get(blade)
    if cached is not None:
        return cached
    if blade.kind == CHIRAL:
        barred = [(k, not b) for k, b in blade.factors]
        canon, sign = canonicalize(barred)
        m = blade_monomial(rep, BladeIndex(CHIRAL, canon))
        s = sign * blade.reversal_sign()
    else:
        m = blade_monomial(rep, blade)
        s = blade.reversal_sign()
        for axis in blade.factors:
            if rep.signature.is_timelike(axis):
                s = -s
    out = m.scale(2) if s != 1 else m  # scale(2) is times i**2 = -1
    rep._raised_cache[blade] = out
    return out


# -- outer-product basis ------------------------------------------------------


def metric_column_map(rep):
    """For each bitcode b, the (column, sign) of the single nonzero of e_b. ."""
    if rep._colmap is not None:
        return rep._colmap
    out = {}
    for b in all_bitcodes(rep.n_bits):
        row = rep.eps.sparse_rows[b.index()]
        if len(row) != 1:
            raise AssertionError("metric row is not a signed unit row")
        out[b] = next(iter(row.items()))
    rep._colmap = out
    return out


def spinor_outer_decompose(rep, m):
    """Coefficients c[(a, b)] with m = sum c * e_a e_b. ; exact read-off."""
    if m.nrows != rep.dim or m.ncols != rep.dim:
        raise ValueError("matrix dimension does not match the representation")
    colmap = metric_column_map(rep)
    by_column = {col: (b, sign) for b, (col, sign) in colmap.items()}
    out = {}
    for i, j, value in m.nonzero_items():
        a = rep.bitcode_of_index(i)
        b, sign = by_column[j]
        out[(a, b)] = value * sign
    return out


def outer_basis_matrix(rep, a, b):
    """The matrix e_a e_b. (single nonzero entry)."""
    return outer_product(rep, rep.basis_spinor(a), rep.basis_spinor(b)).payload


def reconstruct_from_outer(rep, coeffs):
    # each e_a e_b. has one nonzero entry, so accumulate by position
    colmap = metric_column_map(rep)
    items = []
    for (a, b), c in coeffs.items():
        j, sign = colmap[b]
        items.append((rep.spinor_index(a), j, c * sign))
    return Matrix.from_items(rep.dim, rep.dim, items)


# -- blade decomposition ------------------------------------------------------


def blade_coefficient(rep, blade, m):
    """Coefficient of a basis blade in m: trace(raised_blade @ m) / 2**n.

    Row j of the raised blade holds one unit, so a nonzero m[i, j] meets
    it only when that unit sits in column i.
    """
    raised = _raised_monomial(rep, blade)
    cols, phases, exps = raised.cols, raised.phases, raised.exps
    shift = -2 * rep.n_bits  # the 1 / 2**n as a power of sqrt2
    acc = ZERO
    for i, row in enumerate(m.sparse_rows):
        if not row:
            continue
        for j, v in row.items():
            if cols[j] == i:
                acc = acc + unit(phases[j], exps[j] + shift) * v
    return acc


def _candidate_blades(rep, m):
    """Blades whose support pattern can meet the nonzero entries of m.

    Per plane k the entry pattern (row bit, column bit) admits: the
    unbarred generator for up<-down, the barred one for down<-up, and
    either nothing or the full pair on the diagonal.
    """
    # per plane: its index bit, then the factor options for an up<-down
    # entry, a down<-up entry and a diagonal one
    planes = [
        (1 << (k - 1), (((k, False),),), (((k, True),),), ((), ((k, False), (k, True))))
        for k in range(1, rep.n_bits + 1)
    ]
    seen = set()
    out = []
    for i, j, _ in m.nonzero_items():
        stack = [()]
        for bit, unbarred, barred, diagonal in planes:
            row_down, col_down = i & bit, j & bit
            opts = diagonal if bool(row_down) == bool(col_down) else (barred if row_down else unbarred)
            stack = [acc + opt for acc in stack for opt in opts]
        for factors in stack:
            blade = BladeIndex(CHIRAL, factors)
            if blade not in seen:
                seen.add(blade)
                out.append(blade)
    return out


def decompose_multivector(rep, m, all_blades=False):
    """Exact blade coefficients of a square matrix.

    Covers the 2**(2n) chiral basis blades of the built even algebra; for
    odd dimension in project mode that is the quotient basis with the
    chiral operator identified with one.
    """
    if m.nrows != rep.dim or m.ncols != rep.dim:
        raise ValueError("matrix dimension does not match the representation")
    blades = all_chiral_blades(rep) if all_blades else _candidate_blades(rep, m)
    out = {}
    for blade in blades:
        c = blade_coefficient(rep, blade, m)
        if not c.is_zero():
            out[blade] = c
    return out


def reconstruct_from_blades(rep, coeffs):
    """The Matrix sum of c * blade over the blade coefficients.

    Each coefficient is multiplied once by each distinct unit of its
    blade, in integers.  Per entry the exact products are summed as
    numerators over one common denominator and normalised once; float
    products are summed apart and added last.
    """
    terms = [(blade_monomial(rep, blade), c) for blade, c in coeffs.items()]
    den = lcm(*(c.q << max(0, -(e >> 1)) for mono, c in terms for _, e in mono.units))
    acc = {}
    for mono, c in terms:
        parts = {(p, e): _unit_product(c, p, e, den) for p, e in mono.units}
        for i, j, p, e in mono.entries:
            t = parts[p, e]
            old = acc.get((i, j))
            acc[i, j] = t if old is None else tuple(map(add, old, t))
    return Matrix.from_items(rep.dim, rep.dim, (
        (i, j, _from_parts(t, den)) for (i, j), t in acc.items() if any(t)
    ))


def _unit_product(s, p, e, den):
    """s * i**p * sqrt2**e as (a, b, c, d, f): exact numerators over den and a float part (int 0 if exact)."""
    if s.f is not None:
        return 0, 0, 0, 0, (s * unit(p, e)).f
    a, b, c, d = s.a, s.b, s.c, s.d
    if e & 1:  # (a + b sqrt2) sqrt2 = 2b + a sqrt2
        a, b, c, d = 2 * b, a, 2 * d, c
    m = e >> 1  # the remaining power of two
    k = (den // s.q) << m if m >= 0 else den // (s.q << -m)
    a, b, c, d = a * k, b * k, c * k, d * k
    for _ in range(p):  # times i
        a, b, c, d = -c, -d, a, b
    return a, b, c, d, 0


def _from_parts(t, den):
    a, b, c, d, f = t
    s = Scalar(a, b, c, d, den)
    return s if type(f) is int else s + Scalar(_float=f)


def gamma_coefficients(rep, blade, a, b):
    """The paired expansion coefficients between outer products and blades.

    Returns (upper, lower): upper is the blade coefficient of e_a e_b.,
    lower the (a, b) outer coefficient of the blade, fixed by

        upper = row(e_b) @ raised_blade @ e_a / 2**n
        lower = sign(eps^2) * row(raised e_a) @ blade @ raised e_b
    """
    eps_sign = Scalar(rep.metric_square_sign)
    ea = rep.basis_spinor(a)
    eb = rep.basis_spinor(b)
    raised = raised_blade_matrix(rep, blade)
    upper = (row_of(rep, eb).payload @ (raised @ ea))[0, 0] * Scalar(
        1, 0, 0, 0, rep.dim
    )
    ra = rep.eps @ ea
    rb = rep.eps @ eb
    lower = eps_sign * ((ra.transpose() @ rep.eps) @ (blade_matrix(rep, blade) @ rb))[
        0, 0
    ]
    return upper, lower


def trace_outer(rep, x):
    """Trace of an outer product; equals the scalar product psi . chi."""
    m = x.payload if hasattr(x, "payload") else x
    return m.trace()


# -- chirality -----------------------------------------------------------------


def chiral_projector(rep, handedness):
    """(1 +- kappa)/2; right-handed is the + sign."""
    if rep.is_odd and rep.odd_mode == "project":
        raise ValueError(
            "chirality projectors need an even representation or an embedded odd one"
        )
    sign = ONE if handedness in ("right", "R", "+", 1) else -ONE
    ident = Matrix.identity(rep.dim)
    return (ident + rep.kappa.scale(sign)).scale(HALF)


def chiral_project(rep, m, handedness):
    return chiral_projector(rep, handedness) @ m


def verify_isomorphism(rep):
    """Round-trip every basis blade and every basis outer product.

    Returns {"dim", "blades_checked", "outer_checked", "failures": [...]}.
    """
    failures = []
    blades = all_chiral_blades(rep)
    for blade in blades:
        m = blade_matrix(rep, blade)
        coeffs = spinor_outer_decompose(rep, m)
        if reconstruct_from_outer(rep, coeffs) != m:
            failures.append(f"blade {blade.label()} failed the outer round trip")
    codes = all_bitcodes(rep.n_bits)
    outer_count = 0
    for a in codes:
        for b in codes:
            outer_count += 1
            m = outer_basis_matrix(rep, a, b)
            coeffs = decompose_multivector(rep, m)
            if reconstruct_from_blades(rep, coeffs) != m:
                failures.append(f"outer product ({a}, {b}) failed the blade round trip")
    return {
        "dim": rep.dim,
        "blades_checked": len(blades),
        "outer_checked": outer_count,
        "failures": failures,
    }
