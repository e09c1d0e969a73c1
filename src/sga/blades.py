"""Basis blades and the spinor-outer-product <-> multivector dictionary.

Chiral basis blades are wedges of the 2n chiral generators in the order
g_1 < g_1bar < g_2 < ... ; orthonormal blades are wedges of distinct
axes.  A chiral blade is the ordered product of its per-plane factors 1,
g_k, g_kbar or g_k g_kbar - 1 = Z_k, a masked Pauli string too.
``blade_matrix`` returns each blade as that ``Monomial``, cached per
representation as its words, so a decomposition or comparison of a blade
reads its entries from the words and builds no rows.
``raised_blade_matrix`` reads the raised blade off that cache by the
blade's bits: barring every chiral index (k <-> kbar) swaps its two
plane masks, the metric signs the orthonormal axes, and reversing the
factor order is the reversal sign.

Under the Jordan-Wigner twist each factor acts on its plane's index bit
alone, so entry (r, c) of a blade is a Kronecker product of 2x2 factors
times (-1)**J, J the sum of |r & bits above k| over the planes k of
r ^ c.  Decomposing a matrix over the blades is one sparse per-plane
transform, the Pauli-basis butterfly of Hantzko, Binkowski & Gupta
(arXiv:2310.13421): negate the entries with J odd; on each plane turn
the diagonal pairs (bits 00 and 11) into the coefficients of 1 and Z_k,
an off-diagonal entry being already g_k (column bit set) or g_kbar (row
bit set); read key (r, c) as the blade unbarred on the bits of c and
barred on those of r, times sqrt2**(|r ^ c| - 2n).  Reconstructing runs
it the other way.  The butterfly only adds and subtracts, so each value
travels as one int, its four numerators over a common denominator packed
in lanes too wide to carry.  That costs O(n 4**n) on dense input and O(n) per
nonzero in or out on sparse input.  The trace formula of
``blade_coefficient`` is the reference.  ``verify_isomorphism`` runs
the transform once per diagonal r ^ c for all basis elements on it:
element t's lanes sit above those of elements 0..t-1 in one int per
position, so one butterfly serves them all; the report is the one a
round trip of each element alone gives.

Each basis outer product e_a e_b. has a single nonzero entry, and the
metric is one signed permutation on bitcodes, its word i**p X**x Z**z.
So that direction is a direct read-off, on the int index of each
bitcode: an entry in column j has outer key j ^ x and the sign of the
metric's column j.  It lists nothing of size dim, so it runs at any N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import lcm

from .bitcodes import Bitcode, all_bitcodes
from .elements import Element, multiply, row_of
from .matrices import Matrix, Monomial
from .scalars import HALF, ONE, Scalar, ZERO, _normalised, unit

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
        # every transform and coefficient dict reads these, so they are computed once; they
        # are not fields, so equality and the hash value stay those of (kind, factors)
        object.__setattr__(self, "_hash", hash((self.kind, self.factors)))
        r = c = 0  # chiral: bit k - 1 of r is set for a barred factor of plane k, of c for an unbarred one
        if self.kind == CHIRAL:
            for k, barred in self.factors:
                if not (isinstance(k, int) and k >= 1):
                    raise ValueError(f"chiral blade plane must be an int of at least 1, not {k!r:.20}")
                if barred:
                    r |= 1 << (k - 1)
                else:
                    c |= 1 << (k - 1)
        object.__setattr__(self, "_planes", (r, c))

    def __hash__(self):
        return self._hash

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


def all_chiral_blades(rep):
    """All 4**n basis blades over the representation's chiral generators, as a new list."""
    return list(_chiral_blades(rep.n_bits))


@lru_cache(maxsize=8)
def _chiral_blades(n):
    """all_chiral_blades on n planes, frozen, as the ``_blade_of_bits`` objects the blade caches hold."""
    gens = [(k, barred) for k in range(1, n + 1) for barred in (False, True)]
    return tuple(_blade_of_bits(*BladeIndex(CHIRAL, combo)._planes)
                 for p in range(len(gens) + 1) for combo in combinations(gens, p))


def blade_matrix(rep, blade):
    """A canonical basis blade, the ordered product of its generators, as a ``Monomial``; cached per representation."""
    cached = rep._blade_cache.get(blade)
    if cached is not None:
        return cached
    if blade.kind == CHIRAL:
        m = _chiral_blade(rep, blade)
    else:
        m = Monomial.identity(rep.n_bits)
        for axis in blade.factors:
            m = m @ rep.gamma(axis)
    rep._blade_cache[blade] = m
    return m


def _chiral_blade(rep, blade):
    # peel off the last plane so prefixes are shared through the cache
    r, c = blade._planes
    if not r | c:
        return Monomial.identity(rep.n_bits)
    top = 1 << ((r | c).bit_length() - 1)
    if (r | c) != top:
        prefix = blade_matrix(rep, _blade_of_bits(r & ~top, c & ~top))
        return prefix @ blade_matrix(rep, _blade_of_bits(r & top, c & top))
    last = top.bit_length()
    if r & c:  # the paired wedge g gbar - 1 = -i plus_k minus_k
        return (rep.gamma_plus(last) @ rep.gamma_minus(last)).times_unit(3)
    return rep.gamma_chiral(last, barred=bool(r))


def raised_blade_matrix(rep, blade):
    """The index-raised blade (bar, metric signs, reversed order) as a ``Monomial``, read off the blade's bits.

    Barring a chiral blade (r, c) gives the blade (c, r), and putting its
    factors back in order swaps the two of each paired plane: (-1)**|r & c|.
    An orthonormal axis is raised by its metric sign, -1 when timelike.
    """
    if blade.kind == CHIRAL:
        r, c = blade._planes
        m = blade_matrix(rep, _blade_of_bits(c, r))
        flips = (r & c).bit_count()
    else:
        m = blade_matrix(rep, blade)
        flips = sum(map(rep.signature.is_timelike, blade.factors))
    return -m if blade.reversal_sign() * (-1) ** flips == -1 else m


# -- outer-product basis ------------------------------------------------------


def _outer_keys(rep, items, forward):
    """(i, j ^ x, value times the sign) of each (i, j, value), read off the metric's word i**p X**x Z**z.

    Column j of the metric holds i**(p + 2|j & z|) = +-1 in row j ^ x.  Forward,
    from matrix entries to outer coefficients on the int index of each
    bitcode, an entry in column j takes column j's sign; back, an outer
    coefficient at k takes column (k ^ x)'s.
    """
    eps = rep.eps
    if eps.m or eps.v or eps.e or eps.p & 1:
        raise AssertionError("metric is not a signed permutation")
    x, z = eps.x, eps.z
    flip = (eps.p >> 1) ^ (0 if forward else (x & z).bit_count())
    for i, j, value in items:
        yield i, j ^ x, -value if ((j & z).bit_count() ^ flip) & 1 else value


def spinor_outer_decompose(rep, m):
    """Coefficients c[(a, b)] with m = sum c * e_a e_b. ; exact read-off."""
    if m.nrows != rep.dim or m.ncols != rep.dim:
        raise ValueError("matrix dimension does not match the representation")
    codes = {}  # the Bitcode of each index met
    out = {}
    for i, k, value in _outer_keys(rep, m.nonzero_items(), True):
        for index in (i, k):
            if index not in codes:
                codes[index] = Bitcode.from_index(index, rep.n_bits)
        out[codes[i], codes[k]] = value
    return out


def reconstruct_from_outer(rep, coeffs):
    """The Matrix sum of c * e_a e_b. over outer coefficients c[(a, b)]."""
    # each e_a e_b. has one nonzero entry, so accumulate by position
    n = rep.n_bits
    for a, b in coeffs:
        if len(a.bits) != n or len(b.bits) != n:
            rep.check_bitcode(a)
            rep.check_bitcode(b)
    items = ((a.index(), b.index(), c) for (a, b), c in coeffs.items())
    return Matrix.from_items(rep.dim, rep.dim, _outer_keys(rep, items, False))


# -- blade decomposition ------------------------------------------------------


def blade_coefficient(rep, blade, m):
    """Coefficient of a basis blade in m: trace(raised_blade @ m) / 2**n.

    Column i of the raised blade holds one unit, in row i ^ x when
    i & m == v, so row i of m meets it only in its entry m[i, i ^ x].
    """
    raised = raised_blade_matrix(rep, blade)
    x, z, mask, v, p = raised.x, raised.z, raised.m, raised.v, raised.p
    e = raised.e - 2 * rep.n_bits  # the 1 / 2**n as a power of sqrt2
    acc = ZERO
    for i, row in m.sparse_rows.items():
        if i & mask == v:
            s = row.get(i ^ x)
            if s is not None:
                acc = acc + unit(p ^ 2 * ((i & z).bit_count() & 1), e) * s
    return acc


def decompose_multivector(rep, m):
    """Exact chiral blade coefficients of a square matrix, by the per-plane transform.

    For odd dimension in project mode the blades are the quotient basis,
    with the chiral operator identified with one.
    """
    if m.nrows != rep.dim or m.ncols != rep.dim:
        raise ValueError("matrix dimension does not match the representation")
    [coeffs] = _plane_transform(rep.n_bits, [{(i, j): s for i, j, s in m.nonzero_items()}], True)
    return {_blade_of_bits(r, c): s for (r, c), s in coeffs.items()}


def reconstruct_from_blades(rep, coeffs):
    """The Matrix sum of c * blade over chiral blade coefficients, by the inverse transform."""
    element = {}
    for blade, s in coeffs.items():
        if blade.kind != CHIRAL:
            raise ValueError("reconstruct_from_blades takes chiral blades")
        r, c = blade._planes
        if (r | c) >> rep.n_bits:
            raise ValueError(f"blade {blade.label()} has a plane above {rep.n_bits}")
        element[r, c] = s
    [entries] = _plane_transform(rep.n_bits, [element], False)
    return Matrix.from_items(rep.dim, rep.dim, ((r, c, s) for (r, c), s in entries.items()))


@lru_cache(maxsize=1 << 14)
def _blade_of_bits(r, c):
    """The chiral blade unbarred on the planes of c and barred on those of r; bit k - 1 is plane k."""
    planes = range(1, (r | c).bit_length() + 1)
    return BladeIndex(CHIRAL, tuple(
        (k, barred) for k in planes for barred, bits in ((False, c), (True, r)) if bits >> (k - 1) & 1
    ))


def _jw_flips(x):
    """The bits of r that flip the sign (-1)**J of entry (r, r ^ x): those above an odd number of bits of x."""
    flips = 0
    while x:
        low = x & -x
        flips ^= -(low << 1)  # every bit above low
        x ^= low
    return flips


def _plane_transform(n, elements, forward):
    """[{(r, c): Scalar}] of the nonzero results of the transform of each element {(r, c): Scalar}, forward or back.

    It keeps x = r ^ c, so it runs on each x apart, over the planes outside
    x.  A value travels as the int a + b*2**w + c*2**2w + d*2**3w of its
    numerators over the common denominator, and element t's value at
    (r, r ^ x) sits in the bits from t * 4w up of one int per position, so
    each x runs one butterfly for every element.  Each result is a signed
    sum of at most 2**n inputs of one element, and w is one bit more than
    such a sum of the largest numerator needs, so no lane carries into the
    next and a sum or difference of positions is one int operation.  The
    width is read once per distinct input Scalar, and ``_unpacked`` makes
    one Scalar per distinct result.
    """
    scalars = {id(s): s for element in elements for s in element.values()}
    den = 1
    top = 0  # the bits of every numerator's magnitude
    for s in scalars.values():
        if den % s.q:
            den = lcm(den, s.q)
        top |= abs(s.a) | abs(s.b) | abs(s.c) | abs(s.d)
    width = top.bit_length() + den.bit_length() + n + 1
    slot = 4 * width
    packed = {
        k: den // s.q * (s.a + (s.b << width) + (s.c << 2 * width) + (s.d << 3 * width))
        for k, s in scalars.items()
    }
    groups = {}  # x -> {r: the int of position (r, r ^ x)}
    for t, element in enumerate(elements):
        shift = t * slot
        for (r, c), s in element.items():
            x = r ^ c
            group = groups.get(x)
            if group is None:
                group = groups[x] = {}
            group[r] = group.get(r, 0) + (packed[id(s)] << shift)
    full = (1 << n) - 1
    mask, half, carry = (1 << slot) - 1, 1 << (slot - 1), 1 << slot
    out = [{} for _ in elements]
    for x, group in groups.items():
        flips = _jw_flips(x)  # entries of odd J are negated before the forward butterfly, after the inverse one
        if forward:
            group = {r: -u if (r & flips).bit_count() & 1 else u for r, u in group.items()}
        e = x.bit_count() - 2 * n if forward else x.bit_count()  # the scale as a power of sqrt2
        for r, u in _butterfly(group, ~x & full).items():
            if not forward and (r & flips).bit_count() & 1:
                u = -u
            key, t = (r, r ^ x), 0
            while u:  # u holds the slots from t up: those below were exactly zero or read off
                v = u & mask
                if not v:  # skip to the lowest nonzero slot
                    skip = ((u & -u).bit_length() - 1) // slot
                    t += skip
                    u >>= skip * slot
                    v = u & mask
                u >>= slot
                if v & half:  # a negative slot borrowed one from the slots above it
                    v -= carry
                    u += 1
                out[t][key] = _unpacked(v, width, den, e)
                t += 1
    return out


def _butterfly(vals, free):
    """{r: value} after the 2-point butterfly on each plane of `free`.

    On plane `bit`, (v, w) at r bits 0 and 1 become v + w and v - w, and a
    sum that cancels is dropped.
    """
    while free:
        bit = free & -free
        free ^= bit
        new = {}
        for r, v in vals.items():
            if r & bit:
                if r ^ bit not in vals:
                    new[r ^ bit] = v
                    new[r] = -v
            elif (w := vals.get(r | bit)) is None:
                new[r] = new[r | bit] = v
            else:
                if t := v + w:
                    new[r] = t
                if t := v - w:
                    new[r | bit] = t
        vals = new
    return vals


@lru_cache(maxsize=1 << 12)
def _unpacked(v, width, den, e):
    """The Scalar of the packed numerators v over den, times sqrt2**e; a basis has few distinct ones."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    a = ((v + half) & mask) - half
    v = (v - a) >> width
    b = ((v + half) & mask) - half
    v = (v - b) >> width
    c = ((v + half) & mask) - half
    d = (v - c) >> width
    if e & 1:  # (a + b sqrt2) sqrt2 = 2b + a sqrt2
        a, b, c, d = 2 * b, a, 2 * d, c
    h = e >> 1
    return _normalised(a << h, b << h, c << h, d << h, den) if h >= 0 else _normalised(a, b, c, d, den << -h)


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


# -- chirality -----------------------------------------------------------------


def chiral_projector(rep, handedness):
    """(1 +- kappa)/2; right-handed is the + sign."""
    if rep.is_odd and rep.odd_mode == "project":
        raise ValueError(
            "chirality projectors need an even representation or an embedded odd one"
        )
    if handedness in ("right", "R", "+", 1):
        sign = ONE
    elif handedness in ("left", "L", "-", -1):
        sign = -ONE
    else:
        raise ValueError(f"unknown handedness {handedness!r}: use right, R, +, 1, left, L, - or -1")
    return (Monomial.identity(rep.n_bits) + rep.kappa.scale(sign)).scale(HALF)


def chiral_project(rep, m, handedness):
    return chiral_projector(rep, handedness) @ m


def verify_isomorphism(rep):
    """Round-trip every basis blade and every basis outer product.

    Each blade is built from generator products, goes to outer
    coefficients and back, and must also decompose to itself with
    coefficient one, which checks the forward transform on a basis; each
    outer product must come back from its blade coefficients, which
    checks the inverse one.  The transform keeps the diagonal x = r ^ c,
    so the elements are grouped by x and each group runs one transform
    per direction, every element in its own lanes of one int per
    position: 2**n calls each, not one per element.  The forward results
    of the outer products go straight into the inverse call.

    A blade entry in column j comes back from its outer key unchanged
    exactly when the probe (0, j, 1) does, as no nonzero value equals its
    negation; so a blade fails the outer round trip exactly when it has an
    entry in a column whose probe does not come back.

    Returns {"dim", "blades_checked", "outer_checked", "failures": [...]}:
    the failures blade by blade, the outer round trip before the
    self-decomposition, then the outer products with a before b.
    """
    n = rep.n_bits
    probes = [(0, j, 1) for j in range(rep.dim)]
    back = _outer_keys(rep, _outer_keys(rep, probes, True), False)
    unmapped = {j for (_, j, _), probe in zip(probes, back) if probe != (0, j, 1)}
    blades = all_chiral_blades(rep)
    diagonals = {}
    for t, blade in enumerate(blades):
        r, c = blade._planes
        diagonals.setdefault(r ^ c, []).append(t)
    outer_failed, self_failed = set(), set()
    for ts in diagonals.values():  # one diagonal's entries at a time
        elements = [{(i, j): s for i, j, s in blade_matrix(rep, blades[t]).nonzero_items()} for t in ts]
        if unmapped:
            outer_failed.update(t for t, element in zip(ts, elements) if any(j in unmapped for _, j in element))
        for t, coeffs in zip(ts, _plane_transform(n, elements, True)):
            if coeffs != {blades[t]._planes: ONE}:
                self_failed.add(t)
    failures = []
    for t, blade in enumerate(blades):
        if t in outer_failed:
            failures.append(f"blade {blade.label()} failed the outer round trip")
        if t in self_failed:
            failures.append(f"blade {blade.label()} does not decompose to itself")

    codes = all_bitcodes(n)
    # e_a e_b. is the product of column a and row b, so each spinor is built once
    columns = [Element.column(rep, rep.basis_spinor(a)) for a in codes]
    rows = [row_of(rep, column) for column in columns]
    products = {}  # x -> {t: {(i, j): s} of the entries on diagonal x of product t = a * dim + b}
    for t, (column, row) in enumerate(product(columns, rows)):
        for i, j, s in multiply(column, row).payload.nonzero_items():
            products.setdefault(i ^ j, {}).setdefault(t, {})[i, j] = s
    products_failed = set()
    for diagonal in products.values():
        elements = list(diagonal.values())
        rebuilt = _plane_transform(n, _plane_transform(n, elements, True), False)
        products_failed.update(t for t, element, back in zip(diagonal, elements, rebuilt) if back != element)
    dim = rep.dim
    failures += [f"outer product ({codes[t // dim]}, {codes[t % dim]}) failed the blade round trip"
                 for t in sorted(products_failed)]
    return {
        "dim": dim,
        "blades_checked": len(blades),
        "outer_checked": dim * dim,
        "failures": failures,
    }
