"""Basis blades and the spinor-outer-product <-> multivector dictionary.

Chiral basis blades are wedges of the 2n chiral generators in the order
g_1 < g_1bar < g_2 < ... ; orthonormal blades are wedges of distinct
axes.  A chiral blade is the ordered product of its per-plane factors 1,
g_k, g_kbar or g_k g_kbar - 1 = Z_k, a masked Pauli string too.
``blade_matrix`` returns each blade as that ``Monomial``, cached per
representation as its words, so a decomposition or comparison of a blade
builds no rows.  ``raised_blade_matrix`` reads the raised blade off that
cache by the blade's bits: barring every chiral index (k <-> kbar) swaps
its two plane masks, the metric signs the orthonormal axes, and
reversing the factor order is the reversal sign.

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
``blade_coefficient`` is the reference.

The transform keeps the diagonal x = r ^ c, and it never mixes positions
in different cosets r & x of it, so it runs in two steps.  A grouping
packs every position of each diagonal into one int, one lane of 4w bits
per element; then one per-diagonal core (``_diagonal_lanes``: the
Jordan-Wigner signs, the butterfly and the walk over the lanes) lists
each nonzero result as (r, lane, packed value), for every element on
that diagonal at once.  There are three groupings and one core.  The
entry side, ``_plane_transform``, gives element t lane t and serves any
matrix given to ``decompose_multivector`` and blade coefficients being
reconstructed.  The word side, ``_word_transform``, serves the basis
blades of ``verify_isomorphism``: their rows are walked from (x, z, m,
v) and each unit i**p * sqrt2**e is packed once, so no entry dict is
built.  Both read the core out through ``_diagonal_transform``.  The
basis outer products of ``verify_isomorphism`` go straight into shared
lanes: products in disjoint cosets of a diagonal share a lane, so its
ints hold 2**(n - |x|) lanes, not dim.  Their forward lanes become
Scalars, which are repacked and summed per position into the inverse
input, with no coefficient dict built.  So each diagonal runs the core
once for its blades and once per direction for its outer products; the
report is the one a round trip of each element alone gives.

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
from .matrices import Matrix, Monomial, _word_rows, check_dimension
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
    gens = [bits for k in range(n) for bits in ((0, 1 << k), (1 << k, 0))]  # (r, c) of g_k, then of g_kbar
    return tuple(_blade_of_bits(sum(r for r, _ in combo), sum(c for _, c in combo))
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

    The matrix enters the transform from its nonzero entries.  A Monomial
    lists them from its words and so checks the dimension cap once
    (``max_dimension()``); a matrix already held as entries is taken as
    it is.  For odd dimension in project mode the blades are the quotient
    basis, with the chiral operator identified with one.
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


def _packing(n, scalars):
    """(width, den, [the int of each Scalar]) for a transform on n planes of values among `scalars`.

    A value travels as the int a + b*2**w + c*2**2w + d*2**3w of its
    numerators over the common denominator den.  Each result is a signed
    sum of at most 2**n inputs of one element, and w is one bit more than
    such a sum of the largest numerator needs, so no lane carries into the
    next and a sum or difference of positions is one int operation.  This
    is the one place where the transform reads a Scalar's parts.
    """
    den = 1
    top = 0  # the bits of every numerator's magnitude
    for s in scalars:
        if den % s.q:
            den = lcm(den, s.q)
        top |= abs(s.a) | abs(s.b) | abs(s.c) | abs(s.d)
    width = top.bit_length() + den.bit_length() + n + 1
    return width, den, [den // s.q * (s.a + (s.b << width) + (s.c << 2 * width) + (s.d << 3 * width))
                        for s in scalars]


def _plane_transform(n, elements, forward):
    """[{(r, c): Scalar}] of the nonzero results of the transform of each element {(r, c): Scalar}, forward or back.

    The entry side of the transform: each entry joins diagonal x = r ^ c,
    and element t's value at (r, r ^ x) sits in the bits from t * 4w up of
    one int per position, so each x runs one ``_diagonal_transform`` for
    every element.  The width is read once per distinct input Scalar.
    """
    scalars = {id(s): s for element in elements for s in element.values()}
    width, den, ints = _packing(n, scalars.values())
    packed = dict(zip(scalars, ints))
    slot = 4 * width
    groups = {}  # x -> {r: the int of position (r, r ^ x)}
    for t, element in enumerate(elements):
        shift = t * slot
        for (r, c), s in element.items():
            x = r ^ c
            group = groups.get(x)
            if group is None:
                group = groups[x] = {}
            group[r] = group.get(r, 0) + (packed[id(s)] << shift)
    out = [{} for _ in elements]
    for x, group in groups.items():
        _diagonal_transform(n, x, group, width, den, forward, out)
    return out


def _word_transform(n, words):
    """``_plane_transform`` forward of each Monomial of `words` on n planes, its rows walked from its words.

    The word side of the transform.  Each nonempty row r of a word
    (x, z, m, v, p, e), as ``_word_rows`` walks them, holds
    i**(p + 2|(r ^ x) & z|) * sqrt2**e on diagonal x; so each word packs
    its unit once, the other being its negation, and no entry dict is
    built.  It walks up to dim rows per word without reading the cap:
    ``verify_isomorphism``, its caller, checks it once (``check_dimension``).
    """
    live = [(t, w) for t, w in enumerate(words) if w.v >= 0]
    width, den, ints = _packing(n, [unit(w.p, w.e) for _, w in live])
    slot = 4 * width
    full = (1 << n) - 1
    groups = {}  # x -> {r: the int of position (r, r ^ x)}
    for (t, w), u in zip(live, ints):
        u <<= t * slot
        group = groups.get(w.x)
        if group is None:
            group = groups[w.x] = {}
        for r, odd in _word_rows(full, w.x, w.z, w.m, w.v):
            group[r] = group.get(r, 0) + (-u if odd else u)
    out = [{} for _ in words]
    for x, group in groups.items():
        _diagonal_transform(n, x, group, width, den, True, out)
    return out


def _diagonal_transform(n, x, group, width, den, forward, out):
    """Transform diagonal x's positions {r: packed int} on n planes, writing element t's nonzero results into out[t].

    The read-out of ``_diagonal_lanes``: ``_unpacked`` makes one Scalar per
    distinct result.  A result of the forward transform is keyed by the
    blade's (r, c) bits, of the inverse one by its entry's position.
    """
    e = x.bit_count() - 2 * n if forward else x.bit_count()  # the scale as a power of sqrt2
    for r, t, v in _diagonal_lanes(n, x, group, width, forward):
        out[t][r, r ^ x] = _unpacked(v, width, den, e)


def _diagonal_lanes(n, x, group, width, forward):
    """(r, t, v) of each nonzero lane t of position (r, r ^ x) after transforming diagonal x's {r: packed int}.

    The per-diagonal core that every transform shares: the Jordan-Wigner
    signs, the butterfly over the planes outside x, and the walk over each
    result's lanes of 4 * width bits, v being the lane's signed packed
    value.  It leaves the scale sqrt2**(|x| - 2n) forward, sqrt2**|x|
    back, to the read-out.
    """
    flips = _jw_flips(x)  # entries of odd J are negated before the forward butterfly, after the inverse one
    if forward:
        group = {r: -u if (r & flips).bit_count() & 1 else u for r, u in group.items()}
    slot = 4 * width
    mask, half, carry = (1 << slot) - 1, 1 << (slot - 1), 1 << slot
    for r, u in _butterfly(group, ~x & ((1 << n) - 1)).items():
        if not forward and (r & flips).bit_count() & 1:
            u = -u
        t = 0
        while u:  # u holds the lanes from t up: those below were exactly zero or read off
            v = u & mask
            if not v:  # skip to the lowest nonzero lane
                skip = ((u & -u).bit_length() - 1) // slot
                t += skip
                u >>= skip * slot
                v = u & mask
            u >>= slot
            if v & half:  # a negative lane borrowed one from the lanes above it
                v -= carry
                u += 1
            yield r, t, v
            t += 1


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
    """The Scalar of the packed numerators v over den, times sqrt2**e (``Scalar.times_unit``); a basis has few distinct ones."""
    mask, half = (1 << width) - 1, 1 << (width - 1)
    a = ((v + half) & mask) - half
    v = (v - a) >> width
    b = ((v + half) & mask) - half
    v = (v - b) >> width
    c = ((v + half) & mask) - half
    d = (v - c) >> width
    return _normalised(a, b, c, d, den).times_unit(0, e)


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
    so the elements are grouped by x and each group runs one core call
    per direction, the elements in lanes of one int per position: 3 *
    2**n core calls in all, not one per element.  The blades enter the
    transform from their words (``_word_transform``), each in its own
    lane, with no entry dict built.  The outer products, built by
    ``multiply``, are packed straight into the lanes of their diagonals
    (``_failed_outer_products``).  The transform never mixes the cosets
    r & x, so products in disjoint cosets share a lane, and a diagonal's
    ints hold 2**(n - |x|) lanes, not dim.  The forward lanes become
    Scalars, one per distinct value through ``_unpacked``, and those
    Scalars, repacked, are summed per position into the inverse input:
    no coefficient dict is built.  The dimension cap is read once per
    call.

    A blade entry in column j comes back from its outer key unchanged
    exactly when the probe (0, j, 1) does, as no nonzero value equals its
    negation; so a blade fails the outer round trip exactly when it has an
    entry in a column whose probe does not come back, that is a column j
    with j & m == v.

    Returns {"dim", "blades_checked", "outer_checked", "failures": [...]}:
    the failures blade by blade, the outer round trip before the
    self-decomposition, then the outer products with a before b.
    """
    n = rep.n_bits
    check_dimension(rep.dim)
    probes = [(0, j, 1) for j in range(rep.dim)]
    back = _outer_keys(rep, _outer_keys(rep, probes, True), False)
    unmapped = {j for (_, j, _), probe in zip(probes, back) if probe != (0, j, 1)}
    blades = all_chiral_blades(rep)
    diagonals = {}
    for t, blade in enumerate(blades):
        r, c = blade._planes
        diagonals.setdefault(r ^ c, []).append(t)
    outer_failed, self_failed = set(), set()
    for ts in diagonals.values():  # one diagonal's words at a time
        words = [blade_matrix(rep, blades[t]) for t in ts]
        if unmapped:  # a word has an entry in column j exactly when j & m == v
            outer_failed.update(t for t, w in zip(ts, words) if any(j & w.m == w.v for j in unmapped))
        for t, coeffs in zip(ts, _word_transform(n, words)):
            if coeffs != {blades[t]._planes: ONE}:
                self_failed.add(t)
    failures = []
    for t, blade in enumerate(blades):
        if t in outer_failed:
            failures.append(f"blade {blade.label()} failed the outer round trip")
        if t in self_failed:
            failures.append(f"blade {blade.label()} does not decompose to itself")

    dim = rep.dim
    codes = all_bitcodes(n)
    failures += [f"outer product ({codes[t // dim]}, {codes[t % dim]}) failed the blade round trip"
                 for t in _failed_outer_products(rep, codes)]
    return {
        "dim": dim,
        "blades_checked": len(blades),
        "outer_checked": dim * dim,
        "failures": failures,
    }


def _failed_outer_products(rep, codes):
    """The sorted t = a * dim + b of the outer products e_a e_b. of the bitcodes `codes` that fail the blade round trip.

    Each product, built by ``multiply``, is packed straight into the lanes
    of its diagonals.  The butterfly never mixes positions r in different
    cosets r & x of diagonal x, so products in disjoint cosets share a
    lane; a product takes the next lane free in every coset it meets.
    Per diagonal, the forward lanes of ``_diagonal_lanes`` become Scalars,
    one per distinct value through ``_unpacked``, and those Scalars,
    repacked by ``_packing``, are summed per position into the inverse
    input; each rebuilt lane must give back its product's entries.
    """
    n = rep.n_bits
    columns = [Element.column(rep, rep.basis_spinor(a)) for a in codes]
    rows = [row_of(rep, column) for column in columns]  # e_a e_b. is column a times row b: each built once
    entries, owners, free = {}, {}, {}  # x -> {(r, lane): s}; (x, coset, lane) -> t; (x, coset) -> next free lane
    for t, (column, row) in enumerate(product(columns, rows)):
        items = [(i ^ j, i, s) for i, j, s in multiply(column, row).payload.nonzero_items()]
        lanes = {}  # x -> the next lane free in every coset that product t meets on diagonal x
        for x, i, _ in items:
            lanes[x] = max(lanes.get(x, 0), free.get((x, i & x), 0))
        for x, i, s in items:
            key, lane = (x, i & x), lanes[x]
            free[key] = lane + 1
            owners[key + (lane,)] = t
            entries.setdefault(x, {})[i, lane] = s
    failed = set()
    for x, diagonal in entries.items():
        e = x.bit_count()  # the inverse's scale as a power of sqrt2, the forward one's being e - 2n
        width, den, group = _lane_sums(n, ((r, lane, id(s)) for (r, lane), s in diagonal.items()),
                                       {id(s): s for s in diagonal.values()})
        lanes = list(_diagonal_lanes(n, x, group, width, True))
        scalars = {v: _unpacked(v, width, den, e - 2 * n) for v in {v for _, _, v in lanes}}
        width, den, group = _lane_sums(n, lanes, scalars)
        for r, lane, v in _diagonal_lanes(n, x, group, width, False):
            if _unpacked(v, width, den, e) != diagonal.pop((r, lane), None):
                failed.add(owners[x, r & x, lane])
        failed.update(owners[x, r & x, lane] for r, lane in diagonal)  # entries that did not come back
    return sorted(failed)


def _lane_sums(n, placed, scalars):
    """(width, den, {r: int}) with scalars[key] in lane `lane` of position r, for each (r, lane, key) of `placed`."""
    width, den, ints = _packing(n, scalars.values())
    packed = dict(zip(scalars, ints))
    slot = 4 * width
    group = {}
    for r, lane, key in placed:
        group[r] = group.get(r, 0) + (packed[key] << lane * slot)
    return width, den, group
