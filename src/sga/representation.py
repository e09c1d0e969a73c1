"""Chiral representation of spinors and Clifford algebras.

A basis spinor is labelled by a bitcode of n bits, one per rotation
plane, and its index reads the bits as a binary number: a down bit at
plane k contributes bit = 2**(k-1).  Every generator is a masked Pauli
string i**p sqrt2**e X**x Z**z P(m, v) on those indices (a ``Monomial``),
written down in closed form (the Jordan-Wigner construction) rather than
by doubling the spinor space plane by plane.  With `above` the bits of
the planes above k, so that Z**above is the sign of those planes:

    g_k     = sqrt2 X**bit Z**above P(bit, bit)   (the columns with the bit set)
    gbar_k  = sqrt2 X**bit Z**above P(bit, 0)     (the columns with the bit clear)
    plus_k  = X**bit Z**above
    minus_k = i X**bit Z**(above | bit)

so g_k and gbar_k = (plus_k +- i minus_k)/sqrt2 carry charge +-1 under
rotations in plane k, and every generator anticommutes with those of the
other planes.  The chiral operator kappa is Z**all.  The standard spinor
metric is (-1)**|mask| X**all Z**mask, with mask the bits of the even
planes; the alternative metric takes the odd planes instead.

Timelike dimensions are realised as i times the spacelike matrix; the
metrics are computed from the spacelike forms regardless of signature.

Odd total dimension N is handled two ways: ``project`` identifies the
chiral operator with 1 and takes the final vector equal to the chiral
operator of the even subalgebra; the ``embed_*`` modes build the even
(N+1)-dimensional representation and tag either the final odd vector or
the extra vector as a scalar (rotation-inert) dimension, which also
enables the primed metric variants.

Every operator is built, multiplied and held as a ``Monomial``, the
Matrix kept as a masked Pauli string of a few words, with no per-row
list.  The attributes and accessors return those operators themselves,
so a product of two is a word product, and a product with any other
Matrix gathers or relabels that factor's entries instead of multiplying
Scalars.  The plane words (the generators, both even metrics and
kappa) depend on the plane count alone, so they are built once per
count and shared by every representation with that many planes; no
word is ever assigned after construction.  Building a representation
allocates nothing of size dim, so it is not capped: ``SGA_MAX_DIM``
bounds only the listing of an operator's dim-many entries (its rows or
JSON).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

from .matrices import Matrix, Monomial

METRIC_CHOICES = ("standard", "alternative", "prime_standard", "prime_alternative")
ODD_MODES = ("project", "embed_scalar_n", "embed_scalar_n_plus_1")


@dataclass(frozen=True)
class Signature:
    spacelike: int
    timelike: int = 0
    timelike_axes: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.spacelike < 0 or self.timelike < 0:
            raise ValueError("dimension counts must be nonnegative")
        if self.total < 1:
            raise ValueError("need at least one dimension")
        if self.timelike_axes is None:
            axes = tuple(range(self.spacelike + 1, self.total + 1))
            object.__setattr__(self, "timelike_axes", axes)
        else:
            axes = tuple(sorted(self.timelike_axes))
            object.__setattr__(self, "timelike_axes", axes)
            if len(axes) != self.timelike or len(set(axes)) != len(axes):
                raise ValueError("timelike_axes must list exactly the timelike axes")
            if axes and (axes[0] < 1 or axes[-1] > self.total):
                raise ValueError("timelike axis out of range")

    @property
    def total(self):
        return self.spacelike + self.timelike

    def is_timelike(self, axis):
        return axis in self.timelike_axes


@dataclass(frozen=True)
class RepConfig:
    signature: Signature
    metric: str = "standard"
    odd_mode: str = "project"

    def __post_init__(self):
        if self.metric not in METRIC_CHOICES:
            raise ValueError(f"unknown metric choice {self.metric!r}")
        if self.odd_mode not in ODD_MODES:
            raise ValueError(f"unknown odd mode {self.odd_mode!r}")
        n = self.signature.total
        if self.metric.startswith("prime"):
            if n % 2 == 0 or self.odd_mode == "project":
                raise ValueError("primed metrics require odd N and an embed odd mode")
            if self.metric == "prime_standard" and self.odd_mode != "embed_scalar_n":
                raise ValueError("prime_standard requires the final vector as scalar")
            if (
                self.metric == "prime_alternative"
                and self.odd_mode != "embed_scalar_n_plus_1"
            ):
                raise ValueError("prime_alternative requires the extra vector as scalar")


@cache
def _even_core(pairs):
    """The operators of the even algebra on `pairs` planes, in the closed forms above.

    (chiral, orth, eps_std, eps_alt, kappa): chiral holds (g_k, gbar_k)
    and orth (plus_k, minus_k) per plane, both tuples.  They depend on
    the plane count only, so they are built once per count and shared by
    every representation with that many planes.
    """
    top = (1 << pairs) - 1
    chiral, orth = [], []
    for k in range(1, pairs + 1):
        bit = 1 << (k - 1)
        above = top ^ (2 * bit - 1)
        chiral.append((Monomial(pairs, bit, above, bit, bit, e=1),
                       Monomial(pairs, bit, above, bit, 0, e=1)))
        orth.append((Monomial(pairs, bit, above), Monomial(pairs, bit, above | bit, p=1)))

    def metric(planes):
        mask = sum(1 << (k - 1) for k in planes)
        return Monomial(pairs, top, mask, p=2 * (mask.bit_count() & 1))

    return (tuple(chiral), tuple(orth), metric(range(2, pairs + 1, 2)), metric(range(1, pairs + 1, 2)),
            Monomial(pairs, z=top))


class Representation:
    """All constructed operators for one (signature, metric, odd-mode) choice.

    It has two index spaces: the algebra's axes a = 1..N (``gamma``)
    and its rotation planes k = 1..n_bits, one bit of the spinor index
    each (``plane_vectors``, ``gamma_plus``, ``gamma_minus``,
    ``gamma_chiral``).  Every operator is a ``Monomial``: the attributes
    kappa_diag, kappa, eps_std, eps_alt, eps, scalar_axis_matrix (None
    unless an embed odd mode) and Gamma are built with the representation,
    and pseudoscalar and C on first read, since the tables never read
    them.  ``__init__`` sets the metrics in one branch per case: even N
    takes the even core's eps_std and eps_alt, and eps is eps_std for
    "standard", else eps_alt; ``project`` sets all three to the core's
    alternative metric; an embed mode keeps the core's eps_std, makes
    eps_alt the product of i minus_k over the first (N - 1)/2 planes, and
    eps the metric named (prime_standard = eps_std @ scalar_axis_matrix,
    prime_alternative = the core's alternative).  The plane words come
    from ``_even_core``, which builds them once per plane count, so
    representations with equal ``n_bits`` share the same generator, metric
    and kappa objects.  The blades are cached on first use.  The blade
    dictionary reads the metric's map of bitcodes and the raised blades
    off words, so it caches nothing else here.  Nothing else changes after
    construction, and a first use yields equal results in any thread, so
    concurrent first use is harmless.
    """

    def __init__(self, config):
        sig = config.signature
        n_total = sig.total
        self.config = config
        self.signature = sig
        self.N = n_total
        self.is_odd = n_total % 2 == 1
        self.odd_mode = config.odd_mode if self.is_odd else None
        embed = self.is_odd and config.odd_mode != "project"
        pairs = (n_total + 1) // 2 if embed else n_total // 2
        self._chiral, self._orth, core_std, core_alt, kappa_diag = _even_core(pairs)
        self.n_bits = pairs
        self.dim = 1 << pairs
        self.kappa_diag = kappa_diag
        full = [m for pair in self._orth for m in pair]

        # Map the axes onto built operators (spacelike forms) and set the metrics, one branch per case (see
        # the class docstring).  _slots[a - 1] is axis a's place 2(k - 1) + j among the plane vectors `full`;
        # the scalar dimension is slot N - 1 (embed_scalar_n) or N (embed_scalar_n_plus_1).
        self.scalar_axis_matrix = None
        if not self.is_odd:
            self._spacelike, self._slots = full, range(n_total)
            self.kappa = kappa_diag
            self.eps_std, self.eps_alt = core_std, core_alt
            self.eps = core_std if config.metric == "standard" else core_alt
        elif not embed:
            self._spacelike, self._slots = full + [kappa_diag], range(n_total - 1)
            self.kappa = Monomial.identity(pairs)
            self.eps = self.eps_std = self.eps_alt = core_alt
        else:
            scalar = n_total - 1 if config.odd_mode == "embed_scalar_n" else n_total
            self._slots = [s for s in range(n_total + 1) if s != scalar]
            self._spacelike = [full[s] for s in self._slots]
            self.scalar_axis_matrix = full[scalar]
            self.kappa = kappa_diag
            self.eps_std = core_std
            self.eps_alt = Monomial.identity(pairs)
            for _, minus in self._orth[:(n_total - 1) // 2]:
                self.eps_alt = self.eps_alt @ minus.times_unit(1)  # i minus_k
            self.eps = {"standard": core_std, "alternative": self.eps_alt,
                        "prime_standard": core_std @ full[scalar], "prime_alternative": core_alt}[config.metric]

        self.metric_square_sign = self.eps.square_sign()
        if not self.metric_square_sign:
            raise AssertionError("spinor metric square is not +-1")
        timelike = sig.timelike_axes
        self._gammas = [g.times_unit(1) if a in timelike else g  # timelike: times i
                        for a, g in enumerate(self._spacelike, 1)]
        raw = Monomial.identity(pairs)  # Gamma: the product of the timelike vectors, phased to square to 1
        for axis in timelike:
            raw = raw @ self._gammas[axis - 1]
        self.Gamma = raw if raw.square_sign() == 1 else raw.times_unit(3 if sig.timelike == 1 else 1)

        self._blade_cache = {}

    # -- operators built on first read ----------------------------------------

    @cached_property
    def pseudoscalar(self):
        ps = Monomial.identity(self.n_bits)
        if self.is_odd and self.odd_mode == "project":
            ps = ps.times_unit(self.n_bits)
        else:
            for g in self._spacelike:
                ps = ps @ g
        return ps

    @cached_property
    def C(self):
        return self.eps @ self.Gamma.transpose()

    # -- spinor indexing ---------------------------------------------------

    def check_bitcode(self, b):
        if len(b) != self.n_bits:
            raise ValueError(
                f"bitcode length {len(b)} does not match {self.n_bits} planes"
            )

    def spinor_index(self, b):
        self.check_bitcode(b)
        return b.index()

    def basis_spinor(self, b):
        """Unit column for the basis spinor labelled by bitcode b."""
        return Matrix.unit_column(self.dim, self.spinor_index(b))

    # -- operator accessors --------------------------------------------------

    def gamma(self, axis):
        """Orthonormal basis vector for axis in 1..N (timelike carry a factor i)."""
        self._check_axis(axis)
        return self._gammas[axis - 1]

    def gamma_plus(self, k):
        self._check_pair(k)
        return self._orth[k - 1][0]

    def gamma_minus(self, k):
        self._check_pair(k)
        return self._orth[k - 1][1]

    def gamma_chiral(self, k, barred=False):
        self._check_pair(k)
        return self._chiral[k - 1][1 if barred else 0]

    def _check_axis(self, axis):
        if not 1 <= axis <= self.N:
            raise ValueError(f"axis {axis} out of range 1..{self.N}")

    def _check_pair(self, k):
        if not 1 <= k <= self.n_bits:
            raise ValueError(f"plane index {k} out of range 1..{self.n_bits}")

    def plane_vectors(self, k):
        """Plane k's two vectors as built, (gamma_plus(k), gamma_minus(k)) with a timelike one times i.

        The scalar dimension of an embed odd mode is one of them, as
        ``scalar_axis_matrix``.
        """
        self._check_pair(k)
        return tuple(m.times_unit(1) if self._is_timelike_slot(2 * k - 2 + j) else m
                     for j, m in enumerate(self._orth[k - 1]))

    def plane_is_boost(self, k):
        """True when exactly one vector of plane k is timelike."""
        self._check_pair(k)
        return self._is_timelike_slot(2 * k - 2) != self._is_timelike_slot(2 * k - 1)

    def _is_timelike_slot(self, slot):
        """True when the plane vector at `slot` builds a timelike axis; the scalar dimension never does."""
        return slot in self._slots and self.signature.is_timelike(self._slots.index(slot) + 1)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        sig = self.signature
        out = {
            "config": {
                "spacelike": sig.spacelike,
                "timelike": sig.timelike,
                "timelike_axes": list(sig.timelike_axes),
                "N": self.N,
                "metric": self.config.metric,
                "odd_mode": self.odd_mode,
            },
            "dim": self.dim,
            "epsilon": self.eps.to_json(),
            "epsilon_alt": self.eps_alt.to_json(),
            "kappa": self.kappa.to_json(),
            "pseudoscalar": self.pseudoscalar.to_json(),
            "Gamma": self.Gamma.to_json(),
            "C": self.C.to_json(),
        }
        for k in range(1, self.n_bits + 1):
            out[f"gamma_plus_{k}"] = self.gamma_plus(k).to_json()
            out[f"gamma_minus_{k}"] = self.gamma_minus(k).to_json()
            out[f"gamma_chiral_{k}"] = self.gamma_chiral(k).to_json()
            out[f"gamma_chiral_{k}bar"] = self.gamma_chiral(k, barred=True).to_json()
        if self.is_odd:
            out["gamma_N"] = self.gamma(self.N).to_json()
        return out


def build_representation(config=None, **kwargs):
    """Build a Representation from a RepConfig or from keyword shorthand.

    Keyword form: build_representation(spacelike=3, timelike=1, metric=...).
    """
    if config is None:
        signature = Signature(kwargs.pop("spacelike"), kwargs.pop("timelike", 0), kwargs.pop("timelike_axes", None))
        config = RepConfig(signature, **kwargs)
    return Representation(config)
