"""Chiral representation of spinors and Clifford algebras.

A basis spinor is labelled by a bitcode of n bits, one per rotation
plane, and its index reads the bits as a binary number: a down bit at
plane k contributes bit = 2**(k-1).  Every generator is a signed monomial
on those indices, written down in closed form (the Jordan-Wigner
construction) rather than by doubling the spinor space plane by plane.
With s(j) = (-1)**popcount(j >> k), the sign of the planes above k, the
generators of plane k send column j to row j ^ bit:

    g_k      (bit set in j)    value sqrt2 * s(j)
    gbar_k   (bit clear in j)  value sqrt2 * s(j)
    plus_k   (every j)         value s(j)
    minus_k  (every j)         value -i s(j) if the bit is set, i s(j) if not

so g_k and gbar_k = (plus_k +- i minus_k)/sqrt2 carry charge +-1 under
rotations in plane k, and every generator anticommutes with those of the
other planes.  The chiral operator kappa is diagonal with entries
(-1)**popcount(j).  The standard spinor metric sends column j to row
j ^ (2**n - 1) with one factor -1 per even plane whose bit is clear in j;
the alternative metric counts the odd planes instead.

Timelike dimensions are realised as i times the spacelike matrix; the
metrics are computed from the spacelike forms regardless of signature.

Odd total dimension N is handled two ways: ``project`` identifies the
chiral operator with 1 and takes the final vector equal to the chiral
operator of the even subalgebra; the ``embed_*`` modes build the even
(N+1)-dimensional representation and tag either the final odd vector or
the extra vector as a scalar (rotation-inert) dimension, which also
enables the primed metric variants.

Every operator is built and multiplied as a ``Monomial``; the accessors
return the equal ``Matrix``, converted once per operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bitcodes import Bitcode
from .matrices import Matrix, Monomial, max_dimension
from .scalars import i_power

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
            axes = tuple(range(self.total - self.timelike + 1, self.total + 1))
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

    @property
    def bit_count(self):
        return self.total // 2

    def is_timelike(self, axis):
        return axis in self.timelike_axes


@dataclass(frozen=True)
class RepConfig:
    signature: Signature
    metric: str = "standard"
    odd_mode: str = "project"
    gamma_phase_sign: int = 1
    timelike_pseudoscalar_phase: bool = False
    max_dim: int | None = None

    def __post_init__(self):
        if self.metric not in METRIC_CHOICES:
            raise ValueError(f"unknown metric choice {self.metric!r}")
        if self.odd_mode not in ODD_MODES:
            raise ValueError(f"unknown odd mode {self.odd_mode!r}")
        if self.gamma_phase_sign not in (1, -1):
            raise ValueError("gamma_phase_sign must be +1 or -1")
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


def _even_core(pairs):
    """The operators of the even algebra on `pairs` planes, as signed monomials."""
    dim = 1 << pairs
    rows = range(dim)
    zeros = (0,) * dim
    chiral = []  # (gamma_k, gamma_k_bar)
    orth = []  # (plus_k, minus_k)
    for k in range(1, pairs + 1):
        bit = 1 << (k - 1)
        flip = [i ^ bit for i in rows]
        sign = [2 * ((i >> k).bit_count() & 1) for i in rows]  # phase of s(i) = s(i ^ bit)
        rt2 = (1,) * dim
        chiral.append((
            Monomial([-1 if i & bit else i ^ bit for i in rows], sign, rt2),
            Monomial([i ^ bit if i & bit else -1 for i in rows], sign, rt2),
        ))
        orth.append((
            Monomial(flip, sign, zeros),
            Monomial(flip, [p + (1 if i & bit else 3) for i, p in zip(rows, sign)], zeros),
        ))

    def metric(planes):
        # row i = j ^ (dim - 1): a bit clear in column j is set in row i
        mask = sum(1 << (k - 1) for k in planes)
        return Monomial([i ^ (dim - 1) for i in rows],
                        [2 * ((i & mask).bit_count() & 1) for i in rows], zeros)

    return {
        "dim": dim,
        "chiral": chiral,
        "orth": orth,
        "eps_std": metric(range(2, pairs + 1, 2)),
        "eps_alt": metric(range(1, pairs + 1, 2)),
        "kappa": Monomial(rows, [2 * (i.bit_count() & 1) for i in rows], zeros),
    }


class Representation:
    """All constructed matrices for one (signature, metric, odd-mode) choice.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, config):
        sig = config.signature
        n_total = sig.total
        self.config = config
        self.signature = sig
        self.N = n_total
        self.is_odd = n_total % 2 == 1
        self.odd_mode = config.odd_mode if self.is_odd else None

        if self.is_odd and config.odd_mode.startswith("embed"):
            built_pairs = (n_total + 1) // 2
        else:
            built_pairs = n_total // 2
        dim = 1 << built_pairs
        cap = config.max_dim if config.max_dim is not None else max_dimension()
        if dim > cap:
            raise ValueError(
                f"matrix dimension {dim} exceeds cap {cap}; raise SGA_MAX_DIM to override"
            )

        core = _even_core(built_pairs)
        self.n_bits = built_pairs
        self.dim = core["dim"]
        self._chiral = core["chiral"]
        self._orth = core["orth"]
        self._matrices = {}  # id of an operator monomial -> (that monomial, its Matrix)
        kappa_diag = core["kappa"]
        full = [m for pair in self._orth for m in pair]

        # map the algebra's N orthonormal axes onto built operators (spacelike forms)
        scalar_axis = None
        if not self.is_odd:
            spacelike = full
            kappa = kappa_diag
            eps_std = core["eps_std"]
            eps_alt = core["eps_alt"]
        elif config.odd_mode == "project":
            spacelike = full + [kappa_diag]  # the final vector
            kappa = Monomial.identity(self.dim)
            eps_std = eps_alt = core["eps_alt"]
        else:
            if config.odd_mode == "embed_scalar_n":
                active = list(range(n_total - 1)) + [n_total]
                scalar_axis = full[n_total - 1]
            else:
                active = list(range(n_total))
                scalar_axis = full[n_total]
            spacelike = [full[a] for a in active]
            self._active_built_axes = tuple(a + 1 for a in active)
            kappa = kappa_diag
            eps_std = core["eps_std"]
            eps_alt = self._partial_alt_metric((n_total - 1) // 2)

        self._spacelike = spacelike
        eps = self._select_metric(core, eps_std, eps_alt, scalar_axis)
        self.metric_square_sign = self._square_sign(eps, "spinor metric")
        self._gammas = [
            g.scale(1) if sig.is_timelike(a + 1) else g  # timelike: times i
            for a, g in enumerate(spacelike)
        ]
        Gamma, self.gamma_phase = self._build_time_product()

        as_matrix = self._matrix
        self.kappa_diag = as_matrix(kappa_diag)
        self.kappa = as_matrix(kappa)
        self.eps_std = as_matrix(eps_std)
        self.eps_alt = as_matrix(eps_alt)
        self.eps = as_matrix(eps)
        self.eps_T = eps.transpose().to_matrix()
        self.scalar_axis_matrix = None if scalar_axis is None else as_matrix(scalar_axis)
        self.pseudoscalar = self._build_pseudoscalar().to_matrix()
        self.Gamma = Gamma.to_matrix()
        self.C = (eps @ Gamma.transpose()).to_matrix()

        self._blade_cache = {}
        self._raised_cache = {}
        self._colmap = None
        self._codes = tuple(
            Bitcode.from_index(i, self.n_bits) for i in range(self.dim)
        )

    # -- helpers used during construction --------------------------------

    def _matrix(self, mono):
        """The Matrix of one of this representation's operator monomials, converted once."""
        # the entry keeps the monomial alive, so its id is not reused
        cached = self._matrices.get(id(mono))
        if cached is None:
            cached = self._matrices[id(mono)] = (mono, mono.to_matrix())
        return cached[1]

    def _square_sign(self, m, what):
        sq = m @ m
        ident = Monomial.identity(self.dim)
        if sq == ident:
            return 1
        if sq == ident.scale(2):  # -1
            return -1
        raise AssertionError(f"{what} square is not +-1")

    def _partial_alt_metric(self, pairs):
        m = Monomial.identity(self.dim)
        for k in range(pairs):
            m = m @ self._orth[k][1].scale(1)  # i minus_k
        return m

    def _select_metric(self, core, eps_std, eps_alt, scalar_axis):
        choice = self.config.metric
        if not self.is_odd or self.odd_mode == "project":
            return eps_std if choice in ("standard", "prime_standard") else eps_alt
        if choice == "standard":
            return eps_std
        if choice == "alternative":
            return eps_alt
        if choice == "prime_standard":
            return core["eps_std"] @ scalar_axis
        return core["eps_alt"]  # prime_alternative

    def _build_pseudoscalar(self):
        ps = Monomial.identity(self.dim)
        if self.is_odd and self.odd_mode == "project":
            ps = ps.scale(self.n_bits)
        else:
            for g in self._spacelike:
                ps = ps @ g
        if self.config.timelike_pseudoscalar_phase and self.signature.timelike:
            ps = ps.scale(self.signature.timelike)
        return ps

    def _build_time_product(self):
        """Gamma, the phased product of the timelike vectors, and its phase."""
        raw = Monomial.identity(self.dim)
        for axis in self.signature.timelike_axes:
            raw = raw @ self._gammas[axis - 1]
        phase = 0 if self.config.gamma_phase_sign == 1 else 2  # as a power of i
        if self._square_sign(raw, "time product") == -1:
            phase += 3 if self.signature.timelike == 1 else 1
        return raw.scale(phase), i_power(phase)

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

    def bitcode_of_index(self, index):
        return self._codes[index]

    # -- matrix accessors ----------------------------------------------------

    def gamma(self, axis):
        """Orthonormal basis vector for axis in 1..N (timelike carry a factor i)."""
        if not 1 <= axis <= self.N:
            raise ValueError(f"axis {axis} out of range 1..{self.N}")
        return self._matrix(self.gamma_monomial(axis))

    def gamma_monomial(self, axis):
        """``gamma(axis)`` as a signed monomial."""
        if not 1 <= axis <= self.N:
            raise ValueError(f"axis {axis} out of range 1..{self.N}")
        return self._gammas[axis - 1]

    def gamma_spacelike_form(self, axis):
        if not 1 <= axis <= self.N:
            raise ValueError(f"axis {axis} out of range 1..{self.N}")
        return self._matrix(self._spacelike[axis - 1])

    def gamma_plus(self, k):
        return self._matrix(self.orth_monomial(k))

    def gamma_minus(self, k):
        return self._matrix(self.orth_monomial(k, minus=True))

    def orth_monomial(self, k, minus=False):
        """``gamma_minus(k)`` or ``gamma_plus(k)`` as a signed monomial."""
        self._check_pair(k)
        return self._orth[k - 1][1 if minus else 0]

    def gamma_chiral(self, k, barred=False):
        return self._matrix(self.chiral_monomial(k, barred))

    def chiral_monomial(self, k, barred=False):
        """``gamma_chiral(k, barred)`` as a signed monomial."""
        self._check_pair(k)
        return self._chiral[k - 1][1 if barred else 0]

    def _check_pair(self, k):
        if not 1 <= k <= self.n_bits:
            raise ValueError(f"plane index {k} out of range 1..{self.n_bits}")

    @property
    def pair_count(self):
        return self.n_bits

    def metric(self):
        return self.eps

    def plane_is_boost(self, k):
        """True when exactly one axis of plane k is timelike."""
        a1, a2 = self.plane_built_axes(k)
        return self.built_axis_is_timelike(a1) != self.built_axis_is_timelike(a2)

    def plane_built_axes(self, k):
        self._check_pair(k)
        return 2 * k - 1, 2 * k

    def built_axis_is_timelike(self, built_axis):
        if not self.is_odd or self.odd_mode == "project":
            return (
                built_axis <= self.N and self.signature.is_timelike(built_axis)
            )
        try:
            pos = self._active_built_axes.index(built_axis)
        except ValueError:
            return False  # the scalar dimension is never timelike
        return self.signature.is_timelike(pos + 1)

    def built_axis_matrix(self, built_axis):
        """Built orthonormal vector (timelike-adjusted) for a built axis index."""
        k, rem = divmod(built_axis - 1, 2)
        m = self._orth[k][rem]
        if self.built_axis_is_timelike(built_axis):
            return m.scale(1).to_matrix()  # times i
        return self._matrix(m)

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
        sig_keys = {k: kwargs.pop(k) for k in ("spacelike", "timelike", "timelike_axes") if k in kwargs}
        config = RepConfig(signature=Signature(**sig_keys), **kwargs)
    return Representation(config)
