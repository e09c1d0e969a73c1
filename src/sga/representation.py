"""Chiral representation of spinors and Clifford algebras.

The construction is inductive over pairs of dimensions.  Starting from the
one-dimensional spinor space, each step doubles the spinor space, embeds
every previously built basis vector g as diag(g, -g), and adjoins a new
pair of orthonormal vectors

    plus = [[0, 1], [1, 0]]        minus = [[0, -i], [i, 0]]

(in blocks), together with the chiral combinations (plus +- i*minus)/sqrt2
which carry charge +-1 under rotations in the new plane.  The spinor
metric is the product of the real basis vectors (one per pair), built by
the same doubling with an alternating block sign; the alternative metric
multiplies in the chiral operator instead and uses the imaginary vectors.

Timelike dimensions are realised as i times the spacelike matrix; the
metrics are computed from the spacelike forms regardless of signature.

Odd total dimension N is handled two ways: ``project`` identifies the
chiral operator with 1 and takes the final vector equal to the chiral
operator of the even subalgebra; the ``embed_*`` modes build the even
(N+1)-dimensional representation and tag either the final odd vector or
the extra vector as a scalar (rotation-inert) dimension, which also
enables the primed metric variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bitcodes import Bitcode
from .matrices import Matrix, block_diag, max_dimension
from .scalars import I, ONE, SQRT2, ZERO, Scalar, i_power

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
    """Inductive data for the even algebra on `pairs` planes."""
    dim = 1
    one = Matrix([[ONE]])
    eps_std = one
    eps_alt = one
    kappa = one
    chiral = []  # (gamma_k, gamma_k_bar)
    orth = []  # (plus_k, minus_k)

    for j in range(1, pairs + 1):
        ident = Matrix.identity(dim)
        rt2 = ident.scale(SQRT2)
        chiral = [(block_diag(g, -g), block_diag(gb, -gb)) for g, gb in chiral]
        orth = [(block_diag(p, -p), block_diag(m, -m)) for p, m in orth]
        chiral.append(
            (
                Matrix.block2(None, rt2, None, None, dim),
                Matrix.block2(None, None, rt2, None, dim),
            )
        )
        orth.append(
            (
                Matrix.block2(None, ident, ident, None, dim),
                Matrix.block2(None, ident.scale(-I), ident.scale(I), None, dim),
            )
        )
        sign_std = ONE if (j - 1) % 2 == 0 else -ONE
        sign_alt = ONE if j % 2 == 0 else -ONE
        eps_std = Matrix.block2(None, eps_std, eps_std.scale(sign_std), None, dim)
        eps_alt = Matrix.block2(None, eps_alt, eps_alt.scale(sign_alt), None, dim)
        kappa = block_diag(kappa, -kappa)
        dim *= 2

    return {
        "dim": dim,
        "chiral": chiral,
        "orth": orth,
        "eps_std": eps_std,
        "eps_alt": eps_alt,
        "kappa": kappa,
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
        self.kappa_diag = core["kappa"]

        # map the algebra's N orthonormal axes onto built matrices (spacelike forms)
        spacelike = []
        self.scalar_axis_matrix = None
        if not self.is_odd:
            for k in range(built_pairs):
                spacelike.append(self._orth[k][0])
                spacelike.append(self._orth[k][1])
            self.kappa = self.kappa_diag
            eps_std = core["eps_std"]
            eps_alt = core["eps_alt"]
        elif config.odd_mode == "project":
            for k in range(built_pairs):
                spacelike.append(self._orth[k][0])
                spacelike.append(self._orth[k][1])
            spacelike.append(self.kappa_diag)  # the final vector
            self.kappa = Matrix.identity(self.dim)
            eps_std = eps_alt = core["eps_alt"]
        else:
            full = []
            for k in range(built_pairs):
                full.append(self._orth[k][0])
                full.append(self._orth[k][1])
            if config.odd_mode == "embed_scalar_n":
                active = list(range(n_total - 1)) + [n_total]
                self.scalar_axis_matrix = full[n_total - 1]
            else:
                active = list(range(n_total))
                self.scalar_axis_matrix = full[n_total]
            spacelike = [full[a] for a in active]
            self._active_built_axes = tuple(a + 1 for a in active)
            self.kappa = self.kappa_diag
            eps_std = core["eps_std"]
            eps_alt = self._partial_alt_metric((n_total - 1) // 2)

        self._spacelike = spacelike
        self.eps_std = eps_std
        self.eps_alt = eps_alt
        self.eps = self._select_metric(core)
        self.eps_T = self.eps.transpose()

        sq = (self.eps @ self.eps).scalar_multiple_of_identity()
        if sq is None or sq not in (ONE, -ONE):
            raise AssertionError("spinor metric square is not +-1")
        self.metric_square_sign = 1 if sq == ONE else -1

        self._gammas = [
            g.scale(I) if sig.is_timelike(a + 1) else g
            for a, g in enumerate(spacelike)
        ]

        self.pseudoscalar = self._build_pseudoscalar()
        self.Gamma, self.gamma_phase = self._build_time_product()
        self.C = self.eps @ self.Gamma.transpose()

        self._blade_cache = {}
        self._raised_cache = {}
        self._colmap = None
        self._codes = tuple(
            Bitcode.from_index(i, self.n_bits) for i in range(self.dim)
        )
        self.inv_dim = Scalar(1, 0, 0, 0, self.dim)

    # -- helpers used during construction --------------------------------

    def _partial_alt_metric(self, pairs):
        m = Matrix.identity(self.dim)
        for k in range(pairs):
            m = m @ self._orth[k][1].scale(I)
        return m

    def _select_metric(self, core):
        choice = self.config.metric
        if not self.is_odd or self.odd_mode == "project":
            return self.eps_std if choice in ("standard", "prime_standard") else self.eps_alt
        if choice == "standard":
            return self.eps_std
        if choice == "alternative":
            return self.eps_alt
        if choice == "prime_standard":
            return core["eps_std"] @ self.scalar_axis_matrix
        return core["eps_alt"]  # prime_alternative

    def _build_pseudoscalar(self):
        if self.is_odd and self.odd_mode == "project":
            ps = Matrix.identity(self.dim).scale(i_power(self.n_bits))
        else:
            ps = Matrix.identity(self.dim)
            for g in self._spacelike:
                ps = ps @ g
        if self.config.timelike_pseudoscalar_phase and self.signature.timelike:
            ps = ps.scale(i_power(self.signature.timelike))
        return ps

    def _build_time_product(self):
        sign = Scalar(self.config.gamma_phase_sign)
        raw = Matrix.identity(self.dim)
        for axis in self.signature.timelike_axes:
            raw = raw @ self._gammas[axis - 1]
        sq = (raw @ raw).scalar_multiple_of_identity()
        if sq is None or sq not in (ONE, -ONE):
            raise AssertionError("time product square is not +-1")
        if sq == ONE:
            phase = sign
        elif self.signature.timelike == 1:
            phase = -I * sign
        else:
            phase = I * sign
        return raw.scale(phase), phase

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
        return self._gammas[axis - 1]

    def gamma_spacelike_form(self, axis):
        if not 1 <= axis <= self.N:
            raise ValueError(f"axis {axis} out of range 1..{self.N}")
        return self._spacelike[axis - 1]

    def gamma_plus(self, k):
        self._check_pair(k)
        return self._orth[k - 1][0]

    def gamma_minus(self, k):
        self._check_pair(k)
        return self._orth[k - 1][1]

    def gamma_chiral(self, k, barred=False):
        self._check_pair(k)
        pair = self._chiral[k - 1]
        return pair[1] if barred else pair[0]

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
        return m.scale(I) if self.built_axis_is_timelike(built_axis) else m

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
