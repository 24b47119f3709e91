"""Concrete drift and diffusion coefficient families with verified growth bounds.

Shipped families:

* drift ``f(t, x, u) = -delta |u|^{q-2} u - linear * u`` (dissipative power
  nonlinearity plus an optional monotone linear part),
* Lipschitz perturbation ``h(t, x, u) = phi3(t) * u / (1 + |u|)``,
* diagonal noise ``sigma_{2,i}(u) = sqrt(beta_i) * u * (u^2/(1+u^2))^{(p1-2)/4}``,
  which is odd, grows like ``|u|^{p1/2}`` and satisfies
  ``|sigma_{2,i}(u)|^2 <= beta_i |u|^{p1}`` exactly,
* transport noise ``G(u) a = sum_i a_i g_i (-Lap)^{s/2} u`` with a finite
  family of smooth multipliers (p = 2 only).

Every constructor runs sampled inequality checks of its growth, monotonicity
and Lipschitz conditions and raises naming the violated bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import zeta

from .domain import FracOperatorParams
from .fracop import FracQuadrature, assemble_frac_stiffness, gagliardo_seminorm
from .space import GalerkinSpace, NoiseTruncation

_SAMPLE_RANGE = 25.0
_N_SAMPLES = 4000


def _sample_pairs(rng, n=_N_SAMPLES, scale=_SAMPLE_RANGE):
    u1 = rng.uniform(-scale, scale, n)
    u2 = rng.uniform(-scale, scale, n)
    return u1, u2


@dataclass(frozen=True)
class DriftSpec:
    """Dissipative power drift with verified sign, growth and monotonicity bounds.

    ``delta1``/``delta2`` are the coercivity and growth constants; ``delta3``
    is the strong-monotonicity constant (``delta/2`` is always valid for the
    power family; pass ``delta3=0`` to claim weak monotonicity only).
    """

    q: float
    delta: float
    linear: float = 0.0
    delta3: float | None = None
    delta1: float = field(init=False)
    delta2: float = field(init=False)
    phi1_norm: float = field(init=False)
    phi2_norm: float = field(init=False)

    def __post_init__(self):
        if not self.q >= 2.0:
            raise ValueError(f"drift growth exponent must satisfy q >= 2, got q={self.q}")
        if not self.delta > 0:
            raise ValueError("drift scale delta must be positive")
        if self.linear < 0:
            raise ValueError("linear drift coefficient must be nonnegative")
        if self.delta3 is None:
            object.__setattr__(self, "delta3", self.delta / 2.0)
        if self.delta3 < 0:
            raise ValueError("delta3 must be nonnegative")
        object.__setattr__(self, "delta1", self.delta)
        object.__setattr__(self, "delta2", self.delta + self.linear)
        object.__setattr__(self, "phi1_norm", 0.0)
        object.__setattr__(self, "phi2_norm", self.linear)
        self._verify()

    def f(self, t, u):
        u = np.asarray(u, dtype=float)
        return -self.delta * np.abs(u) ** (self.q - 2.0) * u - self.linear * u

    def _verify(self, seed=0, tol=1e-10):
        rng = np.random.default_rng(seed)
        u1, u2 = _sample_pairs(rng)
        f1, f2 = self.f(0.0, u1), self.f(0.0, u2)
        mono = (f1 - f2) * (u1 - u2)
        if np.any(mono > tol):
            raise ValueError("drift family violates weak monotonicity")
        sign = f1 * u1 + self.delta1 * np.abs(u1) ** self.q - self.phi1_norm
        if np.any(sign > tol * np.maximum(1.0, np.abs(u1) ** self.q)):
            raise ValueError("drift family violates the dissipativity bound")
        growth = np.abs(f1) - self.delta2 * np.abs(u1) ** (self.q - 1.0) - self.phi2_norm
        if np.any(growth > tol * np.maximum(1.0, np.abs(u1) ** (self.q - 1.0))):
            raise ValueError("drift family violates the polynomial growth bound")
        if self.delta3 > 0:
            strong = mono + self.delta3 * (np.abs(u1) ** (self.q - 2.0) + np.abs(u2) ** (self.q - 2.0)) * (u1 - u2) ** 2
            if np.any(strong > tol * np.maximum(1.0, np.abs(mono))):
                raise ValueError("drift family violates the strong monotonicity bound")


@dataclass(frozen=True)
class LipschitzPerturbationSpec:
    """Bounded-slope perturbation ``h(t, x, u) = phi3(t) * u / (1 + |u|)``."""

    phi3_amplitude: float = 0.0

    def __post_init__(self):
        if self.phi3_amplitude < 0:
            raise ValueError("phi3 amplitude must be nonnegative")
        rng = np.random.default_rng(1)
        u1, u2 = _sample_pairs(rng)
        gap = np.abs(self.h(0.3, u1) - self.h(0.3, u2)) - self.phi3(0.3) * np.abs(u1 - u2)
        if np.any(gap > 1e-12):
            raise ValueError("perturbation family violates its Lipschitz bound")

    def phi3(self, t) -> float:
        return self.phi3_amplitude

    def phi3_l1(self, horizon: float) -> float:
        return self.phi3_amplitude * horizon

    def h(self, t, u):
        u = np.asarray(u, dtype=float)
        return self.phi3(t) * u / (1.0 + np.abs(u))


def _power_sum(c0: float, r: float, cutoff: int | None) -> float:
    """Sum of c0 * i^-r over the active indices (Hurwitz zeta for infinite families)."""
    if c0 == 0.0:
        return 0.0
    if cutoff is not None:
        return c0 * float(np.sum(np.arange(1, cutoff + 1, dtype=float) ** (-r)))
    if r <= 1.0:
        raise ValueError(f"series exponent must exceed 1 for a summable family, got r={r}")
    return c0 * float(zeta(r, 1))


def _power_tail(c0: float, r: float, cutoff: int | None, n: int) -> float:
    if c0 == 0.0:
        return 0.0
    if cutoff is not None:
        if n >= cutoff:
            return 0.0
        return c0 * float(np.sum(np.arange(n + 1, cutoff + 1, dtype=float) ** (-r)))
    return c0 * float(zeta(r, n + 1))


@dataclass(frozen=True)
class SuperlinearNoiseSpec:
    """Diagonal noise ``sigma_i = sigma_{1,i}(x) + sigma_{2,i}(u)`` with power-law series.

    ``beta_i = beta_b0 * i^-beta_r`` and ``gamma_i = gamma_g0 * i^-gamma_r``
    (zero beyond ``cutoff`` when one is given), so the admissibility sums have
    closed forms.  ``sigma1`` is a deterministic time-constant forcing family
    ``amp * i^-decay * sin(i pi xi)``.
    """

    p1: float = 2.0
    beta_b0: float = 0.0
    beta_r: float = 2.0
    gamma_g0: float = 0.0
    gamma_r: float = 2.0
    cutoff: int | None = None
    sigma1_amplitude: float = 0.0
    sigma1_decay: float = 2.0

    def __post_init__(self):
        if not self.p1 >= 2.0:
            raise ValueError(f"noise exponent must satisfy p1 >= 2, got p1={self.p1}")
        if self.beta_b0 < 0 or self.gamma_g0 < 0 or self.sigma1_amplitude < 0:
            raise ValueError("series amplitudes must be nonnegative")
        self.beta_sum()  # raises for non-summable families
        self.gamma_sum()
        self._verify()

    def beta(self, i):
        i = np.asarray(i, dtype=float)
        out = self.beta_b0 * i ** (-self.beta_r)
        if self.cutoff is not None:
            out = np.where(i <= self.cutoff, out, 0.0)
        return out

    def gamma(self, i):
        i = np.asarray(i, dtype=float)
        out = self.gamma_g0 * i ** (-self.gamma_r)
        if self.cutoff is not None:
            out = np.where(i <= self.cutoff, out, 0.0)
        return out

    def beta_sum(self) -> float:
        return _power_sum(self.beta_b0, self.beta_r, self.cutoff)

    def gamma_sum(self) -> float:
        return _power_sum(self.gamma_g0, self.gamma_r, self.cutoff)

    def beta_tail(self, n: int) -> float:
        return _power_tail(self.beta_b0, self.beta_r, self.cutoff, n)

    def gamma_tail(self, n: int) -> float:
        return _power_tail(self.gamma_g0, self.gamma_r, self.cutoff, n)

    def sigma2_profile(self, u):
        """Odd profile with ``profile(u)^2 <= |u|^{p1}``; equals u when p1 = 2."""
        u = np.asarray(u, dtype=float)
        if self.p1 == 2.0:
            return u
        return u * (u * u / (1.0 + u * u)) ** ((self.p1 - 2.0) / 4.0)

    def sigma2(self, i, u):
        return np.sqrt(self.beta(i)) * self.sigma2_profile(u)

    def sigma1_nodal(self, space: GalerkinSpace, t: float, n_noise: int) -> np.ndarray:
        """Deterministic forcing columns at the interior nodes, (m, n_noise)."""
        if self.sigma1_amplitude == 0.0:
            return np.zeros((space.m, n_noise))
        xi = (space.nodes - space.domain.a) / space.domain.length
        i = np.arange(1, n_noise + 1, dtype=float)
        amps = self.sigma1_amplitude * i ** (-self.sigma1_decay)
        if self.cutoff is not None:
            amps = np.where(i <= self.cutoff, amps, 0.0)
        return np.sin(np.outer(xi, i) * math.pi) * amps[None, :]

    def _verify(self, seed=2, tol=1e-12):
        rng = np.random.default_rng(seed)
        u1, u2 = _sample_pairs(rng)
        if self.beta_b0 == 0.0:
            return
        growth = self.beta_b0 * self.sigma2_profile(u1) ** 2 - self.gamma_g0 - self.beta_b0 * np.abs(u1) ** self.p1
        if np.any(growth > tol * np.maximum(1.0, np.abs(u1) ** self.p1)):
            raise ValueError("noise family violates its growth bound")
        if self.gamma_g0 == 0.0:
            raise ValueError("noise family violates its local Lipschitz bound (gamma series is zero)")
        if self.cutoff is not None:
            i = np.arange(1, self.cutoff + 1, dtype=float)
            ratio = float(np.max(self.beta(i) / self.gamma(i)))
        elif self.beta_r >= self.gamma_r:
            ratio = self.beta_b0 / self.gamma_g0
        else:
            raise ValueError("noise family violates its local Lipschitz bound (beta/gamma ratio unbounded)")
        lip = ratio * (self.sigma2_profile(u1) - self.sigma2_profile(u2)) ** 2 - (
            1.0 + np.abs(u1) ** (self.p1 - 2.0) + np.abs(u2) ** (self.p1 - 2.0)
        ) * (u1 - u2) ** 2
        if np.any(lip > tol * np.maximum(1.0, (u1 - u2) ** 2)):
            raise ValueError("noise family violates its local Lipschitz bound")


def noise_truncation(spec: SuperlinearNoiseSpec, n_noise: int) -> NoiseTruncation:
    return NoiseTruncation(n_noise=n_noise, beta_tail=spec.beta_tail(n_noise), gamma_tail=spec.gamma_tail(n_noise))


def eval_drift(spec: DriftSpec, hspec: LipschitzPerturbationSpec, t: float, v: np.ndarray) -> np.ndarray:
    """Nodal values of f(t, ., v) + h(t, ., v)."""
    v = np.asarray(v, dtype=float)
    return spec.f(t, v) + hspec.h(t, v)


def eval_B(spec: SuperlinearNoiseSpec, space: GalerkinSpace, t: float, v: np.ndarray, n_noise: int) -> np.ndarray:
    """Diffusion columns sigma_i(t, ., v(.)) at the nodes, shape (m, n_noise).

    The state-free parts, ``sqrt(beta_i)`` and the forcing columns (which do
    not depend on t), are computed once per ``(spec, n_noise)`` and kept in
    the space's cache; the returned array is always a fresh one.
    """
    key = ("eval_B", spec, n_noise)
    try:
        scale, forcing = space._cache[key]
    except KeyError:
        if n_noise < 1:
            raise ValueError("n_noise must be >= 1") from None
        scale = np.sqrt(spec.beta(np.arange(1, n_noise + 1)))
        forcing = spec.sigma1_nodal(space, t, n_noise)
        space._cache[key] = scale, forcing
    return scale * spec.sigma2_profile(v)[:, None] + forcing


def hs_norm_B(spec: SuperlinearNoiseSpec, space: GalerkinSpace, t: float, v: np.ndarray, n_noise: int) -> float:
    """Hilbert-Schmidt norm of the truncated diffusion map."""
    cols = eval_B(spec, space, t, v, n_noise)
    sq = np.einsum("ik,ij,jk->k", cols, space.mass_matrix, cols)
    return float(np.sqrt(np.sum(sq)))


def sqrt_operator(space: GalerkinSpace, quad: FracQuadrature, params: FracOperatorParams) -> np.ndarray:
    """Matrix of the spectral square root of the p = 2 nonlocal form.

    Built from the eigenpairs of (S, M) that :func:`frac_eigenpairs` caches; satisfies
    ``||R v||_{L2}^2 = v^T S v`` on nodal vectors and is self-adjoint in the
    mass inner product.
    """
    if params.p != 2.0:
        raise ValueError("the spectral square root requires p = 2")
    key = ("sqrtop", quad.panel_rule, quad.near_diag_split, params.s)
    if key in space._cache:
        return space._cache[key]
    vals, vecs = frac_eigenpairs(space, quad, params)
    vals = np.clip(vals, 0.0, None)
    R = vecs @ (np.sqrt(vals)[:, None] * (vecs.T @ space.mass_matrix))
    space._cache[key] = R
    return R


def frac_eigenpairs(space: GalerkinSpace, quad: FracQuadrature, params: FracOperatorParams):
    """Generalized eigenpairs of (S, M) with M-orthonormal eigenvectors."""
    key = ("fraceig", quad.panel_rule, quad.near_diag_split, params.s)
    if key in space._cache:
        return space._cache[key]
    from scipy.linalg import eigh

    S = assemble_frac_stiffness(space, quad, params)
    vals, vecs = eigh(S, space.mass_matrix)
    space._cache[key] = (vals, vecs)
    return vals, vecs


@dataclass(frozen=True)
class TransportNoiseSpec:
    """Finite family of multiplier fields for the p = 2 transport noise.

    ``delta4 = delta5 = (C/2) * sum_i ||g_i||_inf^2`` are the growth and
    Lipschitz constants of the induced Hilbert-Schmidt map.
    """

    g_fields: np.ndarray  # (m, n_g) nodal multipliers
    linf_norms: np.ndarray
    v1_norms: np.ndarray
    delta4: float
    delta5: float
    phi4_amplitude: float = 0.0

    @property
    def n_g(self) -> int:
        return self.g_fields.shape[1]

    @staticmethod
    def from_family(
        space: GalerkinSpace,
        quad: FracQuadrature,
        params: FracOperatorParams,
        n_g: int,
        amplitude: float,
        decay: float = 1.0,
        phi4_amplitude: float = 0.0,
    ) -> "TransportNoiseSpec":
        """Sine multipliers ``g_i = amplitude * i^-decay * sin(i pi xi)``."""
        if params.p != 2.0:
            raise ValueError("transport noise is defined for p = 2 only")
        if n_g < 1:
            raise ValueError("need at least one multiplier field")
        xi = (space.nodes - space.domain.a) / space.domain.length
        i = np.arange(1, n_g + 1, dtype=float)
        amps = amplitude * i ** (-decay)
        g = np.sin(np.outer(xi, i) * math.pi) * amps[None, :]
        linf = np.max(np.abs(g), axis=0)
        v1 = np.array([gagliardo_seminorm(space, quad, g[:, k], params) for k in range(n_g)])
        if not np.isfinite(np.sum(linf**2 + v1**2)):
            raise ValueError("multiplier family norms must be summable")
        d = 0.5 * params.c_kernel * float(np.sum(linf**2))
        return TransportNoiseSpec(
            g_fields=g, linf_norms=linf, v1_norms=v1, delta4=d, delta5=d, phi4_amplitude=phi4_amplitude
        )

    def __post_init__(self):
        if self.delta4 < 0 or self.delta5 < 0:
            raise ValueError("transport growth constants must be nonnegative")
        if abs(self.delta5 - self.delta4) > 1e-10 * max(1.0, self.delta4):
            raise ValueError("delta5 inconsistent with the multiplier family")

    def phi4_l1(self, horizon: float) -> float:
        return self.phi4_amplitude * horizon


def eval_G(
    spec: TransportNoiseSpec,
    space: GalerkinSpace,
    quad: FracQuadrature,
    params: FracOperatorParams,
    v: np.ndarray,
) -> np.ndarray:
    """Transport columns ``g_i * (-Lap)^{s/2} v`` (nodal products), shape (m, n_g)."""
    R = sqrt_operator(space, quad, params)
    rv = R @ np.asarray(v, dtype=float)
    return spec.g_fields * rv[:, None]


def _triple_product(space: GalerkinSpace, f: np.ndarray, g: np.ndarray, u: np.ndarray) -> float:
    """Exact integral of a product of three hat interpolants (Gauss-2 per element)."""
    E, w = space.gauss_rule(2)
    return float(np.sum(w * (E @ f) * (E @ g) * (E @ u)))


def _project_product(space: GalerkinSpace, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """L2 projection of the product of two hat interpolants back onto the hat space."""
    E, w = space.gauss_rule(2)
    return np.linalg.solve(space.mass_matrix, E.T @ (w * (E @ g) * (E @ v)))


def check_adjoint_identity(
    spec: TransportNoiseSpec,
    space: GalerkinSpace,
    quad: FracQuadrature,
    params: FracOperatorParams,
    u: np.ndarray,
    v: np.ndarray,
) -> float:
    """Residual of moving the multiplier across the square root.

    Compares ``(g_i (-Lap)^{s/2} u, v)`` with ``(u, (-Lap)^{s/2} P(g_i v))``
    where P is the L2 projection of the product back onto the hat space; the
    discrete square root is self-adjoint in the mass inner product, so the
    residual is pure rounding noise.  Returns the maximum over the family.
    """
    R = sqrt_operator(space, quad, params)
    ru = R @ np.asarray(u, dtype=float)
    out = 0.0
    for k in range(spec.n_g):
        g = spec.g_fields[:, k]
        lhs = _triple_product(space, g, ru, v)
        gv = _project_product(space, g, v)
        rhs = float(np.asarray(u) @ (space.mass_matrix @ (R @ gv)))
        out = max(out, abs(lhs - rhs))
    return out
