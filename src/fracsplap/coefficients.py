"""Concrete drift and diffusion coefficient families with their exact constants.

Shipped families:

* drift ``f(t, x, u) = -delta |u|^{q-2} u - linear * u`` (dissipative power
  nonlinearity plus an optional monotone linear part), with the exact
  constants ``delta1 = delta``, ``delta2 = delta + linear``, ``phi1 = 0`` and
  ``phi2 = linear``; its strong-monotonicity constant ``delta3`` is at most
  ``delta/2`` for q > 2 and ``(delta + linear)/2`` for q = 2, both sharp,
* Lipschitz perturbation ``h(t, x, u) = phi3(t) * u / (1 + |u|)``, whose
  slope is at most ``phi3(t)`` exactly,
* diagonal noise ``sigma_{2,i}(u) = sqrt(beta_i) * u * (u^2/(1+u^2))^{(p1-2)/4}``,
  which is odd, grows like ``|u|^{p1/2}`` and satisfies
  ``|sigma_{2,i}(u)|^2 <= beta_i |u|^{p1}`` exactly,
* transport noise ``G(u) a = sum_i a_i g_i (-Lap)^{s/2} u`` with a finite
  family of smooth multipliers (p = 2 only).

Constructors raise naming the violated bound.  The noise family's local
Lipschitz bound is checked against a deterministic mean-value constant
(:func:`noise_lipschitz_constant`), exact at p1 = 2 and conservative above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import FracOperatorParams
from .space import GalerkinSpace


def noise_lipschitz_constant(p1: float) -> float:
    """A ratio ``beta_i/gamma_i`` up to which the noise family's local Lipschitz bound is guaranteed.

    The bound is ``(beta_i/gamma_i) |phi(u1) - phi(u2)|^2 <= (1 + |u1|^{p1-2} + |u2|^{p1-2}) |u1 - u2|^2``
    for the profile ``phi``.  At p1 = 2, ``phi(u) = u`` and the constant is exactly 3.  For p1 > 2 the
    mean-value theorem writes ``phi(u1) - phi(u2) = phi'(xi) (u1 - u2)`` with
    ``|xi|^{p1-2} <= |u1|^{p1-2} + |u2|^{p1-2}``, so ``inf_xi (1 + |xi|^{p1-2}) / phi'(xi)^2`` suffices,
    where ``phi' = g^a (1 + 2a/(1+xi^2))``, ``g = xi^2/(1+xi^2)`` and ``a = (p1-2)/4``.  In ``g`` the
    quotient is ``(g^-b + (1-g)^-b) / (1 + b(1-g))^2`` with ``b = 2a``, which is log-convex on (0, 1), so
    a golden-section search finds its one minimum.  The constant is conservative: at p1 = 2.5, 3, 4 and
    6 it is 1.7649, 1.6576, 1.6137 and 1.8519, 23-27 % below the sharp constant over pairs (2.3784,
    2.2751, 2.1419 and 2.4160 on a dense grid of pairs).
    """
    if p1 == 2.0:
        return 3.0
    b = (p1 - 2.0) / 2.0

    def log_quotient(g):
        x, y = -b * math.log(g), -b * math.log1p(-g)
        return max(x, y) + math.log1p(math.exp(-abs(x - y))) - 2.0 * math.log1p(b * (1.0 - g))

    shrink, lo, hi = (math.sqrt(5.0) - 1.0) / 2.0, 0.0, 1.0
    for _ in range(80):  # the bracket shrinks to 2e-17
        c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        lo, hi = (lo, d) if log_quotient(c) < log_quotient(d) else (c, hi)
    return math.exp(min(log_quotient(0.5 * (lo + hi)), 709.0))  # capped inside the float range


@dataclass(frozen=True)
class DriftSpec:
    """Dissipative power drift with its exact sign, growth and monotonicity constants.

    ``delta1 = delta`` and ``delta2 = delta + linear`` are the coercivity and
    growth constants.  ``delta3`` is the strong-monotonicity constant; the
    identity ``(|a|^{q-2}a - |b|^{q-2}b)(a - b) = (|a|^{q-2} + |b|^{q-2})(a - b)^2/2
    + (|a|^{q-2} - |b|^{q-2})(a^2 - b^2)/2`` bounds it by ``delta/2`` for q > 2
    (equality at b = -a) and by ``(delta + linear)/2`` for q = 2.  The default
    is ``delta/2``; pass ``delta3=0`` to claim weak monotonicity only.
    """

    q: float
    delta: float
    linear: float = 0.0
    delta3: float | None = None

    delta1 = property(lambda self: self.delta)
    delta2 = property(lambda self: self.delta + self.linear)
    phi1_norm = property(lambda self: 0.0)
    phi2_norm = property(lambda self: self.linear)

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
        self._verify()

    def f(self, t, u):
        u = np.asarray(u, dtype=float)
        return -self.delta * np.abs(u) ** (self.q - 2.0) * u - self.linear * u

    def _verify(self):
        bound = (self.delta + self.linear) / 2.0 if self.q == 2.0 else self.delta / 2.0
        if not self.delta3 <= bound:
            raise ValueError("drift family violates the strong monotonicity bound")


@dataclass(frozen=True)
class LipschitzPerturbationSpec:
    """Bounded-slope perturbation ``h(t, x, u) = phi3(t) * u / (1 + |u|)``."""

    phi3_amplitude: float = 0.0

    def __post_init__(self):
        if self.phi3_amplitude < 0:
            raise ValueError("phi3 amplitude must be nonnegative")

    def phi3(self, t) -> float:
        return self.phi3_amplitude

    def phi3_l1(self, horizon: float) -> float:
        return self.phi3_amplitude * horizon

    def h(self, t, u):
        u = np.asarray(u, dtype=float)
        return self.phi3(t) * u / (1.0 + np.abs(u))


MAX_NOISE_CUTOFF = 10**6  # terms of a finite family: its sums are formed term by term, 8 MB at this size


def _power_law(c0: float, r: float, i, cutoff: int | None) -> np.ndarray:
    """The series terms ``c0 * i^-r`` at the indices i, zero beyond ``cutoff`` when one is given."""
    i = np.asarray(i, dtype=float)
    out = c0 * i ** (-r)
    if cutoff is not None:
        out = np.where(i <= cutoff, out, 0.0)
    return out


def _power_tail(c0: float, r: float, cutoff: int | None, n: int = 0) -> float:
    """Sum of c0 * i^-r over the active indices i > n (Hurwitz zeta for infinite families)."""
    if c0 == 0.0:
        return 0.0
    if cutoff is not None:
        return c0 * float(np.sum(np.arange(n + 1, cutoff + 1, dtype=float) ** (-r)))
    if r <= 1.0:
        raise ValueError(f"series exponent must exceed 1 for a summable family, got r={r}")
    return c0 * _hurwitz_zeta(r, n + 1)


_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000, 1 / 74724249600)


def _hurwitz_zeta(r: float, a: float) -> float:
    """``sum_{k >= 0} (a + k)^-r`` for r > 1 and a >= 1, by Euler-Maclaurin: 10 terms, then the
    integral from ``x = a + 10``, half its first term and corrections ``B_2j / (2j)!``, j = 1..7."""
    x = a + 10
    terms = [(a + k) ** -r for k in range(10)] + [x ** (1.0 - r) / (r - 1.0), 0.5 * x**-r]
    deriv = r * x ** (-r - 1.0)  # r (r+1) ... (r+2j-2) x^(-r-2j+1) at j = 1
    for j, c in enumerate(_EM_COEFFS, start=1):
        terms.append(c * deriv)
        deriv = deriv * ((r + 2 * j - 1) * (r + 2 * j) / (x * x)) if deriv else 0.0  # no 0 * inf at r > 1e154
    return math.fsum(terms)


def _sine_family(space: GalerkinSpace, c0: float, r: float, n: int, cutoff: int | None = None) -> np.ndarray:
    """Columns ``c0 * i^-r * sin(i pi xi)`` for i = 1..n at the interior nodes, shape (m, n)."""
    xi = (space.nodes - space.domain.a) / space.domain.length
    i = np.arange(1, n + 1, dtype=float)
    return np.sin(np.outer(xi, i) * math.pi) * _power_law(c0, r, i, cutoff)[None, :]


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
        if self.cutoff is not None and not 1 <= self.cutoff <= MAX_NOISE_CUTOFF:
            raise ValueError(
                f"noise cutoff must lie in [1, {MAX_NOISE_CUTOFF}] (None for an infinite family), got {self.cutoff}"
            )
        self.beta_sum()  # raises for non-summable families
        self.gamma_sum()
        self._verify()

    def beta(self, i):
        return _power_law(self.beta_b0, self.beta_r, i, self.cutoff)

    def gamma(self, i):
        return _power_law(self.gamma_g0, self.gamma_r, i, self.cutoff)

    def beta_sum(self) -> float:
        return _power_tail(self.beta_b0, self.beta_r, self.cutoff)

    def gamma_sum(self) -> float:
        return _power_tail(self.gamma_g0, self.gamma_r, self.cutoff)

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
        return _sine_family(space, self.sigma1_amplitude, self.sigma1_decay, n_noise, self.cutoff)

    def _verify(self):
        """The local Lipschitz bound ``sup_i beta_i/gamma_i * |profile(u1) - profile(u2)|^2
        <= (1 + |u1|^{p1-2} + |u2|^{p1-2}) |u1 - u2|^2``, by :func:`noise_lipschitz_constant`."""
        if self.beta_b0 == 0.0:
            return
        if self.gamma_g0 == 0.0:
            raise ValueError("noise family violates its local Lipschitz bound (gamma series is zero)")
        if self.cutoff is not None:
            # beta_i/gamma_i = (beta_b0/gamma_g0) * i^(gamma_r - beta_r), largest at i = 1 or i = cutoff
            ratio = self.beta_b0 / self.gamma_g0 * max(1.0, self.cutoff ** (self.gamma_r - self.beta_r))
        elif self.beta_r >= self.gamma_r:
            ratio = self.beta_b0 / self.gamma_g0
        else:
            raise ValueError("noise family violates its local Lipschitz bound (beta/gamma ratio unbounded)")
        if ratio > noise_lipschitz_constant(self.p1):
            raise ValueError("noise family violates its local Lipschitz bound")


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


@dataclass(frozen=True)
class TransportNoiseSpec:
    """Finite family of multiplier fields for the p = 2 transport noise.

    ``delta4 = delta5 = (C/2) * sum_i ||g_i||_inf^2`` are the growth and
    Lipschitz constants of the induced Hilbert-Schmidt map.
    """

    g_fields: np.ndarray  # (m, n_g) nodal multipliers
    delta4: float
    phi4_amplitude: float = 0.0

    delta5 = property(lambda self: self.delta4)

    @property
    def n_g(self) -> int:
        return self.g_fields.shape[1]

    @staticmethod
    def from_family(
        space: GalerkinSpace,
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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing family is rejected below
            g = _sine_family(space, amplitude, decay, n_g)
            d = 0.5 * params.c_kernel * float(np.sum(np.max(np.abs(g), axis=0) ** 2))
        if not math.isfinite(d):
            raise ValueError("multiplier family norms must be summable")
        return TransportNoiseSpec(g_fields=g, delta4=d, phi4_amplitude=phi4_amplitude)

    def __post_init__(self):
        if self.delta4 < 0:
            raise ValueError("transport growth constant delta4 must be nonnegative")
        if self.phi4_amplitude < 0:
            raise ValueError("phi4 amplitude must be nonnegative")

    def phi4_l1(self, horizon: float) -> float:
        return self.phi4_amplitude * horizon
