"""Operator parameters, kernel constant and discrete Poincare estimates."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field


def kernel_constant(n: int, p: float, s: float) -> float:
    """Normalising constant of the fractional p-Laplace kernel.

    Evaluates ``s * 4**s * Gamma((p*s + p + n - 2)/2) / (pi**(n/2) * Gamma(1-s))``
    in log space, so large Gamma arguments cannot overflow.
    """
    if n < 1:
        raise ValueError(f"spatial dimension must be >= 1, got n={n}")
    if not p >= 2.0:
        raise ValueError(f"integrability exponent must satisfy p >= 2, got p={p}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got s={s}")
    num_arg = (p * s + p + n - 2.0) / 2.0
    log_c = (
        math.log(s)
        + 2.0 * s * math.log(2.0)
        + math.lgamma(num_arg)
        - 0.5 * n * math.log(math.pi)
        - math.lgamma(1.0 - s)
    )
    if log_c > math.log(sys.float_info.max):
        raise ValueError(f"kernel constant C(n, p, s) overflows a float at n={n}, p={p}, s={s}")
    return math.exp(log_c)


@dataclass(frozen=True)
class FracOperatorParams:
    """Exponents of the nonlocal operator on an interval and the derived kernel constant (n = 1)."""

    s: float
    p: float = 2.0
    c_kernel: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "c_kernel", kernel_constant(1, self.p, self.s))


@dataclass(frozen=True)
class DomainSpec:
    """Interval domain with zero exterior condition.

    ``exterior_truncation`` is the half-width of the box over which the
    exterior tail integrals are evaluated; the neglected remainder is bounded
    by ``2 * width**(-p*s) / (p*s)`` per unit of ``|v|**p`` mass.
    """

    a: float = 0.0
    b: float = 1.0
    exterior_truncation: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"domain bounds must be finite with a < b, got ({self.a}, {self.b})")
        if self.exterior_truncation is None:
            object.__setattr__(self, "exterior_truncation", 10.0 * (self.b - self.a))
        if not self.exterior_truncation > 0:
            raise ValueError("exterior_truncation must be positive")

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class PoincareEstimate:
    """Estimated constant ``lam`` with ``[v]^p >= lam * ||v||_Lp^p`` on the discrete space.

    ``certified`` is True only on the p = 2 path, where the estimate is the
    smallest generalized eigenvalue of ``((2/C) S, M)`` over all m hats and
    therefore exact on the mesh.  For p != 2 the value is the Rayleigh
    quotient one descent reaches from the p = 2 minimiser: a heuristic upper
    bound on the discrete minimum, reported as the operative constant.
    """

    value: float
    certified: bool


def poincare_constant(space, params: FracOperatorParams) -> PoincareEstimate:
    """Estimate the best discrete constant in the fractional Poincare inequality over all m hats.

    The smallest eigenpair of ``(S_2, M)`` from :func:`fracop.frac_eigenpairs`, scaled by ``2/C_2``, gives
    the constant for p = 2.  For p != 2 one L-BFGS descent of ``[v]^p / ||v||_Lp^p`` over the nodal vector
    starts from its eigenvector: the first fractional p-eigenfunction is simple and of one sign
    (Lindgren & Lindqvist, Calc. Var. PDE 49, 2014).
    """
    from . import fracop
    from .space import lp_norm

    p = params.p
    p2 = FracOperatorParams(s=params.s, p=2.0)
    vals, vecs = fracop.frac_eigenpairs(space, p2)
    if p == 2.0:
        return PoincareEstimate(value=float((2.0 / p2.c_kernel) * vals[0]), certified=True)

    plan = fracop.get_plan(space, params)

    def quotient_and_grad(v):
        semi_p, residual = fracop.seminorm_p_with_residual(plan, v)
        lp, lp_grad = lp_norm(space, v, p, with_grad=True)
        q = semi_p / lp**p
        return q, (p * residual - q * lp_grad) / lp**p

    return PoincareEstimate(value=_lbfgs(quotient_and_grad, vecs[:, 0]), certified=False)


def _lbfgs(fun_and_grad, x) -> float:
    """Minimum one L-BFGS descent (Liu & Nocedal, Math. Prog. 45, 1989; memory 10, at most 200
    iterations, Armijo backtracking) reaches from x.

    It stops at a relative decrease below 1e-12: L-BFGS-B's default 2.2e-9 can stop a descent
    a few 1e-9 above the minimum that several starts reach."""
    (f, g), pairs = fun_and_grad(x), []
    for _ in range(200):
        d, alphas = -g, []
        for s, y in reversed(pairs):
            alphas.append((s @ d) / (y @ s))
            d = d - alphas[-1] * y
        if pairs:
            s, y = pairs[-1]
            d = d * ((s @ y) / (y @ y))
        else:
            d = d / max(1.0, math.sqrt(g @ g))  # a first step of at most unit length
        for (s, y), a in zip(pairs, reversed(alphas)):
            d = d + (a - (y @ d) / (y @ s)) * s
        t = 1.0
        while (trial := fun_and_grad(x + t * d))[0] > f + 1e-4 * t * (g @ d) and t > 1e-12:
            t *= 0.5
        if not trial[0] < f:
            break
        s, y = t * d, trial[1] - g
        pairs = (pairs + [(s, y)])[-10:] if s @ y > 0 else pairs
        x, f_old, (f, g) = x + s, f, trial
        if f_old - f <= 1e-12 * max(abs(f_old), abs(f), 1.0):
            break
    return float(f)
