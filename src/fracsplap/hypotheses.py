"""Admissibility algebra: growth exponents, gap condition, theorem checks.

The three concrete settings share the coercivity constants
``gamma_1 = (C/2, delta1, 1)`` over the component exponents
``(q_1, q_2, q_3) = (p, q, 2)`` and differ in where the diffusion growth
lands:

* general monotone drift -- ``gamma_2 = (2 sum(beta)/lambda, 0, 0)`` and a
  nonzero local-monotonicity weight ``theta_1 = p - 2``;
* strongly monotone drift -- ``gamma_2 = (0, 2 sum(beta), 0)``;
* strongly monotone drift with transport noise (p = 2) --
  ``gamma_2 = (delta4, 2 sum(beta), 0)``.

Zero diffusion growth in a component makes the corresponding ratio
``gamma_1/gamma_2`` infinite, which reduces both the gap condition and the
moment-exponent range to their expected special forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import DriftSpec, LipschitzPerturbationSpec, SuperlinearNoiseSpec, TransportNoiseSpec
from .config import fmt
from .domain import FracOperatorParams, PoincareEstimate


@dataclass(frozen=True)
class HypothesisParams:
    """Constants of the growth/monotonicity hypotheses for J components."""

    q: tuple
    theta: tuple
    gamma1: tuple
    gamma2: tuple
    alpha: float = 0.0
    beta1: tuple | None = None
    beta2: tuple | None = None
    g_l1_norm: float = 0.0

    def __post_init__(self):
        J = len(self.q)
        if self.beta1 is None:
            object.__setattr__(self, "beta1", (0.0,) * J)
        if self.beta2 is None:
            object.__setattr__(self, "beta2", (0.0,) * J)
        for name in ("theta", "gamma1", "gamma2", "beta1", "beta2"):
            if len(getattr(self, name)) != J:
                raise ValueError(f"{name} must have {J} entries")
        for j in range(J):
            if not self.q[j] > 1.0:
                raise ValueError(f"component exponent q_{j + 1} must exceed 1")
            if not 0.0 <= self.theta[j] < self.q[j]:
                raise ValueError(f"theta_{j + 1} must lie in [0, q_{j + 1})")
            if not self.gamma1[j] > 0.0:
                raise ValueError(f"coercivity constant gamma1_{j + 1} must be positive")
            if self.gamma2[j] < 0 or self.beta1[j] < 0 or self.beta2[j] < 0:
                raise ValueError("growth constants must be nonnegative")
        if self.alpha < 0 or self.g_l1_norm < 0:
            raise ValueError("scalar growth constants must be nonnegative")

    @property
    def J(self) -> int:
        return len(self.q)


def compute_kappa(params: HypothesisParams) -> np.ndarray:
    """Per-component growth index max{1+beta1_j, 1+alpha, 1+beta2_j+2*theta_j/q_j}."""
    out = np.empty(params.J)
    for j in range(params.J):
        out[j] = max(
            1.0 + params.beta1[j],
            1.0 + params.alpha,
            1.0 + params.beta2[j] + 2.0 * params.theta[j] / params.q[j],
        )
    return out


def _min_ratio(params: HypothesisParams) -> float:
    ratios = [
        (params.gamma1[j] / params.gamma2[j]) if params.gamma2[j] > 0 else math.inf
        for j in range(params.J)
    ]
    return min(ratios)


def check_gap(params: HypothesisParams) -> TheoremCondition:
    """Strict gap condition ``max_j kappa_j < 2 min_j gamma1_j/gamma2_j``."""
    return TheoremCondition("gap", float(np.max(compute_kappa(params))), 2.0 * _min_ratio(params))


def moment_exponent_range(params: HypothesisParams) -> float:
    """Supremum of admissible moment exponents: 1/2 + min_j gamma1_j/gamma2_j.

    Admissible exponents form ``[1, p_max)``; the interval is empty when
    ``p_max <= 1``.
    """
    return 0.5 + _min_ratio(params)


@dataclass(frozen=True)
class TheoremCondition:
    """One condition ``lhs < rhs`` (``lhs <= rhs`` when not strict) with its verdict and margin."""

    label: str
    lhs: float
    rhs: float
    strict: bool = True

    ok = property(lambda self: self.lhs < self.rhs if self.strict else self.lhs <= self.rhs)
    margin = property(lambda self: self.rhs - self.lhs)


@dataclass(frozen=True)
class TheoremCheck:
    name: str
    conditions: tuple  # of TheoremCondition
    note: str = ""

    ok = property(lambda self: all(c.ok for c in self.conditions))

    def violated(self) -> tuple:
        return tuple(c.label for c in self.conditions if not c.ok)


def check_theorem_1(op_params: FracOperatorParams, noise: SuperlinearNoiseSpec, lambda_hat: float) -> TheoremCheck:
    """General monotone drift: needs s*p > n (n = 1 on an interval) and sum(beta) < lambda*C/6."""
    conds = (
        TheoremCondition("s*p > n (sup-norm embedding)", 1.0, op_params.s * op_params.p),
        TheoremCondition("2 <= p1 <= p", noise.p1, op_params.p, strict=False),
        TheoremCondition("sum(beta) < lambda*C/6", noise.beta_sum(), lambda_hat * op_params.c_kernel / 6.0),
    )
    return TheoremCheck("general_monotone_drift", conds, note="conditional on the discrete Poincare estimate")


def check_theorem_2(drift: DriftSpec, noise: SuperlinearNoiseSpec) -> TheoremCheck:
    """Strongly monotone drift: 2 <= p1 < q, sum(beta) < delta1, sum(gamma) <= 2*delta3."""
    conds = (
        TheoremCondition("2 <= p1", 2.0, noise.p1, strict=False),
        TheoremCondition("p1 < q", noise.p1, drift.q),
        TheoremCondition("sum(beta) < delta1", noise.beta_sum(), drift.delta1),
        TheoremCondition("sum(gamma) <= 2*delta3", noise.gamma_sum(), 2.0 * drift.delta3, strict=False),
    )
    return TheoremCheck("strong_monotone_drift", conds)


def check_theorem_3(
    drift: DriftSpec,
    noise: SuperlinearNoiseSpec,
    transport: TransportNoiseSpec,
    op_params: FracOperatorParams,
) -> TheoremCheck:
    """Transport-noise setting on top of the strongly monotone one (p = 2)."""
    if op_params.p != 2.0:
        raise ValueError("the transport-noise setting requires p = 2")
    c2 = op_params.c_kernel
    conds = check_theorem_2(drift, noise).conditions + (
        TheoremCondition("delta4 < C(n,2,s)", transport.delta4, c2),
        TheoremCondition("delta5 <= C(n,2,s)/2", transport.delta5, 0.5 * c2, strict=False),
    )
    return TheoremCheck("strong_monotone_with_transport", conds)


def theorem1_hypothesis_params(
    op_params: FracOperatorParams,
    drift: DriftSpec,
    lip: LipschitzPerturbationSpec,
    noise: SuperlinearNoiseSpec,
    lambda_hat: float,
    horizon: float,
) -> HypothesisParams:
    p, q = op_params.p, drift.q
    return HypothesisParams(
        q=(p, q, 2.0),
        theta=(p - 2.0, 0.0, 0.0),
        gamma1=(0.5 * op_params.c_kernel, drift.delta1, 1.0),
        gamma2=(2.0 * noise.beta_sum() / lambda_hat, 0.0, 0.0),
        g_l1_norm=2.0 * lip.phi3_l1(horizon),
    )


def theorem2_hypothesis_params(
    op_params: FracOperatorParams,
    drift: DriftSpec,
    lip: LipschitzPerturbationSpec,
    noise: SuperlinearNoiseSpec,
    horizon: float,
) -> HypothesisParams:
    # the sub-critical noise exponent is absorbed through |u|^{p1-2} <= 1 + |u|^{q-2},
    # leaving the integrable local-monotonicity weight 3*sum(gamma) + 2*phi3(t)
    p, q = op_params.p, drift.q
    return HypothesisParams(
        q=(p, q, 2.0),
        theta=(0.0, 0.0, 0.0),
        gamma1=(0.5 * op_params.c_kernel, drift.delta1, 1.0),
        gamma2=(0.0, 2.0 * noise.beta_sum(), 0.0),
        g_l1_norm=3.0 * noise.gamma_sum() * horizon + 2.0 * lip.phi3_l1(horizon),
    )


def theorem3_hypothesis_params(
    op_params: FracOperatorParams,
    drift: DriftSpec,
    lip: LipschitzPerturbationSpec,
    noise: SuperlinearNoiseSpec,
    transport: TransportNoiseSpec,
    horizon: float,
) -> HypothesisParams:
    base = theorem2_hypothesis_params(op_params, drift, lip, noise, horizon)
    return replace(
        base,
        gamma2=(transport.delta4, base.gamma2[1], 0.0),
        g_l1_norm=base.g_l1_norm + transport.phi4_l1(horizon),
    )


@dataclass(frozen=True)
class AdmissibilityReport:
    """Structured admissibility result for one configuration; every verdict is derived from the fields."""

    setting: str
    params: HypothesisParams
    theorem_checks: tuple  # of TheoremCheck
    lambda_est: PoincareEstimate
    notes: tuple

    kappa = property(lambda self: tuple(compute_kappa(self.params)))
    gap = property(lambda self: check_gap(self.params))
    p_max = property(lambda self: moment_exponent_range(self.params))
    empty_moment_range = property(lambda self: self.p_max <= 1.0)
    lambda_hat = property(lambda self: self.lambda_est.value)
    lambda_certified = property(lambda self: self.lambda_est.certified)

    @property
    def ok(self) -> bool:
        active = {c.name: c for c in self.theorem_checks}[self.setting]
        return active.ok and self.gap.ok

    def to_kv(self) -> str:
        lines = [
            f"setting = {self.setting}",
            f"lambda_hat = {fmt(self.lambda_hat)}",
            f"lambda_certified = {fmt(self.lambda_certified)}",
            f"kappa = {','.join(fmt(k) for k in self.kappa)}",
            f"gap_ok = {fmt(self.gap.ok)}",
            f"gap_lhs = {fmt(self.gap.lhs)}",
            f"gap_rhs = {fmt(self.gap.rhs)}",
            f"gap_margin = {fmt(self.gap.margin)}",
            f"p_max = {fmt(self.p_max)}",
            f"empty_moment_range = {fmt(self.empty_moment_range)}",
            f"admissible = {fmt(self.ok)}",
        ]
        for check in self.theorem_checks:
            lines.append(f"{check.name}.ok = {fmt(check.ok)}")
            for c in check.conditions:
                lines.append(
                    f"{check.name}.{c.label} = {fmt(c.ok)}"
                    f" (lhs={fmt(c.lhs)}, rhs={fmt(c.rhs)}, margin={fmt(c.margin)})"
                )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        out = [
            f"Admissibility report -- setting: {self.setting}",
            f"  Poincare estimate: {fmt(self.lambda_hat)}"
            + (
                " (certified on the discrete space)" if self.lambda_certified
                else " (attained quotient: an upper bound on the discrete minimum, not certified)"
            ),
            f"  growth indices kappa: ({', '.join(fmt(k) for k in self.kappa)})",
            f"  gap condition: max kappa = {fmt(self.gap.lhs)} "
            + ("<" if self.gap.ok else ">=")
            + f" {fmt(self.gap.rhs)} = 2 min(gamma1/gamma2) -> {'PASS' if self.gap.ok else 'FAIL'}",
            f"  moment exponents: [1, {fmt(self.p_max)})"
            + ("  [empty above 1]" if self.empty_moment_range else ""),
        ]
        for check in self.theorem_checks:
            marker = "PASS" if check.ok else "FAIL"
            out.append(f"  {check.name}: {marker}" + (f"  ({check.note})" if check.note else ""))
            for c in check.conditions:
                rel = "<" if c.strict else "<="
                out.append(
                    f"    [{'ok' if c.ok else 'VIOLATED'}] {c.label}: {fmt(c.lhs)} {rel} {fmt(c.rhs)}"
                    f" (margin {fmt(c.margin)})"
                )
        for note in self.notes:
            out.append(f"  note: {note}")
        out.append(f"  verdict: {'ADMISSIBLE' if self.ok else 'NOT ADMISSIBLE'} under the active setting")
        return "\n".join(out) + "\n"


def admissibility_report(
    op_params: FracOperatorParams,
    drift: DriftSpec,
    lip: LipschitzPerturbationSpec,
    noise: SuperlinearNoiseSpec,
    transport: TransportNoiseSpec | None,
    lambda_est: PoincareEstimate,
    horizon: float,
) -> AdmissibilityReport:
    """Evaluate every applicable theorem check and the active parameter algebra."""
    lam = lambda_est.value
    checks = [check_theorem_1(op_params, noise, lam)]
    notes = [
        "zero diffusion-growth constants make gamma1/gamma2 infinite",
        "theorem conditions are sufficient, not necessary",
    ]
    if drift.delta3 > 0:
        checks.append(check_theorem_2(drift, noise))
    if transport is not None:
        checks.append(check_theorem_3(drift, noise, transport, op_params))
        setting = "strong_monotone_with_transport"
        params = theorem3_hypothesis_params(op_params, drift, lip, noise, transport, horizon)
    elif drift.delta3 > 0:
        setting = "strong_monotone_drift"
        params = theorem2_hypothesis_params(op_params, drift, lip, noise, horizon)
    else:
        setting = "general_monotone_drift"
        params = theorem1_hypothesis_params(op_params, drift, lip, noise, lam, horizon)
        notes.append("theorem check is conditional on the discrete Poincare estimate")
    return AdmissibilityReport(setting, params, tuple(checks), lambda_est, tuple(notes))
