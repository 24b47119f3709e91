import math

import numpy as np
import pytest

from fracsplap import DriftSpec, FracOperatorParams, LipschitzPerturbationSpec, SuperlinearNoiseSpec
from fracsplap.hypotheses import (
    HypothesisParams,
    admissibility_report,
    check_gap,
    check_theorem_1,
    check_theorem_2,
    check_theorem_3,
    compute_kappa,
    moment_exponent_range,
    theorem1_hypothesis_params,
)


def _params(**kw):
    base = dict(q=(2.0, 2.0, 2.0), theta=(0.0, 0.0, 0.0), gamma1=(1.0, 1.0, 1.0), gamma2=(0.0, 0.0, 0.0))
    base.update(kw)
    return HypothesisParams(**base)


def test_kappa_all_zero_case():
    assert np.all(compute_kappa(_params()) == 1.0)


def test_kappa_single_active_branch():
    assert np.all(compute_kappa(_params(alpha=2.0)) == 3.0)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 10.0])
def test_kappa_general_monotone_parameterization(p):
    drift = DriftSpec(q=4.0, delta=1.0)
    lip = LipschitzPerturbationSpec(0.0)
    noise = SuperlinearNoiseSpec(p1=2.0, beta_b0=0.01, beta_r=2.0, gamma_g0=0.01, gamma_r=2.0)
    hp = theorem1_hypothesis_params(FracOperatorParams(s=0.75, p=p), drift, lip, noise, lambda_hat=1.0, horizon=1.0)
    kappa = compute_kappa(hp)
    assert kappa[0] == pytest.approx(3.0 - 4.0 / p, rel=0, abs=5e-16)
    assert kappa[1] == 1.0 and kappa[2] == 1.0


def test_kappa_monotone_in_growth_constants():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.uniform(0, 3, 4)  # alpha, beta1, beta2, theta
        bump = rng.uniform(0, 1, 4) * (rng.random(4) < 0.5)
        q = rng.uniform(2.0, 6.0)
        lo = _params(q=(q,) * 3, alpha=a[0], beta1=(a[1],) * 3, beta2=(a[2],) * 3, theta=(min(a[3], q - 1e-9),) * 3)
        t_hi = min(a[3] + bump[3], q - 1e-9)
        hi = _params(
            q=(q,) * 3,
            alpha=a[0] + bump[0],
            beta1=(a[1] + bump[1],) * 3,
            beta2=(a[2] + bump[2],) * 3,
            theta=(t_hi,) * 3,
        )
        assert np.all(compute_kappa(hi) >= compute_kappa(lo) - 1e-12)


def test_gap_degenerate_and_direct():
    g = check_gap(_params())
    assert g.ok and g.rhs == math.inf and g.margin == math.inf
    g = check_gap(_params(gamma2=(1.0, 0.0, 0.0)))
    assert g.ok and g.lhs == 1.0 and g.rhs == 2.0 and g.margin == 1.0


def test_gap_monotone_in_gammas():
    rng = np.random.default_rng(1)
    for _ in range(200):
        g1 = rng.uniform(0.2, 3.0, 3)
        g2 = rng.uniform(0.0, 2.0, 3)
        p0 = _params(gamma1=tuple(g1), gamma2=tuple(g2))
        up = _params(gamma1=tuple(g1 + rng.uniform(0, 1, 3)), gamma2=tuple(g2))
        if check_gap(p0).ok:
            assert check_gap(up).ok  # raising gamma1 never flips pass -> fail
        down = _params(gamma1=tuple(g1), gamma2=tuple(g2 + rng.uniform(0, 1, 3)))
        if not check_gap(p0).ok:
            assert not check_gap(down).ok  # raising gamma2 never flips fail -> pass


def test_gap_reduction_general_monotone_form():
    # in the general-monotone parameterization the gap condition is equivalent
    # to 1/p > 3/4 - lambda*C/(8*sum(beta))
    drift = DriftSpec(q=4.0, delta=1.0)
    lip = LipschitzPerturbationSpec(0.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.uniform(2.0, 8.0)
        s = rng.uniform(0.3, 0.9)
        lam = rng.uniform(0.2, 4.0)
        b0 = rng.uniform(1e-4, 1.0)
        noise = SuperlinearNoiseSpec(p1=2.0, beta_b0=b0, beta_r=2.0, gamma_g0=b0, gamma_r=2.0)
        op = FracOperatorParams(s=s, p=p)
        hp = theorem1_hypothesis_params(op, drift, lip, noise, lam, 1.0)
        reduced = 1.0 / p > 0.75 - lam * op.c_kernel / (8.0 * noise.beta_sum())
        assert check_gap(hp).ok == reduced


def test_moment_exponent_examples():
    assert moment_exponent_range(_params(gamma2=(2.0, 0.0, 0.0))) == 1.0
    assert moment_exponent_range(_params()) == math.inf
    p = _params(gamma1=(2.5, 1.0, 1.0), gamma2=(1.0, 0.0, 0.0))
    assert moment_exponent_range(p) == 3.0


def test_hypothesis_params_validation():
    with pytest.raises(ValueError):
        _params(q=(1.0, 2.0, 2.0))
    with pytest.raises(ValueError):
        _params(theta=(2.5, 0.0, 0.0))  # theta >= q
    with pytest.raises(ValueError):
        _params(gamma1=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        _params(alpha=-1.0)


def test_theorem_1_gate_and_margin(space16):
    drift = DriftSpec(q=4.0, delta=1.0)
    op = FracOperatorParams(s=0.6, p=3.0)
    zero_noise = SuperlinearNoiseSpec(p1=2.0)
    chk = check_theorem_1(op, drift, zero_noise, lambda_hat=1.0)
    assert chk.ok  # zero beta passes strictly
    bad_embed = check_theorem_1(FracOperatorParams(s=0.4, p=2.0), drift, zero_noise, 1.0)
    assert not bad_embed.ok
    assert "s*p > n (sup-norm embedding)" in bad_embed.violated()
    # 90% of the beta budget still passes with a 10% margin
    lam = 0.8
    cap = lam * op.c_kernel / 6.0
    b0_cap = 0.9 * cap / (np.pi**2 / 6.0)
    noise = SuperlinearNoiseSpec(p1=2.0, beta_b0=b0_cap, beta_r=2.0, gamma_g0=b0_cap, gamma_r=2.0)
    chk = check_theorem_1(op, drift, noise, lam)
    assert chk.ok
    c3 = chk.conditions[2]
    assert c3.margin == pytest.approx(0.1 * cap, rel=1e-10)


def test_theorem_2_boundary_semantics():
    drift = DriftSpec(q=4.0, delta=1.0)  # delta1 = 1, delta3 = 0.5
    # single-index families make the series sums exact at the boundary
    at_beta = SuperlinearNoiseSpec(p1=3.0, beta_b0=drift.delta1, beta_r=2.0, gamma_g0=3.0 * drift.delta1, gamma_r=2.0, cutoff=1)
    assert at_beta.beta_sum() == drift.delta1
    chk = check_theorem_2(drift, at_beta)
    assert not chk.ok and "sum(beta) < delta1" in chk.violated()
    at_gamma = SuperlinearNoiseSpec(p1=3.0, beta_b0=0.05, beta_r=2.0, gamma_g0=2.0 * drift.delta3, gamma_r=2.0, cutoff=1)
    assert at_gamma.gamma_sum() == 2.0 * drift.delta3
    assert check_theorem_2(drift, at_gamma).ok
    p1_at_q = SuperlinearNoiseSpec(p1=4.0, beta_b0=0.05, beta_r=2.0, gamma_g0=0.2, gamma_r=2.0)
    chk = check_theorem_2(drift, p1_at_q)
    assert not chk.ok and "p1 < q" in chk.violated()


def test_theorem_3_boundary_semantics(space16, params_s05_p2):
    from fracsplap import TransportNoiseSpec

    drift = DriftSpec(q=4.0, delta=1.0)
    noise = SuperlinearNoiseSpec(p1=3.0, beta_b0=0.05, beta_r=2.0, gamma_g0=0.2, gamma_r=2.0)
    c2 = params_s05_p2.c_kernel

    def transport_with(delta):
        g = np.zeros((16, 1))
        return TransportNoiseSpec(g_fields=g, linf_norms=np.zeros(1), v1_norms=np.zeros(1), delta4=delta, delta5=delta)

    at_c = check_theorem_3(drift, noise, transport_with(c2), params_s05_p2)
    assert not at_c.ok and "delta4 < C(n,2,s)" in at_c.violated()
    at_half = check_theorem_3(drift, noise, transport_with(0.5 * c2), params_s05_p2)
    assert at_half.ok
    interior = check_theorem_3(drift, noise, transport_with(0.25 * c2), params_s05_p2)
    assert interior.ok
    with pytest.raises(ValueError):
        check_theorem_3(drift, noise, transport_with(0.1), FracOperatorParams(s=0.5, p=3.0))


def test_report_determinism_and_content():
    op = FracOperatorParams(s=0.5, p=2.0)
    drift = DriftSpec(q=4.0, delta=1.0)
    lip = LipschitzPerturbationSpec(0.1)
    noise = SuperlinearNoiseSpec(p1=3.0, beta_b0=0.1, beta_r=2.0, gamma_g0=0.3, gamma_r=2.0)
    rep1 = admissibility_report(op, drift, lip, noise, None, 1.3, horizon=1.0)
    rep2 = admissibility_report(op, drift, lip, noise, None, 1.3, horizon=1.0)
    assert rep1.to_text() == rep2.to_text()
    assert rep1.to_kv() == rep2.to_kv()
    assert rep1.setting == "strong_monotone_drift"
    assert rep1.p_max == 0.5 + drift.delta1 / (2.0 * noise.beta_sum())
    assert rep1.ok
    assert not rep1.empty_moment_range
    # every failing check names the violated inequality
    bad = admissibility_report(
        op, drift, lip,
        SuperlinearNoiseSpec(p1=3.0, beta_b0=2.0, beta_r=2.0, gamma_g0=6.0, gamma_r=2.0),
        None, 1.3, horizon=1.0,
    )
    assert not bad.ok
    failing = [c for chk in bad.theorem_checks for c in chk.conditions if not c.ok]
    assert failing and all(c.label for c in failing)


def test_report_labels_p3_poincare_as_attained_upper_bound(space16):
    # the p != 2 estimate is an attained Rayleigh quotient: an upper bound on the discrete minimum
    from fracsplap.domain import poincare_constant

    op = FracOperatorParams(s=0.6, p=3.0)
    est = poincare_constant(space16, op)
    assert not est.certified
    rep = admissibility_report(
        op, DriftSpec(q=4.0, delta=1.0), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0),
        None, est, horizon=1.0,
    )
    line = next(line for line in rep.to_text().splitlines() if "Poincare estimate" in line)
    assert "upper bound on the discrete minimum, not certified" in line
    assert "lower bound" not in line and "heuristic" not in line
