"""Acceptance suite: one test per criterion, at the stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from fracsplap import (
    DomainSpec,
    DriftSpec,
    FracOperatorParams,
    LipschitzPerturbationSpec,
    SimulationSetup,
    SolverConfig,
    SuperlinearNoiseSpec,
    TransportNoiseSpec,
    apply_A1_weak,
    build_bundle,
    build_space,
    check_scalar_monotonicity,
    check_theorem_2,
    check_theorem_3,
    compute_kappa,
    estimate_moments,
    gagliardo_seminorm,
    galerkin_convergence_study,
    kernel_constant,
    parse_config_file,
    pathwise_stability_study,
    strong_order_study,
    time_seminorm_sq,
)
from fracsplap.cli import main
from fracsplap.hypotheses import theorem1_hypothesis_params
from fracsplap.space import l2_norm

from oracles import check_adjoint_identity, gagliardo_seminorm_oracle, kernel_constant_oracle

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def _report(num, label, t0, budget=None):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} PASS {label} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_a01_kernel_constant_oracle():
    t0 = time.perf_counter()
    assert abs(kernel_constant(1, 2.0, 0.5) - 1.0 / math.pi) < 1e-12
    assert abs(kernel_constant(1, 2.0, 0.5) - kernel_constant_oracle(1, 2.0, 0.5)) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = float(rng.uniform(2.0, 8.0))
        s = float(rng.uniform(0.05, 0.95))
        ref = kernel_constant_oracle(n, p, s)
        assert abs(kernel_constant(n, p, s) - ref) <= 1e-11 * ref
    _report(1, "kernel constant matches the high-precision oracle", t0, budget=1.0)


def test_a02_kappa_formula():
    t0 = time.perf_counter()
    drift = DriftSpec(q=4.0, delta=1.0)
    lip = LipschitzPerturbationSpec(0.0)
    noise = SuperlinearNoiseSpec(p1=2.0, beta_b0=0.01, beta_r=2.0, gamma_g0=0.01, gamma_r=2.0)
    for p in (2.0, 2.5, 3.0, 4.0, 10.0):
        hp = theorem1_hypothesis_params(
            FracOperatorParams(s=0.75, p=p), drift, lip, noise, lambda_hat=1.0, horizon=1.0
        )
        kappa = compute_kappa(hp)
        assert kappa[0] == pytest.approx(3.0 - 4.0 / p, rel=0.0, abs=5e-16)
        assert kappa[1] == 1.0 and kappa[2] == 1.0
    _report(2, "growth index reduces to 3 - 4/p in the general monotone setting", t0)


def test_a03_scalar_monotonicity():
    t0 = time.perf_counter()
    for p in (2.0, 3.0, 4.0, 6.0):
        rep = check_scalar_monotonicity(p, 100_000, rng_seed=7, tol=1e-12)
        assert rep.violations == 0
    _report(3, "scalar monotonicity inequality, 1e5 pairs per exponent", t0, budget=5.0)


@pytest.fixture(scope="module")
def space32_acc():
    return build_space(DomainSpec(), 32, 32)


def test_a04_coercivity_identity(space32_acc):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for p in (2.0, 3.0, 4.0):
        params = FracOperatorParams(s=0.5, p=p)
        for _ in range(100):
            v = rng.standard_normal(32)
            lhs = apply_A1_weak(space32_acc, v, v, params)
            rhs = -0.5 * params.c_kernel * gagliardo_seminorm(space32_acc, v, params) ** p
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)
    _report(4, "coercivity identity under the shared quadrature", t0, budget=120.0)


def test_a05_operator_monotonicity(space32_acc):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    for p in (2.0, 3.0, 4.0):
        params = FracOperatorParams(s=0.5, p=p)
        for _ in range(100):
            u, v = rng.standard_normal((2, 32))
            gap = apply_A1_weak(space32_acc, u, u - v, params) - apply_A1_weak(space32_acc, v, u - v, params)
            bound = -(2.0 ** (1.0 - p)) * params.c_kernel * gagliardo_seminorm(space32_acc, u - v, params) ** p
            assert gap <= bound + 1e-6 * max(1.0, abs(bound))
    _report(5, "operator monotonicity with the scalar-inequality constant", t0, budget=120.0)


def test_a06_seminorm_oracle(space32_acc):
    t0 = time.perf_counter()
    v = np.zeros(32)
    v[15] = 1.0
    for s in (0.3, 0.5, 0.7):
        for p in (2.0, 3.0):
            ours = gagliardo_seminorm(space32_acc, v, FracOperatorParams(s=s, p=p))
            ref = gagliardo_seminorm_oracle(space32_acc, v, s, p)
            assert abs(ours - ref) < 1e-3 * ref, (s, p, ours, ref)
    _report(6, "hat-function seminorm matches the 4x-refined oracle", t0)


def test_a07_deterministic_time_convergence():
    t0 = time.perf_counter()
    bundle = build_bundle(parse_config_file(CONFIG_DIR / "deterministic_convergence.cfg"))
    assert bundle.setup.space.m == 64 and bundle.solver_config.n_modes == 16
    rep = strong_order_study(
        bundle.setup, bundle.solver_config, bundle.x0_shape,
        bundle.config["harness.dt_ladder"], n_paths=1,
        ref_refine=bundle.config["harness.ref_refine"],
    )
    assert rep.dt_ladder == (2.0**-6, 2.0**-7, 2.0**-8)
    for a, b in zip(rep.strong_errors, rep.strong_errors[1:]):
        assert 1.7 <= a / b <= 2.3, rep.strong_errors
    _report(7, "zero-noise endpoint error halves along the dyadic dt ladder", t0, budget=60.0)


def test_a08_strong_stochastic_order():
    t0 = time.perf_counter()
    bundle = build_bundle(parse_config_file(CONFIG_DIR / "strong_order.cfg"))
    n_paths = bundle.config["harness.n_paths"]
    assert n_paths >= 200
    rep = strong_order_study(
        bundle.setup, bundle.solver_config, bundle.x0_shape,
        bundle.config["harness.dt_ladder"], n_paths=n_paths,
        ref_refine=bundle.config["harness.ref_refine"], threads=2,
    )
    assert len(rep.dt_ladder) == 3
    assert 0.4 <= rep.strong_slope <= 0.6, rep.strong_slope
    _report(8, f"strong order {rep.strong_slope:.3f} against the refined reference", t0, budget=600.0)


def test_a09_moment_affinity():
    t0 = time.perf_counter()
    bundle = build_bundle(parse_config_file(CONFIG_DIR / "moments.cfg"))
    report = bundle.admissibility()
    assert report.ok and report.setting == "strong_monotone_drift"
    rep = estimate_moments(
        bundle.setup, bundle.solver_config, bundle.x0_shape,
        x_scales=(0.0, 1.0, 2.0, 4.0), p_values=(1.0,), n_paths=400,
        p_max=report.p_max, affinity_factor=3.0, threads=2,
    )
    assert rep.diverged == 0
    ratios = rep.affinity_ratios[0]
    assert ratios.max() / ratios.min() < 3.0, ratios
    assert not rep.affinity_flags[0]
    for arr in (rep.sup_moments, rep.energy_moments, rep.cross_moments):
        assert np.all(np.isfinite(arr))
    for se in (rep.sup_std_errors, rep.energy_std_errors, rep.cross_std_errors):
        assert np.all(np.isfinite(se)) and np.all(se >= 0.0)
    _report(9, f"affinity ratios within factor {ratios.max() / ratios.min():.2f}", t0, budget=600.0)


def test_a10_galerkin_stabilization():
    t0 = time.perf_counter()
    bundle = build_bundle(parse_config_file(CONFIG_DIR / "galerkin_ladder.cfg"))
    rep = galerkin_convergence_study(
        bundle.setup, bundle.solver_config, bundle.config["solver.x0_scale"] * bundle.x0_shape,
        (8, 16, 32), n_paths=bundle.config["harness.n_paths"], threads=2,
    )
    assert rep.mode_ladder == (8, 16, 32)
    assert rep.gaps_monotone, rep.pairwise_gaps
    assert all(g > 0 for g in rep.pairwise_gaps)
    _report(10, f"ladder gaps strictly decrease: {[f'{g:.2e}' for g in rep.pairwise_gaps]}", t0, budget=300.0)


def test_a11_pathwise_uniqueness():
    t0 = time.perf_counter()
    bundle = build_bundle(parse_config_file(CONFIG_DIR / "uniqueness.cfg"))
    x0 = bundle.x0_shape
    identical = pathwise_stability_study(bundle.setup, bundle.solver_config, x0, x0.copy(), n_paths=16)
    assert identical.bitwise_identical
    assert np.all(identical.sup_gap_sq == 0.0)
    eps = bundle.config["harness.stability_epsilon"]
    assert eps == 1e-3
    perturbed = pathwise_stability_study(bundle.setup, bundle.solver_config, x0, x0 + eps * x0, n_paths=16)
    assert perturbed.gap_nonincreasing
    _report(11, "bitwise identity and monotone decay of the perturbation gap", t0)


def test_a12_slobodeckij_seminorm():
    t0 = time.perf_counter()
    n = 1000
    dt = 1.0 / (n - 1)
    vals = dt * np.arange(n)
    s2 = time_seminorm_sq(vals, dt, 0.25)
    exact = 2.0 / ((2.0 - 0.5) * (3.0 - 0.5))
    assert exact == 8.0 / 15.0
    assert abs(s2 - exact) < 1e-3
    _report(12, f"linear-path time seminorm^2 = {s2:.6f} vs 8/15", t0)


def test_a13_transport_adjoint_identity():
    t0 = time.perf_counter()
    space = build_space(DomainSpec(), 64, 32)
    params = FracOperatorParams(s=0.5, p=2.0)
    rng = np.random.default_rng(13)
    for trial in range(5):
        # random smooth multiplier from the low sine modes
        xi = (space.nodes - space.domain.a) / space.domain.length
        coeffs = rng.standard_normal(4)
        g = sum(c * np.sin((k + 1) * np.pi * xi) for k, c in enumerate(coeffs))
        linf = np.array([np.max(np.abs(g))])
        v1 = np.array([gagliardo_seminorm(space, g, params)])
        d = 0.5 * params.c_kernel * float(linf[0] ** 2)
        tr = TransportNoiseSpec(g_fields=g[:, None], linf_norms=linf, v1_norms=v1, delta4=d, delta5=d)
        u = rng.standard_normal(64)
        v = rng.standard_normal(64)
        res = check_adjoint_identity(tr, space, params, u, v)
        assert res < 1e-6 * l2_norm(space, u) * l2_norm(space, v), res
    _report(13, "multiplier moves across the discrete square root to rounding", t0)


def test_a14_boundary_semantics():
    t0 = time.perf_counter()
    drift = DriftSpec(q=4.0, delta=1.0)  # delta1 = 1, delta3 = 1/2
    params2 = FracOperatorParams(s=0.5, p=2.0)
    c2 = params2.c_kernel
    # sum(beta) = delta1 exactly: the strict inequality fails
    at_beta = SuperlinearNoiseSpec(p1=2.0, beta_b0=drift.delta1, beta_r=2.0, gamma_g0=0.5, gamma_r=2.0, cutoff=1)
    chk = check_theorem_2(drift, at_beta)
    assert not chk.ok and "sum(beta) < delta1" in chk.violated()
    # sum(gamma) = 2*delta3 exactly: the non-strict inequality passes
    at_gamma = SuperlinearNoiseSpec(p1=3.0, beta_b0=0.05, beta_r=2.0, gamma_g0=2.0 * drift.delta3, gamma_r=2.0, cutoff=1)
    assert at_gamma.gamma_sum() == 2.0 * drift.delta3
    assert check_theorem_2(drift, at_gamma).ok

    def transport_with(delta):
        return TransportNoiseSpec(
            g_fields=np.zeros((8, 1)), linf_norms=np.zeros(1), v1_norms=np.zeros(1), delta4=delta, delta5=delta
        )

    ok_noise = SuperlinearNoiseSpec(p1=3.0, beta_b0=0.05, beta_r=2.0, gamma_g0=0.2, gamma_r=2.0)
    at_c = check_theorem_3(drift, ok_noise, transport_with(c2), params2)
    assert not at_c.ok and "delta4 < C(n,2,s)" in at_c.violated()
    at_half = check_theorem_3(drift, ok_noise, transport_with(0.5 * c2), params2)
    assert at_half.ok
    _report(14, "strict and non-strict boundaries behave exactly as stated", t0)


def test_a15_cli_reproducibility(tmp_path):
    t0 = time.perf_counter()
    outs = {}
    for tag, threads in (("s1", "1"), ("s2", "1"), ("s4", "4")):
        rc = main([
            "uniqueness", "--config", str(CONFIG_DIR / "uniqueness.cfg"),
            "--out", str(tmp_path / tag), "--threads", threads,
        ])
        assert rc == 0
        outs[tag] = (tmp_path / tag / "stability.csv").read_bytes()
    assert outs["s1"] == outs["s2"]
    assert outs["s1"] == outs["s4"]
    for tag, threads in (("m1", "1"), ("m2", "3")):
        rc = main([
            "simulate", "--config", str(CONFIG_DIR / "theorem2_ok.cfg"),
            "--out", str(tmp_path / tag), "--threads", threads,
        ])
        assert rc == 0
        outs[tag] = (tmp_path / tag / "path.csv").read_bytes()
    assert outs["m1"] == outs["m2"]
    _report(15, "identical artifacts across repeated runs and thread counts", t0)
