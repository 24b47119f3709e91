import dataclasses
import math
import os
import threading
import tracemalloc
from pathlib import Path as FsPath

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
    build_space,
    estimate_moments,
    galerkin_convergence_study,
    pathwise_stability_study,
    simulate_path,
    slobodeckij_time_seminorm,
    strong_order_study,
    time_seminorm_sq,
)
from fracsplap import harness
from fracsplap.config import ConfigError, ExperimentConfig, build_bundle, parse_config_file
from fracsplap.harness import run_ensemble
from fracsplap.solver import Path
from fracsplap.space import l2_norm


@pytest.fixture(scope="module")
def moment_setup():
    space = build_space(DomainSpec(), 16, 8)
    params = FracOperatorParams(s=0.4, p=2.0)
    noise = SuperlinearNoiseSpec(p1=3.0, beta_b0=0.2, beta_r=2.0, gamma_g0=0.55, gamma_r=2.0,
                                 sigma1_amplitude=2.0, sigma1_decay=1.0)
    setup = SimulationSetup(
        space, params,
        DriftSpec(q=4.0, delta=1.0), LipschitzPerturbationSpec(0.0), noise,
    )
    shape = np.zeros(16)
    shape[:8] = np.exp(-0.5 * ((space.nodes[:8] - 0.2) / 0.08) ** 2)
    shape /= l2_norm(space, shape)
    return setup, shape


def test_moment_report_zero_case(moment_setup):
    setup, shape = moment_setup
    silent = SimulationSetup(
        setup.space, setup.op_params, setup.drift, setup.lip, SuperlinearNoiseSpec(p1=2.0),
    )
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=8, n_noise=2, master_seed=1)
    rep = estimate_moments(silent, cfg, shape, x_scales=[0.0], p_values=[1.0], n_paths=100)
    assert rep.sup_moments[0, 0] == 0.0
    assert rep.energy_moments[0, 0] == 0.0
    assert rep.cross_moments[0, 0] == 0.0
    assert rep.affinity_flags == (True,)  # a zero ratio is an infinite spread


def test_moment_refuses_inadmissible_exponent(moment_setup):
    setup, shape = moment_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=8, n_noise=2, master_seed=1)
    with pytest.raises(ValueError, match="admissible range"):
        estimate_moments(setup, cfg, shape, [1.0], [2.5], n_paths=100, p_max=2.0)
    with pytest.raises(ConfigError, match="harness.p_values needs at least one exponent"):
        estimate_moments(setup, cfg, shape, [1.0], [], n_paths=100)
    with pytest.raises(ValueError):
        estimate_moments(setup, cfg, shape, [1.0], [1.0], n_paths=50)


def test_moment_dissipative_deterministic(moment_setup):
    setup, shape = moment_setup
    silent = SimulationSetup(
        setup.space, setup.op_params, setup.drift, setup.lip, SuperlinearNoiseSpec(p1=2.0),
    )
    cfg = SolverConfig(T=0.25, dt=2.0**-6, n_modes=8, n_noise=2, master_seed=1)
    rep = estimate_moments(silent, cfg, shape, x_scales=[2.0], p_values=[1.0], n_paths=100)
    x_sq = l2_norm(setup.space, 2.0 * shape) ** 2
    assert rep.sup_moments[0, 0] <= x_sq * (1.0 + 1e-10)
    assert rep.sup_std_errors[0, 0] == 0.0  # deterministic ensemble


def test_moment_affinity_and_self_consistency(moment_setup):
    setup, shape = moment_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-6, n_modes=8, n_noise=4, master_seed=5)
    rep = estimate_moments(setup, cfg, shape, x_scales=[0.0, 1.0, 2.0], p_values=[1.0], n_paths=200)
    assert not rep.affinity_flags[0]
    assert np.all(rep.sup_std_errors >= 0)
    assert np.all(np.isfinite(rep.energy_moments))
    assert np.all(np.isfinite(rep.cross_moments))
    rep2 = estimate_moments(setup, cfg, shape, x_scales=[0.0, 1.0, 2.0], p_values=[1.0], n_paths=400)
    gap = abs(rep2.sup_moments[0, 1] - rep.sup_moments[0, 1])
    assert gap < 4.0 * (rep.sup_std_errors[0, 1] + rep2.sup_std_errors[0, 1])


def test_moment_study_stops_at_the_first_diverged_path(moment_setup, monkeypatch):
    # every third path is marked diverged: the first of them raises, and no statistic is taken over the rest
    setup, shape = moment_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=8, n_noise=2, master_seed=4)
    simulate = harness.simulate_path
    calls = []

    def every_third_diverged(setup, config, x0, path_index=0, dW=None):
        calls.append(path_index)
        path = simulate(setup, config, x0, path_index=path_index, dW=dW)
        return dataclasses.replace(path, diverged_at=1) if path_index % 3 == 0 else path

    monkeypatch.setattr(harness, "simulate_path", every_third_diverged)
    with pytest.raises(harness.EnsembleDiverged, match=r"^path 0 \(x_scale 1.0\) diverged at step 1; no statistics"):
        estimate_moments(setup, cfg, shape, [1.0, 2.0], [1.0, 2.5], n_paths=100)
    assert calls == [0]


def test_moment_statistics_read_every_path(moment_setup):
    # each moment and std error is the mean and the standard error of its samples over all n paths
    setup, shape = moment_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=8, n_noise=2, master_seed=4)
    x_scales, p_values, n = [1.0, 2.0], [1.0, 2.5], 100
    rep = estimate_moments(setup, cfg, shape, x_scales, p_values, n_paths=n)
    for si, scale in enumerate(x_scales):
        paths = [simulate_path(setup, cfg, scale * shape, path_index=j) for j in range(n)]
        l2 = np.array([path.l2_norms for path in paths])
        en = np.array([path.energy_series for path in paths])
        for pi, p in enumerate(p_values):
            for samples, moments, std_errors in (
                (l2.max(axis=1) ** (2 * p), rep.sup_moments, rep.sup_std_errors),
                (np.trapezoid(en, dx=cfg.dt, axis=1) ** p, rep.energy_moments, rep.energy_std_errors),
                (np.trapezoid(l2 ** (2 * p - 2) * en, dx=cfg.dt, axis=1), rep.cross_moments, rep.cross_std_errors),
            ):
                assert moments[pi, si] == pytest.approx(samples.mean(), rel=1e-13, abs=0)
                assert std_errors[pi, si] == pytest.approx(samples.std(ddof=1) / math.sqrt(n), rel=1e-12, abs=0)


def test_moment_study_keeps_samples_not_paths(moment_setup, monkeypatch):
    # each path is reduced to its samples as it finishes; keeping the paths of a scale would take
    # n * (K+1) * (k+5) floats, and the bound counts the samples only.  Every path is a fresh copy of
    # one solved path of that size, since solving 200 paths under tracemalloc takes seconds.
    setup, shape = moment_setup
    n, cfg = 200, SolverConfig(T=0.25, dt=2.0**-10, n_modes=8, n_noise=2, master_seed=6)
    solved = simulate_path(setup, cfg, shape)
    arrays = {key: value for key, value in vars(solved).items() if isinstance(value, np.ndarray)}

    def copy_of_solved(*args, **kwargs):
        return dataclasses.replace(solved, **{key: value.copy() for key, value in arrays.items()})

    monkeypatch.setattr(harness, "simulate_path", copy_of_solved)
    kept_paths_bytes = n * (cfg.n_steps + 1) * (cfg.n_modes + 5) * 8
    tracemalloc.start()
    try:
        rep = estimate_moments(setup, cfg, shape, x_scales=[1.0], p_values=[1.0], n_paths=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < kept_paths_bytes / 4
    harness.require_ensemble_fits(harness.MAX_ENSEMBLE_ENTRIES // 4, 2)
    with pytest.raises(ConfigError, match="keeps 25000004 floats"):
        harness.require_ensemble_fits(harness.MAX_ENSEMBLE_ENTRIES // 4 + 1, 2)


def test_energy_moment_matches_the_exact_gaussian_law():
    # p = q = 2, additive sigma1 forcing, no taming: the Euler-Maruyama state is Gaussian, with
    # mu <- (I - dt A) mu and P <- (I - dt A) P (I - dt A)^T + dt B B^T, A = S_red + (delta + linear) I,
    # and the recorded energy is z^T Q z, Q = (2/C) S_red + (E H)^T diag(w) (E H) + I, so the exponent-1
    # energy moment E[int energy dt] is exact for the scheme (4.7252 and 47.661 at x_scales 1 and 4).
    # So is its sd (2.1720 and 7.3739): with trapezoid weights t_i and the cross-covariances
    # C_ij = (I - dt A)^(i-j) P_j of z_i and z_j (i >= j), Var sum_i t_i z_i^T Q z_i is
    # sum_ij t_i t_j [2 tr(Q C_ij Q C_ij^T) + 4 mu_i^T Q C_ij Q mu_j].
    shipped = parse_config_file(FsPath(__file__).parent.parent / "configs" / "moments.cfg").values
    overrides = {"drift.q": 2.0, "noise.beta_b0": 0.0, "noise.gamma_g0": 0.0, "solver.taming": False}
    bundle = build_bundle(ExperimentConfig({**shipped, **overrides}))
    setup, cfg = bundle.setup, bundle.solver_config
    ops, space, dt = setup.reduced(cfg.n_modes), setup.space, cfg.dt
    step = np.eye(cfg.n_modes) - dt * (ops.S + (setup.drift.delta + setup.drift.linear) * np.eye(cfg.n_modes))
    B = ops.HT_M @ setup.noise.sigma1_nodal(space, 0.0, cfg.n_noise)
    E, w = space.gauss_rule(8)
    EH = E @ ops.H
    Q = (2.0 / setup.op_params.c_kernel) * ops.S + EH.T @ (w[:, None] * EH) + np.eye(cfg.n_modes)
    t = np.full(cfg.n_steps + 1, dt)
    t[0] = t[-1] = 0.5 * dt
    scales, n_paths = (1.0, 4.0), 400
    rep = estimate_moments(setup, cfg, bundle.x0_shape, x_scales=scales, p_values=(1.0,), n_paths=n_paths)
    for si, (scale, recorded, recorded_sd) in enumerate(zip(scales, (4.7252, 47.661), (2.1720, 7.3739))):
        mu, P, mus, covs = ops.HT_M @ (scale * bundle.x0_shape), np.zeros_like(Q), [], []
        for _ in range(cfg.n_steps + 1):
            mus.append(mu)
            covs.append(P)
            mu, P = step @ mu, step @ P @ step.T + dt * (B @ B.T)
        exact = float(np.trapezoid([m @ Q @ m + np.sum(Q * c) for m, c in zip(mus, covs)], dx=dt))
        var = 0.0
        for j, C in enumerate(covs):
            for i in range(j, len(covs)):
                QC = Q @ C
                cov = 2.0 * np.sum(QC * (C @ Q)) + 4.0 * mus[i] @ QC @ Q @ mus[j]
                var += (1.0 if i == j else 2.0) * t[i] * t[j] * cov
                C = step @ C
        assert exact == pytest.approx(recorded, rel=1e-4)
        assert math.sqrt(var) == pytest.approx(recorded_sd, rel=1e-4)
        assert abs(rep.energy_moments[0, si] - exact) < 4.0 * rep.energy_std_errors[0, si]
        assert rep.energy_std_errors[0, si] * math.sqrt(n_paths) == pytest.approx(math.sqrt(var), rel=0.25)


def test_run_ensemble_checks_its_floor():
    assert run_ensemble(lambda j: j * j, 3, floor=3) == [0, 1, 4]
    with pytest.raises(ConfigError, match="harness.n_paths must be >= 4"):
        run_ensemble(lambda j: j, 3, floor=4)


def test_ensemble_thread_count_invariance(moment_setup):
    # an ensemble run from another thread gives the same paths, bit for bit and in index order
    setup, shape = moment_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=8, n_noise=2, master_seed=9)

    def one(j):
        return simulate_path(setup, cfg, shape, path_index=j)

    here, there = run_ensemble(one, 8), []
    worker = threading.Thread(target=lambda: there.extend(run_ensemble(one, 8)))
    worker.start()
    worker.join()
    assert len(here) == len(there) == 8
    for a, b in zip(here, there):
        assert np.array_equal(a.states, b.states)


def test_ensemble_threads_capped_at_cpu_count():
    # more paths than CPUs start no worker thread: every path runs on the calling thread
    cpus = os.cpu_count() or 1
    baseline, seen = threading.active_count(), []

    def one(j):
        seen.append((threading.get_ident(), threading.active_count()))
        return j

    assert run_ensemble(one, cpus + 2) == list(range(cpus + 2))
    assert max(n for _, n in seen) <= baseline + cpus
    assert set(seen) == {(threading.get_ident(), baseline)}


def test_worker_count_follows_p(moment_setup, monkeypatch):
    # at p = 2 and p = 3 every study steps its paths one after another, starting no thread
    p2, shape = moment_setup
    p3 = SimulationSetup(
        p2.space, FracOperatorParams(s=0.4, p=3.0), DriftSpec(q=3.0, delta=1.0), LipschitzPerturbationSpec(0.0),
        SuperlinearNoiseSpec(p1=2.0, beta_b0=0.2, beta_r=2.0, gamma_g0=0.2, gamma_r=2.0),
    )
    linear = SimulationSetup(
        p2.space, p2.op_params, DriftSpec(q=2.0, delta=1.0), LipschitzPerturbationSpec(0.0),
        SuperlinearNoiseSpec(p1=2.0),
    )
    cfg = SolverConfig(T=2.0**-4, dt=2.0**-5, n_modes=8, n_noise=2, master_seed=3)
    calls, threads = [], threading.active_count()

    def recorded(original):
        def run(*args, **kwargs):
            calls.append((threading.get_ident(), threading.active_count()))
            return original(*args, **kwargs)
        return run

    monkeypatch.setattr(harness, "simulate_path", recorded(harness.simulate_path))
    monkeypatch.setattr(harness, "reference_solution_p2_linear", recorded(harness.reference_solution_p2_linear))
    for setup in (p2, p3):
        estimate_moments(setup, cfg, shape, [1.0], [1.0], n_paths=100)
        galerkin_convergence_study(setup, cfg, shape, [4, 8], n_paths=2)
        pathwise_stability_study(setup, cfg, shape, 1.01 * shape, n_paths=2)
    strong_order_study(linear, cfg, shape, [2.0**-5, 2.0**-6], n_paths=2, ref_refine=2)
    assert len(calls) == 2 * (100 + 2 * 2 + 2 * 2) + 2 * 3
    assert set(calls) == {(threading.get_ident(), threads)}


def test_studies_stop_at_the_first_diverged_path(moment_setup, monkeypatch):
    # path 1 diverges at step 3 (its norm is NaN from there): the studies that need every path whole name it
    setup, shape = moment_setup
    linear = SimulationSetup(
        setup.space, setup.op_params, DriftSpec(q=2.0, delta=1.0), LipschitzPerturbationSpec(0.0),
        SuperlinearNoiseSpec(p1=2.0),
    )
    cfg = SolverConfig(T=2.0**-3, dt=2.0**-5, n_modes=8, n_noise=2, master_seed=3)

    def diverging(original):
        def run(*args, path_index=0, **kwargs):
            path = original(*args, path_index=path_index, **kwargs)
            if path_index == 1:
                path.l2_norms[3:] = np.nan
                path.diverged_at = 3
            return path
        return run

    monkeypatch.setattr(harness, "simulate_path", diverging(harness.simulate_path))
    with pytest.raises(harness.EnsembleDiverged, match=r"^path 1 \(4-mode rung\) diverged at step 3;"):
        galerkin_convergence_study(setup, cfg, shape, [4, 8], n_paths=3)
    with pytest.raises(harness.EnsembleDiverged, match=r"^path 1 \(first initial state\) diverged at step 3;"):
        pathwise_stability_study(setup, cfg, shape, 1.01 * shape, n_paths=3)
    with pytest.raises(harness.EnsembleDiverged, match=r"^path 1 \(dt 0.03125\) diverged at step 3;"):
        strong_order_study(linear, cfg, shape, [2.0**-5, 2.0**-6], n_paths=3, ref_refine=2)
    monkeypatch.setattr(harness, "reference_solution_p2_linear", diverging(harness.reference_solution_p2_linear))
    with pytest.raises(harness.EnsembleDiverged, match=r"^path 1 \(reference\) diverged at step 3;"):
        strong_order_study(linear, cfg, shape, [2.0**-5, 2.0**-6], n_paths=3, ref_refine=2)


def test_time_seminorm_closed_form():
    n = 1000
    dt = 1.0 / (n - 1)
    vals = dt * np.arange(n)
    s2 = time_seminorm_sq(vals, dt, 0.25)
    assert abs(s2 - 8.0 / 15.0) < 1e-3
    # refinement improves the quadrature error by at least a factor of 2
    n2 = 2 * n
    dt2 = 1.0 / (n2 - 1)
    s2f = time_seminorm_sq(dt2 * np.arange(n2), dt2, 0.25)
    assert abs(s2f - 8.0 / 15.0) <= 0.5 * abs(s2 - 8.0 / 15.0)


def test_time_seminorm_constant_and_validation():
    vals = np.ones((50, 3))
    assert time_seminorm_sq(vals, 0.02, 0.25) == 0.0
    with pytest.raises(ValueError):
        time_seminorm_sq(vals, 0.02, 0.75)
    with pytest.raises(ValueError):
        time_seminorm_sq(vals, 0.02, 0.0)
    with pytest.raises(ValueError):
        time_seminorm_sq(np.ones((1, 2)), 0.1, 0.25)


def test_time_seminorm_positive_for_nonconstant():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((64, 2))
    assert time_seminorm_sq(vals, 1.0 / 63, 0.3) > 0


def test_slobodeckij_norm_of_path():
    K = 32
    dt = 1.0 / K
    states = np.linspace(0.0, 1.0, K + 1)[:, None]
    path = Path(
        times=dt * np.arange(K + 1), states=states, l2_norms=np.abs(states[:, 0]),
        v1_seminorms=np.zeros(K + 1), lq_norms=np.zeros(K + 1), energy_series=np.zeros(K + 1), diverged_at=None,
    )
    val = slobodeckij_time_seminorm(path, 0.25)
    semi = time_seminorm_sq(states, dt, 0.25)
    w = np.full(K + 1, dt)
    w[0] = w[-1] = dt / 2
    expected = math.sqrt(float(w @ states[:, 0] ** 2) + semi)
    assert val == pytest.approx(expected, rel=1e-12)
    # a diverged path has no norm: the states from its diverged step on are not read
    with pytest.raises(ValueError, match="diverged at step 5"):
        slobodeckij_time_seminorm(dataclasses.replace(path, diverged_at=5), 0.25)


@pytest.fixture(scope="module")
def ladder_setup():
    space = build_space(DomainSpec(), 64, 32)
    params = FracOperatorParams(s=0.3, p=2.0)
    noise = SuperlinearNoiseSpec(p1=2.0, beta_b0=0.5, beta_r=2.0, gamma_g0=0.5, gamma_r=2.0)
    setup = SimulationSetup(
        space, params,
        DriftSpec(q=2.0, delta=0.5), LipschitzPerturbationSpec(0.0), noise,
    )
    x0 = np.zeros(64)
    x0[:8] = np.exp(-0.5 * ((np.arange(1, 9) / 65.0 - 0.07) / 0.03) ** 2)
    return setup, x0


def test_galerkin_gaps_decrease(ladder_setup):
    setup, x0 = ladder_setup
    cfg = SolverConfig(T=0.5, dt=2.0**-7, n_modes=32, n_noise=4, master_seed=99)
    rep = galerkin_convergence_study(setup, cfg, x0, [8, 16, 32], n_paths=50)
    assert rep.gaps_monotone
    assert len(rep.pairwise_gaps) == 2


def test_galerkin_identical_rungs_zero_gap(ladder_setup):
    setup, x0 = ladder_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=32, n_noise=2, master_seed=3)
    from fracsplap.harness import _pairwise_gap_sq
    from fracsplap.solver import brownian_increments

    dW = brownian_increments(3, 0, cfg.n_steps, 2, cfg.dt)
    c16 = SolverConfig(T=0.25, dt=2.0**-5, n_modes=16, n_noise=2, master_seed=3)
    a = simulate_path(setup, c16, x0, path_index=0, dW=dW)
    b = simulate_path(setup, c16, x0, path_index=0, dW=dW)
    assert _pairwise_gap_sq(a, b, cfg.dt) == 0.0


def test_galerkin_zero_noise_zero_drift_resolved_x0():
    # negligible operator, zero noise, zero drift scale: rungs coincide for
    # initial data resolved at the coarsest rung
    space = build_space(DomainSpec(), 32, 16)
    params = FracOperatorParams(s=1e-9, p=2.0)
    setup = SimulationSetup(
        space, params,
        DriftSpec(q=2.0, delta=1e-12), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0),
    )
    x0 = np.zeros(32)
    x0[:4] = 1.0
    cfg = SolverConfig(T=0.25, dt=2.0**-4, n_modes=16, n_noise=1, master_seed=0)
    rep = galerkin_convergence_study(setup, cfg, x0, [4, 8, 16], n_paths=2)
    assert all(g < 1e-8 for g in rep.pairwise_gaps)


def test_galerkin_triangle_inequality(ladder_setup):
    # the direct 8->32 gap never exceeds the sum of the adjacent-rung gaps
    setup, x0 = ladder_setup
    from fracsplap.harness import _pairwise_gap_sq
    from fracsplap.solver import brownian_increments

    cfg = SolverConfig(T=0.25, dt=2.0**-6, n_modes=32, n_noise=4, master_seed=17)
    for j in range(5):
        dW = brownian_increments(17, j, cfg.n_steps, 4, cfg.dt)
        paths = {}
        for nm in (8, 16, 32):
            c = SolverConfig(T=0.25, dt=2.0**-6, n_modes=nm, n_noise=4, master_seed=17)
            paths[nm] = simulate_path(setup, c, x0, path_index=j, dW=dW)
        direct = math.sqrt(_pairwise_gap_sq(paths[8], paths[32], cfg.dt))
        via = math.sqrt(_pairwise_gap_sq(paths[8], paths[16], cfg.dt)) + math.sqrt(
            _pairwise_gap_sq(paths[16], paths[32], cfg.dt)
        )
        assert direct <= via + 1e-12


def test_galerkin_ladder_validation(ladder_setup):
    setup, x0 = ladder_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=32, n_noise=2, master_seed=3)
    with pytest.raises(ValueError):
        galerkin_convergence_study(setup, cfg, x0, [8, 8, 16], n_paths=2)
    with pytest.raises(ValueError):
        galerkin_convergence_study(setup, cfg, x0, [8, 64], n_paths=2)


def test_dt_ladder_accepts_a_refined_step_past_2_23_steps():
    # T / dt_fine = 9999999.999999998 for dt_fine = 7e-8, which divides T = 0.7: past 2^23 steps one float
    # spacing (1.9e-9) exceeds 1e-9, so the count is whole up to the ratio's rounding
    dts, dt_fine, K_fine = harness.dt_ladder_grid((7e-7, 1.4e-6), 0.7, 10)
    assert dts == (1.4e-6, 7e-7) and dt_fine == 7e-7 / 10 and K_fine == 10_000_000
    with pytest.raises(ConfigError, match="must divide solver.T"):
        harness.dt_ladder_grid((0.3, 0.6), 1.0, 1)


def test_strong_order_slope_window():
    space = build_space(DomainSpec(), 8, 4)
    params = FracOperatorParams(s=0.15, p=2.0)
    noise = SuperlinearNoiseSpec(p1=2.0, beta_b0=1.0, beta_r=2.0, gamma_g0=1.0, gamma_r=2.0, sigma1_amplitude=1.5, sigma1_decay=0.5)
    setup = SimulationSetup(
        space, params,
        DriftSpec(q=2.0, delta=0.05), LipschitzPerturbationSpec(0.0), noise,
    )
    x0 = np.sin(np.pi * space.nodes)
    cfg = SolverConfig(T=0.5, dt=2.0**-5, n_modes=4, n_noise=4, taming=False, master_seed=42)
    rep = strong_order_study(setup, cfg, x0, [2.0**-5, 2.0**-6, 2.0**-7], n_paths=64, ref_refine=64)
    assert 0.35 <= rep.strong_slope <= 0.65
    assert all(a > b for a, b in zip(rep.strong_errors, rep.strong_errors[1:]))


def test_stability_bitwise_and_monotone(moment_setup):
    setup, shape = moment_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-6, n_modes=8, n_noise=2, master_seed=13)
    rep = pathwise_stability_study(setup, cfg, shape, shape.copy(), n_paths=10)
    assert rep.bitwise_identical
    assert np.all(rep.sup_gap_sq == 0.0)
    # zero noise, dissipative drift: the gap never grows
    silent = SimulationSetup(
        setup.space, setup.op_params, setup.drift, setup.lip, SuperlinearNoiseSpec(p1=2.0),
    )
    eps = 1e-3
    rep2 = pathwise_stability_study(silent, cfg, shape, shape + eps * shape, n_paths=3)
    assert rep2.gap_nonincreasing
    assert np.all(rep2.gronwall_ratios <= 1.0 + 1e-9)


def test_stability_with_noise_gronwall(moment_setup):
    setup, shape = moment_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-6, n_modes=8, n_noise=4, master_seed=21)
    eps = 1e-3
    g_l1 = 3.0 * setup.noise.gamma_sum() * 0.25
    rep = pathwise_stability_study(setup, cfg, shape, shape + eps * shape, n_paths=100, g_l1_norm=g_l1)
    frac_ok = np.mean(rep.gronwall_ratios <= 1.0 + 0.05)
    assert frac_ok >= 0.9
