import math
import os
import subprocess
import sys
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
    brownian_increments,
    build_space,
    reference_solution_p2_linear,
    simulate_path,
    stopping_functional,
)
from fracsplap.solver import Path


@pytest.fixture(scope="module")
def scalar_setup():
    # one mode and no noise: du = -(1 + S_red[0, 0]) u dt; at s -> 0 the reduced
    # operator S_red[0, 0] tends to 1 with the exact exterior and to 0 with a truncated one
    space = build_space(DomainSpec(), 1, 1)
    params = FracOperatorParams(s=1e-9, p=2.0)
    return SimulationSetup(
        space, params,
        DriftSpec(q=2.0, delta=1.0), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0),
    )


@pytest.fixture(scope="module")
def linear_setup():
    space = build_space(DomainSpec(), 24, 12)
    params = FracOperatorParams(s=0.3, p=2.0)
    noise = SuperlinearNoiseSpec(p1=2.0, beta_b0=0.4, beta_r=2.0, gamma_g0=0.4, gamma_r=2.0, sigma1_amplitude=0.5, sigma1_decay=1.0)
    return SimulationSetup(
        space, params,
        DriftSpec(q=2.0, delta=0.5), LipschitzPerturbationSpec(0.0), noise,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(T=1.0, dt=0.3, n_modes=4, n_noise=2)  # dt does not divide T
    with pytest.raises(ValueError, match="dt must divide T"):
        SolverConfig(T=0.5, dt=1e10, n_modes=4, n_noise=2)  # T/dt rounds to zero steps
    with pytest.raises(ValueError):
        SolverConfig(T=1.0, dt=0.25, n_modes=0, n_noise=2)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="master seed"):
            SolverConfig(T=1.0, dt=0.25, n_modes=4, n_noise=2, master_seed=seed)
    assert SolverConfig(T=1.0, dt=0.25, n_modes=4, n_noise=2, master_seed=2**64 - 1).master_seed == 2**64 - 1
    cfg = SolverConfig(T=1.0, dt=0.25, n_modes=4, n_noise=2)
    assert cfg.n_steps == 4
    # T/dt = 9999999.999999998: past 2^23 steps one float spacing (1.9e-9) exceeds 1e-9, and dt divides T
    assert SolverConfig(T=0.7, dt=7e-8, n_modes=1, n_noise=1).n_steps == 10_000_000


def test_zero_state_is_fixed_point(scalar_setup):
    cfg = SolverConfig(T=1.0, dt=2.0**-5, n_modes=1, n_noise=1, master_seed=3)
    path = simulate_path(scalar_setup, cfg, np.zeros(1))
    assert np.all(path.states == 0.0)
    assert np.all(path.l2_norms == 0.0)
    assert path.diverged_at is None


@pytest.mark.parametrize("taming", [True, False])
def test_scalar_exponential_convergence(scalar_setup, taming):
    # endpoint error against the exact decay z0*exp(-(1 + S_red[0, 0])*T) halves when dt halves
    x0 = np.ones(1)
    z0 = (scalar_setup.HT_M @ x0)[0]
    rate = 1.0 + scalar_setup.S_red[0, 0]
    errs = []
    for k in (6, 7, 8):
        cfg = SolverConfig(T=1.0, dt=2.0**-k, n_modes=1, n_noise=1, taming=taming, master_seed=1)
        path = simulate_path(scalar_setup, cfg, x0)
        errs.append(abs(path.states[-1, 0] - z0 * math.exp(-rate)))
    for a, b in zip(errs, errs[1:]):
        assert 1.7 <= a / b <= 2.3


def test_bitwise_determinism(linear_setup):
    cfg = SolverConfig(T=0.25, dt=2.0**-6, n_modes=12, n_noise=4, master_seed=77)
    x0 = np.sin(np.pi * linear_setup.space.nodes)
    p1 = simulate_path(linear_setup, cfg, x0, path_index=5)
    p2 = simulate_path(linear_setup, cfg, x0, path_index=5)
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(p1.v1_seminorms, p2.v1_seminorms)
    p3 = simulate_path(linear_setup, cfg, x0, path_index=6)
    assert not np.array_equal(p1.states, p3.states)


def test_noise_increment_statistics():
    T, dt, n_noise = 1.0, 2.0**-3, 2
    sums = np.array([brownian_increments(11, j, int(T / dt), n_noise, dt).sum(axis=0) for j in range(2000)])
    var = sums.var(axis=0, ddof=1)
    se = T * math.sqrt(2.0 / (sums.shape[0] - 1))
    assert np.all(np.abs(var - T) < 3 * se)


def test_projection_consistency_of_initial_state(linear_setup):
    # x0 with content outside the retained span enters through its projection
    space = linear_setup.space
    cfg = SolverConfig(T=0.25, dt=2.0**-4, n_modes=8, n_noise=2, master_seed=2)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(space.m)
    path = simulate_path(linear_setup, cfg, x0)
    z0 = space.h_basis[:, :8].T @ (space.mass_matrix @ x0)
    assert path.states[0] == pytest.approx(z0, rel=1e-12)
    assert path.states.shape[1] == 8


def test_norms_recomputable(linear_setup):
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=12, n_noise=4, master_seed=9)
    x0 = np.sin(np.pi * linear_setup.space.nodes)
    path = simulate_path(linear_setup, cfg, x0)
    k = 4
    z = path.states[k]
    nodal = linear_setup.space.h_basis[:, :12] @ z
    assert path.l2_norms[k] == pytest.approx(float(np.sqrt(z @ z)), rel=1e-14)
    S, c = linear_setup.reduced(12).S, linear_setup.op_params.c_kernel
    assert path.v1_seminorms[k] == pytest.approx(math.sqrt(2.0 / c * (z @ S @ z)), rel=1e-14)
    from fracsplap.space import lp_norm

    assert path.lq_norms[k] == pytest.approx(lp_norm(linear_setup.space, nodal, 2.0), rel=1e-14)


def test_stopping_functional_closed_forms():
    # build a constant path by hand: value ||z|| + t * sum of powers
    K, dim = 8, 3
    dt = 0.125
    z = np.full((K + 1, dim), 0.5)
    l2 = np.full(K + 1, math.sqrt(dim * 0.25))
    v1 = np.full(K + 1, 1.2)
    lq = np.full(K + 1, 0.9)
    energy = v1**2.0 + lq**3.0 + l2**2
    path = Path(
        times=dt * np.arange(K + 1), states=z, l2_norms=l2, v1_seminorms=v1, lq_norms=lq,
        energy_series=energy, diverged_at=None,
    )
    for k in (0, 3, 8):
        expected = l2[0] + dt * k * energy[0]
        assert stopping_functional(path, k) == pytest.approx(expected, rel=1e-12)
    zero = Path(
        times=dt * np.arange(K + 1), states=np.zeros((K + 1, dim)), l2_norms=np.zeros(K + 1),
        v1_seminorms=np.zeros(K + 1), lq_norms=np.zeros(K + 1), energy_series=np.zeros(K + 1), diverged_at=None,
    )
    assert all(stopping_functional(zero, k) == 0.0 for k in range(K + 1))


def test_taming_consistency_small_drift(linear_setup):
    # one step from states with moderate drift: tamed vs plain differ by <= 10*dt^2
    space = linear_setup.space
    dt = 2.0**-6
    rng = np.random.default_rng(5)
    for _ in range(20):
        x0 = 0.05 * rng.standard_normal(space.m)
        cfg_t = SolverConfig(T=dt, dt=dt, n_modes=12, n_noise=2, taming=True, master_seed=8)
        cfg_p = SolverConfig(T=dt, dt=dt, n_modes=12, n_noise=2, taming=False, master_seed=8)
        dW = np.zeros((1, 2))
        zt = simulate_path(linear_setup, cfg_t, x0, dW=dW).states[-1]
        zp = simulate_path(linear_setup, cfg_p, x0, dW=dW).states[-1]
        z = simulate_path(linear_setup, cfg_p, x0, dW=dW).states[0]
        drift_norm = np.linalg.norm((zp - z) / dt)
        if drift_norm <= min(1.0 / (10.0 * dt), math.sqrt(10.0)):
            assert np.linalg.norm(zt - zp) < 10.0 * dt**2


def test_divergence_marked_not_fatal():
    # plain Euler with a violent superlinear drift and a huge step diverges
    space = build_space(DomainSpec(), 4, 4)
    params = FracOperatorParams(s=0.3, p=2.0)
    setup = SimulationSetup(
        space, params,
        DriftSpec(q=6.0, delta=50.0), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0),
    )
    cfg = SolverConfig(T=8.0, dt=1.0, n_modes=4, n_noise=1, taming=False, master_seed=1)
    path = simulate_path(setup, cfg, 10.0 * np.ones(4))
    assert path.diverged_at is not None
    assert np.all(np.isnan(path.states[path.diverged_at]))


@pytest.mark.parametrize("which", ["p2", "p3"])
def test_overflowing_norm_diverges_with_finite_entries(monkeypatch, superlinear_setup, p3_setup, which):
    # a noise spike at step 2 gives a state with finite entries whose z.z overflows: the path diverges at step 3
    from fracsplap import solver

    steps = []
    integrate = solver._integrate

    def spy(setup, config, x0, path_index, dW, stepper):
        def kept(*args):
            steps.append(stepper(*args))
            return steps[-1]

        return integrate(setup, config, x0, path_index, dW, kept)

    monkeypatch.setattr(solver, "_integrate", spy)
    setup = superlinear_setup if which == "p2" else p3_setup
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=setup.space.n_modes, n_noise=4, master_seed=13)
    dW = brownian_increments(cfg.master_seed, 0, cfg.n_steps, cfg.n_noise, cfg.dt)
    dW[2] = 1e160
    path = simulate_path(setup, cfg, np.sin(np.pi * setup.space.nodes), dW=dW)
    assert np.isfinite(steps[2]).all()
    with np.errstate(over="ignore"):
        assert steps[2] @ steps[2] == math.inf
    assert path.diverged_at == 3 and len(steps) == 3
    for series in (path.l2_norms, path.v1_seminorms, path.lq_norms, path.energy_series):
        assert np.isfinite(series[:3]).all() and np.isnan(series[3:]).all()
    assert np.isnan(path.states[3:]).all()


def test_overflowing_initial_norm_diverges_at_step_0(linear_setup):
    # finite nodal values whose projected z.z overflows: the path diverges at step 0 and records nothing
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=12, n_noise=2, master_seed=0)
    for run in (simulate_path, reference_solution_p2_linear):
        path = run(linear_setup, cfg, 1e200 * np.sin(np.pi * linear_setup.space.nodes))
        assert path.diverged_at == 0
        assert np.isnan(path.states).all() and np.isnan(path.l2_norms).all() and np.isnan(path.energy_series).all()


def test_simulate_overflowing_initial_state_exits_3(tmp_path):
    # theorem2_ok.cfg at x0_scale 1e200: one stderr line naming step 0, no numpy warning, no artifact
    root = FsPath(__file__).parent.parent
    cfg_path = tmp_path / "overflow.cfg"
    cfg_path.write_text((root / "configs" / "theorem2_ok.cfg").read_text() + "solver.x0_scale = 1e200\n")
    proc = subprocess.run(
        [sys.executable, "-m", "fracsplap.cli", "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == "path diverged at step 0\n"
    assert not (tmp_path / "out" / "path.csv").exists()


def test_reference_solution_eigen_decay(linear_setup):
    from fracsplap.fracop import frac_eigenpairs

    space = linear_setup.space
    setup = SimulationSetup(
        space, linear_setup.op_params,
        DriftSpec(q=2.0, delta=0.5), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0),
    )
    # eigenvector of the reduced operator: exact exponential decay
    A = setup.S_red[:12, :12] + 0.5 * np.eye(12)
    vals, vecs = np.linalg.eigh(A)
    z0 = vecs[:, 3]
    x0 = space.h_basis[:, :12] @ z0
    cfg = SolverConfig(T=1.0, dt=2.0**-6, n_modes=12, n_noise=1, master_seed=0)
    path = reference_solution_p2_linear(setup, cfg, x0)
    assert path.states[-1] == pytest.approx(math.exp(-vals[3]) * z0, rel=1e-9, abs=1e-12)
    # zero initial data, zero forcing stays zero
    zero = reference_solution_p2_linear(setup, cfg, np.zeros(space.m))
    assert np.all(zero.states == 0.0)


def test_reference_matches_per_step_oracle(linear_setup):
    # the exponential stepper with noise, against expm(-dt (S_k + c I)) applied one step at a time; the
    # worst entry sat 1.0e-13 of its state's largest at 64 steps and 2.0e-12 at 256, so the path stays short
    from oracles import exponential_reference_oracle

    cfg = SolverConfig(T=0.5, dt=2.0**-7, n_modes=12, n_noise=4, master_seed=7)
    x0 = np.sin(np.pi * linear_setup.space.nodes)
    path = reference_solution_p2_linear(linear_setup, cfg, x0, path_index=3)
    want = exponential_reference_oracle(
        linear_setup, cfg, x0, brownian_increments(cfg.master_seed, 3, cfg.n_steps, cfg.n_noise, cfg.dt)
    )
    assert path.diverged_at is None and path.states.shape == want.shape == (65, 12)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(path.states - want) <= 1e-12 * scale)


def test_reference_rejects_nonlinear_configs(linear_setup):
    space = linear_setup.space
    cfg = SolverConfig(T=0.5, dt=2.0**-4, n_modes=8, n_noise=2, master_seed=0)
    nonlinear = SimulationSetup(
        space, linear_setup.op_params,
        DriftSpec(q=4.0, delta=1.0), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0),
    )
    with pytest.raises(ValueError):
        reference_solution_p2_linear(nonlinear, cfg, np.zeros(space.m))
    p3 = SimulationSetup(
        build_space(DomainSpec(), 8, 4), FracOperatorParams(s=0.4, p=3.0),
        DriftSpec(q=2.0, delta=0.5), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0),
    )
    with pytest.raises(ValueError):
        reference_solution_p2_linear(p3, cfg, np.zeros(8))


def test_nonlinear_p_path_runs():
    # short p=3 run exercises the quadrature-backed drift
    space = build_space(DomainSpec(), 8, 6)
    params = FracOperatorParams(s=0.4, p=3.0)
    setup = SimulationSetup(
        space, params,
        DriftSpec(q=3.0, delta=1.0), LipschitzPerturbationSpec(0.1),
        SuperlinearNoiseSpec(p1=2.0, beta_b0=0.2, beta_r=2.0, gamma_g0=0.2, gamma_r=2.0),
    )
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=6, n_noise=3, master_seed=21)
    x0 = np.sin(np.pi * space.nodes)
    path = simulate_path(setup, cfg, x0)
    assert path.diverged_at is None
    assert np.all(np.isfinite(path.v1_seminorms))
    # the recorded seminorm has the bits of a direct evaluation
    from fracsplap import gagliardo_seminorm

    nodal = setup.reduced(6).H @ path.states[-1]
    assert path.v1_seminorms[-1] == gagliardo_seminorm(space, nodal, params)
    # and the solver rebuilds the nodal state from the first k basis columns
    assert path.v1_seminorms[-1] == pytest.approx(
        gagliardo_seminorm(space, space.h_basis[:, :6] @ path.states[-1], params), rel=1e-10
    )


@pytest.fixture(scope="module")
def superlinear_setup():
    # moments.cfg's coefficient families on a 24-node mesh: p = 2, superlinear drift and noise, forcing
    space = build_space(DomainSpec(), 24, 12)
    noise = SuperlinearNoiseSpec(
        p1=3.0, beta_b0=0.2, beta_r=2.0, gamma_g0=0.55, gamma_r=2.0, sigma1_amplitude=2.0, sigma1_decay=1.0
    )
    return SimulationSetup(
        space, FracOperatorParams(s=0.4, p=2.0),
        DriftSpec(q=4.0, delta=1.0), LipschitzPerturbationSpec(0.0), noise,
    )


@pytest.fixture(scope="module")
def p3_setup():
    space = build_space(DomainSpec(), 8, 6)
    return SimulationSetup(
        space, FracOperatorParams(s=0.4, p=3.0),
        DriftSpec(q=3.0, delta=1.0), LipschitzPerturbationSpec(0.1),
        SuperlinearNoiseSpec(p1=2.0, beta_b0=0.2, beta_r=2.0, gamma_g0=0.2, gamma_r=2.0, sigma1_amplitude=0.5),
    )


def _assert_matches_oracle(path, want):
    assert path.diverged_at == want["diverged_at"]
    for name in ("states", "l2_norms", "v1_seminorms", "lq_norms", "energy_series"):
        got, ref = getattr(path, name), want[name]
        finite = np.isfinite(ref)
        assert np.array_equal(got[~finite], ref[~finite], equal_nan=True), name
        # relative to each series entry, and to each state's largest entry, so that no later entry's size
        # (3.5e113 on the diverging p = 2 path) hides an earlier one
        scale = np.abs(ref) if ref.ndim == 1 else np.broadcast_to(np.max(np.abs(ref), axis=1, keepdims=True), ref.shape)
        assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-12 * scale[finite]), name


@pytest.mark.parametrize("which", ["p2", "p3"])
@pytest.mark.parametrize("case", ["tamed", "plain", "diverging"])
def test_path_matches_per_step_oracle(superlinear_setup, p3_setup, which, case):
    from oracles import euler_maruyama_oracle

    setup = superlinear_setup if which == "p2" else p3_setup
    space = setup.space
    base = dict(T=0.5, dt=2.0**-5, n_modes=space.n_modes, n_noise=4, master_seed=13)
    x0 = np.sin(np.pi * space.nodes)
    if case == "plain":
        base["taming"] = False
    if case == "diverging":
        base.update(T=2.0, dt=0.25, taming=False)
        x0 = 40.0 * x0
    cfg = SolverConfig(**base)
    path = simulate_path(setup, cfg, x0, path_index=2)
    dW = brownian_increments(cfg.master_seed, 2, cfg.n_steps, cfg.n_noise, cfg.dt)
    _assert_matches_oracle(path, euler_maruyama_oracle(setup, cfg, x0, dW))
    assert (path.diverged_at is not None) == (case == "diverging")


@pytest.mark.parametrize("which", ["p2", "p3", "reference"])
def test_per_path_call_counts(monkeypatch, superlinear_setup, p3_setup, linear_setup, which):
    # the traced benchmark's closed form: per path K diffusion evaluations, K + 1 L^q norms
    # and, at p != 2, 2K + 1 quadrature sweeps: K with the residual (the drift of each step)
    # and K + 1 value-only (the seminorm of each recorded state); counted at both names the tracer wraps
    from collections import Counter

    from fracsplap import fracop, solver

    counts = Counter()
    for module, name in ((solver, "eval_B"), (solver, "lp_norm"), (solver, "seminorm_p_with_residual"),
                         (fracop, "seminorm_p")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    setup = {"p2": superlinear_setup, "p3": p3_setup, "reference": linear_setup}[which]
    run = reference_solution_p2_linear if which == "reference" else simulate_path
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=setup.space.n_modes, n_noise=3, master_seed=1)
    n_paths, K = 3, cfg.n_steps
    for j in range(n_paths):
        assert run(setup, cfg, np.sin(np.pi * setup.space.nodes), path_index=j).diverged_at is None
    p3 = which == "p3"
    assert counts == Counter({"eval_B": K * n_paths, "lp_norm": (K + 1) * n_paths,
                              "seminorm_p_with_residual": K * n_paths * p3,
                              "seminorm_p": (K + 1) * n_paths * p3}) - Counter()
    assert counts["seminorm_p_with_residual"] + counts["seminorm_p"] == (2 * K + 1) * n_paths * p3


@pytest.mark.parametrize(("which", "diverging"), [("p2", False), ("p2", True), ("p3", False), ("p3", True),
                                                  ("reference", False)])
def test_derived_series_match_per_state_definitions(superlinear_setup, p3_setup, linear_setup, which, diverging):
    # the loop records states, z.z and the L^q norm (and the p != 2 seminorm); the rest is formed
    # after it from the recorded rows, and every index must equal its per-state definition
    from fracsplap import gagliardo_seminorm
    from fracsplap.space import lp_norm

    setup = {"p2": superlinear_setup, "p3": p3_setup, "reference": linear_setup}[which]
    run = reference_solution_p2_linear if which == "reference" else simulate_path
    space, p, q = setup.space, setup.op_params.p, setup.drift.q
    x0 = np.sin(np.pi * space.nodes)
    base = dict(T=0.5, dt=2.0**-5, n_modes=space.n_modes, n_noise=4, master_seed=13)
    if diverging:
        base.update(T=2.0, dt=0.25, taming=False)
        x0 = 40.0 * x0
    cfg = SolverConfig(**base)
    path = run(setup, cfg, x0, path_index=2)
    n = cfg.n_steps + 1 if path.diverged_at is None else path.diverged_at
    assert (path.diverged_at is not None) == diverging and n > 1
    ops = setup.reduced(cfg.n_modes)
    for i in range(n):
        z = path.states[i]
        nodal = ops.H @ z
        with np.errstate(over="ignore", invalid="ignore"):  # a path about to diverge leaves the float range
            l2 = np.sqrt(z @ z)
            v1 = np.float64(gagliardo_seminorm(space, nodal, setup.op_params))
            lq = np.float64(lp_norm(space, nodal, q))
            want = {"l2_norms": l2, "v1_seminorms": v1, "lq_norms": lq, "energy_series": v1**p + lq**q + l2**2}
        for name, value in want.items():
            assert getattr(path, name)[i] == pytest.approx(value, rel=1e-12, abs=0.0), (name, i)
    for name in ("states", "l2_norms", "v1_seminorms", "lq_norms", "energy_series"):
        assert np.all(np.isnan(getattr(path, name)[n:])), name


@pytest.mark.parametrize("which", ["p2", "p3", "reference"])
def test_step_operands_dot_with_the_bits_of_matmul(monkeypatch, superlinear_setup, p3_setup, linear_setup, which):
    # the loop multiplies these operands with ndarray.dot, which costs less per call than the @ gufunc;
    # the artifacts keep their bits because, on C-contiguous float64 operands, both reach one BLAS
    # routine (gemv, ddot).  A numpy that splits the two paths fails here.
    from fracsplap import solver
    from fracsplap.fracop import sqrt_operator

    setup = {"p2": superlinear_setup, "p3": p3_setup, "reference": linear_setup}[which]
    space, k, n_noise = setup.space, setup.space.n_modes, 4
    ops = setup.reduced(k)
    E, w = space.gauss_rule(8)
    rng = np.random.default_rng(11)
    nodal = ops.H @ rng.standard_normal(k)
    operands = {"H": ops.H, "HT_M": ops.HT_M, "E": E, "cols": setup.diffusion_cols(0.25, nodal, n_noise)}
    if ops.S is not None:  # p = 2: the stiffness, and the transport noise's square root
        operands["S"] = ops.S
        operands["R"] = sqrt_operator(space, setup.op_params)
    if which == "reference":  # the propagator lives in the stepper's closure
        steppers = []
        monkeypatch.setattr(solver, "_integrate", lambda *args: steppers.append(args[-1]))
        cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=k, n_noise=n_noise, master_seed=0)
        reference_solution_p2_linear(setup, cfg, np.zeros(space.m))
        (stepper,) = steppers
        closure = dict(zip(stepper.__code__.co_freevars, (cell.cell_contents for cell in stepper.__closure__)))
        operands["decay"] = closure["decay"]
    for name, A in operands.items():
        assert A.dtype == np.float64 and A.flags.c_contiguous, name
        x = rng.standard_normal(A.shape[1])
        assert A.dot(x).tobytes() == (A @ x).tobytes(), name
    z, v = rng.standard_normal(k), rng.standard_normal(w.shape[0])
    for a, b in ((z, z), (w, v)):  # the loop's z.z and lp_norm's w . |E v|^p
        assert np.float64(a.dot(b)).tobytes() == np.float64(a @ b).tobytes()
