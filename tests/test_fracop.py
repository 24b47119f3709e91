import dataclasses
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.optimize import minimize

from fracsplap import (
    DomainSpec,
    DriftSpec,
    FracOperatorParams,
    LipschitzPerturbationSpec,
    SimulationSetup,
    SolverConfig,
    SuperlinearNoiseSpec,
    apply_A1_weak,
    assemble_frac_stiffness,
    build_bundle,
    build_space,
    gagliardo_seminorm,
    parse_config_file,
    poincare_constant,
    simulate_path,
)
from fracsplap.fracop import FracPlan, _flux, _sweep, get_plan, seminorm_p, seminorm_p_with_residual

from oracles import (
    apply_A1_residual, check_scalar_monotonicity, gagliardo_seminorm_oracle, quartic_bump, quartic_bump_load,
    sampling_operator_csr, stiffness_sparse, toeplitz_stiffness_p2,
)

CONFIGS = Path(__file__).parent.parent / "configs"


def test_seminorm_zero_function(space32, params_s05_p2):
    assert gagliardo_seminorm(space32, np.zeros(32), params_s05_p2) == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_seminorm_homogeneous_degree_one(space32, p):
    params = FracOperatorParams(s=0.5, p=p)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(32)
    a = gagliardo_seminorm(space32, v, params)
    b = gagliardo_seminorm(space32, 2.0 * v, params)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_seminorm_hat_vs_bruteforce_oracle(space32):
    v = np.zeros(32)
    v[15] = 1.0
    params = FracOperatorParams(s=0.5, p=2.0)
    ours = gagliardo_seminorm(space32, v, params)
    ref = gagliardo_seminorm_oracle(space32, v, 0.5, 2.0)
    assert abs(ours - ref) < 1e-3 * ref


def test_seminorm_quadrature_refinement_stable(space32):
    params = FracOperatorParams(s=0.7, p=3.0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(32)
    # the fixed rule against the independent oracle at the mesh resolution, 10 Gauss points, 10 levels
    base = gagliardo_seminorm(space32, v, params)
    fine = gagliardo_seminorm_oracle(space32, v, 0.7, 3.0, refine=1, gauss=10, levels=10)
    assert abs(base - fine) < 1e-4 * fine


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_coercivity_identity_shared_quadrature(space16, p):
    params = FracOperatorParams(s=0.5, p=p)
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.standard_normal(16)
        lhs = apply_A1_weak(space16, v, v, params)
        rhs = -0.5 * params.c_kernel * gagliardo_seminorm(space16, v, params) ** p
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_weak_form_zero_input(space16, params_s05_p2):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(16)
    assert apply_A1_weak(space16, np.zeros(16), u, params_s05_p2) == 0.0


def test_weak_form_bilinear_in_u(space16):
    params = FracOperatorParams(s=0.4, p=3.0)
    rng = np.random.default_rng(4)
    v, u1, u2 = rng.standard_normal((3, 16))
    lhs = apply_A1_weak(space16, v, 2.0 * u1 - 3.0 * u2, params)
    rhs = 2.0 * apply_A1_weak(space16, v, u1, params) - 3.0 * apply_A1_weak(space16, v, u2, params)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_residual_matches_weak_form(space16):
    params = FracOperatorParams(s=0.6, p=3.0)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(16)
    r = apply_A1_residual(space16, v, params)
    for _ in range(5):
        u = rng.standard_normal(16)
        assert r @ u == pytest.approx(apply_A1_weak(space16, v, u, params), rel=1e-10)


@pytest.mark.parametrize("m", [8, 24])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_residual_is_seminorm_gradient(unit_domain, p, m):
    # the Poincare search's L-BFGS gradient relies on residual = (1/p) grad [v]^p
    space = build_space(unit_domain, m=m, n_modes=m)
    plan = get_plan(space, FracOperatorParams(s=0.5, p=p))
    v = np.random.default_rng(m).standard_normal(m)
    value, residual = seminorm_p_with_residual(plan, v)
    # the recorded state's value-only sweep has the bits of the stepper's sweep
    assert value == seminorm_p(plan, v)
    # the block adjoint gives the stacked CSR's residual to rounding
    D = sampling_operator_csr(plan)
    dv = D @ v
    ref = D.T @ (plan.wts * (np.abs(dv) ** (p - 2.0) * dv))
    assert np.max(np.abs(residual - ref)) <= 1e-14 * np.max(np.abs(ref))
    eps = 1e-5
    grad = np.array(
        [(seminorm_p(plan, v + eps * e) - seminorm_p(plan, v - eps * e)) / (2.0 * eps) for e in np.eye(m)]
    )
    np.testing.assert_allclose(residual, grad / p, rtol=1e-6, atol=1e-6 * np.max(np.abs(residual)))


@pytest.mark.parametrize("m", [8, 24, 64])
@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
def test_seminorm_from_the_residual_matches_the_csr_flux(unit_domain, p, m):
    # the sweep's [v]^p = (D^T f) . v, the p-homogeneous form's coercivity identity, against the stacked CSR's
    # f . D v: the worst relative difference measured on this grid was 3.3e-15 (m = 64, p = 2.5, s = 0.6), and
    # sum |v_i r_i| stayed within 1.18 [v]^p, so the m-term dot cancels little
    space = build_space(unit_domain, m=m, n_modes=1)
    rng = np.random.default_rng(m)
    hat = np.zeros(m)
    hat[m // 2] = 1.0
    vectors = {
        "random": rng.standard_normal(m), "alternating": (-1.0) ** np.arange(m), "hat": hat,
        "near-constant": 1.0 + 1e-3 * rng.standard_normal(m), "linspace": np.linspace(-1.0, 1.0, m),
    }
    for s in (0.1, 0.4, 0.6, 0.9):
        plan = get_plan(space, FracOperatorParams(s=s, p=p))
        D = sampling_operator_csr(plan)
        for name, v in vectors.items():
            dv = D @ v
            ref = (plan.wts * np.abs(dv) ** (p - 2.0) * dv) @ dv
            value = seminorm_p(plan, v)
            assert value >= 0.0 and abs(value - ref) <= 1e-14 * ref, (s, name, value, ref)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0])
def test_an_overflowing_flux_gives_an_infinite_seminorm(p):
    # past the float range the residual's D^T sums inf - inf, so r . v is NaN; the value stays the sum f . D v, inf
    space = build_space(DomainSpec(), 8, 4)
    plan = get_plan(space, FracOperatorParams(s=0.4, p=p))
    v = 1e307 * np.random.default_rng(1).standard_normal(8)
    with np.errstate(over="ignore", invalid="ignore"):
        value, residual = seminorm_p_with_residual(plan, v)
    assert np.isnan(residual).any()
    assert value == math.inf


def test_stiffness_symmetric_and_consistent(space32, params_s05_p2):
    S = assemble_frac_stiffness(space32, params_s05_p2)
    assert np.max(np.abs(S - S.T)) < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(5):
        v = rng.standard_normal(32)
        u = rng.standard_normal(32)
        assert apply_A1_weak(space32, v, u, params_s05_p2) == pytest.approx(-(u @ (S @ v)), rel=1e-10)
        semi = gagliardo_seminorm(space32, v, params_s05_p2)
        assert v @ (S @ v) == pytest.approx(0.5 * params_s05_p2.c_kernel * semi**2, rel=1e-8)


def test_stiffness_generalized_eigenvalues_positive(space32, params_s05_p2):
    S = assemble_frac_stiffness(space32, params_s05_p2)
    vals = eigh(S, space32.mass_matrix, eigvals_only=True)
    assert vals[0] > 0


def test_stiffness_rejects_general_p(space16):
    with pytest.raises(ValueError):
        assemble_frac_stiffness(space16, FracOperatorParams(s=0.5, p=3.0))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_operator_monotonicity(space16, p):
    params = FracOperatorParams(s=0.5, p=p)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u, v = rng.standard_normal((2, 16))
        gap = apply_A1_weak(space16, u, u - v, params) - apply_A1_weak(space16, v, u - v, params)
        bound = -(2.0 ** (1.0 - p)) * params.c_kernel * gagliardo_seminorm(space16, u - v, params) ** p
        assert gap <= bound + 1e-6 * max(1.0, abs(bound))


def test_hemicontinuity_proxy(space16):
    params = FracOperatorParams(s=0.5, p=3.0)
    rng = np.random.default_rng(8)
    u, w, z = rng.standard_normal((3, 16))
    base = apply_A1_weak(space16, u, z, params)
    gaps = [abs(apply_A1_weak(space16, u + d * w, z, params) - base) for d in 10.0 ** -np.arange(1, 7)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4 * max(1.0, abs(base))


def test_scalar_monotonicity_examples():
    # p=2, s1=1, s2=-1: lhs (1-(-1))*(1-(-1)) = 4, rhs 2^{-1}*2^2 = 2
    rep = check_scalar_monotonicity(2.0, 10)
    assert rep.violations == 0
    lhs = (1.0 - (-1.0)) * (1.0 - (-1.0))
    rhs = 2.0 ** (1 - 2) * abs(1.0 - (-1.0)) ** 2
    assert lhs >= rhs
    # degenerate pair gives 0 >= 0
    assert (0.0 - 0.0) >= 0.0


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
def test_scalar_monotonicity_bulk(p):
    rep = check_scalar_monotonicity(p, 100_000, rng_seed=123)
    assert rep.violations == 0


def test_plan_weights_finite(space16):
    params = FracOperatorParams(s=0.9, p=2.0)
    plan = get_plan(space16, params)
    assert np.all(np.isfinite(plan.w)) and np.all(np.isfinite(plan.wt))
    assert np.all(plan.wt >= 0)


def test_sampling_operator_matches_point_values(space16):
    plan = get_plan(space16, FracOperatorParams(s=0.5, p=3.0))
    rng = np.random.default_rng(8)
    v = rng.standard_normal(space16.m)
    nodes, h = space16.all_nodes, space16.h
    vbar = np.concatenate(([0.0], v, [0.0]))

    def at(el, loc):
        return np.interp(nodes[el] + h * loc, nodes, vbar)

    slopes = np.diff(vbar) / h
    expected = np.concatenate((at(plan.elx, plan.lx) - at(plan.ely, plan.ly), slopes, at(plan.elt, plan.lt)))
    assert plan.forward(v).shape == expected.shape == plan.wts.shape
    assert np.allclose(plan.forward(v), expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", [8, 24, 128])
def test_stiffness_matches_sparse_product(unit_domain, m):
    # 4x the worst seen, 7.6e-15 of the largest entry over these domains, m in {1, 8, 24, 128} and s in 0.1 .. 0.9
    exact = tuple(DomainSpec(a, b, exterior_truncation=math.inf) for a, b in ((0, 1), (0, 2), (-1, 1)))
    for domain in (unit_domain,) + exact:
        space = build_space(domain, m=m, n_modes=1)
        for s in (0.15, 0.4, 0.6, 0.9):
            params = FracOperatorParams(s=s, p=2.0)
            ref = stiffness_sparse(space, params)
            assert np.max(np.abs(assemble_frac_stiffness(space, params) - ref)) <= 3e-14 * np.max(np.abs(ref))


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def test_odd_power_multiplies_with_the_bits_of_pow():
    tiny = np.finfo(float).smallest_subnormal
    x = np.concatenate((
        [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf, np.nan, -np.nan, 1e154, -1e155, 1.0, -1.0],
        np.random.default_rng(3).standard_normal(10_000) * np.logspace(-320, 300, 10_000),
    ))
    # the in-place unweighted flux has the bits of the power form on every value: the signs of zeros,
    # subnormals, infinities and NaNs included, at p = 3 (no power) and through np.power(out=) at p = 2, 2.5 and 4
    for p in (2.0, 2.5, 3.0, 4.0):
        out, dv = np.empty_like(x), x.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            ours, ref = _flux(p, dv, out), np.abs(x) ** (p - 2.0) * x
        assert ours is out
        assert np.isnan(ref).sum() == 2
        assert np.array_equal(bits(dv), bits(x))
        assert np.array_equal(bits(ours), bits(ref)), p


def test_memo_keeps_the_bits_of_an_uncached_plan():
    space = build_space(DomainSpec(), 8, 4)
    plan = get_plan(space, FracOperatorParams(s=0.4, p=3.0))
    rng = np.random.default_rng(11)
    v1, v2 = rng.standard_normal((2, 8))
    v_nan = v1.copy()
    v_nan[3] = np.nan
    plus, minus = np.zeros(8), np.zeros(8)
    minus[2:5] = -0.0
    calls = [v1, v1, v2, v1, v_nan, v_nan, plus, minus, plus, v2, v2.tolist()]
    with np.errstate(invalid="ignore"):
        for v in calls:
            fresh = dataclasses.replace(plan)
            assert np.array_equal(bits(seminorm_p(plan, v)), bits(seminorm_p(fresh, v)))
            value, residual = seminorm_p_with_residual(plan, v)
            fresh_value, fresh_residual = seminorm_p_with_residual(dataclasses.replace(plan), v)
            assert np.array_equal(bits(value), bits(fresh_value))
            assert np.array_equal(bits(residual), bits(fresh_residual))
            assert np.array_equal(bits(_sweep(plan, v)[1]), bits(_sweep(dataclasses.replace(plan), v)[1]))
    # -0.0 and +0.0 are different keys
    _sweep(plan, plus)
    entry = plan._memo[0]
    _sweep(plan, minus)
    assert plan._memo[0] is not entry


def test_memo_residual_is_read_only(space16):
    plan = get_plan(space16, FracOperatorParams(s=0.6, p=3.0))
    v = np.random.default_rng(12).standard_normal(16)
    r = _sweep(plan, v)[1]
    assert seminorm_p_with_residual(plan, v)[1] is r
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0] = 1.0


def test_a_steady_sweep_allocates_less_than_one_wts_buffer(space16):
    # D v, the flux and the adjoint's parts go into the workspace the previous sweep pushed back to _spare
    plan = dataclasses.replace(get_plan(space16, FracOperatorParams(s=0.6, p=3.0)))
    v1, v2 = np.random.default_rng(15).standard_normal((2, 16))
    _sweep(plan, v1)
    tracemalloc.start()
    try:
        _sweep(plan, v2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < plan.wts.nbytes, peak


def test_p3_path_forms_one_flux_per_state(monkeypatch):
    # the recorded seminorm of state i and the residual of step i share one D v
    space = build_space(DomainSpec(), 8, 6)
    setup = SimulationSetup(
        space, FracOperatorParams(s=0.4, p=3.0),
        DriftSpec(q=3.0, delta=1.0), LipschitzPerturbationSpec(0.1),
        SuperlinearNoiseSpec(p1=2.0, beta_b0=0.2, beta_r=2.0, gamma_g0=0.2, gamma_r=2.0),
    )
    cfg = SolverConfig(T=0.25, dt=2.0**-5, n_modes=6, n_noise=3, master_seed=21)
    forward, calls = FracPlan.forward, []
    monkeypatch.setattr(FracPlan, "forward", lambda plan, v, ws=None: calls.append(1) or forward(plan, v, ws))
    path = simulate_path(setup, cfg, np.sin(np.pi * space.nodes))
    assert path.diverged_at is None
    assert len(calls) == cfg.n_steps + 1


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_a_run_keeps_only_the_plan_it_sweeps(p):
    # the p = 2 stiffness, for the solver or the Poincare search, keeps its matrix and drops its plan
    space = build_space(DomainSpec(), 8, 6)
    params = FracOperatorParams(s=0.4, p=p)
    setup = SimulationSetup(
        space, params, DriftSpec(q=3.0, delta=1.0), LipschitzPerturbationSpec(0.1), SuperlinearNoiseSpec(p1=2.0),
    )
    poincare_constant(space, params)
    plans = {key: value for key, value in space._cache.items() if isinstance(value, FracPlan)}
    if p == 2.0:
        assert plans == {}
        return
    assert list(plans) == [("fracplan", 0.4, 3.0)] and plans[("fracplan", 0.4, 3.0)] is setup.plan
    # the sample points are derived on each read; the plan stores no other array of the rule's length
    arrays = {key: value for key, value in vars(setup.plan).items() if isinstance(value, np.ndarray)}
    stored = [key for key, value in arrays.items() if value.size == setup.plan.wts.size]
    assert stored == ["wts"]


@pytest.mark.parametrize("name, held_mb", [("theorem1_ok", 2.0), ("moments", 0.5)])
def test_bundle_holds_little_after_admissibility(name, held_mb):
    # a p = 3 bundle holds one plan without its sample points; a p = 2 bundle holds no plan
    cfg = parse_config_file(CONFIGS / f"{name}.cfg")
    build_bundle(cfg).admissibility()  # first-use imports and caches outside the bundle
    tracemalloc.start()
    try:
        bundle = build_bundle(cfg)
        bundle.admissibility()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= held_mb * 1e6, held


def test_memo_hit_on_another_thread(space16, monkeypatch):
    plan = get_plan(space16, FracOperatorParams(s=0.3, p=3.0))
    v = np.random.default_rng(13).standard_normal(16)
    value, residual = seminorm_p_with_residual(plan, v)
    forward, calls, results = FracPlan.forward, [], []
    monkeypatch.setattr(FracPlan, "forward", lambda plan, v: calls.append(1) or forward(plan, v))
    worker = threading.Thread(target=lambda: results.append(seminorm_p_with_residual(plan, v.copy())))
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and not calls
    assert np.array_equal(bits(results[0][0]), bits(value))
    assert np.array_equal(bits(results[0][1]), bits(residual))


def test_memo_under_threads_returns_each_callers_own_bits(space16):
    # threads that overwrite one another's memo entries still each read a key with its own value and flux
    plan = get_plan(space16, FracOperatorParams(s=0.7, p=3.0))
    vs = np.random.default_rng(14).standard_normal((6, 16))
    fresh = [seminorm_p_with_residual(dataclasses.replace(plan), v) for v in vs]
    wrong = []

    def work(t):
        for i in range(1000):
            j = (t + i) % len(vs)
            value, residual = seminorm_p_with_residual(plan, vs[j])
            if bits(value) != bits(fresh[j][0]) or not np.array_equal(bits(residual), bits(fresh[j][1])):
                wrong.append((t, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not wrong


def test_plan_equality_and_repr_ignore_the_memo(space16):
    plan = get_plan(space16, FracOperatorParams(s=0.5, p=3.0))
    fresh = dataclasses.replace(plan)
    seminorm_p(plan, np.ones(16))
    assert plan._memo[0] is not None and fresh._memo[0] is None
    assert plan == fresh
    assert repr(plan) == repr(fresh)
    assert "_memo" not in repr(plan)


@pytest.mark.parametrize("bad", ["v", "u"])
def test_nodal_shape_is_checked_at_the_public_boundary(bad):
    space = build_space(DomainSpec(), 8, 4)
    params = FracOperatorParams(s=0.4, p=3.0)
    v, u = np.linspace(-1.0, 1.0, 8), np.linspace(0.5, 2.0, 8)
    args = {"v": v, "u": u, bad: np.array([2.0])}
    with pytest.raises(ValueError, match="length 8"):
        apply_A1_weak(space, args["v"], args["u"], params)
    with pytest.raises(ValueError, match="length 8"):
        gagliardo_seminorm(space, args[bad], params)


# u = 0 outside the domain, with the exterior tail integrated to infinity
EXACT_EXTERIOR = DomainSpec(-1.0, 1.0, exterior_truncation=math.inf)


# 4x the largest difference from the stacked CSR, relative to its largest entry, measured over both
# domains, s in {0.15, 0.6} and p in {2.5, 3, 4}: D v, D^T f, the residual D^T flux and [v]^p
CSR_BOUNDS = {
    1: (1e-16, 4e-14, 2e-15, 2e-15),
    2: (5e-16, 2e-14, 3e-15, 2e-15),
    8: (3e-16, 2e-14, 1.2e-14, 5e-15),
    24: (1e-16, 2.2e-14, 2e-14, 1e-14),
    64: (5e-17, 1.4e-14, 1.7e-14, 3e-15),
    128: (2e-17, 1.6e-14, 2.8e-14, 3e-15),
}


@pytest.mark.parametrize("domain", [DomainSpec(), EXACT_EXTERIOR], ids=["default_exterior", "exact_exterior"])
@pytest.mark.parametrize("m", sorted(CSR_BOUNDS))
def test_sampling_operator_matches_stacked_csr(domain, m):
    # the block forward and adjoint apply the stacked CSR's D and D^T up to rounding
    space = build_space(domain, m=m, n_modes=1)
    rng = np.random.default_rng(m)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for s in (0.15, 0.6):
        for p in (2.5, 3.0, 4.0):
            plan = get_plan(space, FracOperatorParams(s=s, p=p))
            D = sampling_operator_csr(plan)
            v, u, f = rng.standard_normal(m), rng.standard_normal(m), rng.standard_normal(D.shape[0])
            dv = D @ v
            flux = plan.wts * np.abs(dv) ** (p - 2.0) * dv
            value, residual = seminorm_p_with_residual(plan, v)
            assert value == seminorm_p(plan, v)
            errors = (rel(plan.forward(v), dv), rel(plan.adjoint(f), D.T @ f), rel(residual, D.T @ flux),
                      rel(value, flux @ dv))
            assert all(e <= bound for e, bound in zip(errors, CSR_BOUNDS[m])), (s, p, errors)
            Du = plan.forward(u)
            assert abs(f @ Du - plan.adjoint(f) @ u) <= 1e-13 * (np.abs(f) @ np.abs(Du))


@pytest.mark.parametrize(
    "s, err_127", [(0.1, 1.38e-2), (0.3, 4.63e-3), (0.5, 3.04e-3), (0.7, 1.71e-3), (0.9, 2.93e-4)]
)
def test_exact_exterior_solve_converges_to_closed_form(s, err_127):
    # (-Lap)^s u = 1 on (-1, 1) has u = (1 - x^2)^s / Gamma(1 + 2s); err_127 is the error measured at m = 127
    errs = []
    for m in (15, 31, 63, 127):
        space = build_space(EXACT_EXTERIOR, m, 1)
        S = assemble_frac_stiffness(space, FracOperatorParams(s=s, p=2.0))
        u = np.linalg.solve(S, np.full(m, space.h))
        exact = (1.0 - space.nodes**2) ** s / math.gamma(1.0 + 2.0 * s)
        e, M = u - exact, space.mass_matrix
        errs.append(math.sqrt((e @ M @ e) / (exact @ M @ exact)))
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 1.25 * err_127, errs


# 2x the largest difference from the closed form, relative to its largest entry; the same at m = 24 and 128
TOEPLITZ_BOUNDS = {0.1: 3e-9, 0.3: 9e-8, 0.5: 1.5e-6, 0.7: 1.7e-5, 0.9: 1e-4}


@pytest.mark.parametrize("m", [24, 128])
@pytest.mark.parametrize("s", sorted(TOEPLITZ_BOUNDS))
def test_stiffness_matches_closed_form_toeplitz(s, m):
    # with the whole exterior the p = 2 stiffness is exactly Toeplitz; what is left is the quadrature's own error
    space = build_space(DomainSpec(exterior_truncation=math.inf), m, 1)
    params = FracOperatorParams(s=s, p=2.0)
    exact = toeplitz_stiffness_p2(space, params)
    err = np.max(np.abs(assemble_frac_stiffness(space, params) - exact)) / np.max(np.abs(exact))
    assert err <= TOEPLITZ_BOUNDS[s], err


@pytest.mark.parametrize(
    # the relative L2 errors measured at m = 15, 31 and 63
    "p, measured", [(3.0, (6.2814e-3, 1.2283e-3, 2.5160e-4)), (4.0, (5.8714e-3, 1.0854e-3, 2.3215e-4))]
)
def test_galerkin_solution_converges_to_manufactured_solution(p, measured):
    # the Galerkin solution of (-Delta_p)^0.6 u = F for u = (1 - x^2)^2 minimises (C/(2p)) [v]^p - b.v, with
    # b the load against each hat by an 8-point Gauss rule per element; the energy is strictly convex
    params, errs = FracOperatorParams(s=0.6, p=p), []
    c = params.c_kernel
    for m in (15, 31, 63):
        space = build_space(EXACT_EXTERIOR, m, 1)
        plan = get_plan(space, params)
        E, w = space.gauss_rule(8)
        x = (space.all_nodes[:-1, None] + space.h * 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0)).ravel()
        b = E.T @ (w * quartic_bump_load(x, params))

        def energy_and_gradient(v):
            value, residual = seminorm_p_with_residual(plan, v)
            return c / (2.0 * p) * value - b @ v, 0.5 * c * residual - b

        v = minimize(energy_and_gradient, quartic_bump(space.nodes), jac=True, method="L-BFGS-B",
                     options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 5000}).x
        u, e = quartic_bump(x), E @ v - quartic_bump(x)
        errs.append(math.sqrt((w @ e**2) / (w @ u**2)))
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    assert all(math.log2(a / b) >= 1.8 for a, b in zip(errs, errs[1:])), errs
    assert all(e <= 1.25 * want for e, want in zip(errs, measured)), errs


def test_exact_exterior_operator_tends_to_identity_as_s_vanishes():
    # (-Lap)^s -> I as s -> 0 only when the whole exterior is integrated
    space = build_space(DomainSpec(exterior_truncation=math.inf), 1, 1)
    S = assemble_frac_stiffness(space, FracOperatorParams(s=1e-9, p=2.0))
    H = space.h_basis
    assert abs((H.T @ S @ H)[0, 0] - 1.0) < 1e-8
