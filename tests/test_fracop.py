import numpy as np
import pytest
from scipy.linalg import eigh

from fracsplap import (
    FracOperatorParams,
    FracQuadrature,
    apply_A1_residual,
    apply_A1_weak,
    assemble_frac_stiffness,
    build_space,
    check_scalar_monotonicity,
    gagliardo_seminorm,
)
from fracsplap.fracop import get_plan, seminorm_p, seminorm_p_with_residual

from oracles import gagliardo_seminorm_oracle


def test_seminorm_zero_function(space32, quad, params_s05_p2):
    assert gagliardo_seminorm(space32, quad, np.zeros(32), params_s05_p2) == 0.0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_seminorm_homogeneous_degree_one(space32, quad, p):
    params = FracOperatorParams(s=0.5, p=p)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(32)
    a = gagliardo_seminorm(space32, quad, v, params)
    b = gagliardo_seminorm(space32, quad, 2.0 * v, params)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_seminorm_hat_vs_bruteforce_oracle(space32, quad):
    v = np.zeros(32)
    v[15] = 1.0
    params = FracOperatorParams(s=0.5, p=2.0)
    ours = gagliardo_seminorm(space32, quad, v, params)
    ref = gagliardo_seminorm_oracle(space32, v, 0.5, 2.0)
    assert abs(ours - ref) < 1e-3 * ref


def test_seminorm_quadrature_refinement_stable(space32):
    params = FracOperatorParams(s=0.7, p=3.0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(32)
    base = gagliardo_seminorm(space32, FracQuadrature(6, 6), v, params)
    fine = gagliardo_seminorm(space32, FracQuadrature(10, 10), v, params)
    assert abs(base - fine) < 1e-4 * fine


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_coercivity_identity_shared_quadrature(space16, quad, p):
    params = FracOperatorParams(s=0.5, p=p)
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.standard_normal(16)
        lhs = apply_A1_weak(space16, quad, v, v, params)
        rhs = -0.5 * params.c_kernel * gagliardo_seminorm(space16, quad, v, params) ** p
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_weak_form_zero_input(space16, quad, params_s05_p2):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(16)
    assert apply_A1_weak(space16, quad, np.zeros(16), u, params_s05_p2) == 0.0


def test_weak_form_bilinear_in_u(space16, quad):
    params = FracOperatorParams(s=0.4, p=3.0)
    rng = np.random.default_rng(4)
    v, u1, u2 = rng.standard_normal((3, 16))
    lhs = apply_A1_weak(space16, quad, v, 2.0 * u1 - 3.0 * u2, params)
    rhs = 2.0 * apply_A1_weak(space16, quad, v, u1, params) - 3.0 * apply_A1_weak(space16, quad, v, u2, params)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_residual_matches_weak_form(space16, quad):
    params = FracOperatorParams(s=0.6, p=3.0)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(16)
    r = apply_A1_residual(space16, quad, v, params)
    for _ in range(5):
        u = rng.standard_normal(16)
        assert r @ u == pytest.approx(apply_A1_weak(space16, quad, v, u, params), rel=1e-10)


@pytest.mark.parametrize("m", [8, 24])
@pytest.mark.parametrize("p", [3.0, 4.0])
def test_residual_is_seminorm_gradient(unit_domain, quad, p, m):
    # the Poincare search's L-BFGS gradient relies on residual = (1/p) grad [v]^p
    space = build_space(unit_domain, m=m, n_modes=m)
    plan = get_plan(space, quad, FracOperatorParams(s=0.5, p=p))
    v = np.random.default_rng(m).standard_normal(m)
    value, residual = seminorm_p_with_residual(plan, v, p)
    assert value == pytest.approx(seminorm_p(plan, v, p), rel=1e-12)
    # the cached CSR transpose gives the bits of the per-call transpose
    dv = plan.D @ v
    assert np.array_equal(residual, plan.D.T @ (plan.wts * (np.abs(dv) ** (p - 2.0) * dv)))
    eps = 1e-5
    grad = np.array(
        [(seminorm_p(plan, v + eps * e, p) - seminorm_p(plan, v - eps * e, p)) / (2.0 * eps) for e in np.eye(m)]
    )
    np.testing.assert_allclose(residual, grad / p, rtol=1e-6, atol=1e-6 * np.max(np.abs(residual)))


def test_stiffness_symmetric_and_consistent(space32, quad, params_s05_p2):
    S = assemble_frac_stiffness(space32, quad, params_s05_p2)
    assert np.max(np.abs(S - S.T)) < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(5):
        v = rng.standard_normal(32)
        u = rng.standard_normal(32)
        assert apply_A1_weak(space32, quad, v, u, params_s05_p2) == pytest.approx(-(u @ (S @ v)), rel=1e-10)
        semi = gagliardo_seminorm(space32, quad, v, params_s05_p2)
        assert v @ (S @ v) == pytest.approx(0.5 * params_s05_p2.c_kernel * semi**2, rel=1e-8)


def test_stiffness_generalized_eigenvalues_positive(space32, quad, params_s05_p2):
    S = assemble_frac_stiffness(space32, quad, params_s05_p2)
    vals = eigh(S, space32.mass_matrix, eigvals_only=True)
    assert vals[0] > 0


def test_stiffness_rejects_general_p(space16, quad):
    with pytest.raises(ValueError):
        assemble_frac_stiffness(space16, quad, FracOperatorParams(s=0.5, p=3.0))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_operator_monotonicity(space16, quad, p):
    params = FracOperatorParams(s=0.5, p=p)
    rng = np.random.default_rng(7)
    for _ in range(20):
        u, v = rng.standard_normal((2, 16))
        gap = apply_A1_weak(space16, quad, u, u - v, params) - apply_A1_weak(space16, quad, v, u - v, params)
        bound = -(2.0 ** (1.0 - p)) * params.c_kernel * gagliardo_seminorm(space16, quad, u - v, params) ** p
        assert gap <= bound + 1e-6 * max(1.0, abs(bound))


def test_hemicontinuity_proxy(space16, quad):
    params = FracOperatorParams(s=0.5, p=3.0)
    rng = np.random.default_rng(8)
    u, w, z = rng.standard_normal((3, 16))
    base = apply_A1_weak(space16, quad, u, z, params)
    gaps = [abs(apply_A1_weak(space16, quad, u + d * w, z, params) - base) for d in 10.0 ** -np.arange(1, 7)]
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


def test_scalar_monotonicity_rejects_small_p():
    with pytest.raises(ValueError):
        check_scalar_monotonicity(1.5, 10)


def test_plan_weights_finite(space16, quad):
    params = FracOperatorParams(s=0.9, p=2.0)
    plan = get_plan(space16, quad, params)
    assert np.all(np.isfinite(plan.w)) and np.all(np.isfinite(plan.wt))
    assert np.all(plan.wt >= 0)
    assert plan.tail_truncation_bound > 0


def test_sampling_operator_matches_point_values(space16, quad):
    plan = get_plan(space16, quad, FracOperatorParams(s=0.5, p=3.0))
    rng = np.random.default_rng(8)
    v = rng.standard_normal(space16.m)
    nodes, h = space16.all_nodes, space16.h
    vbar = np.concatenate(([0.0], v, [0.0]))

    def at(el, loc):
        return np.interp(nodes[el] + h * loc, nodes, vbar)

    slopes = np.diff(vbar) / h
    expected = np.concatenate((at(plan.elx, plan.lx) - at(plan.ely, plan.ly), slopes, at(plan.elt, plan.lt)))
    assert plan.D.shape == (expected.size, space16.m)
    assert np.allclose(plan.D @ v, expected, rtol=0.0, atol=1e-12)


def test_plan_rejects_multidimensional(space16, quad):
    with pytest.raises(ValueError):
        get_plan(space16, quad, FracOperatorParams(s=0.5, p=2.0, n=2))


def test_transpose_built_on_first_residual(unit_domain, quad):
    # a p = 2 run reads D only; D^T is built when a residual first needs it
    from fracsplap import DriftSpec, LipschitzPerturbationSpec, SimulationSetup, SolverConfig, SuperlinearNoiseSpec
    from fracsplap import simulate_path

    space = build_space(unit_domain, m=8, n_modes=8)
    p2 = FracOperatorParams(s=0.5, p=2.0)
    setup = SimulationSetup(
        space, p2, quad, DriftSpec(q=2.0, delta=1.0), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0)
    )
    simulate_path(setup, SolverConfig(T=0.25, dt=0.125, n_modes=8, n_noise=1), np.ones(8))
    plan = get_plan(space, quad, p2)
    assert "DT" not in vars(plan)
    p3_plan = get_plan(space, quad, FracOperatorParams(s=0.5, p=3.0))
    assert p3_plan.D is plan.D and "DT" not in vars(p3_plan)
    seminorm_p_with_residual(p3_plan, np.ones(8), 3.0)
    built, fresh = vars(p3_plan)["DT"], plan.D.T.tocsr()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(built, attr), getattr(fresh, attr))
