import math

import numpy as np
import pytest
from scipy.linalg import eigh

from fracsplap import (
    DomainSpec,
    FracOperatorParams,
    apply_A1_weak,
    assemble_frac_stiffness,
    build_space,
    gagliardo_seminorm,
)
from fracsplap.fracop import _odd_power, get_plan, seminorm_p, seminorm_p_with_residual

from oracles import (
    apply_A1_residual, check_scalar_monotonicity, gagliardo_seminorm_oracle, sampling_operator_csr, stiffness_sparse,
)


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
    value, residual = seminorm_p_with_residual(plan, v, p)
    # the recorded state's value-only sweep has the bits of the stepper's sweep
    assert value == seminorm_p(plan, v, p)
    # the cached CSR transpose gives the bits of the per-call transpose
    dv = plan.D @ v
    assert np.array_equal(residual, plan.D.T @ (plan.wts * (np.abs(dv) ** (p - 2.0) * dv)))
    eps = 1e-5
    grad = np.array(
        [(seminorm_p(plan, v + eps * e, p) - seminorm_p(plan, v - eps * e, p)) / (2.0 * eps) for e in np.eye(m)]
    )
    np.testing.assert_allclose(residual, grad / p, rtol=1e-6, atol=1e-6 * np.max(np.abs(residual)))


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
    assert plan.D.shape == (expected.size, space16.m)
    assert np.allclose(plan.D @ v, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("m", [8, 24, 128])
def test_stiffness_matches_sparse_product(unit_domain, m):
    space = build_space(unit_domain, m=m, n_modes=1)
    for s in (0.15, 0.4, 0.6, 0.9):
        params = FracOperatorParams(s=s, p=2.0)
        ref = stiffness_sparse(space, params)
        assert np.max(np.abs(assemble_frac_stiffness(space, params) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_transpose_built_on_first_residual(unit_domain):
    # a p = 2 run builds neither D nor D^T; D^T is built when a residual first needs it
    from fracsplap import DriftSpec, LipschitzPerturbationSpec, SimulationSetup, SolverConfig, SuperlinearNoiseSpec
    from fracsplap import simulate_path

    space = build_space(unit_domain, m=8, n_modes=8)
    p2 = FracOperatorParams(s=0.5, p=2.0)
    setup = SimulationSetup(
        space, p2, DriftSpec(q=2.0, delta=1.0), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0)
    )
    simulate_path(setup, SolverConfig(T=0.25, dt=0.125, n_modes=8, n_noise=1), np.ones(8))
    plan = get_plan(space, p2)
    assert "D" not in vars(plan) and "DT" not in vars(plan)
    p3_plan = get_plan(space, FracOperatorParams(s=0.5, p=3.0))
    assert "DT" not in vars(p3_plan)
    seminorm_p_with_residual(p3_plan, np.ones(8), 3.0)
    built, fresh = vars(p3_plan)["DT"], plan.D.T.tocsr()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(built, attr), getattr(fresh, attr))


def test_odd_power_multiplies_with_the_bits_of_pow():
    tiny = np.finfo(float).smallest_subnormal
    x = np.concatenate((
        [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf, np.nan, -np.nan, 1e154, -1e155, 1.0, -1.0],
        np.random.default_rng(3).standard_normal(10_000) * np.logspace(-320, 300, 10_000),
    ))
    with np.errstate(over="ignore", invalid="ignore"):
        ours, ref = _odd_power(x, 3.0), np.abs(x) ** 1.0 * x
    # every value has the power form's bits: the signs of zeros, subnormals, infinities and NaNs included
    assert np.isnan(ref).sum() == 2
    assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("m", [1, 8, 24, 64])
def test_sampling_operator_reads_int32_indices(unit_domain, m):
    from scipy import sparse

    plan = get_plan(build_space(unit_domain, m=m, n_modes=1), FracOperatorParams(s=0.4, p=3.0))
    D = plan.D
    assert D.indices.dtype == D.indptr.dtype == plan.DT.indices.dtype == np.int32
    wide = sparse.csr_array((D.data, D.indices.astype(np.int64), D.indptr.astype(np.int64)), shape=D.shape)
    assert wide.indices.dtype == np.int64
    rng = np.random.default_rng(m)
    for _ in range(3):
        v, f = rng.standard_normal(m), rng.standard_normal(D.shape[0])
        assert np.array_equal((D @ v).view(np.uint64), (wide @ v).view(np.uint64))
        assert np.array_equal((plan.DT @ f).view(np.uint64), (wide.T.tocsr() @ f).view(np.uint64))


# u = 0 outside the domain, with the exterior tail integrated to infinity
EXACT_EXTERIOR = DomainSpec(-1.0, 1.0, exterior_truncation=math.inf)


@pytest.mark.parametrize("domain", [DomainSpec(), EXACT_EXTERIOR], ids=["default_exterior", "exact_exterior"])
@pytest.mark.parametrize("m", [1, 2, 8, 24, 64, 128])
def test_sampling_operator_matches_stacked_csr(domain, m):
    # D from the row pairs merges the node an adjacent pair shares exactly as a CSR subtraction does
    space = build_space(domain, m=m, n_modes=1)
    for s in (0.15, 0.6):
        plan = get_plan(space, FracOperatorParams(s=s, p=3.0))
        ref = sampling_operator_csr(plan)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(plan.D, attr), getattr(ref, attr))


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


def test_exact_exterior_operator_tends_to_identity_as_s_vanishes():
    # (-Lap)^s -> I as s -> 0 only when the whole exterior is integrated
    space = build_space(DomainSpec(exterior_truncation=math.inf), 1, 1)
    S = assemble_frac_stiffness(space, FracOperatorParams(s=1e-9, p=2.0))
    H = space.h_basis
    assert abs((H.T @ S @ H)[0, 0] - 1.0) < 1e-8
