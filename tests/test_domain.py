import math

import numpy as np
import pytest

from fracsplap import DomainSpec, FracOperatorParams, FracQuadrature, build_space, kernel_constant, poincare_constant
from fracsplap.domain import PoincareEstimate
from fracsplap.fracop import assemble_frac_stiffness

from oracles import kernel_constant_oracle


def test_kernel_constant_half_order_is_one_over_pi():
    val = kernel_constant(1, 2.0, 0.5)
    assert abs(val - 1.0 / math.pi) < 1e-12
    assert abs(val - kernel_constant_oracle(1, 2.0, 0.5)) < 1e-12


def test_kernel_constant_n2_example():
    # s*4^s*Gamma((0.4*3+3+0)/2) / (pi * Gamma(0.6))
    assert abs(kernel_constant(2, 3.0, 0.4) - kernel_constant_oracle(2, 3.0, 0.4)) < 1e-12 * kernel_constant_oracle(2, 3.0, 0.4)


def test_kernel_constant_matches_high_precision_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = float(rng.uniform(2.0, 8.0))
        s = float(rng.uniform(0.05, 0.95))
        ref = kernel_constant_oracle(n, p, s)
        assert abs(kernel_constant(n, p, s) - ref) <= 1e-11 * ref


def test_kernel_constant_positive_on_parameter_box():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        p = float(rng.uniform(2.0, 12.0))
        s = float(rng.uniform(0.01, 0.99))
        assert kernel_constant(n, p, s) > 0.0


@pytest.mark.parametrize("bad", [dict(s=0.0), dict(s=1.0), dict(s=-0.2), dict(p=1.5), dict(n=0)])
def test_kernel_constant_rejects_out_of_range(bad):
    args = dict(n=1, p=2.0, s=0.5)
    args.update(bad)
    with pytest.raises(ValueError):
        kernel_constant(args["n"], args["p"], args["s"])


def test_operator_params_carry_kernel_constant():
    pr = FracOperatorParams(s=0.5, p=2.0)
    assert pr.c_kernel == kernel_constant(1, 2.0, 0.5)
    assert pr.kernel_exponent == 1 + 2.0 * 0.5


def test_domain_spec_validation():
    d = DomainSpec(0.0, 2.0)
    assert d.exterior_truncation == 20.0
    assert d.length == 2.0
    with pytest.raises(ValueError):
        DomainSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        DomainSpec(0.0, 1.0, exterior_truncation=-1.0)


def test_poincare_p2_matches_dense_eigen_oracle(unit_domain, quad):
    space = build_space(unit_domain, m=8, n_modes=8)
    params = FracOperatorParams(s=0.5, p=2.0)
    est = poincare_constant(space, params, quad)
    assert est.certified
    S = assemble_frac_stiffness(space, quad, params)
    G = (2.0 / params.c_kernel) * S
    from scipy.linalg import eigh

    oracle = eigh(G, space.mass_matrix, eigvals_only=True)[0]
    assert est.value == pytest.approx(oracle, rel=1e-10)
    assert est.value > 0


def test_poincare_nonincreasing_in_mode_count(unit_domain, quad):
    params = FracOperatorParams(s=0.5, p=2.0)
    sp_small = build_space(unit_domain, m=32, n_modes=8)
    sp_big = build_space(unit_domain, m=32, n_modes=16)
    lam_small = poincare_constant(sp_small, params, quad).value
    lam_big = poincare_constant(sp_big, params, quad).value
    assert lam_big <= lam_small + 1e-10


def test_poincare_two_mesh_consistency(unit_domain, quad):
    params = FracOperatorParams(s=0.5, p=2.0)
    lam64 = poincare_constant(build_space(unit_domain, 64, 64), params, quad).value
    lam128 = poincare_constant(build_space(unit_domain, 128, 128), params, quad).value
    assert abs(lam64 - lam128) < 0.1 * lam128


def test_poincare_inequality_on_random_vectors(unit_domain, quad):
    params = FracOperatorParams(s=0.5, p=2.0)
    space = build_space(unit_domain, m=24, n_modes=12)
    est = poincare_constant(space, params, quad)
    S = assemble_frac_stiffness(space, quad, params)
    H = space.h_basis
    G = (2.0 / params.c_kernel) * (H.T @ S @ H)
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((10_000, space.n_modes))
    semi_sq = np.einsum("ij,jk,ik->i", Z, G, Z)
    l2_sq = np.einsum("ij,ij->i", Z, Z)
    assert np.all(semi_sq >= est.value * l2_sq - 1e-9)


def test_poincare_heuristic_path_p3(unit_domain, quad):
    params = FracOperatorParams(s=0.4, p=3.0)
    space = build_space(unit_domain, m=16, n_modes=8)
    est = poincare_constant(space, params, quad)
    assert isinstance(est, PoincareEstimate)
    assert not est.certified
    assert est.value > 0
    # random discrete candidates do not beat the reported constant
    from fracsplap.fracop import gagliardo_seminorm
    from fracsplap.space import lp_norm

    rng = np.random.default_rng(10)
    for _ in range(200):
        v = space.h_basis @ rng.standard_normal(space.n_modes)
        q = gagliardo_seminorm(space, quad, v, params) ** params.p / lp_norm(space, v, params.p) ** params.p
        assert q >= est.value - 1e-9


@pytest.mark.parametrize("m", [16, 24])
def test_poincare_p_near_2_matches_certified(unit_domain, quad, m):
    # the p != 2 descent starts at the p = 2 minimiser, so near p = 2 it must land on the certified value
    space = build_space(unit_domain, m=m, n_modes=m // 2)
    certified = poincare_constant(space, FracOperatorParams(s=0.4, p=2.0), quad)
    heuristic = poincare_constant(space, FracOperatorParams(s=0.4, p=2.0 + 1e-6), quad)
    assert certified.certified and not heuristic.certified
    assert heuristic.value == pytest.approx(certified.value, rel=1e-5)
