import math

import numpy as np
import pytest

from fracsplap import (
    DriftSpec,
    FracOperatorParams,
    LipschitzPerturbationSpec,
    SuperlinearNoiseSpec,
    TransportNoiseSpec,
    build_space,
    eval_B,
)
from fracsplap.coefficients import noise_lipschitz_constant
from fracsplap.fracop import frac_eigenpairs, sqrt_operator
from fracsplap.space import l2_norm, lp_norm

from oracles import (
    check_adjoint_identity,
    eval_drift,
    eval_G,
    frac_eigenpairs_scipy,
    hs_norm_B,
    lp_norm_nodal,
    power_tail_zeta,
)


@pytest.fixture(scope="module")
def drift_q4():
    return DriftSpec(q=4.0, delta=1.0)


@pytest.fixture(scope="module")
def lip_off():
    return LipschitzPerturbationSpec(0.0)


@pytest.fixture(scope="module")
def noise_p3():
    return SuperlinearNoiseSpec(p1=3.0, beta_b0=0.2, beta_r=2.0, gamma_g0=0.6, gamma_r=2.0, sigma1_amplitude=0.05)


def test_drift_spec_constants(drift_q4):
    assert drift_q4.delta1 == 1.0
    assert drift_q4.delta2 == 1.0
    assert drift_q4.delta3 == 0.5
    assert drift_q4.phi1_norm == 0.0


def test_drift_rejects_bad_parameters():
    with pytest.raises(ValueError):
        DriftSpec(q=1.5, delta=1.0)
    with pytest.raises(ValueError):
        DriftSpec(q=4.0, delta=-1.0)
    with pytest.raises(ValueError):
        DriftSpec(q=4.0, delta=1.0, delta3=10.0)  # claims more monotonicity than the family has
    with pytest.raises(ValueError, match="strong monotonicity"):
        DriftSpec(q=2.5, delta=1.0, linear=1.0, delta3=0.6)  # for q > 2 the linear part adds nothing to delta3
    with pytest.raises(ValueError, match="strong monotonicity"):
        DriftSpec(q=4.0, delta=1.0, delta3=float("nan"))


@pytest.mark.parametrize("linear", [0.0, 1.0])
@pytest.mark.parametrize("q", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_drift_delta3_sharp_bound(q, linear):
    # (|a|^{q-2}a - |b|^{q-2}b)(a - b) >= (|a|^{q-2} + |b|^{q-2})(a - b)^2 / 2, with equality at b = -a
    bound = (1.0 + linear) / 2.0 if q == 2.0 else 0.5
    assert DriftSpec(q=q, delta=1.0, linear=linear, delta3=bound).delta3 == bound
    with pytest.raises(ValueError, match="strong monotonicity"):
        DriftSpec(q=q, delta=1.0, linear=linear, delta3=bound * (1.0 + 1e-9))
    drift = DriftSpec(q=q, delta=1.0, linear=linear)
    a = np.array([1.0, 10.0, 1e8])
    ratio = -(drift.f(0.0, a) - drift.f(0.0, -a)) * 2 * a / (2 * np.abs(a) ** (q - 2.0) * (2 * a) ** 2)
    assert np.all(ratio >= bound * (1.0 - 1e-12))
    assert ratio[-1] == pytest.approx(bound, rel=1e-3)  # the bound is approached along b = -a


def test_drift_scalar_inequalities_bulk(drift_q4):
    rng = np.random.default_rng(0)
    u1 = rng.uniform(-20, 20, 100_000)
    u2 = rng.uniform(-20, 20, 100_000)
    f1, f2 = drift_q4.f(0.0, u1), drift_q4.f(0.0, u2)
    mono = (f1 - f2) * (u1 - u2)
    assert np.all(mono <= 1e-9)
    strong = mono + drift_q4.delta3 * (np.abs(u1) ** 2 + np.abs(u2) ** 2) * (u1 - u2) ** 2
    assert np.all(strong <= 1e-12 * np.maximum(1.0, np.abs(mono)))
    assert np.all(np.abs(f1) <= drift_q4.delta2 * np.abs(u1) ** 3 + drift_q4.phi2_norm + 1e-9)


def test_eval_drift_zero_and_constant(space16, drift_q4, lip_off):
    assert np.all(eval_drift(drift_q4, lip_off, 0.0, np.zeros(16)) == 0.0)
    out = eval_drift(drift_q4, lip_off, 0.0, np.ones(16))
    assert out == pytest.approx(-np.ones(16))


def test_eval_drift_duality_sign_condition(space32, drift_q4):
    lip = LipschitzPerturbationSpec(0.3)
    rng = np.random.default_rng(1)
    M = space32.mass_matrix
    for _ in range(50):
        v = rng.standard_normal(32) * rng.uniform(0.5, 4.0)
        lhs = v @ (M @ eval_drift(drift_q4, lip, 0.2, v))
        bound = (
            -drift_q4.delta1 * lp_norm(space32, v, drift_q4.q) ** drift_q4.q
            + drift_q4.phi1_norm
            + lip.phi3(0.2) * l2_norm(space32, v) ** 2
        )
        assert lhs <= bound + 1e-8 * max(1.0, abs(bound))


def test_lipschitz_family(lip_off):
    lip = LipschitzPerturbationSpec(2.0)
    assert lip.h(0.0, 0.0) == 0.0
    rng = np.random.default_rng(2)
    u1, u2 = rng.uniform(-30, 30, (2, 1000))
    assert np.all(np.abs(lip.h(0.1, u1) - lip.h(0.1, u2)) <= lip.phi3(0.1) * np.abs(u1 - u2) + 1e-12)
    assert lip.phi3_l1(2.0) == 4.0
    with pytest.raises(ValueError):
        LipschitzPerturbationSpec(-1.0)


def test_noise_series_sums(noise_p3):
    # zeta(2) = pi^2/6
    assert noise_p3.beta_sum() == pytest.approx(0.2 * np.pi**2 / 6.0, rel=1e-12)
    direct = 0.2 * np.sum(np.arange(1.0, 200_001.0) ** -2.0)
    assert noise_p3.beta_sum() == pytest.approx(direct, rel=1e-4)
    assert noise_p3.beta_tail(8) == pytest.approx(noise_p3.beta_sum() - 0.2 * np.sum(np.arange(1.0, 9.0) ** -2.0), rel=1e-10)
    finite = SuperlinearNoiseSpec(p1=2.0, beta_b0=1.0, beta_r=1.0, gamma_g0=1.0, gamma_r=1.0, cutoff=4)
    assert finite.beta_sum() == pytest.approx(1.0 + 0.5 + 1 / 3 + 0.25)
    assert finite.beta_tail(4) == 0.0


@pytest.mark.parametrize("n", [0, 5, 12, 100])
@pytest.mark.parametrize("r", [1.01, 1.5, 2.0, 3.3, 6.0])
def test_power_tail_matches_scipy_zeta(r, n):
    from fracsplap.coefficients import _power_tail

    assert _power_tail(0.7, r, None, n) == pytest.approx(power_tail_zeta(0.7, r, n), rel=1e-15, abs=0.0)


def test_power_tail_at_a_huge_exponent():
    # every term past the first underflows; scipy's zeta(1e200, a) is nan for a > 1
    from fracsplap.coefficients import _power_tail

    assert [_power_tail(0.7, 1e200, None, n) for n in (0, 5)] == [0.7, 0.0]


def test_noise_rejects_nonsummable_and_bad_lipschitz():
    with pytest.raises(ValueError):
        SuperlinearNoiseSpec(p1=2.0, beta_b0=1.0, beta_r=0.9)
    with pytest.raises(ValueError):
        SuperlinearNoiseSpec(p1=3.0, beta_b0=1.0, beta_r=2.0, gamma_g0=0.0)
    with pytest.raises(ValueError):
        SuperlinearNoiseSpec(p1=3.0, beta_b0=1.0, beta_r=2.0, gamma_g0=1.0, gamma_r=3.0)


def test_noise_local_lipschitz_check():
    # p1 = 2 makes the profile the identity: the check needs sup beta_i/gamma_i <= 3
    with pytest.raises(ValueError, match="local Lipschitz"):
        SuperlinearNoiseSpec(p1=2.0, beta_b0=10.0, gamma_g0=1.0)
    # with a cutoff the ratio beta_i/gamma_i = i^(gamma_r - beta_r) peaks at i = cutoff: 3 passes, 4 fails
    SuperlinearNoiseSpec(p1=2.0, beta_b0=1.0, beta_r=1.0, gamma_g0=1.0, gamma_r=2.0, cutoff=3)
    with pytest.raises(ValueError, match="local Lipschitz"):
        SuperlinearNoiseSpec(p1=2.0, beta_b0=1.0, beta_r=1.0, gamma_g0=1.0, gamma_r=2.0, cutoff=4)
    # ... and at i = 1 when beta decays faster
    SuperlinearNoiseSpec(p1=2.0, beta_b0=3.0, beta_r=3.0, gamma_g0=1.0, gamma_r=2.0, cutoff=50)
    for cutoff in (0, -1):
        with pytest.raises(ValueError, match="cutoff"):
            SuperlinearNoiseSpec(p1=2.0, beta_b0=0.1, gamma_g0=0.1, cutoff=cutoff)


def test_noise_cutoff_is_bounded():
    # the finite sums are formed term by term: the largest cutoff is a few ms, one past it is rejected before any sum
    from fracsplap.coefficients import MAX_NOISE_CUTOFF

    top = SuperlinearNoiseSpec(p1=2.0, beta_b0=0.1, gamma_g0=0.1, cutoff=MAX_NOISE_CUTOFF)
    assert top.beta_sum() == pytest.approx(0.1 * (np.pi**2 / 6.0 - 1.0 / MAX_NOISE_CUTOFF), rel=1e-9)
    for cutoff in (MAX_NOISE_CUTOFF + 1, 10**12, 2**64):
        with pytest.raises(ValueError, match="cutoff"):
            SuperlinearNoiseSpec(p1=2.0, beta_b0=0.1, gamma_g0=0.1, cutoff=cutoff)


def test_noise_lipschitz_witness_is_rejected():
    # at (u1, u2) = (1, 0) the left side is 2.45 * 2^(-1/4) = 2.060 and the right side 2
    with pytest.raises(ValueError, match="local Lipschitz"):
        SuperlinearNoiseSpec(p1=2.5, beta_b0=2.45, gamma_g0=1.0)
    assert [round(noise_lipschitz_constant(p1), 4) for p1 in (2.5, 3.0, 4.0, 6.0)] == [1.7649, 1.6576, 1.6137, 1.8519]


@pytest.mark.parametrize("p1", [2.0, 2.1, 2.5, 3.0, 4.0, 6.0, 10.0])
def test_noise_lipschitz_constant_is_sound_and_near_sharp(p1):
    c = noise_lipschitz_constant(p1)
    u = np.concatenate((-np.logspace(-3, 2, 400)[::-1], [0.0], np.logspace(-3, 2, 400)))
    u1, u2 = u[:, None], u[None, :]
    profile = SuperlinearNoiseSpec(p1=p1).sigma2_profile
    lhs = (profile(u1) - profile(u2)) ** 2
    rhs = (1.0 + np.abs(u1) ** (p1 - 2.0) + np.abs(u2) ** (p1 - 2.0)) * (u1 - u2) ** 2
    assert np.all(c * lhs <= rhs * (1.0 + 1e-12))
    # the grid's infimum is at least the sharp constant; the mean-value bound stays within 30 % of it
    sharp = np.min(rhs[lhs > 0] / lhs[lhs > 0])
    assert 0.7 * sharp <= c <= sharp * (1.0 + 1e-12)
    SuperlinearNoiseSpec(p1=p1, beta_b0=c, gamma_g0=1.0)
    with pytest.raises(ValueError, match="local Lipschitz"):
        SuperlinearNoiseSpec(p1=p1, beta_b0=1.001 * sharp, gamma_g0=1.0)


def test_noise_growth_bound_pointwise(noise_p3):
    rng = np.random.default_rng(3)
    u = rng.uniform(-50, 50, 10_000)
    i = np.arange(1, 9)
    for k in i:
        lhs = noise_p3.sigma2(k, u) ** 2
        rhs = noise_p3.gamma(k) + noise_p3.beta(k) * np.abs(u) ** noise_p3.p1
        assert np.all(lhs <= rhs + 1e-12)


def test_noise_lipschitz_bound_vector(noise_p3, space16):
    rng = np.random.default_rng(4)
    n = 8
    i = np.arange(1, n + 1)
    gam = noise_p3.gamma(i)
    for _ in range(20):
        u1 = rng.standard_normal(16) * 2.0
        u2 = rng.standard_normal(16) * 2.0
        b1 = eval_B(noise_p3, space16, 0.0, u1, n) - noise_p3.sigma1_nodal(space16, 0.0, n)
        b2 = eval_B(noise_p3, space16, 0.0, u2, n) - noise_p3.sigma1_nodal(space16, 0.0, n)
        lhs = sum(lp_norm_nodal(space16, b1[:, k] - b2[:, k], 2.0) ** 2 for k in range(n))
        weight = 1.0 + np.abs(u1) ** (noise_p3.p1 - 2.0) + np.abs(u2) ** (noise_p3.p1 - 2.0)
        integrand = np.sqrt(weight) * np.abs(u1 - u2)
        rhs = np.sum(gam) * lp_norm_nodal(space16, integrand, 2.0) ** 2
        assert lhs <= rhs + 1e-10 * max(1.0, rhs)


def test_eval_B_zero_and_linear(space16):
    lin = SuperlinearNoiseSpec(p1=2.0, beta_b0=0.5, beta_r=2.0, gamma_g0=0.5, gamma_r=2.0)
    assert np.all(eval_B(lin, space16, 0.0, np.zeros(16), 4) == 0.0)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(16)
    cols = eval_B(lin, space16, 0.0, v, 4)
    for k in range(4):
        ci = np.sqrt(0.5 * (k + 1.0) ** -2.0)
        assert cols[:, k] == pytest.approx(ci * v, rel=1e-12)


def test_hs_norm_examples(space16):
    lin = SuperlinearNoiseSpec(p1=2.0, beta_b0=0.5, beta_r=2.0, gamma_g0=0.5, gamma_r=2.0)
    assert hs_norm_B(lin, space16, 0.0, np.zeros(16), 6) == 0.0
    rng = np.random.default_rng(6)
    v = rng.standard_normal(16)
    i = np.arange(1, 7)
    expected = np.sqrt(np.sum(lin.beta(i))) * l2_norm(space16, v)
    assert hs_norm_B(lin, space16, 0.0, v, 6) == pytest.approx(expected, rel=1e-12)


def test_hs_bound_and_monotonicity(noise_p3, space16):
    rng = np.random.default_rng(7)
    area = space16.domain.length
    for _ in range(1000):
        v = rng.standard_normal(16) * rng.uniform(0.2, 5.0)
        lhs = hs_norm_B(noise_p3, space16, 0.0, v, 8) ** 2
        sig1_sq = sum(
            lp_norm_nodal(space16, noise_p3.sigma1_nodal(space16, 0.0, 8)[:, k], 2.0) ** 2 for k in range(8)
        )
        rhs = 2.0 * sig1_sq + 2.0 * area * noise_p3.gamma_sum() + 2.0 * noise_p3.beta_sum() * lp_norm_nodal(
            space16, v, noise_p3.p1
        ) ** noise_p3.p1
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)
    v = rng.standard_normal(16)
    norms = [hs_norm_B(noise_p3, space16, 0.0, v, n) for n in (1, 2, 4, 8, 16)]
    assert all(a <= b + 1e-14 for a, b in zip(norms, norms[1:]))


def test_hs_norm_continuity_in_state(noise_p3, space16):
    rng = np.random.default_rng(8)
    v = rng.standard_normal(16)
    w = rng.standard_normal(16)
    base = hs_norm_B(noise_p3, space16, 0.0, v, 8)
    gaps = [abs(hs_norm_B(noise_p3, space16, 0.0, v + eps * w, 8) - base) for eps in (1e-2, 1e-4, 1e-6)]
    assert gaps[1] < 2e-2 * gaps[0] / 1e-2 * 1e-4 / 1e-4 + gaps[0]  # decreasing sequence
    assert gaps[0] < 1.0 and gaps[2] < 1e-4


def test_transport_requires_p2(space16):
    with pytest.raises(ValueError):
        TransportNoiseSpec.from_family(space16, FracOperatorParams(s=0.5, p=3.0), 2, 0.5)


def test_transport_constants_consistent(space16, params_s05_p2):
    tr = TransportNoiseSpec.from_family(space16, params_s05_p2, n_g=3, amplitude=0.4, decay=1.0)
    d = 0.5 * params_s05_p2.c_kernel * float(np.sum(np.max(np.abs(tr.g_fields), axis=0) ** 2))
    assert abs(tr.delta4 - d) < 1e-10 * max(1.0, d)
    assert abs(tr.delta5 - d) < 1e-10 * max(1.0, d)
    with pytest.raises(ValueError, match="summable"):
        TransportNoiseSpec.from_family(space16, params_s05_p2, n_g=3, amplitude=math.inf)
    with pytest.raises(ValueError, match="phi4"):
        TransportNoiseSpec.from_family(space16, params_s05_p2, n_g=3, amplitude=0.4, phi4_amplitude=-1.0)


def test_eval_G_zero_and_eigenvector(space16, params_s05_p2):
    tr = TransportNoiseSpec.from_family(space16, params_s05_p2, n_g=1, amplitude=0.4)
    assert np.all(eval_G(tr, space16, params_s05_p2, np.zeros(16)) == 0.0)
    vals, vecs = frac_eigenpairs(space16, params_s05_p2)
    v = vecs[:, 2]
    col = eval_G(tr, space16, params_s05_p2, v)[:, 0]
    assert col == pytest.approx(tr.g_fields[:, 0] * np.sqrt(vals[2]) * v, rel=1e-9, abs=1e-10)


def test_sqrt_operator_consistency(space16, params_s05_p2):
    from fracsplap.fracop import assemble_frac_stiffness

    R = sqrt_operator(space16, params_s05_p2)
    S = assemble_frac_stiffness(space16, params_s05_p2)
    rng = np.random.default_rng(9)
    M = space16.mass_matrix
    for _ in range(10):
        v = rng.standard_normal(16)
        rv = R @ v
        assert rv @ (M @ rv) == pytest.approx(v @ (S @ v), rel=1e-10)
    # self-adjoint in the mass inner product
    MR = M @ R
    assert np.max(np.abs(MR - MR.T)) < 1e-12


@pytest.mark.parametrize("m, s", [(8, 0.15), (16, 0.5), (24, 0.9)])
def test_frac_eigenpairs_match_scipy_eigh(unit_domain, m, s):
    space = build_space(unit_domain, m=m, n_modes=m // 2)
    params = FracOperatorParams(s=s, p=2.0)
    vals, vecs = frac_eigenpairs(space, params)
    ref_vals, ref_vecs = frac_eigenpairs_scipy(space, params)
    assert np.max(np.abs(vals - ref_vals)) <= 1e-12 * ref_vals[-1]
    # each eigenvector up to its sign; the spectrum is simple
    signs = np.sign(np.sum(vecs * ref_vecs, axis=0))
    assert np.max(np.abs(vecs * signs - ref_vecs)) <= 1e-9 * np.max(np.abs(ref_vecs))
    R_ref = ref_vecs @ (np.sqrt(np.clip(ref_vals, 0.0, None))[:, None] * (ref_vecs.T @ space.mass_matrix))
    R = sqrt_operator(space, params)
    assert np.max(np.abs(R - R_ref)) <= 1e-12 * np.max(np.abs(R_ref))


def test_transport_growth_and_lipschitz_bounds(space32, params_s05_p2):
    tr = TransportNoiseSpec.from_family(space32, params_s05_p2, n_g=3, amplitude=0.5, decay=1.0)
    rng = np.random.default_rng(10)
    M = space32.mass_matrix
    # smooth random states: random combinations of the low generalized modes
    _, vecs = frac_eigenpairs(space32, params_s05_p2)
    from fracsplap import gagliardo_seminorm

    for _ in range(25):
        u = vecs[:, :8] @ rng.standard_normal(8)
        w = vecs[:, :8] @ rng.standard_normal(8)
        cu = eval_G(tr, space32, params_s05_p2, u)
        cw = eval_G(tr, space32, params_s05_p2, w)
        hs_u = float(np.sum(np.einsum("ik,ij,jk->k", cu, M, cu)))
        hs_diff = float(np.sum(np.einsum("ik,ij,jk->k", cu - cw, M, cu - cw)))
        bu = tr.delta4 * gagliardo_seminorm(space32, u, params_s05_p2) ** 2
        bd = tr.delta5 * gagliardo_seminorm(space32, u - w, params_s05_p2) ** 2
        assert hs_u <= bu * (1.0 + 0.05)
        assert hs_diff <= bd * (1.0 + 0.05)


def test_adjoint_identity_zero_and_random(space64, params_s05_p2):
    tr = TransportNoiseSpec.from_family(space64, params_s05_p2, n_g=1, amplitude=0.7)
    assert check_adjoint_identity(tr, space64, params_s05_p2, np.zeros(64), np.ones(64)) < 1e-14
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(64)
        v = rng.standard_normal(64)
        res = check_adjoint_identity(tr, space64, params_s05_p2, u, v)
        assert res < 1e-6 * l2_norm(space64, u) * l2_norm(space64, v)


def test_adjoint_identity_constant_multiplier(space16, params_s05_p2):
    g = np.ones((16, 1)) * 0.3
    d = 0.5 * params_s05_p2.c_kernel * 0.09
    tr = TransportNoiseSpec(g_fields=g, delta4=d)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(16)
    assert check_adjoint_identity(tr, space16, params_s05_p2, u, u) < 1e-12


def test_eval_B_cache_is_bitwise_and_per_spec(unit_domain):
    from fracsplap import build_space

    space = build_space(unit_domain, m=16, n_modes=16)
    forced = SuperlinearNoiseSpec(
        p1=3.0, beta_b0=0.2, beta_r=2.0, gamma_g0=0.55, gamma_r=2.0, sigma1_amplitude=2.0, sigma1_decay=1.0
    )
    cut = SuperlinearNoiseSpec(p1=2.0, beta_b0=0.4, beta_r=2.0, gamma_g0=0.4, gamma_r=2.0, cutoff=3, sigma1_amplitude=0.5)
    v = np.random.default_rng(3).standard_normal(16)

    def fresh(spec, n):
        i = np.arange(1, n + 1)
        return np.sqrt(spec.beta(i))[None, :] * spec.sigma2_profile(v)[:, None] + spec.sigma1_nodal(space, 0.0, n)

    first = eval_B(forced, space, 0.0, v, 6)
    again = eval_B(forced, space, 0.7, v, 6)  # the forcing does not depend on t
    assert np.array_equal(first, fresh(forced, 6)) and np.array_equal(again, first)
    first[:] = 0.0  # the caller owns the returned array
    assert np.array_equal(eval_B(forced, space, 0.0, v, 6), fresh(forced, 6))
    assert np.array_equal(eval_B(cut, space, 0.0, v, 6), fresh(cut, 6))
    assert np.array_equal(eval_B(forced, space, 0.0, v, 4), fresh(forced, 4))
    # keyed by the spec's id; each entry keeps its spec, so that id cannot pass to another spec
    owners = {id(forced): forced, id(cut): cut}
    entries = {key[1:]: value[0] for key, value in space._cache.items() if key[0] == "eval_B"}
    assert set(entries) == {(id(forced), 6), (id(cut), 6), (id(forced), 4)}
    assert all(spec is owners[i] for (i, _), spec in entries.items())
    with pytest.raises(ValueError):
        eval_B(forced, space, 0.0, v, 0)
