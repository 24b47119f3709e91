import numpy as np
import pytest
from scipy import sparse

from fracsplap import DomainSpec, build_space, project
from fracsplap.space import l2_norm, lp_norm

from oracles import coefficients, h_basis_scipy, lp_norm_nodal


def test_single_hat_normalized(unit_domain):
    space = build_space(unit_domain, m=1, n_modes=1)
    h1 = space.h_basis[:, 0]
    assert h1.shape == (1,)
    assert h1[0] == pytest.approx(1.0 / np.sqrt(2.0 * space.h / 3.0))
    assert l2_norm(space, h1) == pytest.approx(1.0, abs=1e-13)


def test_orthonormality_m64(unit_domain):
    space = build_space(unit_domain, m=64, n_modes=16)
    gram = space.h_basis.T @ space.mass_matrix @ space.h_basis
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10


def test_mass_matrix_spd(space16):
    eigvals = np.linalg.eigvalsh(space16.mass_matrix)
    assert np.all(eigvals > 0)
    assert np.max(np.abs(space16.mass_matrix - space16.mass_matrix.T)) == 0.0


def _at_points(space, el, loc, V):
    """Columns of ``V`` (nodal) evaluated at the points through the (column, weight) pairs of point_weights."""
    cols, weights = space.point_weights(el, loc)
    assert cols.shape == weights.shape == (np.size(el), 2)
    return np.einsum("kj,kj...->k...", weights, V[cols])


def test_basis_vanishes_at_boundary(space16):
    # hats live on interior nodes; the interpolant is zero at both endpoints
    _, weights = space16.point_weights([0, space16.m], [0.0, 1.0])
    assert np.count_nonzero(weights) == 0
    assert np.all(_at_points(space16, [0, space16.m], [0.0, 1.0], space16.h_basis) == 0.0)


def test_eval_matrix_matches_interp(space16):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(space16.m)
    vbar = np.concatenate(([0.0], v, [0.0]))
    el = np.concatenate(([0, 0, space16.m, space16.m], rng.integers(0, space16.m + 1, 200)))
    loc = np.concatenate(([0.0, 0.3, 0.8, 1.0], rng.uniform(0.0, 1.0, 200)))
    x = space16.all_nodes[el] + space16.h * loc
    assert np.allclose(_at_points(space16, el, loc, v), np.interp(x, space16.all_nodes, vbar), rtol=0.0, atol=1e-13)


def test_gauss_rule_is_the_point_map(space16):
    # the dense Gauss map holds the (column, weight) pairs of point_weights, duplicates summed
    E, _ = space16.gauss_rule(3)
    loc = 0.5 * (np.polynomial.legendre.leggauss(3)[0] + 1.0)
    el = np.repeat(np.arange(space16.m + 1), 3)
    cols, weights = space16.point_weights(el, np.tile(loc, space16.m + 1))
    rows = np.broadcast_to(np.arange(cols.shape[0])[:, None], cols.shape)
    dense = sparse.coo_array((weights.ravel(), (rows.ravel(), cols.ravel())), shape=E.shape).toarray()
    assert np.array_equal(E, dense)


@pytest.mark.parametrize("m, n_modes", [(1, 1), (8, 8), (24, 12), (128, 64)])
def test_h_basis_matches_scipy_cholesky(unit_domain, m, n_modes):
    space = build_space(unit_domain, m=m, n_modes=n_modes)
    ref = h_basis_scipy(space)
    assert np.max(np.abs(space.h_basis - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_build_space_rejects_bad_dims(unit_domain):
    with pytest.raises(ValueError):
        build_space(unit_domain, m=4, n_modes=5)
    with pytest.raises(ValueError):
        build_space(unit_domain, m=0, n_modes=1)


def test_projection_idempotent_and_identity_on_span(space16):
    rng = np.random.default_rng(0)
    z = rng.standard_normal(8)
    v = space16.h_basis[:, :8] @ z
    assert np.max(np.abs(project(space16, v, 8) - v)) < 1e-12
    pv = project(space16, rng.standard_normal(16), 8)
    assert np.max(np.abs(project(space16, pv, 8) - pv)) < 1e-12


def test_projection_kills_orthogonal_complement(space16):
    v = space16.h_basis[:, 10]  # orthogonal to span{h_1..h_8}
    assert np.max(np.abs(project(space16, v, 8))) < 1e-12


def test_projection_pythagoras_and_contraction(space16):
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(16)
        pv = project(space16, v, 8)
        n2 = l2_norm(space16, v) ** 2
        split = l2_norm(space16, pv) ** 2 + l2_norm(space16, v - pv) ** 2
        assert abs(n2 - split) < 1e-9
        assert l2_norm(space16, pv) <= l2_norm(space16, v) + 1e-12


def test_projection_self_adjoint(space16):
    rng = np.random.default_rng(2)
    M = space16.mass_matrix
    for _ in range(20):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        lhs = project(space16, u, 8) @ (M @ v)
        rhs = u @ (M @ project(space16, v, 8))
        assert abs(lhs - rhs) < 1e-10


def test_norm_contraction_bulk(space16):
    rng = np.random.default_rng(3)
    V = rng.standard_normal((10_000, 16))
    M = space16.mass_matrix
    H8 = space16.h_basis[:, :8]
    PV = V @ (M @ H8) @ H8.T
    norms = np.einsum("ij,jk,ik->i", V, M, V)
    pnorms = np.einsum("ij,jk,ik->i", PV, M, PV)
    assert np.all(pnorms <= norms + 1e-10)


def test_projection_rank_bounds(space16):
    with pytest.raises(ValueError):
        project(space16, np.zeros(16), 17)
    with pytest.raises(ValueError):
        project(space16, np.zeros(16), 0)


def test_coefficients_roundtrip(space16):
    rng = np.random.default_rng(4)
    z = rng.standard_normal(16)
    v = space16.h_basis @ z
    assert np.max(np.abs(coefficients(space16, v) - z)) < 1e-10


def test_lp_norms(space32):
    # constant-one interior vector: interpolant ramps at the boundary elements
    v = np.ones(space32.m)
    exact_sq = space32.domain.length - 2 * space32.h + 2 * space32.h / 3.0
    assert lp_norm(space32, v, 2.0) == pytest.approx(np.sqrt(exact_sq), rel=1e-12)
    assert l2_norm(space32, v) == pytest.approx(np.sqrt(exact_sq), rel=1e-12)
    # nodal rule dominates the Gauss rule (Jensen)
    rng = np.random.default_rng(5)
    for p in (2.0, 3.0, 4.0):
        w = rng.standard_normal(space32.m)
        assert lp_norm_nodal(space32, w, p) >= lp_norm(space32, w, p) - 1e-12


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_lp_norm_gradient(space16, p):
    rng = np.random.default_rng(6)
    v = rng.standard_normal(16)
    _, grad = lp_norm(space16, v, p, with_grad=True)
    eps = 1e-6
    for i in (0, 7, 15):
        vp = v.copy()
        vp[i] += eps
        vm = v.copy()
        vm[i] -= eps
        fd = (lp_norm(space16, vp, p) ** p - lp_norm(space16, vm, p) ** p) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)
