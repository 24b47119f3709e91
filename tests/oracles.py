"""Independent brute-force oracles used to freeze expected values, and the
helpers that only the tests call.

The oracles deliberately do not reuse the library's quadrature plans: the
double integral is evaluated on a dense uniform panel grid (a multiple of the
mesh resolution) with its own Gauss rules and grading, so the library and the
oracle share only the mathematical definitions.  The scipy oracles compute
what the package computes with its own routines (Cholesky, Hurwitz zeta,
log-Gamma, L-BFGS, the generalized eigenproblem) by scipy's.  The helpers at
the end are thin compositions of the library's public pieces.
"""

import math
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.special
from mpmath import mp
from scipy import sparse

from fracsplap import FracOperatorParams
from fracsplap.coefficients import eval_B
from fracsplap.fracop import assemble_frac_stiffness, get_plan, seminorm_p_with_residual, sqrt_operator
from fracsplap.space import lp_norm, mass_orthonormal_basis


def kernel_constant_oracle(n, p, s, dps=50):
    """High-precision evaluation of s*4^s*Gamma((ps+p+n-2)/2)/(pi^(n/2)*Gamma(1-s))."""
    mp.dps = dps
    s_ = mp.mpf(s)
    p_ = mp.mpf(p)
    val = s_ * mp.power(4, s_) * mp.gamma((p_ * s_ + p_ + n - 2) / 2) / (mp.pi ** (mp.mpf(n) / 2) * mp.gamma(1 - s_))
    return float(val)


def gagliardo_seminorm_oracle(space, v, s, p, refine=4, gauss=12, levels=12):
    """Dense double quadrature of the Gagliardo seminorm at `refine`x resolution.

    Panels are uniform with width h/refine (aligned with the mesh so the
    interpolant is linear per panel); identical panels use the closed-form
    power integral, touching panels a geometric grading with `levels` levels,
    everything else tensor Gauss.  Returns the seminorm (not its p-th power).
    """
    a, b = space.domain.a, space.domain.b
    m, h = space.m, space.h
    vbar = np.zeros(m + 2)
    vbar[1:-1] = np.asarray(v, dtype=float)
    ps = p * s
    expo = 1.0 + ps
    n_panel = (m + 1) * refine
    hp = h / refine
    edges = a + hp * np.arange(n_panel + 1)

    def veval(x):
        t = np.clip((x - a) / h, 0.0, m + 1.0)
        e = np.minimum(np.floor(t).astype(int), m)
        lc = t - e
        return vbar[e] * (1.0 - lc) + vbar[e + 1] * lc

    xi, wgt = np.polynomial.legendre.leggauss(gauss)
    loc = 0.5 * (xi + 1.0)
    gw = 0.5 * wgt

    total = 0.0
    # identical panels: closed form, slope constant per panel
    alpha = p - 1.0 - ps
    el_slopes = np.diff(vbar) / h
    panel_slopes = np.repeat(el_slopes, refine)
    jsame = 2.0 * hp ** (alpha + 2.0) / ((alpha + 1.0) * (alpha + 2.0))
    total += jsame * np.sum(np.abs(panel_slopes) ** p)

    # separated panels
    ip, iq = np.triu_indices(n_panel, k=2)
    if ip.size:
        X = edges[ip][:, None] + hp * loc[None, :]
        Y = edges[iq][:, None] + hp * loc[None, :]
        VX = veval(X)
        VY = veval(Y)
        K = np.abs(X[:, :, None] - Y[:, None, :]) ** (-expo)
        F = np.abs(VX[:, :, None] - VY[:, None, :]) ** p
        W = (hp * gw)[None, :, None] * (hp * gw)[None, None, :]
        total += 2.0 * float(np.sum(W * K * F))

    # touching panels: grade both sides toward the shared point
    cuts = hp * 2.0 ** (-np.arange(levels, dtype=float))
    starts = np.concatenate(([0.0], cuts[::-1][:-1]))
    widths = np.diff(np.concatenate(([0.0], cuts[::-1])))
    off = starts[:, None] + widths[:, None] * loc[None, :]
    cw = widths[:, None] * gw[None, :]
    for i in range(n_panel - 1):
        xs = edges[i + 1] - off
        ys = edges[i + 1] + off
        VX = veval(xs).reshape(-1)
        VY = veval(ys).reshape(-1)
        K = np.abs(xs.reshape(-1)[:, None] - ys.reshape(-1)[None, :]) ** (-expo)
        F = np.abs(VX[:, None] - VY[None, :]) ** p
        W = cw.reshape(-1)[:, None] * cw.reshape(-1)[None, :]
        total += 2.0 * float(np.sum(W * K * F))

    # exterior tail over the truncated box, graded at the boundary panels
    wt_box = space.domain.exterior_truncation

    def tail_kernel(x):
        return (
            (x - a) ** (-ps) - (x - a + wt_box) ** (-ps)
            + (b - x) ** (-ps) - (b - x + wt_box) ** (-ps)
        ) / ps

    for i in range(1, n_panel - 1):
        xs = edges[i] + hp * loc
        total += 2.0 * float(np.sum(hp * gw * tail_kernel(xs) * np.abs(veval(xs)) ** p))
    for i, toward_left in ((0, True), (n_panel - 1, False)):
        if toward_left:
            xs = edges[i] + off
        else:
            xs = edges[i + 1] - off
        vals = np.abs(veval(xs.reshape(-1))) ** p
        total += 2.0 * float(np.sum(cw.reshape(-1) * tail_kernel(xs.reshape(-1)) * vals))

    return total ** (1.0 / p)


def kernel_constant_gammaln(n, p, s):
    """The kernel constant in log space with scipy's ``gammaln``."""
    g = scipy.special.gammaln
    return math.exp(
        math.log(s) + 2.0 * s * math.log(2.0) + g((p * s + p + n - 2.0) / 2.0) - 0.5 * n * math.log(math.pi) - g(1.0 - s)
    )


def power_tail_zeta(c0, r, n):
    """``sum_{i > n} c0 * i^-r`` by scipy's Hurwitz zeta."""
    return c0 * float(scipy.special.zeta(r, n + 1))


def h_basis_scipy(space):
    """The orthonormal basis by scipy's Cholesky factor and triangular solve: ``L^{-T}``, first n_modes columns."""
    L = scipy.linalg.cholesky(space.mass_matrix, lower=True)
    return scipy.linalg.solve_triangular(L, np.eye(space.m), lower=True).T[:, : space.n_modes]


def stiffness_sparse(space, params):
    """``(C/2) D^T diag(wts) D`` from the stacked sampling operator."""
    plan = get_plan(space, params)
    D = sampling_operator_csr(plan)
    return 0.5 * params.c_kernel * (D.T @ (sparse.diags_array(plan.wts) @ D)).toarray()


def toeplitz_stiffness_p2(space, params):
    """The exact p = 2 stiffness of the hats, zero-extended to the real line, on a uniform mesh.

    The form is translation invariant and the interior hats are translates of one another, so
    ``S_ij = kappa h^(1-2s) d4F(|i-j|)`` with the central fourth difference d4,
    ``kappa = C / (2s (2-2s) (3-2s))`` and ``F(r) = r^2 expm1((1-2s) log r) / (1-2s)``: the fourth
    difference of ``r^(3-2s) / (1-2s)``, whose r^2 part it cancels.  That keeps F finite through
    s = 1/2, where it is ``r^2 log r``.
    """
    s, m = params.s, space.m
    a = 1.0 - 2.0 * s
    r = np.abs(np.arange(-2, m + 2, dtype=float))
    logr = np.log(np.where(r > 0, r, 1.0))
    F = r**2 * (logr if a == 0.0 else np.expm1(a * logr) / a)
    d4 = F[:-4] - 4.0 * F[1:-3] + 6.0 * F[2:-2] - 4.0 * F[3:-1] + F[4:]  # at |i - j| = 0 .. m-1
    kappa = params.c_kernel / (2.0 * s * (2.0 - 2.0 * s) * (3.0 - 2.0 * s))
    return kappa * space.h**a * scipy.linalg.toeplitz(d4)


def quartic_bump(x):
    """``u = (1 - x^2)^2`` on (-1, 1), zero outside: C^1 across the boundary."""
    return np.where(np.abs(x) < 1.0, (1.0 - x**2) ** 2, 0.0)


def quartic_bump_load(x, params, levels=40, n_gauss=8):
    """``F = (-Delta_p)^s u`` of :func:`quartic_bump` at points x of (-1, 1), vectorised over x.

    ``F(x) = C int_0^inf [g(u(x) - u(x+t)) + g(u(x) - u(x-t))] t^(-1-sp) dt`` with ``g(r) = |r|^(p-2) r``.
    Both points lie outside beyond ``t = 1 + |x|``, where the integral is closed form.  Below it, Gauss
    panels halve toward t = 0 (the integrand is O(t^(p-1-sp)) there) and break where the integrand has a
    kink: at ``t = 1 - |x|``, where one point leaves the domain, and at ``t = 2|x|``, where ``u(x-t)`` or
    ``u(x+t)`` crosses ``u(x)``.  ``u(x) - u(y) = (y-x)(y+x)(2-x^2-y^2)`` inside, with ``y - x = ±t`` taken
    exactly, so no difference cancels.  Within 3e-12 of the largest value against a 40-digit adaptive
    quadrature at p = 3, s = 0.6.
    """
    p, s = params.p, params.s
    x = np.asarray(x, dtype=float)[:, None, None]
    ax = np.abs(x[:, 0, 0])
    far = 1.0 + ax
    ends = np.sort(np.concatenate((far[:, None] * 0.5 ** np.arange(levels + 1), np.stack((2 * ax, 1 - ax), 1)), 1), 1)
    lo = np.concatenate((np.zeros((ax.size, 1)), ends[:, :-1]), axis=1)[:, :, None]
    width = ends[:, :, None] - lo
    xi, wi = np.polynomial.legendre.leggauss(n_gauss)
    t = lo + width * (0.5 * (xi + 1.0))
    ux = quartic_bump(x)
    flux = 0.0
    for step in (t, -t):
        y = x + step
        diff = np.where(np.abs(y) < 1.0, step * (2.0 * x + step) * (2.0 - x * x - y * y), ux)
        flux = flux + np.abs(diff) ** (p - 2.0) * diff
    near = np.sum(flux * t ** (-1.0 - s * p) * width * (0.5 * wi), axis=(1, 2))
    ux = ux[:, 0, 0]
    return params.c_kernel * (near + 2.0 * ux ** (p - 1.0) * far ** (-s * p) / (s * p))


def sampling_operator_csr(plan):
    """The plan's sampling operator stacked from three point-evaluation CSRs, without zero entries:
    ``P(x) - P(y)`` per pair point, ``(P(1) - P(0)) / h`` per element and ``P(t)`` per tail point."""
    space = plan.space

    def P(el, loc):
        cols, weights = space.point_weights(el, loc)
        rows, keep = np.broadcast_to(np.arange(cols.shape[0])[:, None], cols.shape), weights != 0.0
        return sparse.csr_array((weights[keep], (rows[keep], cols[keep])), shape=(cols.shape[0], space.m))

    el = np.arange(space.m + 1)
    stack = (P(plan.elx, plan.lx) - P(plan.ely, plan.ly), (P(el, 1.0) - P(el, 0.0)) / space.h, P(plan.elt, plan.lt))
    return sparse.vstack(stack, format="csr")


def frac_eigenpairs_scipy(space, params):
    """Generalized eigenpairs of (S, M) by ``scipy.linalg.eigh``."""
    return scipy.linalg.eigh(assemble_frac_stiffness(space, params), space.mass_matrix)


def poincare_lbfgsb(space, params):
    """The p != 2 Poincare estimate by scipy's L-BFGS-B over all m hats, from the p = 2 minimiser."""
    B, p = mass_orthonormal_basis(space.mass_matrix), params.p
    p2 = FracOperatorParams(s=params.s, p=2.0)
    G = (2.0 / p2.c_kernel) * (B.T @ assemble_frac_stiffness(space, p2) @ B)
    plan = get_plan(space, params)

    def quotient_and_grad(z):
        v = B @ z
        semi_p, residual = seminorm_p_with_residual(plan, v)
        lp, lp_grad = lp_norm(space, v, p, with_grad=True)
        q = semi_p / lp**p
        return q, B.T @ (p * residual - q * lp_grad) / lp**p

    z0 = np.linalg.eigh(0.5 * (G + G.T))[1][:, 0]
    res = scipy.optimize.minimize(
        quotient_and_grad, z0, jac=True, method="L-BFGS-B", options={"maxiter": 200, "ftol": 1e-12}
    )
    return float(res.fun)


def euler_maruyama_oracle(setup, config, x0, dW):
    """The tamed Euler-Maruyama path, written out one step at a time.

    Every operator is sliced, every diffusion column and every norm is
    recomputed at every step, and the L^q norm uses its own per-element Gauss
    rule on ``np.interp``; only the p != 2 quadrature sweep is the library's.
    Returns the fields of ``solver.Path`` that the scheme determines.
    """
    space, noise = setup.space, setup.noise
    k, K, dt = config.n_modes, config.n_steps, config.dt
    p, q, c = setup.op_params.p, setup.drift.q, setup.op_params.c_kernel
    H, HT_M = setup.H[:, :k], setup.HT_M[:k]
    xi, gw = np.polynomial.legendre.leggauss(8)
    x_q = (space.all_nodes[:-1, None] + 0.5 * space.h * (xi + 1.0)[None, :]).ravel()
    w_q = np.tile(0.5 * space.h * gw, space.m + 1)

    def v1_of(z, nodal):
        if p == 2.0:
            return np.sqrt(max(2.0 / c * float(z @ (setup.S_red[:k, :k] @ z)), 0.0))
        return seminorm_p_with_residual(setup.plan, nodal)[0] ** (1.0 / p)

    def lq_of(nodal):
        vals = np.abs(np.interp(x_q, space.all_nodes, np.concatenate(([0.0], nodal, [0.0]))))
        peak = vals.max()  # summed over vals / peak, the q-th powers neither overflow nor underflow
        if not 0.0 < peak < np.inf:
            return float(np.sum(w_q * vals**q)) ** (1.0 / q)
        return peak * float(np.sum(w_q * (vals / peak) ** q)) ** (1.0 / q)

    def step(t, z, nodal, dw):
        drift = setup.drift.f(t, nodal) + setup.lip.h(t, nodal)
        if p == 2.0:
            a1 = -(setup.S_red[:k, :k] @ z)
        else:
            a1 = H.T @ (-0.5 * c * seminorm_p_with_residual(setup.plan, nodal)[1])
        D = a1 + HT_M @ drift
        if config.taming:
            D = D / (1.0 + dt * np.sqrt(D @ D))
        i = np.arange(1, config.n_noise + 1)
        cols = np.sqrt(noise.beta(i))[None, :] * noise.sigma2_profile(nodal)[:, None]
        cols = cols + noise.sigma1_nodal(space, t, config.n_noise)
        return z + dt * D + (HT_M @ cols) @ dw

    out = {name: np.full(K + 1, np.nan) for name in ("l2", "v1", "lq", "energy")}
    states = np.full((K + 1, k), np.nan)
    diverged_at = None

    def record(i, z, nodal):
        states[i] = z
        with np.errstate(over="ignore", invalid="ignore"):
            out["l2"][i] = np.sqrt(z @ z)
            out["v1"][i] = v1_of(z, nodal)
            out["lq"][i] = lq_of(nodal)
            out["energy"][i] = out["v1"][i] ** p + out["lq"][i] ** q + out["l2"][i] ** 2

    # the path diverges at the first index, 0 included, whose squared L2 norm is not finite
    z = HT_M @ np.asarray(x0, dtype=float)
    for i in range(K + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            if i > 0:
                z = step(dt * (i - 1), z, nodal, dW[i - 1])
            zz = z @ z
        if not np.isfinite(zz):
            diverged_at = i
            break
        nodal = H @ z
        record(i, z, nodal)
    return dict(states=states, l2_norms=out["l2"], v1_seminorms=out["v1"], lq_norms=out["lq"],
                energy_series=out["energy"], diverged_at=diverged_at)


def exponential_reference_oracle(setup, config, x0, dW):
    """The exponential reference path, written out one step at a time.

    The propagator is ``scipy.linalg.expm(-dt (S_k + c I))`` with ``c = delta + linear``, not the
    solver's eigendecomposition, and every diffusion column is recomputed from the noise family at
    every step.  No transport noise.  Returns the (n_steps + 1, k) states.
    """
    space, noise = setup.space, setup.noise
    k, dt, n_noise = config.n_modes, config.dt, config.n_noise
    c = setup.drift.delta + setup.drift.linear
    P = scipy.linalg.expm(-dt * (setup.S_red[:k, :k] + c * np.eye(k)))
    H, HT_M = setup.H[:, :k], setup.HT_M[:k]
    scale = np.sqrt(noise.beta(np.arange(1, n_noise + 1)))
    states = [HT_M @ np.asarray(x0, dtype=float)]
    for i in range(config.n_steps):
        z = states[-1]
        nodal = H @ z
        cols = scale[None, :] * noise.sigma2_profile(nodal)[:, None] + noise.sigma1_nodal(space, dt * i, n_noise)
        states.append(P @ z + (HT_M @ cols) @ dW[i])
    return np.array(states)


def apply_A1_residual(space, v, params):
    """Pairings of the operator action at v against every interior hat, in one sweep."""
    _, residual = seminorm_p_with_residual(get_plan(space, params), np.asarray(v, dtype=float))
    return -0.5 * params.c_kernel * residual


def coefficients(space, v, k=None):
    """Coefficients of a nodal vector in the orthonormal basis."""
    k = space.n_modes if k is None else k
    return space.h_basis[:, :k].T @ (space.mass_matrix @ np.asarray(v, dtype=float))


def lp_norm_nodal(space, v, p):
    """L^p norm by the trapezoidal (nodal) rule, i.e. the hat interpolant of |v|^p.

    Dominates :func:`fracsplap.space.lp_norm` by Jensen's inequality, so
    pointwise growth bounds survive discretization.  The exterior nodes are
    zero, so only the interior values contribute.
    """
    return float(space.h * np.sum(np.abs(np.asarray(v, dtype=float)) ** p)) ** (1.0 / p)


def eval_drift(spec, hspec, t, v):
    """Nodal values of f(t, ., v) + h(t, ., v)."""
    v = np.asarray(v, dtype=float)
    return spec.f(t, v) + hspec.h(t, v)


def hs_norm_B(spec, space, t, v, n_noise):
    """Hilbert-Schmidt norm of the truncated diffusion map."""
    cols = eval_B(spec, space, t, v, n_noise)
    sq = np.einsum("ik,ij,jk->k", cols, space.mass_matrix, cols)
    return float(np.sqrt(np.sum(sq)))


def eval_G(spec, space, params, v):
    """Transport columns ``g_i * (-Lap)^{s/2} v`` (nodal products), shape (m, n_g)."""
    rv = sqrt_operator(space, params) @ np.asarray(v, dtype=float)
    return spec.g_fields * rv[:, None]


def _triple_product(space, f, g, u):
    """Exact integral of a product of three hat interpolants (Gauss-2 per element)."""
    E, w = space.gauss_rule(2)
    return float(np.sum(w * (E @ f) * (E @ g) * (E @ u)))


def _project_product(space, g, v):
    """L2 projection of the product of two hat interpolants back onto the hat space."""
    E, w = space.gauss_rule(2)
    return np.linalg.solve(space.mass_matrix, E.T @ (w * (E @ g) * (E @ v)))


def check_adjoint_identity(spec, space, params, u, v):
    """Residual of moving the multiplier across the square root.

    Compares ``(g_i (-Lap)^{s/2} u, v)`` with ``(u, (-Lap)^{s/2} P(g_i v))``
    where P is the L2 projection of the product back onto the hat space; the
    discrete square root is self-adjoint in the mass inner product, so the
    residual is pure rounding noise.  Returns the maximum over the family.
    """
    R = sqrt_operator(space, params)
    ru = R @ np.asarray(u, dtype=float)
    out = 0.0
    for k in range(spec.n_g):
        g = spec.g_fields[:, k]
        lhs = _triple_product(space, g, ru, v)
        gv = _project_product(space, g, v)
        rhs = float(np.asarray(u) @ (space.mass_matrix @ (R @ gv)))
        out = max(out, abs(lhs - rhs))
    return out


def check_scalar_monotonicity(p, n_samples, rng_seed=0, tol=1e-12):
    """Sampled ``(|a|^{p-2}a - |b|^{p-2}b)(a - b) >= 2^{1-p}|a - b|^p`` over pairs in [-10, 10]^2.

    ``violations`` counts the pairs whose slack falls below ``-tol``.
    """
    a, b = np.random.default_rng(rng_seed).uniform(-10.0, 10.0, (2, n_samples))
    slack = (np.abs(a) ** (p - 2.0) * a - np.abs(b) ** (p - 2.0) * b) * (a - b) - 2.0 ** (1.0 - p) * np.abs(a - b) ** p
    return SimpleNamespace(violations=int(np.sum(slack < -tol)), worst_slack=float(np.min(slack)))
