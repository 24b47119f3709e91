"""Singular-kernel quadrature for the Gagliardo seminorm and the weak p-Laplace form.

The double integral over the domain splits into element pairs:

* identical elements -- the integrand is a pure power of ``|x-y|`` because
  hat interpolants are linear per element, so the contribution is closed form;
* elements sharing a node -- tensor Gauss on geometrically graded
  subdivisions toward the shared node;
* separated elements -- plain tensor Gauss.

Zero extension outside the domain contributes ``2 * int |v|^{p-2} v u * tail``
with the tail kernel integrated analytically over a truncated exterior box.

Every rule is a weighted sum over sampled values of the hat interpolant, so
the plan holds one sparse operator ``D`` from the interior nodal values to
those samples and one weight vector ``wts``.  Each row of ``D`` is four
(column, value) pairs read from :meth:`GalerkinSpace.point_weights`
(:meth:`FracPlan.row_pairs`): ``v(x) - v(y)`` per pair point, the slope per
element and ``v(t)`` per tail point.
With ``dv = D v`` and the flux ``f = wts * |dv|^{p-2} dv``:

* ``[v]^p = f . dv``, by :func:`seminorm_p` alone (the recorded state's sweep) or with the residual,
* the form residual ``B(v, e_i)`` is ``D^T f`` and ``B(v, u) = f . (D u)``,
* the p = 2 stiffness is ``(C/2) D^T diag(wts) D``.

Because every form reads the same samples, the algebraic identities between the
seminorm, the weak form and the stiffness matrix hold to rounding accuracy.  The
stiffness sums the rows' (column, value) pairs directly, so p = 2 never forms ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domain import FracOperatorParams
from .space import GalerkinSpace


# The one quadrature rule: Gauss points per panel axis, and geometric grading
# levels toward the shared node of adjacent elements and toward the boundary.
PANEL_GAUSS = 6
GRADED_LEVELS = 6
_STIFFNESS_ROWS = 8_192  # rows of D per block of the stiffness sum: 1 MB per block array


@dataclass(frozen=True)
class FracPlan:
    """Precomputed quadrature data for one (space, s, p) combination.

    ``D`` (CSR, columns = the m interior nodes) maps a nodal vector to its
    sampled values: first ``v(x) - v(y)`` at every pair point, then the slope
    of every element (the closed-form same-element term), then ``v(x)`` at
    every exterior-tail point.  ``wts`` holds the matching weights: ``w``,
    the closed-form same-element weight of every element and ``wt``.  The
    weights already contain the kernel value and the factor 2 from enumerating
    unordered element pairs; the singular diagonal is never sampled.  ``elx``/``lx``, ``ely``/``ly`` and
    ``elt``/``lt`` locate each sample point inside its element, as :meth:`GalerkinSpace.point_weights`
    reads them.  ``D`` and ``DT = D^T`` (CSR, int32 indices) are built on first use, so p = 2 runs never build them.
    """

    elx: np.ndarray
    lx: np.ndarray
    ely: np.ndarray
    ly: np.ndarray
    w: np.ndarray
    elt: np.ndarray
    lt: np.ndarray
    wt: np.ndarray
    wts: np.ndarray
    space: GalerkinSpace = field(repr=False, compare=False)

    def row_pairs(self):
        """The four (column, value) pairs of every row of ``D``, (rows, 4) each, filled in place (no stacked copies).

        A pair row holds ``v(x)`` and ``-v(y)``, an element row ``v(1)`` and ``-v(0)`` over h, a
        tail row ``v(t)`` and zero values on the same columns.
        """
        pw, el = self.space.point_weights, np.arange(self.space.m + 1)
        n, k = self.elx.size, self.elx.size + el.size  # pair rows end at n, element rows at k
        cols, vals = np.zeros((k + self.elt.size, 4), dtype=np.int64), np.zeros((k + self.elt.size, 4))
        (cols[:n, :2], vals[:n, :2]), (cols[:n, 2:], vals[:n, 2:]) = pw(self.elx, self.lx), pw(self.ely, self.ly)
        (cols[n:k, :2], vals[n:k, :2]), (cols[n:k, 2:], vals[n:k, 2:]) = pw(el, 1.0), pw(el, 0.0)
        cols[k:, :2], vals[k:, :2] = pw(self.elt, self.lt)
        cols[k:, 2:] = cols[k:, :2]
        vals[:k, 2:] *= -1.0
        vals[n:k] /= self.space.h
        return cols, vals

    @cached_property
    def D(self):
        from scipy import sparse  # only the p != 2 operator sweep reads D

        cols, vals = self.row_pairs()
        rows = cols.shape[0]
        idx = np.int32 if 4 * rows < 2**31 else np.int64  # int32 indices: fewer bytes per matvec, the same bits
        D = sparse.csr_array(
            (vals.ravel(), cols.ravel().astype(idx), 4 * np.arange(rows + 1, dtype=idx)), shape=(rows, self.space.m)
        )
        D.sum_duplicates()  # an adjacent pair's shared node: v(x) + (-v(y)) has the bits of v(x) - v(y)
        D.eliminate_zeros()
        return D

    @cached_property
    def DT(self):
        return self.D.T.tocsr()


def _gauss01(n: int):
    xi, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (xi + 1.0), 0.5 * w


def _graded_cells(width: float, levels: int):
    """Sub-intervals of (0, width) geometrically refined toward 0.

    Returns (starts, widths), ordered away from the singular end.
    """
    edges = width * 2.0 ** (-np.arange(levels, dtype=float))  # width, width/2, ...
    starts = np.concatenate(([0.0], edges[::-1][:-1]))
    widths = np.diff(np.concatenate(([0.0], edges[::-1])))
    return starts, widths


def get_plan(space: GalerkinSpace, params: FracOperatorParams) -> FracPlan:
    """Build (or fetch from the space cache) the quadrature plan."""
    key = ("fracplan", params.s, params.p)
    if key in space._cache:
        return space._cache[key]

    m, h = space.m, space.h
    a, b = space.domain.a, space.domain.b
    p, ps = params.p, params.p * params.s
    expo = 1.0 + ps
    loc, gw = _gauss01(PANEL_GAUSS)
    G, L = PANEL_GAUSS, GRADED_LEVELS
    n_el = m + 1
    xall = space.all_nodes

    elx_parts, lx_parts, ely_parts, ly_parts, w_parts = [], [], [], [], []

    # separated pairs (gap of at least one element): tensor Gauss
    ep, eq = np.triu_indices(n_el, k=2)
    if ep.size:
        X = xall[ep][:, None] + h * loc[None, :]          # (npairs, G)
        Y = xall[eq][:, None] + h * loc[None, :]
        K = np.abs(X[:, :, None] - Y[:, None, :]) ** (-expo)
        W = 2.0 * (h * gw)[None, :, None] * (h * gw)[None, None, :] * K
        npairs = ep.size
        elx_parts.append(np.repeat(ep, G * G))
        ely_parts.append(np.repeat(eq, G * G))
        lx_parts.append(np.tile(np.repeat(loc, G), npairs))
        ly_parts.append(np.tile(np.tile(loc, G), npairs))
        w_parts.append(W.reshape(-1))

    # adjacent pairs: graded subdivision toward the shared node; geometry is
    # identical for every pair on the uniform mesh, so kernel weights are
    # computed once
    starts, widths = _graded_cells(h, L)
    # offsets from the shared node: x side negative, y side positive
    xoff = -(starts[:, None] + widths[:, None] * loc[None, :])      # (L, G)
    yoff = starts[:, None] + widths[:, None] * loc[None, :]
    cell_w = widths[:, None] * gw[None, :]                          # (L, G)
    dist = np.abs(xoff.reshape(-1)[:, None] - yoff.reshape(-1)[None, :])
    Krel = dist ** (-expo)
    Wrel = 2.0 * cell_w.reshape(-1)[:, None] * cell_w.reshape(-1)[None, :] * Krel
    lx_rel = 1.0 + xoff.reshape(-1) / h      # local coordinate in the left element
    ly_rel = yoff.reshape(-1) / h
    npts = lx_rel.size
    e_left = np.arange(n_el - 1)
    elx_parts.append(np.repeat(e_left, npts * npts))
    ely_parts.append(np.repeat(e_left + 1, npts * npts))
    lx_parts.append(np.tile(np.repeat(lx_rel, npts), n_el - 1))
    ly_parts.append(np.tile(np.tile(ly_rel, npts), n_el - 1))
    w_parts.append(np.tile(Wrel.reshape(-1), n_el - 1))

    elx = np.concatenate(elx_parts).astype(np.int64)
    ely = np.concatenate(ely_parts).astype(np.int64)
    lx = np.concatenate(lx_parts)
    ly = np.concatenate(ly_parts)
    w = np.concatenate(w_parts)

    # identical elements: closed form for the pure power integral
    alpha = p - 1.0 - ps
    j_same = 2.0 * h ** (alpha + 2.0) / ((alpha + 1.0) * (alpha + 2.0))

    # exterior tail over the truncated box, graded on the boundary elements
    wt_box = space.domain.exterior_truncation

    def tail_kernel(x):
        return (
            (x - a) ** (-ps) - (x - a + wt_box) ** (-ps)
            + (b - x) ** (-ps) - (b - x + wt_box) ** (-ps)
        ) / ps

    elt_parts, lt_parts, wt_parts = [], [], []
    inner = np.arange(1, n_el - 1)
    if inner.size:
        Xi = xall[inner][:, None] + h * loc[None, :]
        elt_parts.append(np.repeat(inner, G))
        lt_parts.append(np.tile(loc, inner.size))
        wt_parts.append((2.0 * h * gw[None, :] * tail_kernel(Xi)).reshape(-1))
    for e, toward_left in ((0, True), (n_el - 1, False)):
        if toward_left:
            pts = xall[e] + starts[:, None] + widths[:, None] * loc[None, :]
        else:
            pts = xall[e + 1] - (starts[:, None] + widths[:, None] * loc[None, :])
        lcs = (pts - xall[e]) / h
        wq = 2.0 * widths[:, None] * gw[None, :] * tail_kernel(pts)
        elt_parts.append(np.full(pts.size, e, dtype=np.int64))
        lt_parts.append(lcs.reshape(-1))
        wt_parts.append(wq.reshape(-1))
    elt = np.concatenate(elt_parts).astype(np.int64)
    lt = np.concatenate(lt_parts)
    wt = np.concatenate(wt_parts)

    # w and wt are views into the weight vector of D's rows
    wts = np.concatenate((w, np.full(n_el, j_same), wt))
    plan = FracPlan(
        elx=elx, lx=lx, ely=ely, ly=ly, w=wts[: w.size],
        elt=elt, lt=lt, wt=wts[w.size + n_el:], wts=wts, space=space,
    )
    space._cache[key] = plan
    return plan


def _odd_power(x: np.ndarray, p: float) -> np.ndarray:
    """|x|^(p-2) * x, with the p = 2 case kept free of 0**0 artifacts."""
    if p == 2.0:
        return x
    if p == 3.0:  # the power form's bits in one pass fewer
        return np.abs(x) * x
    return np.abs(x) ** (p - 2.0) * x


def _flux(plan: FracPlan, v: np.ndarray, p: float):
    """Sampled values ``D v`` and the weighted flux ``wts * |D v|^(p-2) D v``."""
    dv = plan.D @ np.asarray(v, dtype=float)
    return dv, plan.wts * _odd_power(dv, p)


def seminorm_p(plan: FracPlan, v: np.ndarray, p: float) -> float:
    """p-th power of the Gagliardo seminorm of the hat interpolant, ``f . D v`` without the residual ``D^T f``."""
    dv, f = _flux(plan, v, p)
    return float(np.einsum("i,i->", f, dv))


def seminorm_p_with_residual(plan: FracPlan, v: np.ndarray, p: float):
    """Return ``[v]^p`` together with the form residual ``B(v, e_i)``.

    The residual is ``(1/p)`` times the gradient of ``[v]^p`` in the nodal
    values; the weak operator action is ``-(C/2)`` times it.
    """
    dv, f = _flux(plan, v, p)
    return float(np.einsum("i,i->", f, dv)), plan.DT @ f


def gagliardo_seminorm(space: GalerkinSpace, v: np.ndarray, params: FracOperatorParams) -> float:
    """Discrete seminorm ``[v]_{W^{s,p}}`` including the exterior-tail term."""
    plan = get_plan(space, params)
    v = np.asarray(v, dtype=float)
    if v.shape != (space.m,):
        raise ValueError(f"expected nodal vector of length {space.m}")
    return seminorm_p(plan, v, params.p) ** (1.0 / params.p)


def apply_A1_weak(space: GalerkinSpace, v: np.ndarray, u: np.ndarray, params: FracOperatorParams) -> float:
    """Duality pairing of the operator action at v against u (both nodal)."""
    plan = get_plan(space, params)
    _, f = _flux(plan, v, params.p)
    return float(-0.5 * params.c_kernel * np.einsum("i,i->", f, plan.D @ np.asarray(u, dtype=float)))


def assemble_frac_stiffness(space: GalerkinSpace, params: FracOperatorParams) -> np.ndarray:
    """Matrix ``S = (C/2) D^T diag(wts) D`` with ``v^T S v = (C/2) [v]^2``; p = 2 only.

    ``S_ab`` sums ``d_ka wts_k d_kb`` over the (at most four) entries of each row k of ``D``.
    """
    if params.p != 2.0:
        raise ValueError(f"stiffness assembly requires p = 2, got p={params.p}")
    key = ("fracstiff", params.s)
    if key in space._cache:
        return space._cache[key]
    plan = get_plan(space, params)
    m, (cols, vals) = space.m, plan.row_pairs()
    S = np.zeros(m * m)
    for k in range(0, cols.shape[0], _STIFFNESS_ROWS):
        c, v = cols[k:k + _STIFFNESS_ROWS], vals[k:k + _STIFFNESS_ROWS]
        wv = plan.wts[k:k + _STIFFNESS_ROWS, None] * v
        S += np.bincount((c[:, :, None] * m + c[:, None, :]).ravel(), (v[:, :, None] * wv[:, None, :]).ravel(), m * m)
    S = 0.5 * params.c_kernel * S.reshape(m, m)
    space._cache[key] = S
    return S
