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
the plan holds one linear operator ``D`` from the interior nodal values to
those samples and one weight vector ``wts``: ``v(x) - v(y)`` per pair point,
the slope per element and ``v(t)`` per tail point.  ``D`` is kept only in the
rule's block structure: each separated or adjacent element pair reads its four
or three nodes through one coefficient block, and each element or tail row two
nodes.  With ``dv = D v``, the flux ``f = wts * |dv|^{p-2} dv`` and the
residual ``r = D^T f``:

* ``B(v, e_i) = r_i`` and ``B(v, u) = r . u``,
* ``[v]^p = B(v, v) = r . v``, the coercivity identity of the p-homogeneous form,
* the p = 2 stiffness is ``(C/2) D^T diag(wts) D``, and its eigenpairs against the mass matrix
  (:func:`frac_eigenpairs`) are the one p = 2 spectrum: the Poincare search and the transport noise read it.

Because every form reads the same samples, the algebraic identities between the
seminorm, the weak form and the stiffness matrix hold to rounding accuracy.  The
p != 2 sweep applies ``D`` and ``D^T`` through the blocks (:meth:`FracPlan.forward`,
:meth:`FracPlan.adjoint`), and the stiffness sums one small ``C diag(w) C^T`` per
block, so no sparse matrix is ever formed.  Every adjacent pair has the same
weights on the uniform mesh, so the plan folds them into the block its ``D^T``
reads (``Cadj_w``) and the sweep's flux leaves them out.

A plan is built for one exponent and every sweep reads it as ``plan.p``.  The
residual is formed once per nodal vector: the plan keeps the last ``v`` with
its value and residual, so the stepper's residual at a recorded state is the
one that state's seminorm formed.

A plan keeps only what the sweeps and the stiffness read: the sample points of
the rule are derived on each read, and the stiffness caches its matrix but not
the plan it summed, so only a swept (p != 2) operator leaves a plan in the
space's cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import FracOperatorParams
from .space import GalerkinSpace, mass_orthonormal_basis


# The one quadrature rule: Gauss points per panel axis, and geometric grading
# levels toward the shared node of adjacent elements and toward the boundary.
PANEL_GAUSS = 6
GRADED_LEVELS = 6
_ONE_THREAD_GEMM = 65_536 * 4  # OpenBLAS runs a product of at most this many multiply-adds on the calling thread


@dataclass(frozen=True)
class FracPlan:
    """Precomputed quadrature data for one (space, s, p) combination; every sweep runs at ``p``.

    ``D`` (columns = the m interior nodes) maps a nodal vector to its
    sampled values: first ``v(x) - v(y)`` at every pair point, then the slope
    of every element (the closed-form same-element term), then ``v(x)`` at
    every exterior-tail point.  ``wts`` holds the matching weights: ``w``,
    the closed-form same-element weight of every element and ``wt``.  The
    weights already contain the kernel value and the factor 2 from enumerating
    unordered element pairs; the singular diagonal is never sampled.  ``w`` and ``wt`` are views of ``wts``.
    ``elx``/``lx``, ``ely``/``ly`` and ``elt``/``lt`` locate each sample point inside its element, as
    :meth:`GalerkinSpace.point_weights` reads them.  No form reads them, so the plan does not store them: each
    read derives them from the block tables and the rule (the tests' independent oracle and the benchmark's
    tracer read them).

    The sweep reads ``D`` in blocks of the nodal vector padded with the two exterior zeros, ``vp``: the
    ``G*G`` rows of a separated pair are one row of ``vp[sep] @ Csep`` (its four nodes), the ``(L*G)^2``
    rows of an adjacent pair one row of ``vp[adj] @ Cadj`` (its three nodes), and an element or tail row
    is ``vp[two] . C2`` over its two nodes.  ``scatter`` lists the same nodes in that order for ``D^T``.
    ``Cadj_w`` is ``Cadj diag(w_adj)`` with the weights that every adjacent pair shares, so the sweep's
    flux weighs only the separated and two-node rows and its ``D^T`` reads ``Cadj_w`` on the adjacent ones.
    The p = 2 stiffness reads the same blocks with the matching parts of ``wts`` from a plan it builds and
    drops, so only a swept operator's plan is cached.

    ``_memo`` holds the last sweep as one ``(v bytes, value, read-only residual)`` tuple, so the residual is
    formed once per nodal vector: the stepper reuses the recorded state's.  ``_spare`` holds the
    :class:`_Workspace` buffers between sweeps; a sweep pops one (or builds one when none is left, as for a
    second thread) and pushes it back, so a steady sweep allocates no ``wts``-sized array.  Freeing such
    buffers on every sweep could let glibc trim them off the heap top and fault them back in each time (about
    137,000 page faults in one 64-path p = 3 study at m = 24).
    """

    wts: np.ndarray
    sep: np.ndarray    # (separated pairs, 4) padded node indices
    adj: np.ndarray    # (m, 3)
    two: np.ndarray    # (m + 1 + tail points, 2)
    scatter: np.ndarray
    Csep: np.ndarray   # (4, G*G)
    Cadj: np.ndarray   # (3, (L*G)^2)
    Cadj_w: np.ndarray  # (3, (L*G)^2)
    C2: np.ndarray     # (m + 1 + tail points, 2)
    p: float
    space: GalerkinSpace = field(repr=False, compare=False)
    _memo: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)
    _spare: list = field(default_factory=list, init=False, repr=False, compare=False)

    w = property(lambda self: self.wts[: self.wts.size - self.two.shape[0]])
    wt = property(lambda self: self._blocks(self.wts)[2][self.space.m + 1:])
    elx = property(lambda self: self._pair_points(0)[0])
    lx = property(lambda self: self._pair_points(0)[1])
    ely = property(lambda self: self._pair_points(1)[0])
    ly = property(lambda self: self._pair_points(1)[1])
    elt = property(lambda self: self.two[self.space.m + 1:, 0])
    lt = property(lambda self: self.C2[self.space.m + 1:, 1])

    def _pair_points(self, end: int):
        """Element and local coordinate of the x (``end`` 0) or the y (``end`` 1) point of every pair row."""
        loc, rel = _gauss01(PANEL_GAUSS)[0], _adjacent_rule(self.space.h)[end]
        spread = (np.repeat, np.tile)[end]  # x runs over the rows of a pair's tensor grid, y over its columns
        sep, adj = self.sep[:, 2 * end], self.adj[:, end]
        el = np.concatenate((np.repeat(sep, loc.size ** 2), np.repeat(adj, rel.size ** 2)))
        return el, np.concatenate((np.tile(spread(loc, loc.size), sep.size), np.tile(spread(rel, rel.size), adj.size)))

    def _blocks(self, x):
        """``x`` over the rows of ``D`` as its separated-pair, adjacent-pair and two-node blocks (views)."""
        sep_shape, adj_shape = (self.sep.shape[0], self.Csep.shape[1]), (self.adj.shape[0], self.Cadj.shape[1])
        a = sep_shape[0] * sep_shape[1]
        b = a + adj_shape[0] * adj_shape[1]
        return x[:a].reshape(sep_shape), x[a:b].reshape(adj_shape), x[b:]

    def forward(self, v: np.ndarray, ws: _Workspace | None = None) -> np.ndarray:
        """``D v``: the sampled values of the interior nodal vector ``v``, in ``ws.dv`` (a new workspace's)."""
        ws = ws or _Workspace(self)
        ws.vp[1:-1] = v
        ws.vp.take(self.scatter, out=ws.flat_parts, mode="clip")  # in range; "raise" would buffer the output
        (gsep, gadj, gtwo), (sep, adj, two) = ws.parts, ws.dv_blocks  # the parts hold each block's nodes for now
        _matmul_rows(gsep, self.Csep, sep)
        _matmul_rows(gadj, self.Cadj, adj)
        np.einsum("ij,ij->i", gtwo, self.C2, out=two)
        return ws.dv

    def adjoint(self, f: np.ndarray, ws: _Workspace | None = None, cadj: np.ndarray | None = None) -> np.ndarray:
        """``D^T f`` for ``f`` over the rows of ``D``, reading ``cadj`` (default ``Cadj``) on the adjacent rows."""
        ws = ws or _Workspace(self)
        sep, adj, two = self._blocks(f)
        _matmul_rows(sep, self.Csep.T, ws.parts[0])
        _matmul_rows(adj, (self.Cadj if cadj is None else cadj).T, ws.parts[1])
        np.multiply(two[:, None], self.C2, out=ws.parts[2])
        return np.bincount(self.scatter, ws.flat_parts, self.space.m + 2)[1:-1]


class _Workspace:
    """One sweep's buffers: the padded nodal vector ``vp`` (its two exterior zeros never change), ``D v``, the
    flux ``f`` and the adjoint's per-block ``parts`` over the plan's ``scatter`` nodes, with the separated,
    adjacent and two-node views of each and of the plan's weights."""

    def __init__(self, plan: FracPlan):
        self.vp = np.zeros(plan.space.m + 2)
        self.dv, self.f = np.empty(plan.wts.size), np.empty(plan.wts.size)
        self.flat_parts = np.empty(plan.scatter.size)
        self.dv_blocks, self.f_blocks, self.w_blocks = (plan._blocks(x) for x in (self.dv, self.f, plan.wts))
        blocks = np.split(self.flat_parts, (plan.sep.size, plan.sep.size + plan.adj.size))
        self.parts = tuple(x.reshape(nodes.shape) for x, nodes in zip(blocks, (plan.sep, plan.adj, plan.two)))


def _matmul_rows(a, c, out):
    """``out = a @ c`` in row chunks small enough that no product wakes an OpenBLAS worker thread.

    Unchunked, an m = 128 sweep spent 1.4-2.0 CPU seconds per wall second on two cores for no gain.
    """
    rows = max(1, _ONE_THREAD_GEMM // c.size)
    for i in range(0, a.shape[0], rows):
        np.matmul(a[i:i + rows], c, out=out[i:i + rows])


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


def _adjacent_rule(h: float):
    """Local coordinates, in the left and the right element, of the adjacent-pair points per axis, their
    distances from the shared node and their weights; the points are graded toward that node."""
    loc, gw = _gauss01(PANEL_GAUSS)
    starts, widths = _graded_cells(h, GRADED_LEVELS)
    off = (starts[:, None] + widths[:, None] * loc[None, :]).reshape(-1)
    return 1.0 + -off / h, off / h, off, (widths[:, None] * gw[None, :]).reshape(-1)


def get_plan(space: GalerkinSpace, params: FracOperatorParams) -> FracPlan:
    """Fetch from the space cache, or build and cache, the quadrature plan of a swept operator."""
    key = ("fracplan", params.s, params.p)
    if key not in space._cache:
        space._cache[key] = _build_plan(space, params)
    return space._cache[key]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # a mesh width whose weights overflow is refused below
def _build_plan(space: GalerkinSpace, params: FracOperatorParams) -> FracPlan:
    """The quadrature plan of ``(space, s, p)``, not cached: :func:`get_plan` caches it for the sweeps."""
    m, h = space.m, space.h
    a, b = space.domain.a, space.domain.b
    p, ps = params.p, params.p * params.s
    expo = 1.0 + ps
    loc, gw = _gauss01(PANEL_GAUSS)
    n_el = m + 1
    xall = space.all_nodes

    # separated pairs (gap of at least one element): tensor Gauss
    ep, eq = np.triu_indices(n_el, k=2)
    X = xall[ep][:, None] + h * loc[None, :]          # (npairs, G)
    Y = xall[eq][:, None] + h * loc[None, :]
    K = np.abs(X[:, :, None] - Y[:, None, :]) ** (-expo)
    W = 2.0 * (h * gw)[None, :, None] * (h * gw)[None, None, :] * K

    # adjacent pairs: graded subdivision toward the shared node; geometry is
    # identical for every pair on the uniform mesh, so kernel weights are
    # computed once
    lx_rel, ly_rel, off, cell_w = _adjacent_rule(h)
    Krel = np.abs(-off[:, None] - off[None, :]) ** (-expo)  # x lies at -off and y at +off from the shared node
    Wrel = 2.0 * cell_w[:, None] * cell_w[None, :] * Krel
    e_left = np.arange(n_el - 1)

    # identical elements: closed form for the pure power integral
    alpha = p - 1.0 - ps
    j_same = 2.0 * np.float64(h) ** (alpha + 2.0) / ((alpha + 1.0) * (alpha + 2.0))

    # exterior tail over the truncated box, graded on the boundary elements
    wt_box = space.domain.exterior_truncation

    def tail_kernel(x):
        return (
            (x - a) ** (-ps) - (x - a + wt_box) ** (-ps)
            + (b - x) ** (-ps) - (b - x + wt_box) ** (-ps)
        ) / ps

    starts, widths = _graded_cells(h, GRADED_LEVELS)
    inner = np.arange(1, n_el - 1)
    Xi = xall[inner][:, None] + h * loc[None, :]
    elt_parts, lt_parts = [np.repeat(inner, PANEL_GAUSS)], [np.tile(loc, inner.size)]
    wt_parts = [(2.0 * h * gw[None, :] * tail_kernel(Xi)).reshape(-1)]
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

    # D in blocks over the padded nodal vector: a separated pair (ep, eq) reads nodes ep, ep + 1, eq, eq + 1
    # and an adjacent pair (e, e + 1) nodes e, e + 1, e + 2, each through one coefficient block; an element
    # row reads the slope over nodes e, e + 1 and a tail row the value between nodes elt, elt + 1
    sep = np.stack((ep, ep + 1, eq, eq + 1), axis=1)
    adj = e_left[:, None] + np.arange(3)
    two = np.concatenate((np.arange(n_el), elt))[:, None] + np.arange(2)
    lxs, lys = np.repeat(loc, PANEL_GAUSS), np.tile(loc, PANEL_GAUSS)
    Csep = np.stack((1.0 - lxs, lxs, -(1.0 - lys), -lys))
    lxa, lya = np.repeat(lx_rel, lx_rel.size), np.tile(ly_rel, ly_rel.size)
    Cadj = np.stack((1.0 - lxa, lxa - (1.0 - lya), -lya))  # the shared node's two values merge as in v(x) - v(y)
    C2 = np.concatenate((np.tile([-1.0 / h, 1.0 / h], (n_el, 1)), np.stack((1.0 - lt, lt), axis=1)))
    wts = np.concatenate((W.reshape(-1), np.tile(Wrel.reshape(-1), n_el - 1), np.full(n_el, j_same), *wt_parts))
    if not np.isfinite(wts).all():
        raise ValueError(
            f"domain.a = {a}, domain.b = {b}: the quadrature weights of the mesh width {h} are not finite"
            f" at s = {params.s}, p = {p}"
        )
    return FracPlan(
        wts=wts, sep=sep, adj=adj, two=two, scatter=np.concatenate((sep.ravel(), adj.ravel(), two.ravel())),
        Csep=Csep, Cadj=Cadj, Cadj_w=Cadj * Wrel.reshape(-1), C2=C2, p=p, space=space,
    )


def _flux(p: float, dv: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The unweighted flux ``|dv|^(p-2) dv``, formed in ``out``.

    The operations run in the order of ``|dv| ** (p-2) * dv``, so every value has that form's bits, signed
    zeros, subnormals, infinities and NaNs included; p = 3 skips the power.
    """
    np.abs(dv, out=out)
    if p != 3.0:
        np.power(out, p - 2.0, out=out)
    out *= dv
    return out


def _sweep(plan: FracPlan, v: np.ndarray):
    """``[v]^p = r . v`` and the read-only residual ``r = D^T f``, formed once per ``v`` and kept on the plan."""
    v = np.asarray(v, dtype=float)
    key = v.tobytes()
    entry = plan._memo[0]
    if entry is None or entry[0] != key:
        try:
            ws = plan._spare.pop()
        except IndexError:
            ws = _Workspace(plan)
        dv = plan.forward(v, ws)
        f = _flux(plan.p, dv, ws.f)
        (fsep, fadj, ftwo), (wsep, wadj, wtwo) = ws.f_blocks, ws.w_blocks
        fsep *= wsep
        ftwo *= wtwo  # the adjacent rows' weights are in Cadj_w
        r = plan.adjoint(f, ws, plan.Cadj_w)
        value = float(r.dot(v))
        if not math.isfinite(value):  # an overflowed flux: r . v can read NaN where the sum f . D v reads inf
            fadj *= wadj
            value = float(np.einsum("i,i->", f, dv))
        plan._spare.append(ws)
        r.flags.writeable = False
        entry = (key, value, r)
        plan._memo[0] = entry
    return entry[1], entry[2]


def seminorm_p(plan: FracPlan, v: np.ndarray) -> float:
    """p-th power of the Gagliardo seminorm of the hat interpolant, ``(D^T f) . v``."""
    return _sweep(plan, v)[0]


def seminorm_p_with_residual(plan: FracPlan, v: np.ndarray):
    """Return ``[v]^p`` together with the form residual ``B(v, e_i)``, read-only: the plan's memo holds it.

    The residual is ``(1/p)`` times the gradient of ``[v]^p`` in the nodal
    values; the weak operator action is ``-(C/2)`` times it.
    """
    return _sweep(plan, v)


def _nodal(space: GalerkinSpace, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (space.m,):
        raise ValueError(f"expected nodal vector of length {space.m}")
    return v


def gagliardo_seminorm(space: GalerkinSpace, v: np.ndarray, params: FracOperatorParams) -> float:
    """Discrete seminorm ``[v]_{W^{s,p}}`` including the exterior-tail term."""
    v = _nodal(space, v)
    return seminorm_p(get_plan(space, params), v) ** (1.0 / params.p)


def apply_A1_weak(space: GalerkinSpace, v: np.ndarray, u: np.ndarray, params: FracOperatorParams) -> float:
    """Duality pairing of the operator action at v against u (both nodal)."""
    v, u = _nodal(space, v), _nodal(space, u)
    return float(-0.5 * params.c_kernel * _sweep(get_plan(space, params), v)[1].dot(u))


def assemble_frac_stiffness(space: GalerkinSpace, params: FracOperatorParams) -> np.ndarray:
    """Matrix ``S = (C/2) D^T diag(wts) D`` with ``v^T S v = (C/2) [v]^2``; p = 2 only.

    Each block of ``D``'s rows adds ``C diag(w) C^T`` over its nodes: a 4x4 block per separated pair, a 3x3 block
    per adjacent pair and a 2x2 block per element or tail row, summed over the padded nodes in one ``bincount``.
    The plan is built for this sum and dropped; the space caches only ``S``.
    """
    if params.p != 2.0:
        raise ValueError(f"stiffness assembly requires p = 2, got p={params.p}")
    key = ("fracstiff", params.s)
    if key in space._cache:
        return space._cache[key]
    plan = _build_plan(space, params)
    n = space.m + 2
    wsep, wadj, wtwo = plan._blocks(plan.wts)
    blocks = (_gram(wsep, plan.Csep), _gram(wadj, plan.Cadj), wtwo[:, None] * _outer(plan.C2))
    index = np.concatenate([(x[:, :, None] * n + x[:, None, :]).ravel() for x in (plan.sep, plan.adj, plan.two)])
    S = np.bincount(index, np.concatenate([b.ravel() for b in blocks]), n * n).reshape(n, n)
    S = 0.5 * params.c_kernel * S[1:-1, 1:-1]
    space._cache[key] = S
    return S


def _outer(c):
    """The products ``c[i, a] * c[i, b]`` of every row of ``c``, flattened over ``(a, b)``."""
    return (c[:, :, None] * c[:, None, :]).reshape(c.shape[0], -1)


def _gram(w, c):
    """``c diag(w_r) c^T`` for every row ``w_r`` of ``w``, flattened, as one product ``w @ _outer(c^T)``."""
    out = np.empty((w.shape[0], c.shape[0] ** 2))
    _matmul_rows(w, _outer(c.T), out)
    return out


def frac_eigenpairs(space: GalerkinSpace, params: FracOperatorParams):
    """Generalized eigenpairs of (S, M) over all m hats, ascending, with M-orthonormal eigenvectors: with
    ``M = L L^T``, ``L^{-T}`` times the eigenpairs of ``L^{-1} S L^{-T}``.  Cached per s: the one eigensolve
    of the p = 2 operator on the mesh."""
    key = ("fraceig", params.s)
    if key not in space._cache:
        B = mass_orthonormal_basis(space.mass_matrix)
        vals, vecs = np.linalg.eigh(B.T @ assemble_frac_stiffness(space, params) @ B)
        space._cache[key] = (vals, B @ vecs)
    return space._cache[key]


def sqrt_operator(space: GalerkinSpace, params: FracOperatorParams) -> np.ndarray:
    """Matrix of the spectral square root of the p = 2 nonlocal form.

    Built from :func:`frac_eigenpairs`; satisfies ``||R v||_{L2}^2 = v^T S v`` on nodal vectors and is
    self-adjoint in the mass inner product.
    """
    if params.p != 2.0:
        raise ValueError("the spectral square root requires p = 2")
    vals, vecs = frac_eigenpairs(space, params)
    return vecs @ (np.sqrt(np.clip(vals, 0.0, None))[:, None] * (vecs.T @ space.mass_matrix))
