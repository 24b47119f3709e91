"""Piecewise-linear Galerkin space with an L2-orthonormal basis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import DomainSpec

_ORTHO_TOL = 1e-10
_LP_GAUSS = 8  # points of the per-element Gauss rule behind lp_norm
MAX_MESH_NODES = 700  # a quadrature plan has about 18 m^2 rows: 9.72 M at m = 700, under 80 MB per row array


@dataclass(frozen=True)
class GalerkinSpace:
    """Uniform P1 mesh on (a, b) with zero exterior values.

    ``nodes`` holds the m interior nodes; every discrete function is the hat
    interpolant of its interior nodal values, extended by zero outside the
    domain.  The columns of ``h_basis`` are the nodal coordinates of the
    L2-orthonormal basis obtained from the Cholesky factor of the mass
    matrix, so ``span{h_1..h_k}`` equals the span of the first k hats.
    """

    domain: DomainSpec
    nodes: np.ndarray
    h: float
    mass_matrix: np.ndarray
    h_basis: np.ndarray
    n_modes: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.nodes.shape[0]

    @property
    def all_nodes(self) -> np.ndarray:
        """Mesh nodes including the two boundary nodes."""
        return np.concatenate(([self.domain.a], self.nodes, [self.domain.b]))

    def point_weights(self, el, loc):
        """The interpolant at points ``(el, loc)`` as (column, weight) pairs ``weights[k] @ v[cols[k]]``, (n, 2) each.

        Point k sits at local coordinate ``loc[k]`` in [0, 1] of element ``el[k]``, which spans nodes
        ``el[k]`` and ``el[k] + 1`` of :attr:`all_nodes`.  The two exterior nodes carry the value zero,
        so their weight is 0 and their column is clipped to 0.
        """
        el, loc = np.broadcast_arrays(np.asarray(el, dtype=np.int64), np.asarray(loc, dtype=float))
        el, loc = el.ravel(), loc.ravel()
        cols = np.stack((el - 1, el), axis=1)  # interior indices of the left and right node
        inside = (cols >= 0) & (cols < self.m)
        return np.where(inside, cols, 0), np.where(inside, np.stack((1.0 - loc, loc), axis=1), 0.0)

    def gauss_rule(self, n_points: int):
        """Per-element Gauss rule ``(E, w)``: ``w . g(E v)`` integrates g of the interpolant.

        ``E`` is dense, ``((m + 1) * n_points, m)``: at the mesh sizes of a
        desk run a dense product with it is several times cheaper than the
        sparse one, whose call overhead dominates a 24-column product.
        """
        key = ("gauss", n_points)
        if key not in self._cache:
            xi, w = np.polynomial.legendre.leggauss(n_points)
            loc = 0.5 * (xi + 1.0)
            cols, weights = self.point_weights(np.repeat(np.arange(self.m + 1), n_points), np.tile(loc, self.m + 1))
            E = np.zeros((cols.shape[0], self.m))
            np.add.at(E, (np.arange(cols.shape[0])[:, None], cols), weights)
            self._cache[key] = (E, np.tile(0.5 * self.h * w, self.m + 1))
        return self._cache[key]


def mass_orthonormal_basis(mass: np.ndarray) -> np.ndarray:
    """``L^{-T}`` for the Cholesky factor ``mass = L L^T``, whose columns are mass-orthonormal: L is
    bidiagonal, and forward substitution multiplies by the pivot's reciprocal as LAPACK's solve does."""
    L = np.linalg.cholesky(mass)
    inv = np.zeros_like(L)
    for i in range(L.shape[0]):
        inv[i, i] = 1.0 / L[i, i]
        inv[i, :i] = -L[i, i - 1] * inv[i - 1, :i] * inv[i, i]
    return inv.T


def build_space(domain: DomainSpec, m: int, n_modes: int) -> GalerkinSpace:
    """Assemble the mesh, mass matrix and orthonormal basis.

    Raises if ``n_modes > m`` or if the orthonormality check fails.
    """
    if m < 1:
        raise ValueError(f"need at least one interior node, got m={m}")
    if not 1 <= n_modes <= m:
        raise ValueError(f"n_modes must satisfy 1 <= n_modes <= m, got n_modes={n_modes}, m={m}")
    h = domain.length / (m + 1)
    nodes = domain.a + h * np.arange(1, m + 1)
    mass = np.zeros((m, m))
    idx = np.arange(m)
    mass[idx, idx] = 2.0 * h / 3.0
    mass[idx[:-1], idx[:-1] + 1] = h / 6.0
    mass[idx[:-1] + 1, idx[:-1]] = h / 6.0
    h_basis = np.ascontiguousarray(mass_orthonormal_basis(mass)[:, :n_modes])
    gram = h_basis.T @ mass @ h_basis
    err = np.max(np.abs(gram - np.eye(n_modes)))
    if err > _ORTHO_TOL:
        raise RuntimeError(f"orthonormalization failed, Gram deviation {err:.3e}")
    return GalerkinSpace(domain=domain, nodes=nodes, h=h, mass_matrix=mass, h_basis=h_basis, n_modes=n_modes)


def project(space: GalerkinSpace, v: np.ndarray, k: int) -> np.ndarray:
    """L2-orthogonal projection of a nodal vector onto span{h_1..h_k}."""
    if not 1 <= k <= space.n_modes:
        raise ValueError(f"projection rank must satisfy 1 <= k <= {space.n_modes}, got k={k}")
    Hk = space.h_basis[:, :k]
    return Hk @ (Hk.T @ (space.mass_matrix @ np.asarray(v, dtype=float)))


def l2_norm(space: GalerkinSpace, v: np.ndarray) -> float:
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(max(v @ (space.mass_matrix @ v), 0.0)))


def lp_norm(space: GalerkinSpace, v: np.ndarray, p: float, with_grad: bool = False):
    """L^p norm of the hat interpolant, by the 8-point per-element Gauss rule.

    With ``with_grad`` also returns the nodal gradient of ``||v||_p^p``.
    """
    E, w = space.gauss_rule(_LP_GAUSS)
    vals = E @ np.asarray(v, dtype=float)
    norm = float(w @ np.abs(vals) ** p) ** (1.0 / p)
    if not with_grad:
        return norm
    return norm, E.T @ (p * w * np.abs(vals) ** (p - 2.0) * vals)
