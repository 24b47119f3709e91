"""Drift-tamed Euler-Maruyama integration of the projected stochastic dynamics.

States are coefficient vectors in the orthonormal mode basis, so the L2 norm
of a state is the Euclidean norm of its coefficients and trajectories stay in
the retained span by construction.  Per-path noise comes from counter-based
Philox streams keyed by ``(master_seed, path_index)``: the stream of path i is
independent of how many paths run and in which order, and identical inputs
reproduce bitwise-identical paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coefficients import (
    DriftSpec,
    LipschitzPerturbationSpec,
    SuperlinearNoiseSpec,
    TransportNoiseSpec,
    eval_B,
)
from . import fracop
from .domain import FracOperatorParams
from .fracop import assemble_frac_stiffness, get_plan, seminorm_p_with_residual, sqrt_operator
from .space import GalerkinSpace, lp_norm


# Largest n_steps * max(n_modes, n_noise) of one path: its state array and its
# noise increments stay below 80 MB each.
MAX_PATH_ENTRIES = 10_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Time grid, truncation ranks, taming and the noise seed."""

    T: float
    dt: float
    n_modes: int
    n_noise: int
    taming: bool = True
    master_seed: int = 0

    def __post_init__(self):
        if not (self.T > 0 and self.dt > 0):
            raise ValueError("horizon and time step must be positive")
        steps = self.T / self.dt
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"dt must divide T, got T/dt = {steps}")
        if self.n_modes < 1 or self.n_noise < 1:
            raise ValueError("n_modes and n_noise must be >= 1")
        if round(steps) * max(self.n_modes, self.n_noise) > MAX_PATH_ENTRIES:
            raise ValueError(
                f"a path of {round(steps)} steps with {self.n_modes} modes and {self.n_noise} noise directions "
                f"exceeds n_steps * max(n_modes, n_noise) <= {MAX_PATH_ENTRIES}"
            )
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master seed must lie in [0, 2**64), got {self.master_seed}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class Path:
    """One trajectory with its per-step norms and energy."""

    times: np.ndarray
    states: np.ndarray  # (n_steps+1, n_modes) mode coefficients
    l2_norms: np.ndarray
    v1_seminorms: np.ndarray
    lq_norms: np.ndarray
    energy_series: np.ndarray  # sum_j ||Z||_{V_j}^{q_j} per step
    diverged_at: int | None  # first index, 0 included, whose z·z is not finite; the series are NaN from it on

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


class Reduced(NamedTuple):
    """Contiguous rank-k slices of the setup's operators: ``H[:, :k]``, ``(H^T M)[:k]``, ``S_red[:k, :k]``."""

    H: np.ndarray
    HT_M: np.ndarray
    S: np.ndarray | None  # p = 2 only


class SimulationSetup:
    """Precomputed operators shared by every path of one configuration."""

    def __init__(
        self,
        space: GalerkinSpace,
        op_params: FracOperatorParams,
        drift: DriftSpec,
        lip: LipschitzPerturbationSpec,
        noise: SuperlinearNoiseSpec,
        transport: TransportNoiseSpec | None = None,
    ):
        self.space = space
        self.op_params = op_params
        self.drift = drift
        self.lip = lip
        self.noise = noise
        self.transport = transport
        self.H = space.h_basis
        self.M = space.mass_matrix
        self.HT_M = np.ascontiguousarray(self.H.T @ self.M)
        if op_params.p == 2.0:
            S = assemble_frac_stiffness(space, op_params)
            self.S_red = np.ascontiguousarray(self.H.T @ S @ self.H)
            self.plan = None
        else:
            self.S_red = None
            self.plan = get_plan(space, op_params)
        if transport is not None:
            if op_params.p != 2.0:
                raise ValueError("transport noise requires p = 2")
            self.R = sqrt_operator(space, op_params)
        else:
            self.R = None
        self._reduced = {}

    def reduced(self, k: int) -> Reduced:
        """The rank-k operators of the loop, built once per k."""
        ops = self._reduced.get(k)
        if ops is None:
            S = None if self.S_red is None else np.ascontiguousarray(self.S_red[:k, :k])
            ops = Reduced(np.ascontiguousarray(self.H[:, :k]), np.ascontiguousarray(self.HT_M[:k]), S)
            self._reduced[k] = ops
        return ops

    def a1_coeffs(self, z: np.ndarray, nodal: np.ndarray, ops: Reduced) -> np.ndarray:
        """Mode coefficients of the operator action (pairings against h_1..h_k), ``ops = reduced(k)``."""
        if ops.S is not None:
            return -(ops.S @ z)
        _, residual = seminorm_p_with_residual(self.plan, nodal, self.op_params.p)
        return ops.H.T @ (-0.5 * self.op_params.c_kernel * residual)

    def v1_seminorm(self, z: np.ndarray, nodal: np.ndarray, ops: Reduced) -> float:
        if ops.S is not None:
            return math.sqrt(max(2.0 / self.op_params.c_kernel * float(z @ (ops.S @ z)), 0.0))
        return fracop.seminorm_p(self.plan, nodal, self.op_params.p) ** (1.0 / self.op_params.p)

    def diffusion_cols(self, t: float, nodal: np.ndarray, n_noise: int) -> np.ndarray:
        cols = eval_B(self.noise, self.space, t, nodal, n_noise)
        if self.transport is not None:
            ng = min(self.transport.n_g, n_noise)
            gcols = self.transport.g_fields[:, :ng] * (self.R @ nodal)[:, None]
            cols[:, :ng] += gcols
        return cols


def brownian_increments(master_seed: int, path_index: int, n_steps: int, n_noise: int, dt: float) -> np.ndarray:
    """Increments of the truncated driving noise for one path, shape (n_steps, n_noise)."""
    bitgen = np.random.Philox(key=np.array([master_seed, path_index], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    return math.sqrt(dt) * rng.standard_normal((n_steps, n_noise))


def _integrate(setup: SimulationSetup, config: SolverConfig, x0, path_index: int, dW, stepper) -> Path:
    """Run ``stepper`` from the projected ``x0``; the only place that decides a path diverged (``Path.diverged_at``)."""
    space = setup.space
    k = config.n_modes
    if k > space.n_modes:
        raise ValueError(f"config requests {k} modes but the space retains {space.n_modes}")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (space.m,):
        raise ValueError(f"initial state must be nodal of length {space.m}")
    K = config.n_steps
    if dW is None:
        dW = brownian_increments(config.master_seed, path_index, K, config.n_noise, config.dt)
    if dW.shape != (K, config.n_noise):
        raise ValueError(f"noise increments must have shape {(K, config.n_noise)}, got {dW.shape}")

    ops = setup.reduced(k)
    q = setup.drift.q
    p = setup.op_params.p
    times = config.dt * np.arange(K + 1)
    states = np.full((K + 1, k), np.nan)
    l2 = np.full(K + 1, np.nan)
    v1 = np.full(K + 1, np.nan)
    lq = np.full(K + 1, np.nan)
    energy = np.full(K + 1, np.nan)
    diverged_at = None

    def record(i, zi, nodal, zz):
        states[i] = zi
        l2[i] = math.sqrt(zz)
        v1[i] = setup.v1_seminorm(zi, nodal, ops)
        lq[i] = lp_norm(space, nodal, q)
        energy[i] = v1[i] ** p + lq[i] ** q + l2[i] ** 2  # numpy scalars: an overflow gives inf

    with np.errstate(over="ignore", invalid="ignore"):
        z = ops.HT_M @ x0  # projection onto the retained span
        for i in range(K + 1):
            zz = float(z @ z)
            if not math.isfinite(zz):  # a non-finite entry, or a norm past the float range
                diverged_at = i
                break
            nodal = ops.H @ z
            record(i, z, nodal, zz)
            if i < K:
                z = stepper(times[i], z, nodal, dW[i], ops)

    return Path(
        times=times,
        states=states,
        l2_norms=l2,
        v1_seminorms=v1,
        lq_norms=lq,
        energy_series=energy,
        diverged_at=diverged_at,
    )


def simulate_path(
    setup: SimulationSetup,
    config: SolverConfig,
    x0: np.ndarray,
    path_index: int = 0,
    dW: np.ndarray | None = None,
) -> Path:
    """Explicit Euler-Maruyama path with the drift increment tamed by 1/(1+dt*|D|).

    The taming factor rescales the whole projected drift vector, preserving
    its direction; the diffusion increment is left untouched.
    """
    dt, taming, n_noise = config.dt, config.taming, config.n_noise
    drift, lip = setup.drift, setup.lip

    def stepper(t, z, nodal, dw, ops):
        drift_nodal = drift.f(t, nodal)
        if lip.phi3_amplitude != 0.0:  # the zero perturbation adds nothing
            drift_nodal = drift_nodal + lip.h(t, nodal)
        D = setup.a1_coeffs(z, nodal, ops) + ops.HT_M @ drift_nodal
        if taming:
            D = D / (1.0 + dt * math.sqrt(D @ D))
        cols = setup.diffusion_cols(t, nodal, n_noise)
        return z + dt * D + ops.HT_M @ (cols @ dw)

    return _integrate(setup, config, x0, path_index, dW, stepper)


def require_linear_reference(setup: SimulationSetup) -> None:
    """Raise unless the exponential reference applies: p = 2, q = 2 and no bounded-slope perturbation."""
    if setup.op_params.p != 2.0:
        raise ValueError("the strong-order exponential reference requires p = 2")
    if setup.drift.q != 2.0:
        raise ValueError("the strong-order exponential reference requires a linear drift (q = 2)")
    if setup.lip.phi3_amplitude != 0.0:
        raise ValueError("the strong-order exponential reference does not support the bounded-slope perturbation")


def reference_solution_p2_linear(
    setup: SimulationSetup,
    config: SolverConfig,
    x0: np.ndarray,
    path_index: int = 0,
    dW: np.ndarray | None = None,
) -> Path:
    """Exponential-integrator reference for the p = 2, linear-drift configuration.

    The linear part (nonlocal operator plus a linear zeroth-order drift) is
    integrated exactly in its eigenbasis each step; run it at a refined dt with
    the same Brownian increments as the compared path.
    """
    require_linear_reference(setup)
    k = config.n_modes
    c_lin = setup.drift.delta + setup.drift.linear
    A = setup.reduced(k).S + c_lin * np.eye(k)
    vals, vecs = np.linalg.eigh(A)
    decay = vecs @ (np.exp(-vals * config.dt)[:, None] * vecs.T)
    n_noise = config.n_noise

    def stepper(t, z, nodal, dw, ops):
        cols = setup.diffusion_cols(t, nodal, n_noise)
        return decay @ z + ops.HT_M @ (cols @ dw)

    return _integrate(setup, config, x0, path_index, dW, stepper)


def stopping_functional(path: Path, upto_index: int) -> float:
    """L2 norm at the index plus the trapezoidal accumulated energy up to it."""
    if not 0 <= upto_index < path.times.shape[0]:
        raise ValueError(f"index {upto_index} outside the path grid")
    if upto_index == 0:
        return float(path.l2_norms[0])
    dt = path.dt
    acc = float(np.trapezoid(path.energy_series[: upto_index + 1], dx=dt))
    return float(path.l2_norms[upto_index]) + acc

