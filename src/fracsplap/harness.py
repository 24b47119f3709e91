"""Ensemble studies: moment bounds, time regularity, stabilization, stability.

Paths run one after another on the calling thread.  Each draws from its own
per-index counter-based stream and is collected by index, so a path does not
depend on the paths before it and results are bitwise reproducible for a
fixed master seed.  No study keeps a path: each is reduced to the few numbers
its statistics read as soon as it finishes (the moment study keeps
``2 + len(p_values)`` floats a path).  A path diverged when the solver set
its ``Path.diverged_at``; no study checks the series again.  Every study
raises ``EnsembleDiverged`` at the first diverged path, so no statistic is
ever taken over the surviving paths alone.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .solver import (
    Path, SimulationSetup, SolverConfig, brownian_increments, is_whole, reference_solution_p2_linear, simulate_path
)
from .space import l2_norm


MOMENT_PATHS = 100  # the fewest paths a moment estimate runs on
MAX_ENSEMBLE_ENTRIES = 25_000_000  # the most samples the paths of one moment scale may keep: 200 MB
AFFINITY_FACTOR = 3.0  # a moment exponent is flagged when its affinity ratios spread beyond this factor


def require_paths(n_paths: int, floor: int = 1) -> None:
    """Check that a study runs at least ``floor`` paths."""
    if n_paths < floor:
        raise ConfigError(f"harness.n_paths must be >= {floor}, got {n_paths}")


def require_ensemble_fits(n_paths: int, n_p: int) -> None:
    """Check that one moment scale's samples fit: ``2 + n_p`` floats a path (its sup norm, its
    energy integral and one cross integral per exponent).  Other studies keep a few floats a path."""
    if (entries := n_paths * (n_p + 2)) > MAX_ENSEMBLE_ENTRIES:
        raise ConfigError(f"harness.n_paths: a moment ensemble keeps {entries} floats, over {MAX_ENSEMBLE_ENTRIES}")


def moment_grid(p_values, x_scales):
    """The moment exponents and initial-data scales as floats, after checking
    the moment study's preconditions."""
    p_values = tuple(float(p) for p in p_values)
    if not p_values:
        raise ConfigError("harness.p_values needs at least one exponent")
    if any(p < 1.0 for p in p_values):
        raise ConfigError("harness.p_values: moment exponents start at 1")
    x_scales = tuple(float(s) for s in x_scales)
    if not x_scales:
        raise ConfigError("harness.x_scales needs at least one scale")
    return p_values, x_scales


def mode_ladder_rungs(mode_ladder, n_modes):
    """The rungs of a Galerkin mode ladder, after checking the study's preconditions."""
    ladder = tuple(int(n) for n in mode_ladder)
    if len(ladder) < 2:
        raise ConfigError("harness.mode_ladder needs at least two rungs")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("harness.mode_ladder must be strictly increasing")
    if ladder[0] < 1:
        raise ConfigError("harness.mode_ladder rungs must be >= 1")
    if ladder[-1] > n_modes:
        raise ConfigError("harness.mode_ladder exceeds the retained span of the space")
    return ladder


def run_ensemble(one, n_paths, floor=1):
    """``[one(j) for j in range(n_paths)]`` on the calling thread, after checking that ``n_paths >= floor``.

    Worker threads do not pay here: a p = 2 step is about ten small numpy products (on a 2-core host, 9 µs a
    reference step of strong_order.cfg and 19 µs a tamed step of moments.cfg), a p != 2 step mostly a few small
    products of the block sweep, and two threads ran the p = 3 steps slower than one.
    """
    require_paths(n_paths, floor)
    return [one(j) for j in range(n_paths)]


class EnsembleDiverged(RuntimeError):
    """An ensemble has no statistics: one of its paths diverged, or a moment or standard error
    is not finite."""


def _whole(path: Path, j: int, what: str) -> Path:
    """``path``, after checking that the solver did not flag it diverged."""
    if path.diverged_at is not None:
        raise EnsembleDiverged(f"path {j} ({what}) diverged at step {path.diverged_at}; no statistics available")
    return path


@dataclass
class MomentReport:
    """Monte Carlo estimates of the three bounded moment families: one ``(3, n_p, n_scales)`` table
    each of moments and std errors, with the sup, energy and cross families on the first axis."""

    p_values: tuple
    x_scales: tuple
    moments: np.ndarray
    std_errors: np.ndarray
    x_norms_sq: tuple  # ||x||^2 per scale
    n_paths: int

    @property
    def affinity_ratios(self) -> np.ndarray:  # sup moment / (1 + ||x||^{2p}), (n_p, n_scales)
        # Python's float power (libm pow) for 1 + ||x||^{2p}, as numpy's vector pow can round differently
        return self.moments[0] / np.array([[1.0 + xn**p for xn in self.x_norms_sq] for p in self.p_values])

    @property
    @np.errstate(over="ignore")
    def affinity_flags(self) -> tuple:
        """Per p: True when the ratios spread beyond AFFINITY_FACTOR; a zero minimum ratio is an infinite spread."""
        ratios = self.affinity_ratios
        return tuple(bool(not lo > 0 or hi / lo > AFFINITY_FACTOR) for lo, hi in zip(ratios.min(1), ratios.max(1)))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing sample or statistic is refused below
def estimate_moments(
    setup: SimulationSetup,
    config: SolverConfig,
    x0_shape: np.ndarray,
    x_scales,
    p_values,
    n_paths: int,
    p_max: float = math.inf,
) -> MomentReport:
    """Estimate sup-norm, energy and cross moments over initial-data scales.

    Each path is reduced to its samples as it finishes and then dropped: the
    sup of its L2 norm, the trapezoidal integral of its energy and one cross
    integral ``int ||Z||^(2p-2) * energy dt`` per exponent, so a scale keeps
    ``n_paths * (2 + len(p_values))`` floats.  The first diverged path, or a
    scale with a moment or standard error that is not finite, raises
    ``EnsembleDiverged``.  Exponents at or above the admissible supremum
    ``p_max`` are refused.
    """
    p_values, x_scales = moment_grid(p_values, x_scales)
    require_ensemble_fits(n_paths, len(p_values))
    for p in p_values:
        if p >= p_max:
            raise ValueError(
                f"moment exponent p={p} is outside the admissible range [1, {p_max}) "
                "implied by the coercivity/diffusion-growth ratios"
            )
    shape = (3, len(p_values), len(x_scales))  # the sup, energy and cross families
    moments, std_errors = np.zeros(shape), np.zeros(shape)
    x_norms_sq = []
    dt = config.dt
    root = math.sqrt(n_paths)
    for si, scale in enumerate(x_scales):
        x0 = scale * np.asarray(x0_shape, dtype=float)
        x_norms_sq.append(l2_norm(setup.space, x0) ** 2)
        # one column a path: sup of the L2 norm, energy integral, one cross integral per exponent
        samples = np.empty((2 + len(p_values), n_paths))

        def reduce_path(j):
            path = _whole(simulate_path(setup, config, x0, path_index=j), j, f"x_scale {scale!r}")
            l2, en = path.l2_norms, path.energy_series
            samples[0, j] = np.max(l2)
            samples[1, j] = np.trapezoid(en, dx=dt)
            for pi, p in enumerate(p_values):
                samples[2 + pi, j] = np.trapezoid(l2 ** (2.0 * p - 2.0) * en, dx=dt)

        run_ensemble(reduce_path, n_paths, MOMENT_PATHS)
        sup_l2, energy, *cross = samples
        for pi, p in enumerate(p_values):
            for fi, family in enumerate((sup_l2 ** (2.0 * p), energy**p, cross[pi])):
                moments[fi, pi, si] = family.mean()
                std_errors[fi, pi, si] = family.std(ddof=1) / root
        if not (np.isfinite(moments[..., si]).all() and np.isfinite(std_errors[..., si]).all()):
            raise EnsembleDiverged(f"the moments at x_scale {scale!r} are not finite; no statistics available")
    return MomentReport(p_values, x_scales, moments, std_errors, tuple(x_norms_sq), n_paths)


def time_seminorm_sq(values: np.ndarray, dt: float, sigma: float) -> float:
    """Double trapezoidal sum of ||v(t)-v(s)||^2 / |t-s|^{1+2*sigma}.

    ``values`` has one state per row (scalars allowed); the Euclidean row
    distance is the H norm when rows are orthonormal-basis coefficients.
    """
    if not 0.0 < sigma < 0.5:
        raise ValueError(f"time-regularity order must lie in (0, 1/2), got {sigma}")
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    n = vals.shape[0]
    if n < 2:
        raise ValueError("need at least two grid points")
    t = dt * np.arange(n)
    gram = vals @ vals.T
    sq = np.diag(gram)
    dist = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    lag = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(lag, 1.0)
    kern = dist / lag ** (1.0 + 2.0 * sigma)
    np.fill_diagonal(kern, 0.0)
    w = np.full(n, dt)
    w[0] = w[-1] = 0.5 * dt
    return float(w @ kern @ w)


def slobodeckij_time_seminorm(path: Path, sigma: float) -> float:
    """W^{sigma,2}(0,T;H) norm of a trajectory: sqrt(int ||Z||^2 + seminorm^2).  A diverged path
    has no norm and is refused."""
    if path.diverged_at is not None:
        raise ValueError(f"the path diverged at step {path.diverged_at}; it has no time seminorm")
    states = path.states
    if states.shape[0] < 2:
        raise ValueError("need at least two recorded steps")
    semi = time_seminorm_sq(states, path.dt, sigma)
    w = np.full(states.shape[0], path.dt)
    w[0] = w[-1] = 0.5 * path.dt
    l2_part = float(w @ np.sum(states**2, axis=1))
    return math.sqrt(l2_part + semi)


@dataclass
class ConvergenceReport:
    """Per-path squared gaps between mode-ladder rungs and/or squared endpoint errors on a dt ladder;
    their RMS values, orders (NaN at the first rung) and fitted slope are derived."""

    mode_ladder: tuple = ()
    gap_sq: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))  # (n_paths, rungs - 1)
    dt_ladder: tuple = ()
    err_sq: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))  # (n_paths, rungs)

    @property
    def n_paths(self) -> int:
        return max(len(self.gap_sq), len(self.err_sq))

    @property
    def pairwise_gaps(self) -> tuple:
        return tuple(np.sqrt(self.gap_sq.mean(axis=0))) if self.gap_sq.size else ()

    @property
    def gaps_monotone(self) -> bool:
        gaps = self.pairwise_gaps
        return all(b < a for a, b in zip(gaps, gaps[1:]))

    @property
    @np.errstate(divide="ignore", invalid="ignore")  # a zero gap or error has no order
    def gap_orders(self) -> tuple:
        gaps = self.pairwise_gaps
        return (math.nan,) + tuple(float(np.log2(prev / gap)) for prev, gap in zip(gaps, gaps[1:]))

    @property
    def strong_errors(self) -> tuple:
        return tuple(np.sqrt(self.err_sq.mean(axis=0))) if self.err_sq.size else ()

    @property
    @np.errstate(divide="ignore", invalid="ignore")
    def strong_orders(self) -> tuple:
        d, e = self.dt_ladder, self.strong_errors
        return (math.nan,) + tuple(float(np.log2(e[i - 1] / e[i]) / np.log2(d[i - 1] / d[i])) for i in range(1, len(d)))

    @property
    @np.errstate(divide="ignore", invalid="ignore")
    def strong_slope(self) -> float:
        if not self.dt_ladder:
            return math.nan
        return float(np.polyfit(np.log2(self.dt_ladder), np.log2(self.strong_errors), 1)[0])


def _pairwise_gap_sq(path_a: Path, path_b: Path, dt: float) -> float:
    """L2(0,T;H) gap between nested-rung paths, in coefficient space."""
    za, zb = path_a.states, path_b.states
    na = za.shape[1]
    diff_sq = np.sum((zb[:, :na] - za) ** 2, axis=1) + np.sum(zb[:, na:] ** 2, axis=1)
    return float(np.trapezoid(diff_sq, dx=dt))


def galerkin_convergence_study(
    setup: SimulationSetup,
    config: SolverConfig,
    x0: np.ndarray,
    mode_ladder,
    n_paths: int,
) -> ConvergenceReport:
    """Gaps between consecutive rungs of a nested mode ladder, shared noise.

    Every rung consumes the same per-path increments (the coarse run sees the
    same stream as the fine one), so the gaps isolate the truncation effect.
    The first diverged rung path raises ``EnsembleDiverged``.
    """
    ladder = mode_ladder_rungs(mode_ladder, setup.space.n_modes)
    K = config.n_steps

    def one(j):
        dW = brownian_increments(config.master_seed, j, K, config.n_noise, config.dt)
        paths = []
        for nm in ladder:
            cfg = dataclasses.replace(config, n_modes=nm)
            paths.append(_whole(simulate_path(setup, cfg, x0, path_index=j, dW=dW), j, f"{nm}-mode rung"))
        return [_pairwise_gap_sq(a, b, config.dt) for a, b in zip(paths, paths[1:])]

    return ConvergenceReport(mode_ladder=ladder, gap_sq=np.array(run_ensemble(one, n_paths)))


def dt_ladder_grid(dt_ladder, T: float, ref_refine: int):
    """The rungs (coarsest first), the reference step ``finest / ref_refine`` and
    its step count, after checking the strong-order study's preconditions."""
    dts = tuple(sorted((float(d) for d in dt_ladder), reverse=True))
    if len(dts) < 2:
        raise ConfigError("harness.dt_ladder needs at least two rungs")
    if not dts[-1] > 0:
        raise ConfigError("harness.dt_ladder rungs must be positive")
    if ref_refine < 1:
        raise ConfigError("harness.ref_refine must be >= 1")
    dt_fine = dts[-1] / ref_refine
    K_fine = T / dt_fine
    if not is_whole(K_fine):
        raise ConfigError("the refined step (finest dt rung / harness.ref_refine) must divide solver.T")
    for d in dts:
        ratio = d / dt_fine
        if not is_whole(ratio):
            raise ConfigError("every harness.dt_ladder rung must be a multiple of the refined step")
        if round(K_fine) % round(ratio):
            raise ConfigError("every harness.dt_ladder rung must divide solver.T")
    if len({round(d / dt_fine) for d in dts}) < len(dts):  # two rungs of one step count fit no slope
        raise ConfigError("harness.dt_ladder rungs must be distinct")
    return dts, dt_fine, int(round(K_fine))


def strong_order_study(
    setup: SimulationSetup,
    config: SolverConfig,
    x0: np.ndarray,
    dt_ladder,
    n_paths: int,
    ref_refine: int = 16,
) -> ConvergenceReport:
    """Endpoint RMS error of the tamed/plain scheme against the fine exponential
    reference on shared Brownian increments, with the fitted order.  The first
    diverged reference or rung path raises ``EnsembleDiverged``.
    """
    dts, dt_fine, K_fine = dt_ladder_grid(dt_ladder, config.T, ref_refine)
    ref_cfg = dataclasses.replace(config, dt=dt_fine, taming=False)

    def one(j):
        dWf = brownian_increments(config.master_seed, j, K_fine, config.n_noise, dt_fine)
        ref = _whole(reference_solution_p2_linear(setup, ref_cfg, x0, path_index=j, dW=dWf), j, "reference")
        errs = []
        for d in dts:
            r = int(round(d / dt_fine))
            dW = dWf.reshape(-1, r, config.n_noise).sum(axis=1)
            em = simulate_path(setup, dataclasses.replace(config, dt=d), x0, path_index=j, dW=dW)
            _whole(em, j, f"dt {d!r}")
            errs.append(float(np.sum((em.states[-1] - ref.states[-1]) ** 2)))
        return errs

    return ConvergenceReport(dt_ladder=dts, err_sq=np.array(run_ensemble(one, n_paths)))


@dataclass
class StabilityReport:
    """Pathwise gaps between runs from perturbed initial data on shared noise."""

    initial_gap_sq: float
    sup_gap_sq: np.ndarray  # per path
    g_l1_norm: float
    bitwise_identical: bool
    gap_nonincreasing: bool

    @property
    def n_paths(self) -> int:
        return len(self.sup_gap_sq)

    @property
    def exp_factor(self) -> float:
        """``exp(g_l1_norm)``; inf past the float range (a weight above about 709.78), so every ratio reads 0."""
        try:
            return math.exp(self.g_l1_norm)
        except OverflowError:
            return math.inf

    @property
    def gronwall_ratios(self) -> np.ndarray:
        """Each sup gap over ``initial_gap_sq * exp_factor``; from equal data, inf where it is positive, else 0."""
        if self.initial_gap_sq > 0:
            return self.sup_gap_sq / (self.initial_gap_sq * self.exp_factor)
        return np.where(self.sup_gap_sq > 0, math.inf, 0.0)


def pathwise_stability_study(
    setup: SimulationSetup,
    config: SolverConfig,
    x0: np.ndarray,
    x0_perturbed: np.ndarray,
    n_paths: int,
    g_l1_norm: float = 0.0,
) -> StabilityReport:
    """Run path pairs on identical increments from two initial states.

    The ratio column compares the per-path sup-gap against the one-sided
    Gronwall envelope ``||dx||^2 * exp(g_l1_norm)`` of the local-monotonicity
    weight (the shipped families have no state-dependent weight).  The first
    diverged path raises ``EnsembleDiverged``.
    """
    x0 = np.asarray(x0, dtype=float)
    x0_perturbed = np.asarray(x0_perturbed, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # as the paths run: an overflowing gap diverges there
        gap0 = l2_norm(setup.space, x0 - x0_perturbed) ** 2
    K = config.n_steps

    def one(j):
        dW = brownian_increments(config.master_seed, j, K, config.n_noise, config.dt)
        pa = _whole(simulate_path(setup, config, x0, path_index=j, dW=dW), j, "first initial state")
        pb = _whole(simulate_path(setup, config, x0_perturbed, path_index=j, dW=dW), j, "second initial state")
        diff = np.sum((pa.states - pb.states) ** 2, axis=1)
        identical = bool(np.array_equal(pa.states, pb.states))
        nonincr = bool(np.all(np.diff(diff) <= 1e-14 * max(diff[0], 1e-300)))
        return float(np.max(diff)), identical, nonincr

    sup_gap, identical, nonincr = zip(*run_ensemble(one, n_paths))
    return StabilityReport(gap0, np.array(sup_gap), g_l1_norm, all(identical), all(nonincr))
