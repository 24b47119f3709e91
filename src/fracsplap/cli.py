"""Batch CLI: admissibility checks, simulation, Monte Carlo studies.

Every artifact starts with a version header and the resolved configuration as
``# config:`` comment lines, so a run can be reproduced bit-exactly from its
own output.  Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path as FsPath

import numpy as np
import scipy

from . import __version__
from .config import Bundle, ConfigError, ExperimentConfig, build_bundle, parse_config_file
from .harness import (
    EnsembleDiverged,
    estimate_moments,
    galerkin_convergence_study,
    pathwise_stability_study,
    strong_order_study,
)
from .solver import simulate_path

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _header_lines(bundle: Bundle):
    lines = [
        f"# fracsplap {__version__}",
        f"# numpy {np.__version__} scipy {scipy.__version__}",
    ]
    lines += [f"# config: {line}" for line in bundle.config.resolved_lines()]
    return lines


def _write_artifact(path: FsPath, bundle: Bundle, body_lines) -> None:
    text = "\n".join(_header_lines(bundle) + list(body_lines)) + "\n"
    path.write_text(text, encoding="utf-8")


def _seeded(bundle: Bundle, seed) -> Bundle:
    """The bundle with ``--seed`` applied to the solver and to the configuration the headers record."""
    if seed is None:
        return bundle
    config = ExperimentConfig({**bundle.config.values, "solver.master_seed": seed})
    return dataclasses.replace(
        bundle, config=config, solver_config=dataclasses.replace(bundle.solver_config, master_seed=seed)
    )


def cmd_check_hypotheses(bundle: Bundle, out: FsPath, args) -> int:
    from .coefficients import noise_truncation

    report = bundle.admissibility()
    # admissibility uses the full series sums; the simulation truncates the
    # noise, so the neglected tail mass is reported alongside
    trunc = noise_truncation(bundle.noise, bundle.solver_config.n_noise)
    tail_txt = [
        f"  noise truncation: {trunc.n_noise} directions retained, "
        f"beta tail {_fmt(trunc.beta_tail)}, gamma tail {_fmt(trunc.gamma_tail)}",
    ]
    tail_kv = [
        f"noise_truncation.n_noise = {trunc.n_noise}",
        f"noise_truncation.beta_tail = {_fmt(trunc.beta_tail)}",
        f"noise_truncation.gamma_tail = {_fmt(trunc.gamma_tail)}",
    ]
    _write_artifact(out / "admissibility.txt", bundle, report.to_text().splitlines() + tail_txt)
    _write_artifact(out / "admissibility.kv", bundle, report.to_kv().splitlines() + tail_kv)
    print(report.to_text(), end="")
    print("\n".join(tail_txt))
    return EXIT_OK


def cmd_simulate(bundle: Bundle, out: FsPath, args) -> int:
    bundle = _seeded(bundle, args.seed)
    report = bundle.admissibility()
    if not report.ok:
        print(
            "warning: configuration fails the admissibility checks "
            "(sufficient conditions only); simulating anyway",
            file=sys.stderr,
        )
    cfg = bundle.solver_config
    path = simulate_path(bundle.setup, cfg, bundle.config["solver.x0_scale"] * bundle.x0_shape, path_index=0)
    rows = ["time,l2_norm,gagliardo_seminorm,lq_norm,stopped_flag"]
    for i, t in enumerate(path.times):
        flag = 1 if path.stopped_at is not None and i >= path.stopped_at else 0
        rows.append(
            f"{_fmt(t)},{_fmt(path.l2_norms[i])},{_fmt(path.v1_seminorms[i])},{_fmt(path.lq_norms[i])},{flag}"
        )
    _write_artifact(out / "path.csv", bundle, rows)
    if path.diverged_at is not None:
        print(f"path diverged at step {path.diverged_at}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {out / 'path.csv'} ({cfg.n_steps} steps)")
    return EXIT_OK


def cmd_moments(bundle: Bundle, out: FsPath, args) -> int:
    bundle = _seeded(bundle, args.seed)
    report = bundle.admissibility()
    cfg = bundle.solver_config
    config = bundle.config
    p_max = report.p_max
    admissible = tuple(p for p in config["harness.p_values"] if p < p_max)
    dropped = tuple(p for p in config["harness.p_values"] if p >= p_max)
    if dropped:
        print(
            f"note: dropping moment exponents {list(dropped)} at or above the "
            f"admissible supremum p_max = {p_max}",
            file=sys.stderr,
        )
    if not admissible:
        raise ConfigError(f"no requested moment exponent lies in the admissible range [1, {p_max})")
    rep = estimate_moments(
        bundle.setup, cfg, bundle.x0_shape,
        x_scales=config["harness.x_scales"], p_values=admissible,
        n_paths=config["harness.n_paths"], p_max=p_max,
        affinity_factor=config["harness.affinity_factor"], threads=args.threads,
    )
    rows = [
        f"# p_max = {_fmt(p_max)}",
        f"# n_paths = {rep.n_paths}",
        f"# diverged = {rep.diverged}",
        f"# affinity_flags = {','.join(_fmt(f) for f in rep.affinity_flags)}",
        "p,x_scale,sup_moment,energy_moment,cross_moment,std_err,affinity_ratio",
    ]
    for pi, p in enumerate(rep.p_values):
        for si, scale in enumerate(rep.x_scales):
            rows.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        p, scale, rep.sup_moments[pi, si], rep.energy_moments[pi, si],
                        rep.cross_moments[pi, si], rep.sup_std_errors[pi, si], rep.affinity_ratios[pi, si],
                    )
                )
            )
    _write_artifact(out / "moments.csv", bundle, rows)
    frac = rep.diverged / max(rep.n_paths * len(rep.x_scales), 1)
    if frac > config["harness.max_diverged_fraction"]:
        print(f"diverged fraction {frac} exceeds the configured limit", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {out / 'moments.csv'}")
    return EXIT_OK


def cmd_converge(bundle: Bundle, out: FsPath, args) -> int:
    bundle = _seeded(bundle, args.seed)
    cfg = bundle.solver_config
    config = bundle.config
    x0 = config["solver.x0_scale"] * bundle.x0_shape
    n_paths = config["harness.n_paths"]
    rows = ["rung,gap,slope"]
    mode_rep = None
    ladder = config["harness.mode_ladder"]
    if ladder and ladder[-1] > bundle.space.n_modes:
        raise ConfigError("harness.mode_ladder exceeds the retained span of the space")
    if ladder:
        mode_rep = galerkin_convergence_study(
            bundle.setup, cfg, x0, config["harness.mode_ladder"], n_paths, threads=args.threads
        )
        ladder = mode_rep.mode_ladder
        prev = None
        for (a, b), gap in zip(zip(ladder, ladder[1:]), mode_rep.pairwise_gaps):
            slope = float("nan") if prev is None else float(np.log2(prev / gap))
            rows.append(f"{a}->{b},{_fmt(gap)},{_fmt(slope)}")
            prev = gap
        rows.insert(1, f"# gaps_monotone = {_fmt(mode_rep.gaps_monotone)}")
    dt_rep = None
    if config["harness.dt_ladder"]:
        dt_rep = strong_order_study(
            bundle.setup, cfg, x0, config["harness.dt_ladder"], n_paths,
            ref_refine=config["harness.ref_refine"], threads=args.threads,
        )
        rows.append(f"# strong_order_slope = {_fmt(dt_rep.strong_slope)}")
        prev = None
        for dt, err in zip(dt_rep.dt_ladder, dt_rep.strong_errors):
            slope = float("nan") if prev is None else float(np.log2(prev[1] / err) / np.log2(prev[0] / dt))
            rows.append(f"dt={_fmt(dt)},{_fmt(err)},{_fmt(slope)}")
            prev = (dt, err)
    if mode_rep is None and dt_rep is None:
        raise ConfigError("converge needs harness.mode_ladder or harness.dt_ladder")
    _write_artifact(out / "convergence.csv", bundle, rows)
    print(f"wrote {out / 'convergence.csv'}")
    return EXIT_OK


def cmd_uniqueness(bundle: Bundle, out: FsPath, args) -> int:
    bundle = _seeded(bundle, args.seed)
    report = bundle.admissibility()
    cfg = bundle.solver_config
    config = bundle.config
    x0 = config["solver.x0_scale"] * bundle.x0_shape
    n_paths = config["harness.n_paths"]
    identical = pathwise_stability_study(
        bundle.setup, cfg, x0, x0.copy(), min(n_paths, 16),
        g_l1_norm=report.params.g_l1_norm, threads=args.threads,
    )
    eps = config["harness.stability_epsilon"]
    perturbed = pathwise_stability_study(
        bundle.setup, cfg, x0, x0 + eps * bundle.x0_shape, n_paths,
        g_l1_norm=report.params.g_l1_norm, threads=args.threads,
    )
    rows = [
        f"# identical_data_bitwise = {_fmt(identical.bitwise_identical)}",
        f"# epsilon = {_fmt(eps)}",
        f"# initial_gap_sq = {_fmt(perturbed.initial_gap_sq)}",
        f"# exp_factor = {_fmt(perturbed.exp_factor)}",
        f"# gap_nonincreasing = {_fmt(perturbed.gap_nonincreasing)}",
        "path,sup_gap_sq,gronwall_ratio",
    ]
    for j in range(perturbed.n_paths):
        rows.append(f"{j},{_fmt(perturbed.sup_gap_sq[j])},{_fmt(perturbed.gronwall_ratios[j])}")
    _write_artifact(out / "stability.csv", bundle, rows)
    if not identical.bitwise_identical:
        print("identical initial data did not reproduce bitwise-identical paths", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {out / 'stability.csv'}")
    return EXIT_OK


def _selftest() -> int:
    """Small deterministic slice of every module's property suite."""
    import math

    from .coefficients import DriftSpec, LipschitzPerturbationSpec, SuperlinearNoiseSpec
    from .domain import DomainSpec, FracOperatorParams, kernel_constant
    from .fracop import FracQuadrature, apply_A1_weak, check_scalar_monotonicity, gagliardo_seminorm
    from .harness import time_seminorm_sq
    from .hypotheses import HypothesisParams, check_gap, compute_kappa
    from .solver import SimulationSetup, SolverConfig, brownian_increments
    from .space import build_space, project

    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # a crashed check is a failed check
            print(f"FAIL {name}: {exc}")
            checks.append(False)
            return
        print(("PASS" if ok else "FAIL") + f" {name}")
        checks.append(ok)

    check("kernel constant at (1,2,0.5) equals 1/pi", lambda: abs(kernel_constant(1, 2.0, 0.5) - 1.0 / math.pi) < 1e-12)
    rng = np.random.default_rng(0)
    check(
        "kernel constant positive on the parameter box",
        lambda: all(
            kernel_constant(int(rng.integers(1, 4)), float(rng.uniform(2, 8)), float(rng.uniform(0.05, 0.95))) > 0
            for _ in range(100)
        ),
    )
    space = build_space(DomainSpec(), 16, 8)

    def projection_props():
        v = rng.standard_normal(16)
        pv = project(space, v, 4)
        idem = np.max(np.abs(project(space, pv, 4) - pv)) < 1e-12
        M = space.mass_matrix
        contract = pv @ (M @ pv) <= v @ (M @ v) + 1e-12
        return idem and contract

    check("projection idempotent and contractive", projection_props)
    check("scalar monotonicity p=4, 1e4 samples", lambda: check_scalar_monotonicity(4.0, 10_000, 1).violations == 0)

    def coercivity_identity():
        params = FracOperatorParams(s=0.5, p=3.0)
        quad = FracQuadrature()
        v = rng.standard_normal(16)
        lhs = apply_A1_weak(space, quad, v, v, params)
        rhs = -0.5 * params.c_kernel * gagliardo_seminorm(space, quad, v, params) ** 3
        return abs(lhs - rhs) < 1e-8 * abs(rhs)

    check("coercivity identity under a shared quadrature", coercivity_identity)
    hp = HypothesisParams(q=(3.0, 4.0, 2.0), theta=(1.0, 0.0, 0.0), gamma1=(1.0, 1.0, 1.0), gamma2=(0.2, 0.0, 0.0))
    check("growth indices and gap condition", lambda: np.max(compute_kappa(hp)) == 1.0 + 2.0 / 3.0 and check_gap(hp).ok)
    check(
        "noise streams are reproducible and distinct",
        lambda: np.array_equal(brownian_increments(9, 3, 8, 2, 0.125), brownian_increments(9, 3, 8, 2, 0.125))
        and not np.array_equal(brownian_increments(9, 3, 8, 2, 0.125), brownian_increments(9, 4, 8, 2, 0.125)),
    )

    def solver_fixed_point():
        params = FracOperatorParams(s=0.4, p=2.0)
        setup = SimulationSetup(
            space, params, FracQuadrature(),
            DriftSpec(q=2.0, delta=1.0), LipschitzPerturbationSpec(0.0), SuperlinearNoiseSpec(p1=2.0),
        )
        cfg = SolverConfig(T=0.25, dt=2.0**-4, n_modes=8, n_noise=1, master_seed=0)
        return np.all(simulate_path(setup, cfg, np.zeros(16)).states == 0.0)

    check("zero state is a fixed point of the scheme", solver_fixed_point)
    check(
        "time seminorm matches the closed form",
        lambda: abs(time_seminorm_sq(np.linspace(0, 1, 1000), 1.0 / 999, 0.25) - 8.0 / 15.0) < 1e-3,
    )
    failed = checks.count(False)
    print(f"{len(checks) - failed}/{len(checks)} property checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


_COMMANDS = {
    "check-hypotheses": cmd_check_hypotheses,
    "simulate": cmd_simulate,
    "moments": cmd_moments,
    "converge": cmd_converge,
    "uniqueness": cmd_uniqueness,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fracsplap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "selftest"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=FsPath, required=name != "selftest")
        sp.add_argument("--out", type=FsPath, default=FsPath("out"))
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print(f"error: --seed must lie in [0, 2**64), got {args.seed}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.command == "selftest":
        return _selftest()
    try:
        config = parse_config_file(args.config)
        bundle = build_bundle(config)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](bundle, args.out, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EnsembleDiverged as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
