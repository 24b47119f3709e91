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

from . import __version__
from .config import Bundle, ConfigError, ExperimentConfig, build_bundle, fmt, parse_config_file
from .harness import (
    MOMENT_PATHS,
    EnsembleDiverged,
    estimate_moments,
    galerkin_convergence_study,
    pathwise_stability_study,
    require_ensemble_fits,
    require_paths,
    strong_order_study,
)
from .solver import simulate_path

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _header_lines(bundle: Bundle):
    lines = [f"# fracsplap {__version__}", f"# numpy {np.__version__}"]
    lines += [f"# config: {line}" for line in bundle.config.resolved_lines()]
    return lines


def _write_artifact(path: FsPath, bundle: Bundle, body_lines) -> None:
    text = "\n".join(_header_lines(bundle) + list(body_lines)) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)  # made by the first artifact, so an exit 2 leaves no directory
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
    report = bundle.admissibility()
    # admissibility uses the full series sums; the simulation truncates the
    # noise, so the neglected tail mass is reported alongside
    noise, n_noise = bundle.setup.noise, bundle.solver_config.n_noise
    beta_tail, gamma_tail = fmt(noise.beta_tail(n_noise)), fmt(noise.gamma_tail(n_noise))
    tail_txt = [f"  noise truncation: {n_noise} directions retained, beta tail {beta_tail}, gamma tail {gamma_tail}"]
    tail_kv = [
        f"noise_truncation.n_noise = {n_noise}",
        f"noise_truncation.beta_tail = {beta_tail}",
        f"noise_truncation.gamma_tail = {gamma_tail}",
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
    if path.diverged_at is not None:
        print(f"path diverged at step {path.diverged_at}", file=sys.stderr)
        return EXIT_NUMERICAL
    series = zip(path.times, path.l2_norms, path.v1_seminorms, path.lq_norms)
    rows = ["time,l2_norm,gagliardo_seminorm,lq_norm"] + [",".join(map(fmt, row)) for row in series]
    _write_artifact(out / "path.csv", bundle, rows)
    print(f"wrote {out / 'path.csv'} ({cfg.n_steps} steps)")
    return EXIT_OK


def cmd_moments(bundle: Bundle, out: FsPath, args) -> int:
    bundle = _seeded(bundle, args.seed)
    config = bundle.config
    require_paths(config["harness.n_paths"], MOMENT_PATHS)
    require_ensemble_fits(config["harness.n_paths"], len(config["harness.p_values"]))
    report = bundle.admissibility()
    cfg = bundle.solver_config
    p_max = report.p_max
    admissible = tuple(p for p in config["harness.p_values"] if p < p_max)
    dropped = tuple(p for p in config["harness.p_values"] if p >= p_max)
    if not admissible:
        raise ConfigError(f"no requested moment exponent lies in the admissible range [1, {p_max})")
    if dropped:
        print(
            f"note: dropping moment exponents {list(dropped)} at or above the "
            f"admissible supremum p_max = {p_max}",
            file=sys.stderr,
        )
    rep = estimate_moments(
        bundle.setup, cfg, bundle.x0_shape, x_scales=config["harness.x_scales"], p_values=admissible,
        n_paths=config["harness.n_paths"], p_max=p_max,
    )
    rows = [
        f"# p_max = {fmt(p_max)}",
        f"# n_paths = {rep.n_paths}",
        "# diverged = 0",  # any diverged path has raised; bench/run.py reads this line
        f"# affinity_flags = {','.join(fmt(f) for f in rep.affinity_flags)}",
        "p,x_scale,sup_moment,energy_moment,cross_moment,std_err,affinity_ratio",
    ]
    ratios = rep.affinity_ratios
    for pi, p in enumerate(rep.p_values):
        for si, scale in enumerate(rep.x_scales):
            row = (p, scale, *rep.moments[:, pi, si], rep.std_errors[0, pi, si], ratios[pi, si])
            rows.append(",".join(fmt(v) for v in row))
    _write_artifact(out / "moments.csv", bundle, rows)
    print(f"wrote {out / 'moments.csv'}")
    return EXIT_OK


def cmd_converge(bundle: Bundle, out: FsPath, args) -> int:
    bundle = _seeded(bundle, args.seed)
    cfg = bundle.solver_config
    config = bundle.config
    x0 = config["solver.x0_scale"] * bundle.x0_shape
    n_paths = config["harness.n_paths"]
    if not (config["harness.mode_ladder"] or config["harness.dt_ladder"]):
        raise ConfigError("converge needs harness.mode_ladder or harness.dt_ladder")
    rows = ["rung,gap,slope"]
    if config["harness.mode_ladder"]:
        rep = galerkin_convergence_study(bundle.setup, cfg, x0, config["harness.mode_ladder"], n_paths)
        for a, b, gap, order in zip(rep.mode_ladder, rep.mode_ladder[1:], rep.pairwise_gaps, rep.gap_orders):
            rows.append(f"{a}->{b},{fmt(gap)},{fmt(order)}")
        rows.insert(1, f"# gaps_monotone = {fmt(rep.gaps_monotone)}")
    if config["harness.dt_ladder"]:
        rep = strong_order_study(
            bundle.setup, cfg, x0, config["harness.dt_ladder"], n_paths, ref_refine=config["harness.ref_refine"]
        )
        rows.append(f"# strong_order_slope = {fmt(rep.strong_slope)}")
        for dt, err, order in zip(rep.dt_ladder, rep.strong_errors, rep.strong_orders):
            rows.append(f"dt={fmt(dt)},{fmt(err)},{fmt(order)}")
    _write_artifact(out / "convergence.csv", bundle, rows)
    print(f"wrote {out / 'convergence.csv'}")
    return EXIT_OK


def cmd_uniqueness(bundle: Bundle, out: FsPath, args) -> int:
    bundle = _seeded(bundle, args.seed)
    g_l1 = bundle.admissibility().params.g_l1_norm
    cfg = bundle.solver_config
    config = bundle.config
    x0 = config["solver.x0_scale"] * bundle.x0_shape
    n_paths = config["harness.n_paths"]
    identical = pathwise_stability_study(bundle.setup, cfg, x0, x0.copy(), min(n_paths, 16), g_l1_norm=g_l1)
    eps = config["harness.stability_epsilon"]
    perturbed = pathwise_stability_study(bundle.setup, cfg, x0, x0 + eps * bundle.x0_shape, n_paths, g_l1_norm=g_l1)
    rows = [
        f"# identical_data_bitwise = {fmt(identical.bitwise_identical)}",
        f"# epsilon = {fmt(eps)}",
        f"# initial_gap_sq = {fmt(perturbed.initial_gap_sq)}",
        f"# exp_factor = {fmt(perturbed.exp_factor)}",
        f"# gap_nonincreasing = {fmt(perturbed.gap_nonincreasing)}",
        "path,sup_gap_sq,gronwall_ratio",
    ]
    for j, (gap, ratio) in enumerate(zip(perturbed.sup_gap_sq, perturbed.gronwall_ratios)):
        rows.append(f"{j},{fmt(gap)},{fmt(ratio)}")
    _write_artifact(out / "stability.csv", bundle, rows)
    if not identical.bitwise_identical:
        print("identical initial data did not reproduce bitwise-identical paths", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {out / 'stability.csv'}")
    return EXIT_OK


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
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=FsPath, required=True)
        sp.add_argument("--out", type=FsPath, default=FsPath("out"))
        sp.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print(f"error: --seed must lie in [0, 2**64), got {args.seed}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out.exists() and not args.out.is_dir():
        print(f"error: --out {args.out} is not a directory", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        config = parse_config_file(args.config)
        bundle = build_bundle(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](bundle, args.out, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EnsembleDiverged as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
