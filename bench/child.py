"""One benchmark sample: the fracsplap CLI code path for one workload, timed.

Run by ``bench/run.py`` in a fresh process with ``PYTHONPATH`` set to the
checkout's ``src``.  The phases are timed in the order a CLI run takes them:
``import fracsplap``; ``parse_config_file`` + ``build_bundle``;
``Bundle.admissibility()`` for the subcommands that call it; the public
``cli.cmd_<subcommand>`` on the output directory.  With ``--setup-only`` it
stops after the admissibility phase.  After the timed part a full child
integrates one probe path (path 0 at the workload's reference seed) for the
output check.  The figures go as JSON to ``--result``.  With ``--trace 1`` the
layer spans of ``spans.py`` are installed after the import.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import time
import traceback
from pathlib import Path

from spans import Tracer, install

ADMISSIBILITY_COMMANDS = ("moments", "uniqueness")


def _probe(bundle, seed: int) -> dict:
    from fracsplap.solver import simulate_path

    cfg = dataclasses.replace(bundle.solver_config, master_seed=seed)
    x0 = bundle.config["solver.x0_scale"] * bundle.x0_shape
    path = simulate_path(bundle.setup, cfg, x0, path_index=0)
    return {"seed": seed, "final_state": path.states[-1].tolist(), "l2_norms": path.l2_norms.tolist()}


def run(args) -> dict:
    tracer = Tracer() if args.trace else None
    t0 = time.perf_counter()
    import fracsplap
    from fracsplap import cli
    from fracsplap.config import build_bundle, parse_config_file

    t1 = time.perf_counter()
    src = Path(args.src).resolve()
    if src not in Path(fracsplap.__file__).resolve().parents:
        raise RuntimeError(f"imported fracsplap from {fracsplap.__file__}, not from {src}")
    if tracer is not None:
        install(tracer)
    t1b = time.perf_counter()
    bundle = build_bundle(parse_config_file(args.config))
    t2 = time.perf_counter()
    if args.command in ADMISSIBILITY_COMMANDS:
        bundle.admissibility()
    t3 = time.perf_counter()
    setup = {"import_s": t1 - t0, "build_bundle_s": t2 - t1b, "admissibility_s": t3 - t2, "setup_s": (t1 - t0) + (t3 - t1b)}
    if args.setup_only:
        return setup
    args.out.mkdir(parents=True, exist_ok=True)
    cli_args = argparse.Namespace(
        command=args.command, config=args.config, out=args.out, threads=1, seed=args.seed,
    )
    rc = getattr(cli, "cmd_" + args.command)(bundle, args.out, cli_args)
    t4 = time.perf_counter()
    result = {
        **setup,
        "rc": rc,
        "cmd_s": t4 - t3,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.summary() if tracer is not None else None,
    }
    result["probe"] = _probe(bundle, args.probe_seed)  # after the trace summary, so it is not counted
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--command", required=True, choices=("moments", "uniqueness", "converge"))
    ap.add_argument("--config", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--probe-seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after the admissibility phase")
    args = ap.parse_args()
    try:
        result = run(args)
    except Exception:  # reported to the parent, which counts the sample as failed
        result = {"error": traceback.format_exc()}
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    raise SystemExit(main())
