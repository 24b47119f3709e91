"""fracsplap benchmark: three Monte Carlo workloads through the CLI code paths.

Usage, from the root of a checkout (see bench/README.md)::

    python3 bench/run.py --workload moments_p2 --seed 5 --seconds 40 --trace 0
    python3 bench/run.py --suite 3 --seed 5          # all workloads, round-robin
    python3 bench/run.py --record-reference 0,1,2    # rewrite bench/reference.json
    python3 bench/run.py --workload moments_p2 --record-reference 0,1   # one entry only

Every sample is a fresh child process (``bench/child.py``) that imports the
package from ``src/``, builds the bundle from a generated config and calls the
public ``cli.cmd_<subcommand>``.  Untraced runs report the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced children
and reports the per-layer metrics.  Every sample's outputs are checked; the
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
CHILD_TIMEOUT_S = 120

# name -> (subcommand, shipped config, overrides, artifact)
WORKLOADS = {
    "moments_p2": ("moments", "configs/moments.cfg", {}, "moments.csv"),
    "stability_p3": ("uniqueness", "configs/theorem1_ok.cfg", {"harness.n_paths": "16"}, "stability.csv"),
    "strong_order_p2": ("converge", "configs/strong_order.cfg", {"harness.n_paths": "50"}, "convergence.csv"),
}

# Relative tolerance of every computed floating-point field of the artifacts;
# any field not named here is compared as exact text.  1e-9 admits the
# rounding-level changes of a reordered reduction or a batched matvec (about
# 1e-15 per operation, under 1e-12 after 1,024 steps and a 4th power) and
# rejects a changed noise stream (Monte Carlo shifts of order 1e-2) or a wrong
# operator (1e-3 and more).
RTOL = dict.fromkeys(
    (
        "p_max", "sup_moment", "energy_moment", "cross_moment", "std_err", "affinity_ratio",
        "initial_gap_sq", "exp_factor", "sup_gap_sq", "gronwall_ratio",
        "gap", "slope", "strong_order_slope",
    ),
    1e-9,
)
# exact fields whose value may depend on the seed; compared only at a seed with a reference
SEED_DEPENDENT = {"affinity_flags", "gap_nonincreasing"}
# Strong-order slope: acceptance test a08 asserts [0.4, 0.6] at the shipped seed.
# At a seed the reference holds, compare_fields pins the slope to 1e-9.  At any
# other seed the 50-path slope is a heavy-tailed Monte Carlo estimate: over
# seeds 0-99 it had mean 0.50 and standard deviation 0.17 (-0.08 to 0.84), so
# the window there is order 1/2 plus or minus four standard deviations, which
# rejects only a gross error.
STRONG_SLOPE_WINDOW = (0.4, 0.6)
STRONG_SLOPE_WINDOW_ANY_SEED = (-0.2, 1.2)


def read_config(text: str) -> dict:
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def generated_config(workload: str) -> str:
    """The shipped config with the workload's overrides applied."""
    _, shipped, overrides, _ = WORKLOADS[workload]
    lines = (ROOT / shipped).read_text(encoding="utf-8").splitlines()
    for key, value in overrides.items():
        hits = [i for i, line in enumerate(lines) if line.partition("=")[0].strip() == key]
        if hits:
            lines[hits[0]] = f"{key} = {value}"
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def default_seed(workload: str) -> int:
    return int(read_config(generated_config(workload))["solver.master_seed"])


def expected_work(workload: str, cfg: dict) -> dict:
    """Closed-form path, step, sweep and L^p-norm counts of one CLI run."""
    command = WORKLOADS[workload][0]
    n = int(cfg["harness.n_paths"])
    T, dt = float(cfg["solver.T"]), float(cfg["solver.dt"])
    K = round(T / dt)
    if command == "moments":
        paths = n * len(cfg["harness.x_scales"].split(","))
        steps = paths * K
    elif command == "uniqueness":  # identical pairs (at most 16) plus perturbed pairs
        paths = 2 * (min(n, 16) + n)
        steps = paths * K
    else:  # converge, dt ladder only: one fine reference plus one EM path per rung
        if cfg.get("harness.mode_ladder"):
            raise ValueError("the converge workload runs the dt ladder only")
        dts = [float(d) for d in cfg["harness.dt_ladder"].split(",")]
        fine = min(dts) / int(cfg["harness.ref_refine"])
        paths = n * (1 + len(dts))
        steps = n * (round(T / fine) + sum(round(T / d) for d in dts))
    # p != 2: one sweep per step for the drift and one per recorded state for the seminorm
    sweeps = 0 if float(cfg["operator.p"]) == 2.0 else 2 * steps + paths
    return {"paths": paths, "path_steps": steps, "sweeps": sweeps, "lp_norm_calls": steps + paths}


# ---------------------------------------------------------------- checks


def artifact_fields(text: str) -> dict:
    """Body of an artifact: '# key = value' lines, and CSV cells as 'row<i>.<column>'."""
    fields, columns, row = {}, None, 0
    for line in text.splitlines():
        if line.startswith(("# config:", "# fracsplap ", "# numpy ")):
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            fields[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            for column, value in zip(columns, line.split(",")):
                fields[f"row{row}.{column}"] = value
            row += 1
    return fields


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def compare_fields(got: dict, want: dict, same_seed: bool) -> list:
    """Differences from a reference artifact; at another seed only the seed-free fields."""
    if list(got) != list(want):
        return [f"artifact fields {sorted(set(got) ^ set(want))} differ from the reference"]
    bad = []
    for key, ref in want.items():
        field, value = key.split(".", 1)[-1], got[key]
        if field in RTOL:
            a = float(value)
            ok = _close(a, float(ref), RTOL[field]) if same_seed else (math.isfinite(a) or math.isnan(float(ref)))
        else:
            ok = value == ref or (not same_seed and field in SEED_DEPENDENT)
        if not ok:
            bad.append(f"{key} = {value}, reference {ref}")
    return bad


def witness(workload: str, fields: dict, at_default_seed: bool, recorded: bool = False) -> list:
    """The study's own pass condition; ``recorded``: the reference holds this seed."""
    if workload == "moments_p2":
        return [] if fields.get("diverged") == "0" else [f"diverged = {fields.get('diverged')}"]
    if workload == "stability_p3":
        ok = fields.get("identical_data_bitwise") == "true"
        return [] if ok else ["identical initial data did not give bitwise-identical paths"]
    slope = float(fields.get("strong_order_slope", "nan"))
    if recorded and not at_default_seed:
        return []  # compare_fields checks the slope against the reference
    lo, hi = STRONG_SLOPE_WINDOW if at_default_seed else STRONG_SLOPE_WINDOW_ANY_SEED
    return [] if lo <= slope <= hi else [f"strong order slope {slope} outside [{lo}, {hi}]"]


def compare_probe(got: dict, want: dict) -> list:
    bad = []
    for key in ("final_state", "l2_norms"):
        a, b = got[key], want[key]
        atol = 1e-12 * max(abs(x) for x in b)
        if len(a) != len(b) or not all(_close(x, y, 1e-9, atol) for x, y in zip(a, b)):
            bad.append(f"probe path {key} differs from the reference")
    return bad


def count_check(trace: dict, want: dict) -> list:
    """Traced counts must equal the closed form; a missed binding under-counts."""
    calls, counts = Counter(trace["calls"]), Counter(trace["counts"])
    got = {
        "paths": calls["solver.path"] + calls["solver.reference"],
        "path_steps": counts["solver.path_steps"],
        "eval_B calls": calls["coefficients.eval_B"],
        "sweeps": calls["fracop.sweep"],
        "lp_norm_calls": calls["space.lp_norm"],
    }
    want = dict(want, **{"eval_B calls": want["path_steps"]})
    return [f"traced {k} = {got[k]}, closed form {want[k]}" for k in got if got[k] != want[k]]


# ---------------------------------------------------------------- samples


def run_child(workload, cfg_path, seed, trace, work, reference, expected, setup_only=False) -> dict:
    """One fresh process through the CLI code path; returns the timed, checked sample."""
    command, _, _, artifact = WORKLOADS[workload]
    n = len(list(work.glob("r*.json")))
    out, result_path, log = work / f"out{n}", work / f"r{n}.json", work / f"log{n}.txt"
    ref = reference.get(workload) if reference else None
    probe_seed = ref["probe"]["seed"] if ref else seed
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--command", command, "--config", str(cfg_path),
        "--seed", str(seed), "--probe-seed", str(probe_seed), "--out", str(out),
        "--src", str(ROOT / "src"), "--result", str(result_path), "--trace", str(trace),
    ] + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    with open(log, "wb") as logf:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=logf, stderr=subprocess.STDOUT)
        try:
            exit_code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            exit_code = None
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    sample = {
        "workload": workload, "seed": seed, "trace": trace, "setup_only": setup_only,
        "exit_code": exit_code, "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
    }
    failures = []
    child = json.loads(result_path.read_text()) if result_path.exists() else {"error": "no result"}
    if exit_code != 0 or "error" in child:
        failures.append(f"child exit {exit_code}: {child.get('error', '')}".strip())
        failures.append(log.read_text(errors="replace")[-2000:])
    elif setup_only:
        sample.update(child)
    else:
        sample.update({k: v for k, v in child.items() if k != "probe"})
        fields = artifact_fields((out / artifact).read_text(encoding="utf-8"))
        sample["fields"] = fields
        if child["rc"] != 0:
            failures.append(f"cmd_{command} returned {child['rc']}")
        same_seed = ref is not None and str(seed) in ref["artifacts"]
        failures += witness(workload, fields, seed == default_seed(workload), same_seed)
        if ref is not None:
            want = ref["artifacts"][str(seed if same_seed else ref["default_seed"])]
            failures += compare_fields(fields, want, same_seed)
            failures += compare_probe(child["probe"], ref["probe"])
        if child["spans"] is not None:
            failures += count_check(child["spans"], expected)
        sample["probe"] = child["probe"]
    sample["failures"] = failures
    shutil.rmtree(out, ignore_errors=True)
    return sample


# ---------------------------------------------------------------- metrics


def high_percentile(values):
    """Highest of the usual percentiles with at least ten samples beyond it, or None."""
    values = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]
    return None


def end_to_end(samples, expected) -> dict:
    """Per-sample values of each end-to-end metric; set-up time also from set-up-only children."""
    ok = [s for s in samples if "cmd_s" in s]
    return {
        "wall_s": [s["wall_s"] for s in ok],
        "setup_s": [s["setup_s"] for s in samples if "setup_s" in s],
        "path_steps_per_s": [expected["path_steps"] / s["cmd_s"] for s in ok],
        "cpu_s": [s["cpu_s"] for s in ok],
        "peak_rss_mb": [s["maxrss_kb"] / 1024.0 for s in ok],
    }


def per_layer(sample: dict) -> dict:
    """Layer figures of one traced child."""
    t = sample["spans"]
    calls, total, self_s, counts = (Counter(t[k]) for k in ("calls", "total_s", "self_s", "counts"))
    steps, sweeps = counts["solver.path_steps"], calls["fracop.sweep"]
    solver_self = self_s["solver.path"] + self_s["solver.reference"]
    path_ms = t["path_ms"] or [0.0]
    high = high_percentile(path_ms) or (100.0, max(path_ms))
    return {
        "solver.self_s": solver_self,
        "solver.step_us": 1e6 * solver_self / steps if steps else 0.0,
        "solver.paths": calls["solver.path"] + calls["solver.reference"],
        "solver.path_steps": steps,
        "solver.paths_diverged": counts["solver.paths_diverged"],
        "solver.brownian_s": total["solver.brownian"],
        "solver.reference_s": total["solver.reference"],
        "solver.path_ms.p50": statistics.median(path_ms),
        "solver.path_ms.high": high[1],
        "solver.path_ms.high_pct": high[0],
        "coefficients.eval_B.calls": calls["coefficients.eval_B"],
        "coefficients.eval_B_s": total["coefficients.eval_B"],
        "space.lp_norm.calls": calls["space.lp_norm"],
        "space.lp_norm_s": total["space.lp_norm"],
        "fracop.sweeps": sweeps,
        "fracop.sweep_s": total["fracop.sweep"],
        "fracop.sweep_us": 1e6 * total["fracop.sweep"] / sweeps if sweeps else 0.0,
        "fracop.plan_points": counts["fracop.plan_points"],
        "fracop.sweep_bytes": counts["fracop.sweep_bytes"],
        "fracop.plan_s": total["fracop.plan"],
        "fracop.stiffness_s": self_s["fracop.stiffness"],
        "domain.poincare_s": total["domain.poincare"],
        "domain.poincare.sweeps": calls["domain.poincare.sweep"],
        "hypotheses.admissibility_s": sample["admissibility_s"] - total["domain.poincare"],
        "harness.study_s": total["harness.study"],
        "harness.self_s": self_s["harness.study"],
        "cli.import_s": sample["import_s"],
        "config.build_bundle_s": sample["build_bundle_s"],
        "cli.write_s": total["cli.write"],
        "cli.artifact_bytes": counts["cli.artifact_bytes"],
    }


COUNT_METRICS = (
    "solver.paths", "solver.path_steps", "solver.paths_diverged", "coefficients.eval_B.calls",
    "space.lp_norm.calls", "fracop.sweeps", "fracop.plan_points", "fracop.sweep_bytes",
    "domain.poincare.sweeps", "cli.artifact_bytes",
)


def layer_metrics(samples) -> tuple:
    """Median over the traced children, with counts required to repeat exactly."""
    traced = [per_layer(s) for s in samples if s["trace"] and "cmd_s" in s]
    untraced = [s["wall_s"] for s in samples if not s["trace"] and "cmd_s" in s]
    walls = [s["wall_s"] for s in samples if s["trace"] and "cmd_s" in s]
    if not traced or not untraced:
        return {}, ["no complete traced and untraced pair"]
    problems = [f"{k} did not repeat: {[t[k] for t in traced]}" for k in COUNT_METRICS if len({t[k] for t in traced}) > 1]
    metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced)
    return metrics, problems


# ---------------------------------------------------------------- environment


def _openblas_threads():
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.split()[-1]}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if Path("/proc/cpuinfo").exists():
        cpu = next((l.split(":", 1)[1].strip() for l in Path("/proc/cpuinfo").read_text().splitlines()
                    if l.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('openblas configuration', blas.get('version'))}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


# ---------------------------------------------------------------- entry points


def _print_summary(name, values, unit):
    n = len(values)
    high = high_percentile(values)
    tail = f"p{high[0]:g} {high[1]:.6g}" if high else "no percentile has 10 samples beyond it"
    print(f"  {name:<18} median {statistics.median(values):.6g} {unit}  ({tail}; n = {n})")


def _prepare(workload, work) -> tuple:
    text = generated_config(workload)
    cfg_path = work / f"{workload}.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    return cfg_path, expected_work(workload, read_config(text))


def _save(kind, payload) -> Path:
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{kind}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return path


def measure(args, spec, reference, work) -> int:
    """One benchmark run: repeat the workload's child until --seconds is spent."""
    cfg_path, expected = _prepare(args.workload, work)
    samples, longest = [], 0.0
    start = time.perf_counter()
    # timed children (untraced, or untraced + traced pairs): at least two, then
    # only while another one fits before the deadline
    while True:
        t0 = time.perf_counter()
        for trace in (0, 1) if args.trace else (0,):
            samples.append(run_child(args.workload, cfg_path, args.seed, trace, work, reference, expected))
        longest = max(longest, time.perf_counter() - t0)
        if len(samples) >= 2 and time.perf_counter() - start + longest > args.seconds:
            break
    # the rest of an untraced run sets up again and again, so setup_s is a median of many
    last = 0.0
    while not args.trace and time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        samples.append(run_child(args.workload, cfg_path, args.seed, 0, work, reference, expected, setup_only=True))
        last = time.perf_counter() - t0
    failed = sum(1 for s in samples if s["failures"])
    problems = [f for s in samples for f in s["failures"]]
    e2e = end_to_end([s for s in samples if not s["trace"]], expected)
    if not e2e["wall_s"]:
        print("\n".join(problems), file=sys.stderr)
        return 1
    n_setup = sum(1 for s in samples if s["setup_only"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"children {len(samples)} ({n_setup} set-up only)")
    print(f"  expected work: {expected}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, values in e2e.items():
        _print_summary(name, values, units[name])
    print(f"  runs_failed        {failed} of {len(samples)} attempted")
    if args.trace:
        values, trace_problems = layer_metrics(samples)
        problems += trace_problems
        if not values:
            print("\n".join(problems), file=sys.stderr)
            return 1
        values["runs_failed"] = failed
        for name, value in values.items():
            print(f"  {name:<28} {value:.6g} {units[name]}")
        chosen = spec["per_layer"]
    else:
        values = {name: statistics.median(v) for name, v in e2e.items()}
        chosen = spec["end_to_end"]
    env = environment()
    print("  environment: " + json.dumps(env))
    for problem in problems:
        print("  FAILED CHECK: " + problem.replace("\n", "\n    "))
    correct = not problems
    saved = _save(f"{args.workload}-seed{args.seed}-trace{args.trace}", {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "expected": expected, "samples": samples, "metrics": values, "correct": correct,
    })
    print(f"  raw samples: {saved.relative_to(ROOT)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


def suite(args, spec, reference, work) -> int:
    """Every workload once per round, round-robin, so drift in machine speed hits all alike."""
    prepared = {w: _prepare(w, work) for w in WORKLOADS}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    samples = []
    for _ in range(args.suite):
        for workload, (cfg_path, expected) in prepared.items():
            seed = args.seed if args.seed is not None else default_seed(workload)
            samples.append(run_child(workload, cfg_path, seed, 0, work, reference, expected))
    summary = {}
    for workload, (_, expected) in prepared.items():
        mine = [s for s in samples if s["workload"] == workload]
        e2e = end_to_end(mine, expected)
        failed = sum(1 for s in mine if s["failures"])
        print(f"workload {workload}  rounds {args.suite}")
        for name, values in e2e.items():
            _print_summary(name, values, units[name])
        print(f"  runs_failed        {failed} of {len(mine)} attempted")
        summary[workload] = {name: statistics.median(v) for name, v in e2e.items() if v}
        summary[workload]["runs_failed"] = failed
    saved = _save("suite", {"environment": environment(), "samples": samples, "summary": summary})
    print(f"raw samples: {saved.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


def record_reference(seeds, work, only=None) -> int:
    """Rewrite bench/reference.json from the current code (default seed plus ``seeds``).

    With ``only`` set, that workload's entry is rewritten and the others are kept.
    """
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if only and REFERENCE.is_file() else {}
    for workload in [only] if only else WORKLOADS:
        cfg_path, expected = _prepare(workload, work)
        default = default_seed(workload)
        entry = {"default_seed": default, "probe": None, "artifacts": {}}
        for seed in [default] + [s for s in seeds if s != default]:
            sample = run_child(workload, cfg_path, seed, 0, work, None, expected)
            if sample["failures"]:
                print("\n".join(sample["failures"]), file=sys.stderr)
                return 1
            entry["artifacts"][str(seed)] = sample["fields"]
            if seed == default:
                entry["probe"] = sample["probe"]
            print(f"{workload} seed {seed}: {sample['wall_s']:.2f} s")
        reference[workload] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="default: the shipped config's master seed")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite", type=int, metavar="ROUNDS", help="run every workload ROUNDS times, round-robin")
    ap.add_argument("--record-reference", metavar="SEEDS", help="comma-separated extra seeds")
    args = ap.parse_args(argv)
    missing = [p for p in ["BENCHMARK.json", "src/fracsplap/cli.py"] + [w[1] for w in WORKLOADS.values()]
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a fracsplap checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else None
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference is not None:
            seeds = [int(s) for s in args.record_reference.split(",") if s]
            return record_reference(seeds, work, args.workload)
        if reference is None:
            print(f"error: missing {REFERENCE.relative_to(ROOT)}", file=sys.stderr)
            return 2
        if args.suite:
            return suite(args, spec, reference, work)
        if args.workload is None:
            ap.error("--workload, --suite or --record-reference is required")
        if args.seed is None:
            args.seed = default_seed(args.workload)
        return measure(args, spec, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
