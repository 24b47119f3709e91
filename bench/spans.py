"""Layer spans for the traced benchmark child.

Each public fracsplap function on the benchmark's code paths is wrapped where
its caller looks the name up: a module attribute read at call time, a name a
module bound with ``from ... import`` when it was imported, or the default
argument ``simulate=`` that ``harness.run_ensemble`` bound when it was
defined.  Nothing in the package itself is edited.

Spans are aggregated in memory per label (calls, total seconds, self
seconds); only per-path durations are kept one by one.  A span's self time is
its duration minus the time of the spans it called.  Sweeps and L^p norms
taken inside the Poincare search are labelled ``domain.poincare.*`` so that
the ``fracop``/``space`` figures count only the work done along the paths.
"""

from __future__ import annotations

import time
from collections import defaultdict
from pathlib import Path

STUDIES = ("estimate_moments", "galerkin_convergence_study", "strong_order_study", "pathwise_stability_study")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.path_ms = []
        self._stack = []  # seconds spent in child spans, one entry per open span
        self._poincare = 0

    def wrap(self, name, fn, after=None, routed=False):
        """Return ``fn`` recorded as span ``name``; ``after`` sees each result."""

        def traced(*args, **kwargs):
            label = name
            if routed and self._poincare:
                label = "domain.poincare." + name.rsplit(".", 1)[1]
            if name == "domain.poincare":
                self._poincare += 1
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                if name == "domain.poincare":
                    self._poincare -= 1
                self.calls[label] += 1
                self.total_s[label] += elapsed
                self.self_s[label] += elapsed - children
            if after is not None:
                after(self, args, result, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "path_ms": self.path_ms,
        }


def _path_done(tracer, args, path, elapsed):
    steps = path.diverged_at if path.diverged_at is not None else len(path.times) - 1
    tracer.counts["solver.path_steps"] += steps
    tracer.counts["solver.paths_diverged"] += path.diverged_at is not None
    tracer.path_ms.append(elapsed * 1e3)


def _plan_built(tracer, args, plan, elapsed):
    # every plan of one space has the same point layout; a sweep reads these arrays once
    arrays = (plan.elx, plan.lx, plan.ely, plan.ly, plan.w, plan.elt, plan.lt, plan.wt)
    tracer.counts["fracop.plan_points"] = int(plan.w.size + plan.wt.size)
    tracer.counts["fracop.sweep_bytes"] = int(sum(a.nbytes for a in arrays))


def _artifact_written(tracer, args, result, elapsed):
    tracer.counts["cli.artifact_bytes"] += Path(args[0]).stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap every lookup site the CLI code paths use; call before build_bundle."""
    from fracsplap import cli, domain, fracop, harness, hypotheses, solver, space

    def patch(module, attr, name, **kw):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), **kw))

    # module-global lookups inside fracop, and the ``fracop.`` lookups of domain.poincare_constant
    patch(fracop, "get_plan", "fracop.plan", after=_plan_built)
    patch(fracop, "assemble_frac_stiffness", "fracop.stiffness")
    patch(fracop, "seminorm_p_with_residual", "fracop.sweep", routed=True)
    patch(fracop, "seminorm_p", "fracop.sweep", routed=True)
    # imported at call time by poincare_constant and Bundle.admissibility
    patch(space, "lp_norm", "space.lp_norm", routed=True)
    patch(domain, "poincare_constant", "domain.poincare")
    patch(hypotheses, "admissibility_report", "hypotheses.report")
    # names solver bound at import
    patch(solver, "get_plan", "fracop.plan", after=_plan_built)
    patch(solver, "assemble_frac_stiffness", "fracop.stiffness")
    patch(solver, "seminorm_p_with_residual", "fracop.sweep", routed=True)
    patch(solver, "eval_B", "coefficients.eval_B")
    patch(solver, "lp_norm", "space.lp_norm", routed=True)
    patch(solver, "brownian_increments", "solver.brownian")
    # names harness bound at import, plus run_ensemble's simulate= default
    original_simulate = harness.simulate_path
    patch(harness, "simulate_path", "solver.path", after=_path_done)
    patch(harness, "reference_solution_p2_linear", "solver.reference", after=_path_done)
    patch(harness, "brownian_increments", "solver.brownian")
    harness.run_ensemble.__defaults__ = tuple(
        harness.simulate_path if d is original_simulate else d for d in harness.run_ensemble.__defaults__
    )
    # names cli bound at import
    for study in STUDIES:
        patch(cli, study, "harness.study")
    patch(cli, "simulate_path", "solver.path", after=_path_done)
    patch(cli, "_write_artifact", "cli.write", after=_artifact_written)
