"""Galerkin stabilization: ladder gaps shrink as the mode count doubles.

Every rung of the ladder consumes the same per-path Brownian increments, so
the pairwise L2(0,T;H) gaps isolate the effect of the truncated span.  The
initial bump is resolved at the coarsest rung and the noise is
state-proportional, so the mass reaching the newly activated modes decays
with the rung.
"""

from pathlib import Path

from fracsplap import build_bundle, galerkin_convergence_study, parse_config_file

bundle = build_bundle(parse_config_file(Path(__file__).parent.parent / "configs" / "galerkin_ladder.cfg"))
rep = galerkin_convergence_study(
    bundle.setup, bundle.solver_config, bundle.x0_shape,
    bundle.config["harness.mode_ladder"], n_paths=bundle.config["harness.n_paths"],
)
print(f"mode ladder {rep.mode_ladder}, {rep.n_paths} paths, shared noise per path")
for (a, b), gap in zip(zip(rep.mode_ladder, rep.mode_ladder[1:]), rep.pairwise_gaps):
    print(f"  ||Z_{b} - Z_{a}||_(L2 in time and space, RMS over paths) = {gap:.6e}")
print(f"gaps strictly decreasing: {rep.gaps_monotone}")
