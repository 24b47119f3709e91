"""Time-discretization convergence against the exponential reference.

Zero noise: the endpoint error of the explicit scheme halves with dt.
Affine multiplicative noise: the scheme couples to the refined reference on
shared Brownian increments at strong order one half.
"""

from pathlib import Path

from fracsplap import build_bundle, parse_config_file, strong_order_study

CONFIG_DIR = Path(__file__).parent.parent / "configs"

bundle = build_bundle(parse_config_file(CONFIG_DIR / "deterministic_convergence.cfg"))
rep = strong_order_study(
    bundle.setup, bundle.solver_config, bundle.x0_shape,
    bundle.config["harness.dt_ladder"], n_paths=1, ref_refine=16,
)
print("deterministic (zero-noise) endpoint errors:")
for dt, err in zip(rep.dt_ladder, rep.strong_errors):
    print(f"  dt = {dt:.6f}: error = {err:.6e}")
ratios = [a / b for a, b in zip(rep.strong_errors, rep.strong_errors[1:])]
print(f"  halving ratios: {[f'{r:.3f}' for r in ratios]}")

bundle = build_bundle(parse_config_file(CONFIG_DIR / "strong_order.cfg"))
rep = strong_order_study(
    bundle.setup, bundle.solver_config, bundle.x0_shape,
    bundle.config["harness.dt_ladder"], n_paths=100,
    ref_refine=bundle.config["harness.ref_refine"],
)
print("\nstochastic strong errors on shared Brownian increments (100 paths):")
for dt, err in zip(rep.dt_ladder, rep.strong_errors):
    print(f"  dt = {dt:.6f}: RMS endpoint error = {err:.6e}")
print(f"  fitted strong order: {rep.strong_slope:.3f}")
