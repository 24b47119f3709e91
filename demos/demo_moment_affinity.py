"""Moment bounds as an affinity statement in the initial data.

The provable estimate bounds the sup-norm, energy and cross moments by a
constant multiple of 1 + ||x||^{2p}.  The constant is not available
numerically, so the empirical witness is that the ratio of each moment to
1 + ||x||^{2p} stays within a fixed factor across initial-data scales.
"""

from pathlib import Path

from fracsplap import build_bundle, estimate_moments, parse_config_file
from fracsplap.harness import AFFINITY_FACTOR

bundle = build_bundle(parse_config_file(Path(__file__).parent.parent / "configs" / "moments.cfg"))
report = bundle.admissibility()
print(f"setting: {report.setting}, admissible: {report.ok}, moment exponents in [1, {report.p_max:.3f})")

rep = estimate_moments(
    bundle.setup, bundle.solver_config, bundle.x0_shape,
    x_scales=(0.0, 1.0, 2.0, 4.0), p_values=(1.0,), n_paths=200,
    p_max=report.p_max,
)
print(f"\nn_paths = {rep.n_paths} per scale, p = 1")
print("  scale   E sup||Z||^2   (stderr)     E energy     (stderr)     E cross      affinity ratio")
for si, scale in enumerate(rep.x_scales):
    print(
        f"  {scale:4.1f}   {rep.sup_moments[0, si]:10.4f}   ({rep.sup_std_errors[0, si]:.4f})   "
        f"{rep.energy_moments[0, si]:10.4f}   ({rep.energy_std_errors[0, si]:.4f})   "
        f"{rep.cross_moments[0, si]:10.4f}   {rep.affinity_ratios[0, si]:.4f}"
    )
ratios = rep.affinity_ratios[0]
print(f"\nratio spread = {ratios.max() / ratios.min():.2f} (flag at {AFFINITY_FACTOR}x: {rep.affinity_flags[0]})")
