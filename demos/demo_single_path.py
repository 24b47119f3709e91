"""One trajectory of the projected dynamics, step by step.

The drift-tamed explicit scheme records the L2 norm, the Gagliardo seminorm
and the L^q norm along the path; the stopping functional accumulates the
trapezoidal energy on top of the current norm.  Rerunning with the same seed
and path index reproduces the states bitwise.
"""

import numpy as np

from fracsplap import build_bundle, parse_config_file, simulate_path, stopping_functional
from pathlib import Path

bundle = build_bundle(parse_config_file(Path(__file__).parent.parent / "configs" / "theorem2_ok.cfg"))
cfg = bundle.solver_config
path = simulate_path(bundle.setup, cfg, bundle.x0_shape, path_index=0)

print(f"horizon T = {cfg.T}, dt = {cfg.dt}, modes = {cfg.n_modes}, noise directions = {cfg.n_noise}")
print("\n  t        ||Z||_L2    [Z]_{W^{s,p}}   ||Z||_Lq    stopping functional")
for i in range(0, cfg.n_steps + 1, 8):
    print(
        f"  {path.times[i]:.4f}   {path.l2_norms[i]:.6f}    {path.v1_seminorms[i]:.6f}     "
        f"{path.lq_norms[i]:.6f}    {stopping_functional(path, i):.6f}"
    )
print(f"\ndiverged_at = {path.diverged_at}")

again = simulate_path(bundle.setup, cfg, bundle.x0_shape, path_index=0)
print(f"reproducible: states bitwise identical on rerun = {np.array_equal(path.states, again.states)}")
other = simulate_path(bundle.setup, cfg, bundle.x0_shape, path_index=1)
print(f"independent:  path_index 1 differs               = {not np.array_equal(path.states, other.states)}")
