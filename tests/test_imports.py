"""Which heavy scipy subpackages a run loads: none, on import, on a p = 2 run or
on a p != 2 run; and that a CLI run, artifact header included, loads no scipy module at all.

Each case runs in a fresh interpreter, and the tests assert on module names
only, never on timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
HEAVY = ("scipy.sparse", "scipy.linalg", "scipy.special", "scipy.optimize")

# imports the package, then builds, checks and simulates one path of each config named on the command line
SCRIPT = """
import json, sys
from pathlib import Path
import fracsplap
from fracsplap.config import build_bundle, parse_config_file
from fracsplap.solver import simulate_path

heavy = %r
loaded = {"import": [m for m in heavy if m in sys.modules]}
for path in sys.argv[1:]:
    bundle = build_bundle(parse_config_file(path))
    bundle.admissibility()
    simulate_path(bundle.setup, bundle.solver_config, bundle.config["solver.x0_scale"] * bundle.x0_shape)
    loaded[Path(path).name] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
""" % (HEAVY,)


def _loaded(*configs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *(str(ROOT / "configs" / c) for c in configs)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout)


def test_import_and_p2_runs_load_no_heavy_scipy():
    configs = ("moments.cfg", "strong_order.cfg", "theorem3_ok.cfg")
    assert _loaded(*configs) == dict.fromkeys(("import",) + configs, [])


def test_p3_run_loads_no_heavy_scipy():
    assert _loaded("theorem1_ok.cfg") == {"import": [], "theorem1_ok.cfg": []}


# runs one check-hypotheses command through the CLI and lists every scipy module then loaded
CLI_SCRIPT = """
import contextlib, io, json, sys, tempfile
from fracsplap import cli
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["check-hypotheses", "--config", sys.argv[1], "--out", out])
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_run_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, str(ROOT / "configs" / "theorem1_ok.cfg")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert json.loads(proc.stdout) == {"rc": 0, "scipy": []}
