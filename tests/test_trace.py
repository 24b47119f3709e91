"""The benchmark's traced counts on small runs: the layer spans of ``bench/spans.py``
still find every name they wrap, so the traced path, step, sweep, ``eval_B``
and ``lp_norm`` counts equal ``bench/run.py``'s closed forms.

Each workload runs in a fresh interpreter, because installing the tracer
rebinds module globals of the package.  The bench files are imported as they
are, not edited.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

# installs a Tracer, runs one cli.cmd_<command> on the workload's generated config with the
# overrides applied, and prints the command's exit code and run.count_check's findings
SCRIPT = """
import argparse, json, sys, tempfile
from pathlib import Path
sys.path.insert(0, %r)
import run, spans
from fracsplap import cli
from fracsplap.config import build_bundle, parse_config_text

workload, overrides = sys.argv[1], json.loads(sys.argv[2])
lines = [l for l in run.generated_config(workload).splitlines() if l.partition("=")[0].strip() not in overrides]
text = "\\n".join(lines + [f"{k} = {v}" for k, v in overrides.items()]) + "\\n"
tracer = spans.Tracer()
spans.install(tracer)
bundle = build_bundle(parse_config_text(text))
command = run.WORKLOADS[workload][0]
with tempfile.TemporaryDirectory() as out:
    args = argparse.Namespace(command=command, config=None, out=Path(out), seed=None)
    rc = getattr(cli, "cmd_" + command)(bundle, Path(out), args)
print(json.dumps({"rc": rc, "check": run.count_check(tracer.summary(), run.expected_work(workload, run.read_config(text)))}))
""" % (str(ROOT / "bench"),)


@pytest.mark.parametrize(
    "workload, overrides",
    [
        ("stability_p3", {"harness.n_paths": "1"}),
        ("strong_order_p2", {"harness.n_paths": "1"}),
        ("moments_p2", {"harness.n_paths": "100", "harness.x_scales": "1.0"}),
    ],
    ids=["stability_p3", "strong_order_p2", "moments_p2"],
)
def test_traced_counts_match_closed_form(workload, overrides):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, workload, json.dumps(overrides)],
        env=env, capture_output=True, text=True, timeout=300, check=True, cwd=ROOT,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == {"rc": 0, "check": []}
