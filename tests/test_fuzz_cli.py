"""Fuzz the command line over config values, ``--seed`` and the two paths: every input ends in a documented exit code.

Each example writes a small config (a mesh of at most 8 nodes, at most 4 steps at the config's dt,
ensembles of at most 101 paths) with up to three keys overridden by in-range, out-of-range,
non-finite or unparsable values, then runs one command in process; ``--config`` may instead name a directory or
a missing file, and ``--out`` an existing directory or file.  The run must return 0, 2 (validation) or 3
(numerical), print no traceback and let no warning escape, and an exit-2 run must write nothing: no new directory,
no new or changed file.  An exit-0 ``simulate`` run must write a ``path.csv`` of finite numbers only, and an exit-0
``converge`` run must report distinct dt rungs, coarsest first.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from fracsplap.cli import main
from fracsplap.config import _SCHEMA

BASE = {
    "operator.s": "0.4",
    "domain.mesh_m": "6",
    "domain.n_modes": "3",
    "drift.q": "4.0",
    "drift.delta": "1.0",
    "noise.beta_b0": "0.1",
    "noise.gamma_g0": "0.1",
    "solver.T": "0.25",
    "solver.dt": "0.0625",
    "solver.n_noise": "2",
    "harness.n_paths": "100",
    "harness.x_scales": "0.0,1.0",
    "harness.mode_ladder": "1,3",
}


def values(*choices):
    return st.sampled_from(choices)


# every choice keeps a run that small, or is rejected before any path runs
FUZZ = {
    "operator.s": values("0.4", "0.9", "0.0", "1.0", "-0.2", "nan", "x"),
    "operator.p": values("2.0", "3.0", "4.0", "2.5", "1.0", "0.5", "inf", "400.0"),
    "domain.a": values("0.0", "-1.0", "1.0", "nan", "-1e150"),
    "domain.b": values("1.0", "0.0", "2.0", "-inf", "1e-200", "1e150", "1e-150"),
    "domain.exterior_truncation": values("0.0", "5.0", "-1.0", "1e-300"),
    "domain.mesh_m": values("-1", "0", "1", "2", "8", "2.5"),
    "domain.n_modes": values("-1", "0", "1", "3", "9"),
    "drift.q": values("4.0", "2.0", "3.0", "1.0", "nan"),
    "drift.delta": values("1.0", "0.0", "-1.0", "1e308"),
    "drift.linear": values("0.0", "0.5", "-2.0"),
    "drift.delta3": values("-1.0", "0.0", "0.2", "5.0", "-3.0"),
    "lipschitz.phi3": values("0.0", "0.1", "-1.0", "nan"),
    "noise.p1": values("2.0", "1.0", "4.0", "0.0"),
    "noise.beta_b0": values("0.1", "0.0", "-1.0", "1e300"),
    "noise.beta_r": values("2.0", "0.5", "-2.0"),
    "noise.gamma_g0": values("0.1", "0.0", "5.0", "-0.1"),
    "noise.gamma_r": values("2.0", "0.5", "-2.0"),
    "noise.cutoff": values("0", "1", "3", "-1", "1000000000000"),
    "noise.sigma1_amplitude": values("0.0", "0.5", "-1.0"),
    "noise.sigma1_decay": values("2.0", "0.0", "-1.0"),
    "transport.enabled": values("false", "true", "maybe"),
    "transport.n_g": values("2", "0", "9"),
    "transport.amplitude": values("0.0", "0.5", "-1.0"),
    "transport.decay": values("1.0", "0.0", "-1.0", "-400.0"),
    "transport.phi4": values("0.0", "0.5", "-1.0", "-10.0"),
    "solver.T": values("0.25", "0.125", "0.0", "-0.25", "0.3", "nan", "inf"),
    "solver.dt": values("0.0625", "0.125", "0.0", "-0.1", "0.07", "nan"),
    "solver.n_noise": values("2", "1", "0", "-3", "40"),
    "solver.taming": values("true", "false", "2"),
    "solver.master_seed": values("0", "5", "-1", str(2**64)),
    "solver.x0_profile": values("bump", "sine", "flat"),
    "solver.x0_scale": values("1.0", "0.0", "1e300", "-2.0"),
    "solver.x0_center": values("0.25", "0.5", "-1.0", "1e300"),
    "solver.x0_width": values("0.1", "0.0", "-1.0", "1e-200"),
    "solver.x0_support": values("0", "2", "-1", "99"),
    "harness.n_paths": values("100", "101", "99", "1", "0", "-1"),
    "harness.p_values": values("1.0,2.0", "4.0", "", "-1.0", "nan"),
    "harness.x_scales": values("0.0,1.0", "1.0", "", "1e300", "nan"),
    "harness.mode_ladder": values("1,3", "", "3,1", "0", "2,99"),
    "harness.dt_ladder": values("", "0.125,0.0625", "0.0", "0.07"),
    "harness.ref_refine": values("2", "1", "0", "-1"),
    "harness.stability_epsilon": values("1e-3", "0.0", "-1.0", "1e160"),
}


def test_every_config_key_is_fuzzed():
    assert set(FUZZ) == set(_SCHEMA)


@st.composite
def overrides(draw):
    """At most three keys off the base config, so that most runs get past validation."""
    keys = draw(st.lists(st.sampled_from(sorted(FUZZ)), max_size=3, unique=True))
    return {key: draw(FUZZ[key]) for key in keys}


EXTRA_LINES = values("", "", "", "bogus.key = 1", "not a key value line", "operator.s = 0.5", "harness.n_paths = 1e2")
COMMANDS = ("check-hypotheses", "simulate", "moments", "converge", "uniqueness")
SEEDS = values(None, 0, 77, -1, 2**64 - 1, 2**64)
CONFIG_AT = values("file", "file", "file", "file", "directory", "missing")
OUT_AT = values("new", "new", "new", "existing directory", "existing file")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(COMMANDS),
    overrides=overrides(),
    extra=EXTRA_LINES,
    seed=SEEDS,
    config_at=CONFIG_AT,
    out_at=OUT_AT,
)
# the strong-order reference needs q = 2: a dt ladder on the base's q = 4 drift is a validation error
@example(
    command="converge", overrides={"harness.dt_ladder": "0.125,0.0625"}, extra="", seed=None,
    config_at="file", out_at="new",
)
# a negative transport phi4 is rejected like a negative phi3
@example(
    command="check-hypotheses", overrides={"transport.enabled": "true", "transport.phi4": "-10.0"}, extra="", seed=None,
    config_at="file", out_at="new",
)
# a cutoff past coefficients.MAX_NOISE_CUTOFF exits 2 before any noise sum (10^12 terms would take 7.28 TiB)
@example(
    command="check-hypotheses", overrides={"noise.cutoff": "1000000000000"}, extra="", seed=None,
    config_at="file", out_at="new",
)
# every array a key sizes is bounded before anything is allocated: the (m, m) mass matrix of a 10^6-node mesh
# would take 7.28 TiB, and so would the (m, n_g) multiplier fields of 10^12 transport fields
@example(
    command="check-hypotheses", overrides={"domain.mesh_m": "1000000"}, extra="", seed=None,
    config_at="file", out_at="new",
)
@example(
    command="check-hypotheses", overrides={"transport.enabled": "true", "transport.n_g": "1000000000000"}, extra="",
    seed=None, config_at="file", out_at="new",
)
# a finite initial state whose squared norm overflows diverges at step 0: simulate exits 3, not 0 with inf rows
@example(
    command="simulate", overrides={"drift.q": "2.0", "solver.x0_scale": "1e300"}, extra="", seed=None,
    config_at="file", out_at="new",
)
# a repeated dt rung is a validation error: the slope fit over its rungs would be rank-deficient
@example(
    command="converge", overrides={"drift.q": "2.0", "harness.dt_ladder": "0.0625,0.0625"}, extra="", seed=None,
    config_at="file", out_at="new",
)
# a Gronwall weight past exp's float range (3 * sum(gamma) * T = 1234 here) writes the envelope as inf and exits 0
@example(
    command="uniqueness", overrides={"noise.gamma_g0": "1000.0"}, extra="", seed=None, config_at="file", out_at="new",
)
def test_cli_exits_with_a_documented_code(command, overrides, extra, seed, config_at, out_at):
    config = {**BASE, **overrides}
    text = "\n".join([f"{k} = {v}" for k, v in config.items()] + [extra]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        cfg = {"file": cfg, "directory": Path(tmp), "missing": Path(tmp) / "missing.cfg"}[config_at]
        if out_at == "existing directory":
            out.mkdir()
            (out / "keep.txt").write_text("keep\n")
        elif out_at == "existing file":
            out.write_text("keep\n")
        argv = [command, "--config", str(cfg), "--out", str(out)] + ([] if seed is None else ["--seed", str(seed)])
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        assert rc in (0, 2, 3), (rc, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if rc == 0 and command == "simulate":
            rows = [line for line in (out / "path.csv").read_text().splitlines() if not line.startswith("#")]
            assert all(math.isfinite(float(x)) for row in rows[1:] for x in row.split(","))
        if rc == 0 and command == "converge":
            lines = (out / "convergence.csv").read_text().splitlines()
            rungs = [float(line.split(",")[0][len("dt="):]) for line in lines if line.startswith("dt=")]
            assert all(a > b for a, b in zip(rungs, rungs[1:])), rungs
        if rc == 2:
            if out_at == "new":
                assert not out.exists()
            elif out_at == "existing file":
                assert out.read_text() == "keep\n"
            else:
                assert [f.name for f in out.iterdir()] == ["keep.txt"]
                assert (out / "keep.txt").read_text() == "keep\n"
