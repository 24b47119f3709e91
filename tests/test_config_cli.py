import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracsplap import ConfigError, build_bundle, parse_config_file, parse_config_text, parse_resolved_header
from fracsplap import cli
from fracsplap.cli import main

ROOT = Path(__file__).parent.parent
CONFIG_DIR = ROOT / "configs"

MINI = """
operator.s = 0.4
domain.mesh_m = 12
domain.n_modes = 6
drift.q = 4.0
drift.delta = 1.0
noise.p1 = 2.0
noise.beta_b0 = 0.1
noise.beta_r = 2.0
noise.gamma_g0 = 0.1
noise.gamma_r = 2.0
solver.T = 0.25
solver.dt = 0.03125
solver.n_noise = 2
harness.n_paths = 100
"""


def test_parse_defaults_and_types():
    cfg = parse_config_text(MINI)
    assert cfg["operator.p"] == 2.0
    assert cfg["solver.taming"] is True
    assert cfg["harness.x_scales"] == (0.0, 1.0, 2.0, 4.0)
    assert cfg["harness.mode_ladder"] == ()


def test_parse_rejections():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(MINI + "\nbogus.key = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(MINI + "\noperator.s = 0.5\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config_text("operator.s = 0.4\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text(MINI.replace("solver.T = 0.25", "solver.T = quarter"))
    with pytest.raises(ConfigError, match="expected"):
        parse_config_text(MINI + "\nnot a kv line\n")


def test_build_bundle_validates_cross_fields():
    with pytest.raises(ConfigError):
        build_bundle(parse_config_text(MINI.replace("solver.dt = 0.03125", "solver.dt = 0.3")))
    with pytest.raises(ConfigError):
        build_bundle(parse_config_text(MINI.replace("domain.n_modes = 6", "domain.n_modes = 60")))
    with pytest.raises(ConfigError):
        build_bundle(parse_config_text(MINI + "harness.sigma = 0.6\n"))
    with pytest.raises(ConfigError):
        build_bundle(parse_config_text(MINI + "solver.x0_profile = wave\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        build_bundle(parse_config_text(MINI + "drift.family = cubic_spline\n"))
    bundle = build_bundle(parse_config_text(MINI))
    assert bundle.setup.space.m == 12
    assert bundle.x0_shape.shape == (12,)


def test_resolved_roundtrip_is_identity():
    cfg = parse_config_text(MINI)
    again = parse_config_text(cfg.resolved_text())
    assert again.values == cfg.values
    assert again.resolved_text() == cfg.resolved_text()


def test_shipped_configs_build():
    for name in (
        "theorem1_ok", "theorem2_ok", "theorem2_beta_boundary", "theorem3_ok",
        "moments", "deterministic_convergence", "strong_order", "galerkin_ladder", "uniqueness",
    ):
        bundle = build_bundle(parse_config_file(CONFIG_DIR / f"{name}.cfg"))
        assert bundle.setup is not None


def test_check_hypotheses_verdicts(tmp_path, capsys):
    rc = main(["check-hypotheses", "--config", str(CONFIG_DIR / "theorem2_ok.cfg"), "--out", str(tmp_path / "a")])
    assert rc == 0
    text = (tmp_path / "a" / "admissibility.txt").read_text()
    assert "strong_monotone_drift: PASS" in text
    assert "ADMISSIBLE" in text
    kv = (tmp_path / "a" / "admissibility.kv").read_text()
    assert "admissible = true" in kv
    rc = main(["check-hypotheses", "--config", str(CONFIG_DIR / "theorem2_beta_boundary.cfg"), "--out", str(tmp_path / "b")])
    assert rc == 0
    text = (tmp_path / "b" / "admissibility.txt").read_text()
    assert "[VIOLATED] sum(beta) < delta1" in text
    assert "NOT ADMISSIBLE" in text


def test_check_hypotheses_deterministic_bytes(tmp_path):
    outs = []
    for sub in ("x", "y"):
        rc = main(["check-hypotheses", "--config", str(CONFIG_DIR / "theorem1_ok.cfg"), "--out", str(tmp_path / sub)])
        assert rc == 0
        outs.append((tmp_path / sub / "admissibility.kv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_reproducible_and_headers(tmp_path, capsys):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI)
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r1")])
    assert rc == 0
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "r2")])
    assert rc == 0
    b1 = (tmp_path / "r1" / "path.csv").read_bytes()
    b2 = (tmp_path / "r2" / "path.csv").read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.splitlines()[0].startswith("# fracsplap ")
    assert "time,l2_norm,gagliardo_seminorm,lq_norm\n" in text
    # round-trip: the resolved header reproduces the identical run
    recovered = parse_resolved_header(tmp_path / "r1" / "path.csv")
    cfg_path2 = tmp_path / "recovered.cfg"
    cfg_path2.write_text(recovered.resolved_text())
    rc = main(["simulate", "--config", str(cfg_path2), "--out", str(tmp_path / "r3")])
    assert rc == 0
    assert (tmp_path / "r3" / "path.csv").read_bytes() == b1
    # a --seed run records the seed it used, so its header reproduces it too
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "s1"), "--seed", "77"])
    assert rc == 0
    seeded = (tmp_path / "s1" / "path.csv").read_bytes()
    assert seeded != b1
    recovered = parse_resolved_header(tmp_path / "s1" / "path.csv")
    assert recovered["solver.master_seed"] == 77
    cfg_path3 = tmp_path / "recovered_seeded.cfg"
    cfg_path3.write_text(recovered.resolved_text())
    rc = main(["simulate", "--config", str(cfg_path3), "--out", str(tmp_path / "s2")])
    assert rc == 0
    assert (tmp_path / "s2" / "path.csv").read_bytes() == seeded


def test_seed_override_changes_output(tmp_path):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI)
    main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "77"])
    assert (tmp_path / "a" / "path.csv").read_bytes() != (tmp_path / "b" / "path.csv").read_bytes()


def test_validation_failure_writes_nothing(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(MINI + "\nbogus = 1\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    rc = main(["simulate", "--config", str(tmp_path / "missing.cfg"), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("which", ["config-is-a-directory", "out-is-a-file"])
def test_unusable_paths_exit_2(tmp_path, capsys, which):
    # one line on stderr and no traceback; an existing --out file is left as it was
    cfg_path, out = tmp_path / "mini.cfg", tmp_path / "out"
    cfg_path.write_text(MINI)
    if which == "config-is-a-directory":
        cfg_path = tmp_path
    else:
        out.write_text("keep\n")
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and err.startswith("error: ")
    assert (out.read_text() == "keep\n") if which == "out-is-a-file" else not out.exists()


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--seed", str(2**64)]])
def test_out_of_range_flags_exit_2(tmp_path, capsys, flags):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINI)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out), *flags])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flags[0] in err


def test_out_of_range_config_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    for seed in (-1, 2**64):
        cfg_path = tmp_path / "seed.cfg"
        cfg_path.write_text(MINI + f"solver.master_seed = {seed}\n")
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "master seed" in capsys.readouterr().err


def test_moments_exponent_filtering(tmp_path, capsys):
    rc = main(["moments", "--config", str(CONFIG_DIR / "theorem2_ok.cfg"), "--out", str(tmp_path / "m")])
    assert rc == 0
    text = (tmp_path / "m" / "moments.csv").read_text()
    assert "p,x_scale,sup_moment,energy_moment,cross_moment,std_err,affinity_ratio" in text
    rows = [l for l in text.splitlines() if l and not l.startswith("#") and not l.startswith("p,")]
    assert len(rows) == 3  # the single requested p times three scales
    # sum(beta) = 0.5 puts the admissible supremum at 1.5: p = 2 is dropped
    filtered = tmp_path / "filtered.cfg"
    filtered.write_text(
        MINI.replace("noise.beta_b0 = 0.1", "noise.beta_b0 = 0.5")
        .replace("noise.gamma_g0 = 0.1", "noise.gamma_g0 = 0.5")
        + "noise.cutoff = 1\nharness.p_values = 1.0,2.0\nharness.x_scales = 0.0,1.0\n"
    )
    rc = main(["moments", "--config", str(filtered), "--out", str(tmp_path / "f")])
    assert rc == 0
    err = capsys.readouterr().err
    assert "dropping moment exponents" in err
    text = (tmp_path / "f" / "moments.csv").read_text()
    rows = [l for l in text.splitlines() if l and not l.startswith("#") and not l.startswith("p,")]
    assert len(rows) == 2  # p = 1 only, two scales
    assert all(row.startswith("1.0,") for row in rows)


@pytest.mark.parametrize(
    "command, config, needle, artifact",
    [
        ("moments", "strong_order.cfg", "no requested moment exponent", "moments.csv"),
        ("converge", "moments.cfg", "converge needs harness.mode_ladder or harness.dt_ladder", "convergence.csv"),
    ],
    ids=["moments-no-admissible-exponent", "converge-no-ladder"],
)
def test_study_without_work_exits_2(tmp_path, capsys, command, config, needle, artifact):
    # a shipped config that gives the study nothing to run: one line on stderr, no artifact
    rc = main([command, "--config", str(CONFIG_DIR / config), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err
    assert not (tmp_path / artifact).exists()


def test_converge_and_uniqueness_artifacts(tmp_path):
    rc = main(["converge", "--config", str(CONFIG_DIR / "deterministic_convergence.cfg"), "--out", str(tmp_path / "c")])
    assert rc == 0
    text = (tmp_path / "c" / "convergence.csv").read_text()
    assert "rung,gap,slope" in text and "# strong_order_slope" in text
    rc = main(["uniqueness", "--config", str(CONFIG_DIR / "uniqueness.cfg"), "--out", str(tmp_path / "u")])
    assert rc == 0
    text = (tmp_path / "u" / "stability.csv").read_text()
    assert "# identical_data_bitwise = true" in text
    assert "# gap_nonincreasing = true" in text


def _with(text, **values):
    """``text`` with each dotted key (``__`` for ``.``) set to its value, replacing a line that sets it."""
    lines = text.strip().splitlines()
    for key, value in values.items():
        key = key.replace("__", ".")
        lines = [line for line in lines if line.partition("=")[0].strip() != key] + [f"{key} = {value}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "command, values, needle",
    [
        ("simulate", {"noise__beta_b0": "nan"}, "noise.beta_b0"),
        ("simulate", {"drift__linear": "inf"}, "drift.linear"),
        ("simulate", {"solver__T": "-inf"}, "solver.T"),
        ("moments", {"harness__x_scales": "0.0,nan"}, "harness.x_scales"),
        ("simulate", {"solver__T": "1e300"}, "n_steps * max(n_modes, n_noise)"),
        ("simulate", {"solver__T": "0.5", "solver__dt": "1e-320"}, "dt must divide T"),
        ("simulate", {"solver__n_noise": "1500000"}, "n_steps * max(n_modes, n_noise)"),
        ("converge", {"harness__dt_ladder": "0.03125,0.015625", "harness__ref_refine": "100000000"},
         "n_steps * max(n_modes, n_noise)"),
        ("converge", {"harness__dt_ladder": "0.03125,0.015625", "harness__ref_refine": "0"}, "ref_refine"),
        ("converge", {"harness__dt_ladder": "0.03125"}, "at least two rungs"),
        ("converge", {"harness__dt_ladder": "0.03125,0.03"}, "must divide solver.T"),
        ("converge", {"harness__dt_ladder": "0.1,0.0625"}, "multiple of the refined step"),
        ("converge", {"harness__dt_ladder": "0.03125,0.0"}, "must be positive"),
        ("converge", {"harness__dt_ladder": "0.03125,0.03125"}, "harness.dt_ladder rungs must be distinct"),
        ("converge", {"harness__dt_ladder": "0.03125,0.0312500000001"}, "harness.dt_ladder rungs must be distinct"),
        ("moments", {"harness__p_values": "0.5,1.0"}, "harness.p_values"),
        ("moments", {"harness__p_values": ""}, "harness.p_values needs at least one exponent"),
        ("moments", {"harness__x_scales": ""}, "harness.x_scales"),
        ("converge", {"harness__n_paths": "0", "harness__mode_ladder": "2,4"}, "harness.n_paths must be >= 1"),
        ("converge", {"harness__n_paths": "0", "harness__mode_ladder": "", "harness__dt_ladder": "0.03125,0.015625"},
         "harness.n_paths must be >= 1"),
        ("uniqueness", {"harness__n_paths": "0"}, "harness.n_paths must be >= 1"),
        ("uniqueness", {"harness__n_paths": "-3"}, "harness.n_paths must be >= 1"),
        ("converge", {"harness__mode_ladder": "0,4"}, "rungs must be >= 1"),
        ("converge", {"harness__mode_ladder": "4"}, "at least two rungs"),
        ("simulate", {"noise__cutoff": "-1"}, "noise.cutoff must be >= 1, or 0 for an infinite family"),
        ("check-hypotheses", {"noise__cutoff": "1000000000000"}, "and at most 1000000, got 1000000000000"),
        ("simulate", {"drift__delta3": "-5"}, "drift.delta3"),
        # the (m, m) mass matrix alone would take 7.28 TiB, and the plan about 18 m^2 rows
        ("check-hypotheses", {"domain__mesh_m": "1000000"}, "domain.mesh_m must be at most 700, got 1000000"),
        # one step passes the path bound, but each step's (m, n_noise) noise columns would take 96 MB
        ("simulate", {"solver__T": "0.03125", "solver__n_noise": "1000000"},
         "solver.n_noise: domain.mesh_m * solver.n_noise = 12000000 exceeds 10000000"),
        ("check-hypotheses", {"transport__enabled": "true", "transport__n_g": "1000000000000"},
         "transport.n_g: domain.mesh_m * transport.n_g = 12000000000000 exceeds 10000000"),
        ("converge", {"harness__dt_ladder": "0.03125,0.015625", "operator__p": "3.0"}, "requires p = 2"),
        ("converge", {"harness__dt_ladder": "0.03125,0.015625"}, "requires a linear drift (q = 2)"),
        ("converge", {"harness__dt_ladder": "0.03125,0.015625", "drift__q": "2.0", "lipschitz__phi3": "0.1"},
         "bounded-slope perturbation"),
        ("check-hypotheses", {"transport__enabled": "true", "transport__phi4": "-1"}, "phi4"),
        ("simulate", {"solver__x0_scale": "1e308"}, "solver.x0_scale: the initial state it gives is not finite"),
        ("uniqueness", {"harness__stability_epsilon": "1e308"},
         "harness.stability_epsilon: the initial state it gives is not finite"),
        ("moments", {"harness__x_scales": "0.0,1e308"}, "harness.x_scales: the initial state it gives is not finite"),
        ("check-hypotheses", {"operator__p": "400.0"}, "kernel constant C(n, p, s) overflows"),
        # the mesh width's kernel weights, or its same-element power, leave the float range
        ("check-hypotheses", {"domain__b": "1e-200"}, "domain.a = 0.0, domain.b = 1e-200"),
        ("check-hypotheses", {"domain__a": "-1e150", "domain__b": "1e150"}, "domain.a = -1e+150, domain.b = 1e+150"),
        ("converge", {"domain__b": "1e-200", "harness__mode_ladder": "2,4"}, "quadrature weights"),
    ],
    ids=[
        "nan", "inf", "minus-inf", "nan-in-list", "steps", "steps-overflow", "noise", "reference-steps", "refine",
        "one-rung", "fine-step", "rung-multiple", "zero-rung", "repeated-rung", "near-repeated-rung", "moment-exponent",
        "no-exponents", "no-scales", "no-paths-modes", "no-paths-dt", "no-paths-stability", "negative-paths",
        "zero-mode-rung", "one-mode-rung",
        "negative-cutoff", "huge-cutoff", "negative-delta3", "huge-mesh", "huge-noise-columns",
        "huge-transport-family", "reference-p", "reference-q", "reference-phi3", "negative-phi4", "overflowing-x0",
        "overflowing-perturbed-x0", "overflowing-x-scale", "overflowing-kernel-constant", "tiny-domain",
        "huge-domain", "tiny-domain-converge",
    ],
)
def test_nonfinite_and_oversized_configs_exit_2(tmp_path, capsys, command, values, needle):
    # rejected while the configuration is read: one line on stderr, no traceback, nothing written
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(_with(MINI, **values))
    out = tmp_path / "out"
    rc = main([command, "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and needle in err


def test_delta3_above_its_sharp_bound_exits_2(tmp_path, capsys):
    # q = 2.5 bounds delta3 by delta/2 = 0.5, so sum(gamma) = 0.72 * zeta(2) ~ 1.184 fails 2 * delta3
    text = _with(
        (CONFIG_DIR / "theorem2_ok.cfg").read_text(),
        noise__p1="2.0", drift__q="2.5", drift__linear="1.0", drift__delta3="0.6", noise__gamma_g0="0.72",
    )
    cfg_path = tmp_path / "sharp.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    rc = main(["check-hypotheses", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "strong monotonicity" in err
    cfg_path.write_text(_with(text, drift__delta3="0.5"))
    assert main(["check-hypotheses", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "NOT ADMISSIBLE" in (out / "admissibility.txt").read_text()


def test_moments_path_floor_exits_2(tmp_path, capsys):
    # checked before the Poincare estimate: one line on stderr, no traceback, no artifact
    cfg_path = tmp_path / "few.cfg"
    cfg_path.write_text(_with(MINI, harness__n_paths="99"))
    out = tmp_path / "out"
    rc = main(["moments", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "harness.n_paths must be >= 100" in err


@pytest.mark.parametrize("values", [{"transport__amplitude": "1e200"}, {"transport__decay": "-1e3"}])
def test_overflowing_transport_family_exits_2_quietly(tmp_path, values):
    # the family's norms overflow: one line, no numpy warning, no traceback, nothing written
    cfg_path = tmp_path / "t3.cfg"
    cfg_path.write_text(_with((CONFIG_DIR / "theorem3_ok.cfg").read_text(), **values))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "fracsplap.cli", "check-hypotheses", "--config", str(cfg_path), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == "configuration error: multiplier family norms must be summable\n"
    assert not out.exists()


def test_moment_ensemble_over_the_memory_bound_exits_2(tmp_path, capsys):
    # 10^7 paths with two exponents would keep 4e7 samples: refused before any path runs
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text(_with((CONFIG_DIR / "moments.cfg").read_text(), harness__n_paths="10000000"))
    out = tmp_path / "out"
    rc = main(["moments", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "over 25000000" in err


def test_memory_bound_spares_studies_that_keep_no_paths(tmp_path):
    # converge keeps four errors a path and check-hypotheses runs none, so 200,000 paths
    # (2e5 * 17 * 9 = 3.1e7 floats, were they kept) are not refused
    text = _with((CONFIG_DIR / "strong_order.cfg").read_text(), harness__n_paths="200000")
    assert build_bundle(parse_config_text(text)).config["harness.n_paths"] == 200000
    cfg_path, out = tmp_path / "big.cfg", tmp_path / "out"
    cfg_path.write_text(text)
    assert main(["check-hypotheses", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "admissibility.txt").exists()


@pytest.mark.parametrize("name", ["theorem2_ok", "theorem2_beta_boundary", "uniqueness"])
def test_admissibility_kv_pins_noise_tails(tmp_path, capsys, name):
    cfg_path = CONFIG_DIR / f"{name}.cfg"
    config = parse_config_file(cfg_path)
    noise, n_noise = build_bundle(config).setup.noise, config["solver.n_noise"]
    assert main(["check-hypotheses", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    kv = (tmp_path / "admissibility.kv").read_text().splitlines()
    assert f"noise_truncation.n_noise = {n_noise}" in kv
    assert f"noise_truncation.beta_tail = {noise.beta_tail(n_noise)!r}" in kv
    assert f"noise_truncation.gamma_tail = {noise.gamma_tail(n_noise)!r}" in kv
    # zero diffusion growth puts the moment supremum at infinity
    assert ("p_max = inf" in kv) == (name == "uniqueness")


@pytest.mark.parametrize(
    "key, value",
    [
        ("quadrature.panel_gauss", "6"), ("quadrature.graded_levels", "6"), ("operator.n", "1"),
        ("drift.family", "power"), ("lipschitz.family", "bounded_slope"), ("noise.family", "power_sine"),
        ("transport.family", "sine"), ("solver.cap_R", "inf"), ("solver.cap_mode", "record"),
        ("harness.max_diverged_fraction", "0.0"),
    ],
)
def test_single_value_keys_are_unknown(key, value):
    # no run selected a second value of any of these; the quadrature rule is fixed in fracop
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(MINI + f"{key} = {value}\n")


def test_fully_diverged_moments_scale_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "diverge.cfg"
    text = (CONFIG_DIR / "moments.cfg").read_text()
    cfg_path.write_text(_with(text, solver__dt="0.25", noise__sigma1_amplitude="1e200", harness__n_paths="100"))
    out = tmp_path / "out"
    rc = main(["moments", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "diverged" in err
    assert not out.exists()


def test_overflowing_moments_exit_3(tmp_path):
    # untamed paths at x_scale 2 overflow: path 41 is the first whose squared norm is not finite.  Tamed
    # paths at x_scale 1e80 keep finite norms, but their sup moments overflow.  Either way one line on
    # stderr, no numpy warning, nothing written.
    moments = (CONFIG_DIR / "moments.cfg").read_text()
    cases = [
        (_with(moments, solver__dt="0.0625", solver__taming="false", harness__n_paths="100",
               harness__x_scales="1.0,2.0"),
         "path 41 (x_scale 2.0) diverged at step 8; no statistics available"),
        (_with(moments, harness__n_paths="100", harness__x_scales="1e80"),
         "the moments at x_scale 1e+80 are not finite; no statistics available"),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for i, (text, message) in enumerate(cases):
        cfg_path, out = tmp_path / f"overflow{i}.cfg", tmp_path / f"out{i}"
        cfg_path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "fracsplap.cli", "moments", "--config", str(cfg_path), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == f"numerical failure: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "name, command, x0_scale, needle",
    [
        ("galerkin_ladder", "converge", "1e300", "path 0 (8-mode rung) diverged at step 0"),
        ("strong_order", "converge", "1e200", "path 0 (reference) diverged at step 0"),
        ("uniqueness", "uniqueness", "1e300", "path 0 (first initial state) diverged at step 0"),
    ],
    ids=["mode-ladder", "strong-order", "stability"],
)
def test_diverged_study_path_exits_3(tmp_path, name, command, x0_scale, needle):
    # the squared norm of the initial state overflows: one line naming the path and its step, no numpy
    # warning, nothing written
    cfg_path = tmp_path / "diverge.cfg"
    text = _with((CONFIG_DIR / f"{name}.cfg").read_text(), harness__n_paths="2", solver__x0_scale=x0_scale)
    cfg_path.write_text(text)
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "fracsplap.cli", command, "--config", str(cfg_path), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"numerical failure: {needle}; no statistics available\n"
    assert not out.exists()


def test_readme_cli_block_lists_the_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    assert {line.split()[1] for line in block.splitlines()} == set(cli._COMMANDS)
    # a removed subcommand is argparse's invalid choice: exit 2, no traceback
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "fracsplap.cli", "selftest"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr and "Traceback" not in proc.stderr
