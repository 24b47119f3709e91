"""Flat typed key-value configuration with dotted section names.

The format is one ``section.key = value`` per line, ``#`` comments, no
nesting; it is diff-friendly and reproduces bit-exactly in artifact headers.
Unknown keys are rejected, every value is validated against its schema type,
and the resolved configuration (defaults filled in) serializes back to the
same format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class ConfigError(ValueError):
    """Raised for unknown keys, type errors or violated preconditions."""


_REQUIRED = object()


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _parse_float_list(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_finite(tok) for tok in text.split(","))


def _parse_int_list(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def fmt(x) -> str:
    """The text of a flag or a number in every artifact: ``true``/``false``, else ``repr(float(x))``."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return repr(float(x))


def _fmt_value(val) -> str:
    if isinstance(val, (bool, float)):
        return fmt(val)
    if isinstance(val, tuple):
        return ",".join(_fmt_value(v) for v in val)
    return str(val)


# key -> (parser, default); _REQUIRED marks keys without defaults; every float must be finite.
_SCHEMA = {
    "operator.s": (_parse_finite, _REQUIRED),
    "operator.p": (_parse_finite, 2.0),
    "domain.a": (_parse_finite, 0.0),
    "domain.b": (_parse_finite, 1.0),
    "domain.exterior_truncation": (_parse_finite, 0.0),  # 0 = default (10x the domain length)
    "domain.mesh_m": (int, _REQUIRED),
    "domain.n_modes": (int, _REQUIRED),
    "drift.q": (_parse_finite, _REQUIRED),
    "drift.delta": (_parse_finite, _REQUIRED),
    "drift.linear": (_parse_finite, 0.0),
    # delta1 = delta, delta2 = delta + linear, phi1 = 0 and phi2 = linear exactly; delta3 is at most
    # delta/2 (q > 2) or (delta + linear)/2 (q = 2), and -1 takes the family default delta/2
    "drift.delta3": (_parse_finite, -1.0),
    "lipschitz.phi3": (_parse_finite, 0.0),
    "noise.p1": (_parse_finite, 2.0),
    "noise.beta_b0": (_parse_finite, 0.0),
    "noise.beta_r": (_parse_finite, 2.0),
    "noise.gamma_g0": (_parse_finite, 0.0),
    "noise.gamma_r": (_parse_finite, 2.0),
    "noise.cutoff": (int, 0),  # 0 = infinite power-law family
    "noise.sigma1_amplitude": (_parse_finite, 0.0),
    "noise.sigma1_decay": (_parse_finite, 2.0),
    "transport.enabled": (_parse_bool, False),
    "transport.n_g": (int, 2),
    "transport.amplitude": (_parse_finite, 0.0),
    "transport.decay": (_parse_finite, 1.0),
    "transport.phi4": (_parse_finite, 0.0),
    "solver.T": (_parse_finite, _REQUIRED),
    "solver.dt": (_parse_finite, _REQUIRED),
    "solver.n_noise": (int, _REQUIRED),
    "solver.taming": (_parse_bool, True),
    "solver.master_seed": (int, 0),
    "solver.x0_profile": (str, "bump"),  # "bump" or "sine"
    "solver.x0_scale": (_parse_finite, 1.0),
    "solver.x0_center": (_parse_finite, 0.25),
    "solver.x0_width": (_parse_finite, 0.1),
    "solver.x0_support": (int, 0),  # zero the profile beyond this node index (0 = keep all)
    "harness.n_paths": (int, 400),
    "harness.p_values": (_parse_float_list, (1.0, 2.0)),
    "harness.x_scales": (_parse_float_list, (0.0, 1.0, 2.0, 4.0)),
    "harness.mode_ladder": (_parse_int_list, ()),
    "harness.dt_ladder": (_parse_float_list, ()),
    "harness.ref_refine": (int, 16),
    "harness.stability_epsilon": (_parse_finite, 1e-3),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated flat configuration; values accessible by dotted key."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def resolved_lines(self):
        return [f"{key} = {_fmt_value(self.values[key])}" for key in sorted(self.values)]

    def resolved_text(self) -> str:
        return "\n".join(self.resolved_lines()) + "\n"


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    for key, (_, default) in _SCHEMA.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default
    return ExperimentConfig(values=values)


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def parse_resolved_header(path) -> ExperimentConfig:
    """Rebuild a configuration from the '# config:' lines of an artifact."""
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            if raw.startswith("# config: "):
                lines.append(raw[len("# config: "):])
    if not lines:
        raise ConfigError(f"no resolved-config header found in {path}")
    return parse_config_text("".join(lines))


@dataclass
class Bundle:
    """Everything an experiment needs, constructed from one configuration."""

    config: ExperimentConfig
    setup: object
    solver_config: object
    x0_shape: np.ndarray
    report: object = None

    def admissibility(self):
        """Poincare estimate plus the full admissibility report (cached)."""
        if self.report is None:
            from .domain import poincare_constant
            from .hypotheses import admissibility_report

            st = self.setup
            self.report = admissibility_report(
                st.op_params, st.drift, st.lip, st.noise, st.transport,
                poincare_constant(st.space, st.op_params), self.config["solver.T"],
            )
        return self.report


def _x0_shape(config: ExperimentConfig, space) -> np.ndarray:
    from .space import l2_norm

    profile = config["solver.x0_profile"]
    xi = (space.nodes - space.domain.a) / space.domain.length
    if profile == "bump":
        center, width = config["solver.x0_center"], config["solver.x0_width"]
        if width <= 0:
            raise ConfigError("solver.x0_width must be positive")
        shape = np.exp(-0.5 * ((xi - center) / width) ** 2)
    elif profile == "sine":
        shape = np.sin(np.pi * xi)
    else:
        raise ConfigError(f"unknown x0 profile {config['solver.x0_profile']!r}")
    support = config["solver.x0_support"]
    if support < 0 or support > space.m:
        raise ConfigError("solver.x0_support must lie in [0, mesh_m]")
    if support:
        shape = shape.copy()
        shape[support:] = 0.0
    norm = l2_norm(space, shape)
    if norm == 0.0:
        raise ConfigError("initial profile vanishes on the mesh")
    return shape / norm


def _require_finite_initial_states(config: ExperimentConfig, shape: np.ndarray) -> None:
    """Check every initial state a command builds from ``shape``: ``simulate``, ``converge`` and
    ``uniqueness`` start from ``x0_scale * shape``, ``uniqueness`` also from that plus
    ``stability_epsilon * shape``, and ``moments`` from each ``x_scales`` entry times ``shape``."""
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = config["solver.x0_scale"] * shape
        perturbed = x0 + config["harness.stability_epsilon"] * shape
        states = [("solver.x0_scale", x0), ("harness.stability_epsilon", perturbed)]
        states += [("harness.x_scales", scale * shape) for scale in config["harness.x_scales"]]
    for key, state in states:
        if not np.isfinite(state).all():
            raise ConfigError(f"{key}: the initial state it gives is not finite")


def build_bundle(config: ExperimentConfig) -> Bundle:
    """Construct and cross-validate every component named by the configuration."""
    from .coefficients import (
        MAX_NOISE_CUTOFF, DriftSpec, LipschitzPerturbationSpec, SuperlinearNoiseSpec, TransportNoiseSpec,
    )
    from .domain import DomainSpec, FracOperatorParams
    from .harness import dt_ladder_grid, mode_ladder_rungs, moment_grid, require_paths
    from .solver import MAX_PATH_ENTRIES, SimulationSetup, SolverConfig, require_linear_reference
    from .space import MAX_MESH_NODES, build_space

    try:
        trunc = config["domain.exterior_truncation"]
        domain = DomainSpec(
            config["domain.a"], config["domain.b"],
            exterior_truncation=None if trunc == 0.0 else trunc,
        )
        op_params = FracOperatorParams(s=config["operator.s"], p=config["operator.p"])
        # the solver configurations validate every path's size before any operator is built
        solver_config = SolverConfig(
            T=config["solver.T"], dt=config["solver.dt"],
            n_modes=config["domain.n_modes"], n_noise=config["solver.n_noise"],
            taming=config["solver.taming"], master_seed=config["solver.master_seed"],
        )
        if config["harness.dt_ladder"]:
            _, dt_fine, _ = dt_ladder_grid(
                config["harness.dt_ladder"], config["solver.T"], config["harness.ref_refine"]
            )
            replace(solver_config, dt=dt_fine)  # validates the strong-order reference path
        if config["harness.mode_ladder"]:
            # only converge runs the ladder, so the span of the space is checked there
            mode_ladder_rungs(config["harness.mode_ladder"], math.inf)
        require_paths(config["harness.n_paths"])
        moment_grid(config["harness.p_values"], config["harness.x_scales"])
        delta3, cutoff = config["drift.delta3"], config["noise.cutoff"]
        if delta3 < 0 and delta3 != -1.0:
            raise ConfigError(f"drift.delta3 must be >= 0, or -1 for the family default delta/2, got {delta3!r}")
        if not 0 <= cutoff <= MAX_NOISE_CUTOFF:
            raise ConfigError(
                f"noise.cutoff must be >= 1, or 0 for an infinite family, and at most {MAX_NOISE_CUTOFF}, got {cutoff}"
            )
        m = config["domain.mesh_m"]
        if m > MAX_MESH_NODES:
            raise ConfigError(f"domain.mesh_m must be at most {MAX_MESH_NODES}, got {m}")
        for key in ("solver.n_noise", "transport.n_g"):  # the noise and multiplier columns are (m, n) arrays
            if m * config[key] > MAX_PATH_ENTRIES:
                raise ConfigError(f"{key}: domain.mesh_m * {key} = {m * config[key]} exceeds {MAX_PATH_ENTRIES}")
        space = build_space(domain, m, config["domain.n_modes"])
        drift = DriftSpec(
            q=config["drift.q"], delta=config["drift.delta"], linear=config["drift.linear"],
            delta3=None if delta3 == -1.0 else delta3,
        )
        lip = LipschitzPerturbationSpec(config["lipschitz.phi3"])
        noise = SuperlinearNoiseSpec(
            p1=config["noise.p1"],
            beta_b0=config["noise.beta_b0"], beta_r=config["noise.beta_r"],
            gamma_g0=config["noise.gamma_g0"], gamma_r=config["noise.gamma_r"],
            cutoff=None if cutoff == 0 else cutoff,
            sigma1_amplitude=config["noise.sigma1_amplitude"], sigma1_decay=config["noise.sigma1_decay"],
        )
        transport = None
        if config["transport.enabled"]:
            transport = TransportNoiseSpec.from_family(
                space, op_params,
                n_g=config["transport.n_g"], amplitude=config["transport.amplitude"],
                decay=config["transport.decay"], phi4_amplitude=config["transport.phi4"],
            )
        setup = SimulationSetup(space, op_params, drift, lip, noise, transport)
        if config["harness.dt_ladder"]:
            require_linear_reference(setup)  # the strong-order study's reference path
        x0_shape = _x0_shape(config, space)
        _require_finite_initial_states(config, x0_shape)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return Bundle(config=config, setup=setup, solver_config=solver_config, x0_shape=x0_shape)
