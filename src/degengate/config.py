"""Strict run-configuration parsing for the command-line surface.

Configurations are JSON objects with a fixed vocabulary; unknown keys are
rejected with the offending path so that typos never silently fall back
to defaults. Noise parameters in configs are given in reduced units
(pi/t0), like the published control values.
"""

import json

import numpy as np

from .constructions import (
    cnot_class_pulse,
    onestep_bgate,
    onestep_cnot,
    refine_bgate,
)
from .errors import ConfigError
from .hamiltonian import PARAM_NAMES, HamiltonianParams
from .noise import NoiseModel
from .search import SweepGrid, fig1_grid

_PARAM_KEYS = set(PARAM_NAMES) | {"t0"}

_SCHEMA = {
    "experiment": str,
    "seed": int,
    "target": str,
    "gate_time": (int, float),
    "hamiltonian": {
        "construction": str,
        "j": (int, float),
        "delta": (int, float),
        "params": dict,
    },
    "noise": {
        "alpha": (int, float),
        "temperature": (int, float),
        "cutoff": (int, float),
    },
    "time": {
        "t_final": (int, float),
        "dt": (int, float),
    },
    "sweep": {
        "param1": str,
        "param2": str,
        "start1": (int, float),
        "stop1": (int, float),
        "n1": int,
        "start2": (int, float),
        "stop2": (int, float),
        "n2": int,
        "fixed": dict,
        "closure": str,
        "coupling_norm": (int, float),
        "degeneracy_tol": (int, float),
    },
    "optimize": {
        "bounds": dict,
        "frozen": dict,
        "degeneracy": str,
        "coupling_norm": (int, float),
        "purity_weight": (int, float),
        "restarts": int,
        "max_iter": int,
        "distance_threshold": (int, float),
    },
    "sensitivity": {
        "budget": (int, float),
    },
    "calibrate": {
        "delta_ghz": (int, float),
        "j_ghz": (int, float),
        "t1_inverse_ghz": (int, float),
        "temperature_kelvin": (int, float, type(None)),
    },
    "comparison": {
        "amplitude_bound": (int, float),
        "alpha": (int, float),
        "temperature": (int, float),
        "cutoff": (int, float),
    },
}

CONSTRUCTIONS = {
    "cnot_onestep_refined": lambda cfg: onestep_cnot(refined=True),
    "cnot_onestep_printed": lambda cfg: onestep_cnot(refined=False),
    "bgate_onestep_refined": lambda cfg: onestep_bgate(refined=True),
    "bgate_onestep_printed": lambda cfg: onestep_bgate(refined=False),
    "bgate_onestep_polished": lambda cfg: refine_bgate(),
    "cnot_class_pulse": lambda cfg: cnot_class_pulse(
        cfg.get("j", 2.0), cfg.get("delta", 1.0)
    ),
}


def _is_number(value):
    """An int or a float; JSON true/false are bools, which Python counts as ints."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_keys(obj, schema, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key, value in obj.items():
        if key not in schema:
            raise ConfigError(f"unknown key {path + key!r}")
        expected = schema[key]
        if isinstance(expected, dict):
            _check_keys(value, expected, path + key + ".")
        elif isinstance(value, bool) or not isinstance(value, expected):  # no key takes a bool
            raise ConfigError(
                f"{path + key}: expected {expected}, got {type(value).__name__}"
            )


def _check_param_dict(d, path, pair=False):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    for key, value in d.items():
        if key not in _PARAM_KEYS:
            raise ConfigError(f"unknown control {path}.{key!r}")
        if pair:
            ok = (
                isinstance(value, (list, tuple))
                and len(value) == 2
                and all(_is_number(v) for v in value)
            )
            if not ok:
                raise ConfigError(f"{path}.{key}: expected a [low, high] pair")
        elif not _is_number(value):
            raise ConfigError(f"{path}.{key}: expected a number")


def validate_config(raw):
    """Validate the raw dict against the strict schema; returns it unchanged."""
    _check_keys(raw, _SCHEMA, "")
    ham = raw.get("hamiltonian", {})
    if "params" in ham:
        _check_param_dict(ham["params"], "hamiltonian.params")
    if "construction" in ham and ham["construction"] not in CONSTRUCTIONS:
        raise ConfigError(
            f"unknown construction {ham['construction']!r}; known: "
            f"{', '.join(sorted(CONSTRUCTIONS))}"
        )
    if "construction" in ham and "params" in ham:
        raise ConfigError("hamiltonian: give either 'construction' or 'params', not both")
    time_cfg = raw.get("time", {})
    dt = time_cfg.get("dt", 1.0)
    if not (dt > 0 and np.isfinite(dt)):
        raise ConfigError(f"time.dt must be positive and finite, got {dt}")
    t_final = time_cfg.get("t_final", 0.0)
    if not (t_final >= 0 and np.isfinite(t_final)):
        raise ConfigError(f"time.t_final must be non-negative and finite, got {t_final}")
    opt = raw.get("optimize", {})
    if "bounds" in opt:
        _check_param_dict(opt["bounds"], "optimize.bounds", pair=True)
    if "frozen" in opt:
        _check_param_dict(opt["frozen"], "optimize.frozen")
    sw = raw.get("sweep", {})
    if "fixed" in sw:
        _check_param_dict(sw["fixed"], "sweep.fixed")
    return raw


def _reject_constant(name):
    raise ConfigError(f"{name} is not a JSON number")


def load_config(path):
    """Load and validate a JSON config file (strict JSON: no NaN or Infinity)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} line {exc.lineno}: {exc.msg}") from exc
    return validate_config(raw)


def resolve_hamiltonian(cfg):
    """Resolve the config's Hamiltonian section to (params, gate_time, label)."""
    ham = cfg.get("hamiltonian") or {}
    if "construction" not in ham and "params" not in ham:
        raise ConfigError("config needs a 'hamiltonian' section with 'construction' or 'params'")
    if "construction" in ham:
        gate = CONSTRUCTIONS[ham["construction"]](ham)
        gate_time = cfg.get("gate_time", gate.duration)
        return gate.params, float(gate_time), gate.name
    params = HamiltonianParams(**{k: float(v) for k, v in ham["params"].items()})
    gate_time = cfg.get("gate_time", params.t0)
    return params, float(gate_time), "custom"


def resolve_noise(cfg, t0=1.0):
    """Resolve the config's noise section (reduced units) to a NoiseModel."""
    noise = cfg.get("noise", {})
    return NoiseModel.from_reduced(**{k: float(v) for k, v in noise.items()}, t0=t0)


def resolve_sweep_grid(cfg):
    sw = cfg.get("sweep")
    if not sw:
        return fig1_grid()
    missing = [k for k in ("start1", "stop1", "n1", "start2", "stop2", "n2") if k not in sw]
    if missing:
        raise ConfigError(f"sweep needs {', '.join('sweep.' + k for k in missing)}")
    # These keys are SweepGrid field names; absent keys keep its defaults.
    fields = {k: sw[k] for k in ("fixed", "closure", "coupling_norm", "degeneracy_tol")
              if k in sw}
    try:
        return SweepGrid(
            param1=sw.get("param1", "jy"),
            param2=sw.get("param2", "jz"),
            values1=np.linspace(float(sw["start1"]), float(sw["stop1"]), int(sw["n1"])),
            values2=np.linspace(float(sw["start2"]), float(sw["stop2"]), int(sw["n2"])),
            **fields,
        )
    except ValueError as exc:  # InvalidParameterError, or a negative count
        raise ConfigError(f"sweep: {exc}") from exc
