"""Command-line interface.

Subcommands map one-to-one onto the library surface:

    spectrum     eigenvalues, gaps and degeneracy classification
    purity       16-state gate purity trace (or protocol comparison)
    sweep        purity-decay-rate heatmap over two controls
    optimize     degeneracy-constrained gate search
    invariants   Makhlin invariants of a named gate or construction
    sensitivity  detuning tolerance around an optimum
    calibrate    device numbers -> Ohmic coupling and loss estimates

Every run is reproducible from its config and seed alone; outputs are
byte-identical across reruns and thread counts (timestamps are opt-in
via --timestamp and confined to a metadata field). Exit codes: 0 success,
2 configuration error (including any value the library rejects as out of
range), 3 numerical failure, 4 non-convergence.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import (
    load_config,
    resolve_hamiltonian,
    resolve_noise,
    resolve_sweep_grid,
    validate_config,
)
from .constructions import comparison_noise, protocol_comparison, target_gate
from .errors import (
    ConfigError,
    DegengateError,
    IntegrationError,
    InvalidParameterError,
    StateValidityError,
)
from .hamiltonian import build_hamiltonian, classify_degeneracy, eigensystem
from .metrics import makhlin_invariants, report
from .presets import experiment_config
from .redfield import RELAXATION_NORMALIZATION, gate_purity
from .search import SearchSpec, calibrate, optimize, sensitivity, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NONCONVERGED = 4


#: Rows ``write_csv`` renders per string operation; bounds the text held
#: in memory at once.
CSV_CHUNK_ROWS = 512


def _fmt(x):
    """17-significant-digit float formatting for CSV cells."""
    return format(float(x), ".17g")


def write_csv(path, header, rows, failure=None):
    """Write a CSV with LF endings and '.' decimals; floats at 17 digits.

    ``rows`` is a sequence of equal-length rows or a 2-D array. The first
    row's cell types fix every column's format: ``%.17g`` (the text of
    ``_fmt``) for float and numpy floating cells, ``str`` for the rest.
    Rows are rendered CSV_CHUNK_ROWS at a time with one ``%`` each.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if len(rows):
            row_format = ",".join(
                "%.17g" if isinstance(c, (float, np.floating)) else "%s"
                for c in rows[0]
            ) + "\n"
            for start in range(0, len(rows), CSV_CHUNK_ROWS):
                chunk = rows[start:start + CSV_CHUNK_ROWS]
                if isinstance(chunk, np.ndarray):
                    cells = tuple(chunk.ravel().tolist())
                else:
                    cells = tuple(c for row in chunk for c in row)
                fh.write((row_format * len(chunk)) % cells)
        if failure is not None:
            fh.write(f"# FAILED: {failure}\n")


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _metadata(cfg, args):
    meta = {
        "config": cfg,
        "seed": cfg.get("seed", 0),
        "version": __version__,
    }
    if args.timestamp:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return meta


def _load(args):
    if args.experiment and args.config:
        raise ConfigError("give either --config or --experiment, not both")
    if args.experiment:
        cfg = experiment_config(args.experiment)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("a --config file or --experiment name is required")
    validate_config(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _outdir(args):
    out = args.out or os.environ.get("DEGENGATE_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Subcommands


def cmd_spectrum(args):
    cfg = _load(args)
    params, gate_time, label = resolve_hamiltonian(cfg)
    es = eigensystem(build_hamiltonian(params))
    rep = classify_degeneracy(es, 1e-6)
    print(f"construction: {label}")
    print("energies (units pi/t0):", " ".join(_fmt(e / np.pi) for e in es.energies))
    print("degeneracy:", rep.classification)
    print("pair gaps (pi/t0):", _fmt(rep.pair_gaps[0] / np.pi), _fmt(rep.pair_gaps[1] / np.pi))
    print("gaps omega_nm (pi/t0):")
    for (n, m), w in sorted(es.gaps().items()):
        print(f"  ({n},{m}): {_fmt(w / np.pi)}")
    payload = {
        "label": label,
        "energies_reduced": [e / np.pi for e in es.energies.tolist()],
        "classification": rep.classification,
        "min_gap_reduced": rep.min_gap / np.pi,
        "pair_gaps_reduced": [g / np.pi for g in rep.pair_gaps],
        "meta": _metadata(cfg, args),
    }
    write_json(os.path.join(_outdir(args), "spectrum.json"), payload)
    return EXIT_OK


def _purity_rows(trace):
    return np.column_stack([trace.times, trace.average, trace.per_state])


_PURITY_HEADER = ["t", "P"] + [f"p{j + 1:02d}" for j in range(16)]


def cmd_purity(args):
    cfg = _load(args)
    out = _outdir(args)
    if "comparison" in cfg:
        # Absent keys keep the defaults of comparison_noise and protocol_comparison.
        noise = {k: v for k, v in cfg["comparison"].items() if k != "amplitude_bound"}
        comp = protocol_comparison(comparison_noise(**noise),
                                   cfg["comparison"].get("amplitude_bound"))
        write_csv(
            os.path.join(out, "comparison_onestep.csv"),
            _PURITY_HEADER,
            _purity_rows(comp["onestep_trace"]),
        )
        write_csv(
            os.path.join(out, "comparison_fivestep.csv"),
            _PURITY_HEADER,
            _purity_rows(comp["fivestep_trace"]),
        )
        payload = {
            "onestep_loss": comp["onestep_loss"],
            "fivestep_loss": comp["fivestep_loss"],
            "loss_ratio": comp["loss_ratio"],
            "duration_ratio": comp["duration_ratio"],
            "fivestep_duration": comp["sequence"].total_duration,
            "amplitude_bound": comp["sequence"].amplitude_bound,
            "meta": _metadata(cfg, args),
        }
        write_json(os.path.join(out, "comparison_summary.json"), payload)
        print(
            f"one-step loss {comp['onestep_loss']:.6g}; five-step loss "
            f"{comp['fivestep_loss']:.6g}; ratio {comp['loss_ratio']:.3g}; "
            f"duration ratio {comp['duration_ratio']:.3g}"
        )
        return EXIT_OK

    params, gate_time, label = resolve_hamiltonian(cfg)
    nm = resolve_noise(cfg, t0=params.t0)
    t_cfg = cfg.get("time", {})
    t_final = float(t_cfg.get("t_final", gate_time))
    dt = t_cfg.get("dt")
    trace_path = os.path.join(out, "purity_trace.csv")
    try:
        trace = gate_purity(params, nm, t_final=t_final, dt=dt)
    except (StateValidityError, IntegrationError) as exc:
        write_csv(trace_path, _PURITY_HEADER, [], failure=str(exc))
        print(f"purity run failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    write_csv(trace_path, _PURITY_HEADER, _purity_rows(trace))
    payload = {
        "label": label,
        "initial_slope": trace.initial_slope,
        "decay_rate": trace.decay_rate,
        "loss": trace.loss(),
        "t_final": t_final,
        "meta": _metadata(cfg, args),
    }
    write_json(os.path.join(out, "purity_summary.json"), payload)
    print(f"{label}: |dP/dt|(0) = {trace.decay_rate:.6g}, 1-P({t_final:g}) = {trace.loss():.6g}")
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load(args)
    out = _outdir(args)
    grid = resolve_sweep_grid(cfg)
    nm = resolve_noise(cfg)
    result = sweep(grid, nm)
    header = [
        grid.param1,
        grid.param2,
        "feasible",
        "dpdt0",
        "degeneracy_class",
        "min_gap",
        "pair_gap",
        "ground_gap",
        "reason",
    ]
    rows = [
        [
            r[grid.param1],
            r[grid.param2],
            r["feasible"],
            r["dpdt0"],
            r["degeneracy_class"],
            r["min_gap"],
            r["pair_gap"],
            r["ground_gap"],
            r["reason"],
        ]
        for r in result.to_records()
    ]
    write_csv(os.path.join(out, "sweep.csv"), header, rows)
    argmin = sorted(result.argmin_cells(1e-12))
    feasible_rates = result.decay_rate[result.feasible]
    min_rate = float(feasible_rates.min()) if feasible_rates.size else None
    payload = {
        "argmin_cells": [[int(i), int(j)] for i, j in argmin],
        "argmin_points": [
            [float(grid.values1[i]), float(grid.values2[j])] for i, j in argmin
        ],
        "min_rate": min_rate,
        "feasible_cells": int(feasible_rates.size),
        "meta": _metadata(cfg, args),
    }
    write_json(os.path.join(out, "sweep_summary.json"), payload)
    print(
        f"sweep done: {payload['feasible_cells']} feasible cells, min |dP/dt| = "
        f"{'none' if min_rate is None else format(min_rate, '.6g')} at {payload['argmin_points']}"
    )
    return EXIT_OK


def cmd_optimize(args):
    cfg = _load(args)
    out = _outdir(args)
    opt = cfg.get("optimize")
    if not opt or "bounds" not in opt:
        raise ConfigError("optimize needs an 'optimize' section with 'bounds'")
    # Config keys are SearchSpec field names; absent keys keep its defaults.
    fields = {k: v for k, v in opt.items() if k not in ("bounds", "frozen")}
    fields.update({k: cfg[k] for k in ("gate_time", "seed") if k in cfg})
    spec = SearchSpec(
        target=cfg.get("target", "CNOT"),
        bounds={k: tuple(v) for k, v in opt["bounds"].items()},
        frozen={k: float(v) for k, v in opt.get("frozen", {}).items()},
        **fields,
    )
    nm = resolve_noise(cfg)
    result = optimize(spec, nm)
    payload = {
        "report": result.report.to_dict(),
        "objective": result.objective,
        "objective_history": list(result.objective_history),
        "converged": result.converged,
        "invariant_gap": result.invariant_gap,
        "evaluations": result.evaluations,
        "meta": _metadata(cfg, args),
    }
    write_json(os.path.join(out, "optimize_report.json"), payload)
    print(
        f"best objective {result.objective:.6g}; distance "
        f"{result.report.distance_phase_opt:.3g}; converged: {result.converged}"
    )
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


def cmd_invariants(args):
    if args.gate:
        cfg = {"target": args.gate, "seed": 0}
        u = target_gate(args.gate).matrix
        label = args.gate.upper()
    else:
        cfg = _load(args)
        if "hamiltonian" in cfg:
            from scipy.linalg import expm

            params, gate_time, label = resolve_hamiltonian(cfg)
            u = expm(-1j * gate_time * build_hamiltonian(params))
        else:
            u = target_gate(cfg.get("target", "CNOT")).matrix
            label = cfg.get("target", "CNOT")
    inv = makhlin_invariants(u)
    payload = {
        "label": label,
        "G1": [inv.g1.real, inv.g1.imag],
        "G2": [inv.g2.real, inv.g2.imag],
        "meta": _metadata(cfg, args),
    }
    write_json(os.path.join(_outdir(args), "invariants.json"), payload)
    print(f"{label}: G1 = {inv.g1:.12g}, G2 = {inv.g2:.12g}")
    return EXIT_OK


def cmd_sensitivity(args):
    cfg = _load(args)
    out = _outdir(args)
    params, gate_time, label = resolve_hamiltonian(cfg)
    nm = resolve_noise(cfg, t0=params.t0)
    # Config keys are sensitivity() argument names; absent keys keep its defaults.
    options = {k: float(v) for k, v in cfg.get("sensitivity", {}).items()}
    rep = sensitivity(params, nm, gate_time=gate_time, **options)
    payload = {
        "label": label,
        "budget": rep.budget,
        "radius": rep.radius,
        "radii": rep.radii,
        "quadratic": rep.quadratic,
        "linear": rep.linear,
        "coherent_linear": rep.coherent_linear,
        "non_optimal": rep.non_optimal,
        "meta": _metadata(cfg, args),
    }
    write_json(os.path.join(out, "sensitivity_report.json"), payload)
    print(
        f"{label}: tolerance radius {rep.radius:.4%} of parameter values "
        f"(budget {rep.budget:g}); non-optimal: {rep.non_optimal}"
    )
    return EXIT_OK


def cmd_calibrate(args):
    cfg = _load(args)
    out = _outdir(args)
    cal_cfg = cfg.get("calibrate") or {}
    missing = [k for k in ("delta_ghz", "t1_inverse_ghz") if k not in cal_cfg]
    if missing:
        raise ConfigError(f"calibrate needs {', '.join('calibrate.' + k for k in missing)}")
    cal = calibrate(
        delta_ghz=float(cal_cfg["delta_ghz"]),
        t1_inverse_ghz=float(cal_cfg["t1_inverse_ghz"]),
        temperature_kelvin=cal_cfg.get("temperature_kelvin"),
    )
    # Loss estimates for the two published one-step constructions at the
    # calibrated coupling, both over one nominal gate duration.
    from .constructions import cnot_class_pulse, onestep_bgate

    b_gate = onestep_bgate(refined=True)
    t_b = b_gate.params.t0
    loss_b = gate_purity(b_gate.params, cal.noise, t_final=t_b, dt=t_b).loss()
    ratio = cal_cfg.get("j_ghz", 20.0) / float(cal_cfg["delta_ghz"])
    class_gate = cnot_class_pulse(ratio, 1.0)
    t_cnot = class_gate.params.t0
    loss_cnot = gate_purity(class_gate.params, cal.noise, t_final=t_cnot, dt=t_cnot).loss()
    payload = {
        "alpha": cal.alpha,
        "flagged": cal.flagged,
        "energy_unit_ghz": cal.energy_unit_ghz,
        "temperature_machine_ghz": cal.temperature_machine,
        "noise_reduced": {
            "alpha": cal.noise.alpha,
            "temperature": cal.noise.temperature / np.pi,
            "cutoff": cal.noise.cutoff / np.pi,
        },
        "pinned_normalization": RELAXATION_NORMALIZATION,
        "purity_loss_bgate": loss_b,
        "purity_loss_cnot_class": loss_cnot,
        "meta": _metadata(cfg, args),
    }
    write_json(os.path.join(out, "calibration_report.json"), payload)
    print(
        f"alpha = {cal.alpha:.6g}; 1-P_B = {loss_b:.4g}; "
        f"1-P_CNOT = {loss_cnot:.4g}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="degengate",
        description="Design and benchmark one-step two-qubit gates at "
        "spectral-degeneracy points.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--experiment", help="bundled experiment name (e.g. paper:fig1)")
        p.add_argument("--out", help="output directory (default: $DEGENGATE_OUT or .)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; has no effect")
        p.add_argument(
            "--timestamp",
            action="store_true",
            help="include a timestamp in report metadata (breaks byte-reproducibility)",
        )

    for name, fn in (
        ("spectrum", cmd_spectrum),
        ("purity", cmd_purity),
        ("sweep", cmd_sweep),
        ("optimize", cmd_optimize),
        ("invariants", cmd_invariants),
        ("sensitivity", cmd_sensitivity),
        ("calibrate", cmd_calibrate),
    ):
        p = sub.add_parser(name)
        common(p)
        if name == "invariants":
            p.add_argument("--gate", help="named target gate instead of a config")
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError) as exc:
        # The library raises InvalidParameterError for an out-of-range
        # input, which on the command line can only come from the config.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StateValidityError, IntegrationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DegengateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
