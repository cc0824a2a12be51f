"""The benchmark's workloads: seed-drawn op lists and the checks on each op.

Every op is a closed-loop call through degengate's public surface: the
CLI experiments run in-process through ``degengate.cli.main`` and write
into a directory under the run's work directory; the other ops call the
library. Functions are looked up on their module at call time, so the
tracer's wrappers see every call.

Seed-drawn inputs come from finite lattices (control scales, zoom-window
origins, coupling ratios), so every input an op can receive has a
seed-commit reference value in ``reference.json`` (see make_reference.py).
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from degengate import cli, constructions, search
from degengate.hamiltonian import PARAM_NAMES
from degengate.noise import NoiseModel

#: Relative tolerance against the seed-commit reference values. Loose
#: enough for an exact propagator in place of RK4 (whose step-halving
#: gate is 1e-8), tight enough to catch a wrong result.
REFERENCE_RTOL = 1e-6

#: The sensitivity radius gets its own tolerance. It is sqrt(budget / q)
#: with q = (e+ + e-) / (2 h^2), h = 2e-3, and each of e+ and e- is a
#: difference of two propagated losses. A loss error d (the 1e-8
#: step-halving gate) moves q by up to 2 d / h^2, so the radius r moves
#: by up to d r^2 / (h^2 budget) relative: 2.9e-4 at the reference radius.
LOSS_ERROR = 1e-8
SENSITIVITY_STEP = 2e-3
SENSITIVITY_BUDGET = 1e-4


def radius_rtol(radius):
    return LOSS_ERROR * radius**2 / (SENSITIVITY_STEP**2 * SENSITIVITY_BUDGET)


REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

DESK_NOISE = {"alpha": 0.01, "temperature": 0.2, "cutoff": 20.0}

# purity: paper:cnot and paper:bgate run the constructions at control
# scale 1; the points scale every control by one of 3.5, 3.625, ..., 4.
# A pass runs three points at distinct seed-drawn scales, alternating
# constructions. Propagation cost grows with scale, so over three passes
# these points give 9 of 24 latencies, ranked between calibration and
# sensitivity: the median and the tail percentile (10 samples beyond it)
# both fall among them, and fig2 and sensitivity are the samples beyond
# the tail.
POINT_SCALES = tuple(3.5 + 0.125 * k for k in range(5))
POINT_COUNT = 3

# landscape: 12x12 zoom windows of width 0.24 whose origins sit on a
# 0.04 lattice offset by half a fig1 step, so no window cell coincides
# with a fig1 cell, and whose far corner stays inside the |J| closure disk.
# One window is drawn from each of WINDOW_COUNT bands of the lattice:
# sweep cost depends on where a window lies, and banding keeps the mix of
# cheap and dear windows nearly the same for every seed.
WINDOW_CELLS = 12
WINDOW_WIDTH = 0.24
WINDOW_COUNT = 12
FIG1_NORM = 2.0615528128088303
FIG1_ARGMIN_CELL = [10, 38]
FIG1_ARGMIN_POINT = (0.5, 2.0)
PROBE_DRAWS = 100
PROBE_SEED = 13

# search: two spec families that converge at the seed commit, plus
# CNOT-class pulses at coupling ratios on a lattice. The SWAP settings
# give a unimodal evaluation count (about 760-880 over 50 Sobol seeds),
# and the op counts put the median op inside the SWAP runs and the tail
# just below the CNOT runs.
CNOT_SEARCHES = 2
SWAP_SEARCHES = 8
CLASS_PULSES = 4
CLASS_J = tuple(1.5 + 0.125 * k for k in range(13))
CONVERGED_DISTANCE = 1e-6


@dataclass
class Op:
    """One timed call and what its result must satisfy.

    ``run()`` is the timed call. For CLI ops (``outdir`` set) it returns
    the exit code and captured stderr; the checks then see the parsed
    ``summary`` file, and every file in ``outdir`` must repeat byte for
    byte in every pass. ``numbers(value)`` gives the key numbers compared
    with ``reference[key]``; ``extra(value)`` returns further problems.
    ``rtols`` maps a key number to a function giving its relative
    tolerance from its reference value (default ``REFERENCE_RTOL``).
    ``expect_hit_ratio`` is the pipeline-cache hit ratio the op must
    show in traced runs whenever it calls the cache; ``same_files_as``
    names an earlier op index whose files this op must reproduce.
    """

    name: str
    run: callable
    key: str = None
    numbers: callable = None
    extra: callable = None
    rtols: dict = None
    outdir: str = None
    summary: str = None
    expect_hit_ratio: float = None
    same_files_as: int = None

    def value_for_checks(self, value):
        """The op's checked value, or raise ``RuntimeError`` for a failed CLI run."""
        if self.outdir is None:
            return value
        code, err = value
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()[-300:]}")
        with open(os.path.join(self.outdir, self.summary), encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, value, reference):
        """Problems with the op's result (empty when it is correct)."""
        try:
            value = self.value_for_checks(value)
        except RuntimeError as exc:
            return [str(exc)]
        problems = list(self.extra(value)) if self.extra else []
        if self.key is not None:
            problems += compare(self.key, self.numbers(value), reference, self.rtols)
        return problems


def load_reference(path=REFERENCE_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(key, numbers, reference, rtols=None):
    """Problems found comparing ``numbers`` with the stored reference."""
    rtols = rtols or {}
    ref = reference.get(key)
    if ref is None:
        return [f"{key}: no reference value stored"]
    problems = []
    for name, want in ref.items():
        got = numbers.get(name)
        if got is None:
            problems.append(f"{key}: {name} missing from output")
        elif not abs(got - want) <= rtols.get(name, lambda _: REFERENCE_RTOL)(want) * abs(want):
            problems.append(f"{key}: {name} = {got!r}, reference {want!r}")
    return problems


def digest_dir(path):
    """sha256 of every file in a directory, by file name."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _cli_run(argv, outdir):
    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", outdir])
        return code, err.getvalue()

    return run


def cli_op(workdir, index, name, argv, summary, **kw):
    outdir = os.path.join(workdir, f"op{index:02d}")
    os.makedirs(outdir, exist_ok=True)
    return Op(name=name, run=_cli_run(argv, outdir), outdir=outdir, summary=summary, **kw)


def write_config(workdir, name, cfg):
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return path


def _pick(*keys):
    return lambda s: {k: s[k] for k in keys}


# ---------------------------------------------------------------------------
# purity

FIXED_PURITY = (
    (["purity", "--experiment", "paper:cnot"], "purity_summary.json",
     ("loss", "decay_rate")),
    (["purity", "--experiment", "paper:bgate"], "purity_summary.json",
     ("loss", "decay_rate")),
    (["purity", "--experiment", "paper:fig2"], "comparison_summary.json",
     ("onestep_loss", "fivestep_loss", "loss_ratio", "duration_ratio")),
    (["calibrate", "--experiment", "paper:calibration"], "calibration_report.json",
     ("alpha", "purity_loss_bgate", "purity_loss_cnot_class")),
    (["sensitivity", "--experiment", "paper:cnot"], "sensitivity_report.json",
     ("radius",)),
)


def fixed_purity_ops(workdir):
    ops = []
    for argv, summary, keys in FIXED_PURITY:
        name = f"cli:{argv[0]}:{argv[2]}"
        rtols = {"radius": radius_rtol} if argv[0] == "sensitivity" else None
        ops.append(cli_op(workdir, len(ops), name, argv, summary, key=name,
                          numbers=_pick(*keys), rtols=rtols))
    return ops


def point_op(workdir, index, construction, scale):
    """``purity --config`` on a construction with every control scaled."""
    make = constructions.onestep_cnot if construction == "cnot" else constructions.onestep_bgate
    params = make().params
    cfg = {
        "hamiltonian": {"params": {n: getattr(params, n) * scale for n in PARAM_NAMES}},
        "noise": dict(DESK_NOISE),
        "seed": 1,
    }
    path = write_config(workdir, f"point{index:02d}", cfg)
    name = f"point:{construction}x{scale:g}"
    return cli_op(workdir, index, name, ["purity", "--config", path], "purity_summary.json",
                  key=name, numbers=_pick("loss", "decay_rate"))


def draw_points(rng):
    """(construction, scale) points at distinct scales, alternating constructions."""
    coin = int(rng.integers(2))
    picks = sorted(int(k) for k in rng.choice(len(POINT_SCALES), POINT_COUNT, replace=False))
    return [(("cnot", "bgate")[(i + coin) % 2], POINT_SCALES[k]) for i, k in enumerate(picks)]


def purity_ops(rng, workdir):
    ops = fixed_purity_ops(workdir)
    for construction, scale in draw_points(rng):
        ops.append(point_op(workdir, len(ops), construction, scale))
    return ops


# ---------------------------------------------------------------------------
# landscape


def fig1_noise():
    return NoiseModel.from_reduced(alpha=0.01, temperature=0.0, cutoff=20.0)


def _fig1_extra(s):
    if s["argmin_cells"] != [FIG1_ARGMIN_CELL]:
        return [f"fig1 argmin cells {s['argmin_cells']}, want [{FIG1_ARGMIN_CELL}]"]
    if not np.allclose(s["argmin_points"][0], FIG1_ARGMIN_POINT, rtol=0, atol=1e-12):
        return [f"fig1 argmin point {s['argmin_points'][0]}"]
    return []


def fig1_op(workdir, index, threads, same_files_as=None):
    return cli_op(
        workdir, index, f"cli:sweep:paper:fig1:threads{threads}",
        ["sweep", "--experiment", "paper:fig1", "--threads", str(threads)],
        "sweep_summary.json", key="cli:sweep:paper:fig1",
        numbers=_pick("min_rate", "feasible_cells"), extra=_fig1_extra,
        expect_hit_ratio=0.0, same_files_as=same_files_as,
    )


def window_origin(a, b):
    return 0.12 + 0.04 * a, 0.50 + 0.04 * b


def window_lattice():
    """Every (a, b) whose window lies inside the fig1 window and the |J| disk."""
    out = []
    for a in range(40):
        for b in range(40):
            jy0, jz0 = window_origin(a, b)
            hi_y, hi_z = jy0 + WINDOW_WIDTH, jz0 + WINDOW_WIDTH
            if hi_y <= 1.70 and hi_z <= 2.08 and hi_y**2 + hi_z**2 <= FIG1_NORM**2:
                out.append((a, b))
    return out


def window_grid(a, b):
    jy0, jz0 = window_origin(a, b)
    return search.SweepGrid(
        param1="jy",
        param2="jz",
        values1=np.linspace(jy0, jy0 + WINDOW_WIDTH, WINDOW_CELLS),
        values2=np.linspace(jz0, jz0 + WINDOW_WIDTH, WINDOW_CELLS),
        fixed={"delta1": 1.0, "delta2": 1.0},
        closure="jx_from_norm",
        coupling_norm=FIG1_NORM,
        degeneracy_tol=0.1,
    )


def _window_numbers(result):
    return {"min_rate": float(np.min(result.decay_rate)),
            "mean_rate": float(np.mean(result.decay_rate))}


def window_ops(a, b, nm):
    """The same zoom window swept twice; the second sweep must hit the cache."""
    grid = window_grid(a, b)
    key = f"window:{a},{b}"
    first = {}

    def extra(repeat):
        def check(result):
            problems = []
            if not result.feasible.all() or any(str(r) for r in result.reason.flat):
                problems.append(f"{key}: infeasible or failed cells")
            if repeat == 1:
                first["rates"] = result.decay_rate.copy()
            elif not np.array_equal(first.get("rates"), result.decay_rate):
                problems.append(f"{key}: second sweep differs from the first")
            return problems

        return check

    return [
        Op(name=f"{key}:sweep{repeat}", run=lambda: search.sweep(grid, nm),
           key=key, numbers=_window_numbers, extra=extra(repeat),
           expect_hit_ratio=1.0 if repeat == 2 else None)
        for repeat in (1, 2)
    ]


def _probe_run():
    gate = constructions.onestep_bgate(refined=True)
    return search.degeneracy_break_probe(
        gate.params, "double", fig1_noise(), draws=PROBE_DRAWS, seed=PROBE_SEED
    )


def _probe_extra(value):
    worse, total, _ = value
    if not worse == total == PROBE_DRAWS:
        return [f"probe: {worse} of {total} draws worse, want {PROBE_DRAWS}"]
    return []


def probe_op():
    return Op(name="probe:bgate", run=_probe_run, key="probe:bgate",
              numbers=lambda v: {"worst_ratio": float(v[2])}, extra=_probe_extra)


def landscape_ops(rng, workdir):
    ops = [fig1_op(workdir, 0, 1), fig1_op(workdir, 1, 2, same_files_as=0)]
    nm = fig1_noise()
    for band in np.array_split(np.array(window_lattice()), WINDOW_COUNT):
        a, b = band[rng.integers(len(band))]
        ops.extend(window_ops(int(a), int(b), nm))
    ops.append(probe_op())
    return ops


# ---------------------------------------------------------------------------
# search


def cnot_search_config(seed):
    """CNOT under the single-degeneracy constraint with a purity term."""
    return {
        "target": "CNOT",
        "optimize": {
            "bounds": {"delta2": [1.0, 2.0], "eps1": [-0.5, 0.0],
                       "eps2": [-1.0, -0.3], "jz": [-1.0, -0.3]},
            "frozen": {"delta1": 0.0, "jx": 0.0, "jy": 0.0},
            "degeneracy": "single",
            "purity_weight": 0.5,
            "restarts": 8,
            "max_iter": 100,
        },
        "noise": dict(DESK_NOISE),
        "seed": seed,
    }


def swap_search_config(seed):
    """SWAP from a Heisenberg coupling, no purity term."""
    return {
        "target": "SWAP",
        "optimize": {
            "bounds": {"jx": [0.05, 0.5], "jy": [0.05, 0.5], "jz": [0.05, 0.5]},
            "frozen": {"delta1": 0.0, "delta2": 0.0, "eps1": 0.0, "eps2": 0.0},
            "restarts": 6,
            "max_iter": 40,
        },
        "noise": dict(DESK_NOISE),
        "seed": seed,
    }


def _converged(s):
    dist = s["report"]["distance_phase_opt"]
    if not s["converged"] or not dist < CONVERGED_DISTANCE:
        return [f"optimize did not converge: distance {dist!r}"]
    return []


def class_op(j):
    key = f"class:j={j:g}"
    return Op(name=key, run=lambda: constructions.cnot_class_pulse(j, 1.0), key=key,
              numbers=lambda gate: {"invariant_gap": gate.notes["invariant_gap"]})


def search_ops(rng, workdir):
    ops = []
    for family, count, make in (("cnot", CNOT_SEARCHES, cnot_search_config),
                                ("swap", SWAP_SEARCHES, swap_search_config)):
        for _ in range(count):
            seed = int(rng.integers(2**31 - 1))
            path = write_config(workdir, f"search{len(ops):02d}", make(seed))
            ops.append(cli_op(workdir, len(ops), f"optimize:{family}:seed{seed}",
                              ["optimize", "--config", path], "optimize_report.json",
                              extra=_converged))
    for k in rng.choice(len(CLASS_J), size=CLASS_PULSES, replace=False):
        ops.append(class_op(CLASS_J[int(k)]))
    return ops


BUILDERS = {"purity": purity_ops, "landscape": landscape_ops, "search": search_ops}


def build(workload, seed, workdir):
    """The workload's op list for ``seed``; configs and outputs go under ``workdir``."""
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[workload](np.random.default_rng(seed), workdir)
