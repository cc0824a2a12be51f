"""One workload in one fresh process; started by run.py.

Imports degengate and builds the workload's inputs, prints ``READY``
(run.py times set-up up to that line), then runs passes over the op
list until ``--seconds`` is used up and prints one JSON result line.

Every run makes at least ``MIN_PASSES`` passes. Untraced runs give the
end-to-end metrics: ``wall_s`` is the time of one pass, summed over ops
from each op's median latency across passes; ``op_ms_p50`` and
``op_ms_tail`` pool every op latency of the run. Traced runs alternate
untraced and traced passes (U, T, U, T, ...) and give the per-layer
metrics; the end-to-end numbers never come from a traced pass.

Times are reported at a reference CPU speed. The CPU speed of a shared
machine drifts between phases that differ by up to half again in
speed, and the phases last seconds to minutes, so raw times of the same
op spread by 40% across a run. A fixed numpy kernel is timed before the
first op and after every op; each op's wall time is multiplied by
``CALIBRATION_REF_S`` over the mean kernel time around it. Raw times
are kept in the run details. Set-up time is not scaled: scaling each
set-up by the kernel timed right after it in the same process doubled
the spread of set-up times over 18 fresh processes.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

from degengate import redfield  # noqa: E402

import stats  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

#: No pass starts once the measured time would pass this, whatever
#: ``--seconds`` says, so a run always ends within the time limit.
HARD_LIMIT_S = 140.0

#: Passes every run makes. Three passes give the purity workload 24 op
#: latencies, so its tail percentile (10 samples beyond it) falls among
#: its scale-3.5-to-4 points (see workloads.py). At 20 seconds every
#: workload makes exactly this many passes at the seed commit.
MIN_PASSES = 3

#: Per-layer counters read from outside the traced functions.
COUNTED = {
    "redfield.pipeline.hits": "count",
    "redfield.pipeline.misses": "count",
    "redfield.pipeline.hit_ratio": "ratio",
    "redfield.trace_samples": "count",
    "search.optimize.evaluations": "count",
    "search.optimize.converged_ratio": "ratio",
    "search.sweep.cells": "count",
    "search.sweep.failed_cells": "count",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}


#: Kernel time that defines the reference CPU speed (about its median
#: on the 2-core Xeon the seed-commit baseline was taken on).
CALIBRATION_REF_S = 0.015
_RNG = np.random.default_rng(0)
_KERNEL_A = 0.01 * (_RNG.normal(size=(16, 16)) + 1j * _RNG.normal(size=(16, 16)))
_KERNEL_V = _RNG.normal(size=(16, 16)) + 0j
_KERNEL_H = _RNG.normal(size=(4, 4))
_KERNEL_H = _KERNEL_H + _KERNEL_H.T


def kernel_seconds():
    """Wall time of a fixed loop of the small-matrix work degengate does.

    A 16x16 complex product (one RK4 stage), a 4x4 ``eigh`` and an
    ``einsum`` per step, so interpreter and numpy call overhead weigh in
    as they do in the workloads. The same work on every call.
    """
    start = time.perf_counter()
    y = _KERNEL_V
    for _ in range(600):
        y = _KERNEL_A @ y
        _, u = np.linalg.eigh(_KERNEL_H)
        np.einsum("ij,kj->ik", u, u)
    return time.perf_counter() - start


def per_layer_units():
    units = {}
    for label in tr.LABELS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    units.update(COUNTED)
    return units


def _cache_info():
    info = getattr(redfield._pipeline, "cache_info", None)
    return info() if info is not None else None


class Run:
    """Runs passes over one op list and keeps what the metrics need."""

    def __init__(self, ops, trace):
        self.ops = ops
        self.trace = trace
        self.reference = wl.load_reference()
        self.tracer = tr.Tracer() if trace else None
        self.passes = []  # dicts: traced, raw and scaled latencies, hits, misses, counts
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.kernels = []

    def fail(self, op, problems):
        self.failed += 1
        for p in problems:
            msg = f"{op.name}: {p}"
            print(f"perfbench: FAILED {msg}", file=sys.stderr)
            if len(self.problems) < 50:
                self.problems.append(msg)

    def one_pass(self, traced):
        index = len(self.passes)
        record = {"traced": traced, "raw": [], "latencies": [], "hits": 0, "misses": 0}
        if traced:
            self.tracer.counts = defaultdict(int)
            self.tracer.__enter__()
        kernel = kernel_seconds()
        self.kernels.append(kernel)
        try:
            for i, op in enumerate(self.ops):
                before = _cache_info()
                token = self.tracer.begin_op(index * len(self.ops) + i) if traced else None
                start = time.perf_counter()
                try:
                    value, error = op.run(), None
                except Exception:  # an op that raises is a failed op, not a crash
                    value, error = None, traceback.format_exc(limit=3)
                latency = time.perf_counter() - start
                if traced:
                    self.tracer.end_op(token)
                after = _cache_info()
                kernel_after = kernel_seconds()
                self.kernels.append(kernel_after)
                scale = CALIBRATION_REF_S / (0.5 * (kernel + kernel_after))
                kernel = kernel_after
                record["raw"].append(latency)
                record["latencies"].append(latency * scale)
                self.attempted += 1
                problems = [error] if error else self.check(op, i, value, before, after)
                if before is not None:
                    record["hits"] += after.hits - before.hits
                    record["misses"] += after.misses - before.misses
                if problems:
                    self.fail(op, problems)
        finally:
            if traced:
                self.tracer.__exit__(None, None, None)
                record["counts"] = dict(self.tracer.counts)
        self.passes.append(record)

    def check(self, op, i, value, before, after):
        try:
            problems = op.check(value, self.reference)
        except Exception:  # a malformed output is a failed check
            return [traceback.format_exc(limit=3)]
        if op.outdir is not None:
            digest = wl.digest_dir(op.outdir)
            first = self.digests.setdefault(i, digest)
            if digest != first:
                problems.append("output files differ from the first pass")
            if op.same_files_as is not None and digest != self.digests.get(op.same_files_as):
                problems.append(f"output files differ from {self.ops[op.same_files_as].name}")
        if self.trace and op.expect_hit_ratio is not None and before is not None:
            hits, misses = after.hits - before.hits, after.misses - before.misses
            if hits + misses and hits / (hits + misses) != op.expect_hit_ratio:
                problems.append(f"pipeline hit ratio {hits}/{hits + misses}, "
                                f"want {op.expect_hit_ratio}")
        return problems

    def measure(self, seconds):
        """Run passes while another one fits in ``seconds`` of reference-speed time.

        Counting reference-speed rather than raw time keeps the number of
        passes from changing with the machine's speed phase.
        """
        start = time.perf_counter()
        while True:
            self.one_pass(traced=self.trace and len(self.passes) % 2 == 1)
            raw = time.perf_counter() - start
            if raw + raw / len(self.passes) > HARD_LIMIT_S:
                break
            done = sum(sum(p["latencies"]) for p in self.passes)
            if len(self.passes) >= MIN_PASSES and done + done / len(self.passes) > seconds:
                break

    # -- metrics ------------------------------------------------------------

    def untraced(self):
        return [p for p in self.passes if not p["traced"]]

    def end_to_end(self):
        passes = self.untraced()
        latencies = [x for p in passes for x in p["latencies"]]
        pct, tail_value, beyond = stats.tail(latencies)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_op = [stats.median(lat) for lat in zip(*(p["latencies"] for p in passes))]
        metrics = {
            "wall_s": (sum(per_op), "s"),
            "op_ms_p50": (1e3 * stats.median(latencies), "ms"),
            "op_ms_tail": (1e3 * tail_value, "ms"),
            "ok_frac": (1.0 - self.failed / self.attempted, "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        raw = [x for p in passes for x in p["raw"]]
        ranked = sorted((x, op.name) for p in passes for x, op in zip(p["latencies"], self.ops))
        lo = int((len(ranked) - 1) * pct / 100.0)
        details = {"tail_percentile": pct, "tail_samples_beyond": beyond,
                   "tail_between_ops": [ranked[lo][1], ranked[min(lo + 1, len(ranked) - 1)][1]],
                   "op_samples": len(latencies),
                   "raw_wall_s": stats.median([sum(p["raw"]) for p in passes]),
                   "raw_op_ms_p50": 1e3 * stats.median(raw)}
        return metrics, details

    def per_layer(self):
        """Median over traced passes of each per-layer metric, and the op checks."""
        per_pass = defaultdict(list)
        summary = tr.summarize(self.tracer.spans())
        for index, record in enumerate(self.passes):
            if not record["traced"]:
                continue
            values = defaultdict(float)
            for i, op in enumerate(self.ops):
                self_sum, labels = summary[index * len(self.ops) + i]
                latency = record["raw"][i]
                if abs(self_sum - latency) > 0.01 * latency:
                    self.fail(op, [f"span self times sum to {self_sum:.6f} s, "
                                   f"op took {latency:.6f} s"])
                scale = record["latencies"][i] / latency
                for label, (calls, self_s) in labels.items():
                    values[f"{label}.calls"] += calls
                    values[f"{label}.self_s"] += self_s * scale
            counts = record["counts"]
            lookups = record["hits"] + record["misses"]
            optimizes = values["search.optimize.calls"]
            values.update({
                "redfield.pipeline.hits": record["hits"],
                "redfield.pipeline.misses": record["misses"],
                "redfield.pipeline.hit_ratio": record["hits"] / lookups if lookups else 0.0,
                "search.optimize.converged_ratio":
                    counts.get("search.optimize.converged", 0) / optimizes if optimizes else 0.0,
            })
            for name in ("redfield.trace_samples", "search.optimize.evaluations",
                         "search.sweep.cells", "search.sweep.failed_cells", "cli.bytes_written"):
                values[name] = counts.get(name, 0)
            for name in per_layer_units():
                per_pass[name].append(values.get(name, 0.0))
        traced_wall = stats.median([sum(p["latencies"]) for p in self.passes if p["traced"]])
        plain_wall = stats.median([sum(p["latencies"]) for p in self.untraced()])
        per_pass["trace.overhead_frac"] = [traced_wall / plain_wall - 1.0]
        units = per_layer_units()
        return {name: (stats.median(v), units[name]) for name, v in per_pass.items()}

    def op_medians_ms(self):
        passes = self.untraced()
        return {op.name: 1e3 * stats.median([p["latencies"][i] for p in passes])
                for i, op in enumerate(self.ops)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file to write the traced spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = wl.build(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    run = Run(ops, trace=bool(args.trace))
    run.measure(args.seconds)
    details = {
        "passes": len(run.passes),
        "pass_wall_s": [sum(p["latencies"]) for p in run.passes],
        "raw_pass_wall_s": [sum(p["raw"]) for p in run.passes],
        "traced_passes": [p["traced"] for p in run.passes],
        "op_median_ms": run.op_medians_ms(),
        "speed_factor": CALIBRATION_REF_S / stats.median(run.kernels),
        "problems": run.problems,
    }
    if args.trace:
        metrics = run.per_layer()
        if args.spans:
            details["spans_file"] = os.path.relpath(run.tracer.write(args.spans), ROOT)
    else:
        metrics, extra = run.end_to_end()
        details.update(extra)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "details": details,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
