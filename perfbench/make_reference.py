"""Compute the reference values the benchmark checks op outputs against.

Runs every op any seed can draw (all fixed experiments, every point of
the control-scale lattice, every zoom window, every class-pulse ratio)
once and stores its key numbers in ``reference.json``. Run it only at a
commit whose outputs are trusted:

    python3 perfbench/make_reference.py

It takes a few minutes on one core.
"""

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import json  # noqa: E402

import workloads as wl  # noqa: E402


def all_ops(workdir):
    ops = wl.fixed_purity_ops(workdir)
    for construction in ("cnot", "bgate"):
        for scale in wl.POINT_SCALES:
            ops.append(wl.point_op(workdir, len(ops), construction, scale))
    ops.append(wl.fig1_op(workdir, len(ops), 1))
    nm = wl.fig1_noise()
    for a, b in wl.window_lattice():
        ops.append(wl.window_ops(a, b, nm)[0])
    ops.append(wl.probe_op())
    ops.extend(wl.class_op(j) for j in wl.CLASS_J)
    return ops


def main():
    workdir = os.path.join(ROOT, ".perfbench_work", f"reference-{os.getpid()}")
    reference = {}
    try:
        ops = all_ops(workdir)
        for i, op in enumerate(ops):
            value = op.value_for_checks(op.run())
            if op.extra:
                problems = op.extra(value)
                if problems:
                    raise SystemExit(f"{op.name}: {problems}")
            reference[op.key] = op.numbers(value)
            print(f"[{i + 1}/{len(ops)}] {op.key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
