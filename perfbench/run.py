"""degengate benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {purity,landscape,search} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed). Each workload runs in a fresh worker
process. With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; set-up time is the median over that worker and
two more fresh processes that only set up, one started before it and
one after it, each timed from its start to its ``READY`` line. With
``--trace 1`` it holds the per-layer metrics of a separate traced run,
and the spans go to ``.perfbench_out/``. The line before the last holds
run details (pass count, per-op median latencies, which tail percentile
was used and the ops it lies between, raw times, any problems found). All times but set-up are scaled to a
reference CPU speed by a calibration kernel (see worker.py).
Exits non-zero without a result when the checkout has no degengate
sources or the worker fails.

Self-tests: ``python3 perfbench/selftest.py``. Every workload plus a
results file: ``python3 perfbench/record.py --out FILE``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("purity", "landscape", "search")

#: A run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0

ENV = {
    # One BLAS thread per process keeps the thread count within nproc
    # (the landscape workload's --threads 2 sweep is the only parallelism).
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class WorkerError(RuntimeError):
    pass


def spawn(args, workdir, deadline, setup_only=False, spans=None):
    """Start a worker; return (seconds to READY, lines printed after it)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **ENV},
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited with code {code} (ready line {first.strip()!r})")
    return ready, rest


def run(args):
    deadline = time.perf_counter() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    spans = os.path.join(ROOT, ".perfbench_out", f"{tag}-spans.json.gz") if args.trace else None
    try:
        # Set-up-only probes before and after the worker spread the set-up
        # samples over the run: the machine's speed phases make set-up
        # times taken back to back move together.
        setup = []
        if not args.trace:
            setup.append(spawn(args, os.path.join(workdir, "probe0"), deadline, setup_only=True)[0])
        ready, lines = spawn(args, os.path.join(workdir, "run"), deadline, spans=spans)
        setup.append(ready)
        if not args.trace:
            setup.append(spawn(args, os.path.join(workdir, "probe1"), deadline, setup_only=True)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1])
    details = result.pop("details")
    if not args.trace:
        details["setup_samples_s"] = setup
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "degengate", "__init__.py")):
        print(f"perfbench: no degengate sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    try:
        result, details = run(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, m in sorted(result["metrics"].items()):
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
