"""Run every workload, print all metrics, and write a results file.

    python3 perfbench/record.py --out perfbench/results/NAME.json [--seeds 1 2 3]

Each workload runs once per seed untraced (end-to-end metrics) and once,
for the first seed, traced (per-layer metrics), each through run.py in
fresh processes. The results file records the machine and library
versions, every run's metrics and details, the median and spread
(interquartile range over median) of each end-to-end metric across
seeds, and the per-op latencies next to the ROADMAP baseline figures.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("purity", "landscape", "search")

#: ROADMAP baseline figures (seconds) and the op whose median latency
#: stands in for each. The ops run through the CLI, so they also include
#: config parsing and writing the output files.
ROADMAP = [
    ("gate_purity, one-step CNOT", 0.27, "purity", "cli:purity:paper:cnot"),
    ("paper:fig1 sweep, 1 thread", 1.57, "landscape", "cli:sweep:paper:fig1:threads1"),
    ("paper:fig1 sweep, 4 threads (here 2)", 2.66, "landscape", "cli:sweep:paper:fig1:threads2"),
    ("protocol_comparison (paper:fig2)", 2.8, "purity", "cli:purity:paper:fig2"),
]


def provenance():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {out.returncode}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    return result


def summarize(runs):
    summary = {}
    for workload in WORKLOADS:
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if not plain:
            continue
        out = summary[workload] = {}
        for name, m in plain[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in plain]
            entry = {"median": statistics.median(values), "unit": m["unit"], "n": len(values)}
            if len(values) >= 2:
                entry["spread"] = stats.spread(values)
            out[name] = entry
    return summary


def roadmap(runs):
    rows = []
    for label, baseline, workload, op in ROADMAP:
        ms = [r["details"]["op_median_ms"][op] for r in runs
              if r["workload"] == workload and not r["trace"]]
        if not ms:
            continue
        measured = statistics.median(ms) / 1e3
        ratio = measured / baseline
        rows.append({
            "what": label, "roadmap_s": baseline, "op": op, "measured_s": measured,
            "ratio": ratio,
            "note": "large disagreement" if not 0.67 <= ratio <= 1.5 else "agrees",
        })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    runs = []
    for workload in WORKLOADS:
        for seed, trace in [(seed, 0) for seed in args.seeds] + [(args.seeds[0], 1)]:
            r = bench(workload, seed, seconds, trace)
            runs.append(r)
            print(f"{workload} seed {seed} trace {trace}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
            if not trace:
                for name, m in sorted(r["metrics"].items()):
                    print(f"  {name} = {m['value']:.6g} {m['unit']}", flush=True)

    results = {
        "provenance": provenance(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "summary": summarize(runs),
        "roadmap_comparison": roadmap(runs),
        "runs": runs,
    }
    for workload, metrics in results["summary"].items():
        for name, e in sorted(metrics.items()):
            spread = f", spread {e['spread']:.3f}" if "spread" in e else ""
            print(f"{workload} {name}: median {e['median']:.6g} {e['unit']}{spread}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
