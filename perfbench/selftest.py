"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, the purity point draw, self time on
nested and overlapping spans, the output checker (the sensitivity
radius's own tolerance included), tracing leaving results bit-identical,
and BENCHMARK.json naming exactly the metrics the worker reports.
"""

import json
import os
import shutil
import tempfile
import unittest

import worker  # noqa: F401  (sets the environment and sys.path first)

import numpy as np  # noqa: E402

import degengate  # noqa: E402
import stats  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


class TailRule(unittest.TestCase):
    def test_uniform_hundred(self):
        p, value, beyond = stats.tail(list(range(1, 101)))
        self.assertEqual((p, beyond), (90, 10))
        self.assertAlmostEqual(value, 90.1)

    def test_small_sample(self):
        p, value, beyond = stats.tail(list(range(1, 27)))
        self.assertEqual((p, beyond), (63, 10))
        self.assertAlmostEqual(value, 16.75)

    def test_ties(self):
        p, value, beyond = stats.tail([1.0] * 20 + [5.0] * 10)
        self.assertEqual((p, beyond), (68, 10))

    def test_too_few_samples_gives_median(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (50, 2.0, 1))

    def test_percentile_matches_numpy(self):
        xs = list(np.random.default_rng(0).random(37))
        for p in (1, 25, 50, 63, 99.9):
            self.assertAlmostEqual(stats.percentile(xs, p), float(np.percentile(xs, p)))


class PurityPoints(unittest.TestCase):
    def test_distinct_high_scales_alternating_constructions(self):
        for seed in range(20):
            points = wl.draw_points(np.random.default_rng(seed))
            scales = [scale for _, scale in points]
            self.assertEqual(len(set(scales)), 3)
            self.assertTrue(all(3.5 <= x <= 4.0 for x in scales))
            kinds = [c for c, _ in points]
            self.assertEqual({kinds[0], kinds[1]}, {"cnot", "bgate"})
            self.assertEqual(kinds[0], kinds[2])


class SelfTime(unittest.TestCase):
    def test_nested(self):
        spans = [(1, 0.0, 10.0, None), (2, 1.0, 4.0, 1), (3, 2.0, 3.0, 2), (4, 5.0, 6.0, 1)]
        st = tr.self_times(spans)
        self.assertEqual(st, {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})

    def test_overlapping_threads_share_time(self):
        # Two worker-thread children of span 1 overlap on [3, 5).
        spans = [(1, 0.0, 10.0, None), (2, 1.0, 5.0, 1), (3, 3.0, 7.0, 1)]
        st = tr.self_times(spans)
        self.assertEqual(st, {1: 4.0, 2: 3.0, 3: 3.0})
        self.assertEqual(sum(st.values()), 10.0)

    def test_equal_timestamps(self):
        spans = [(1, 0.0, 2.0, None), (2, 0.0, 2.0, 1)]
        self.assertEqual(tr.self_times(spans), {2: 2.0})


def scratch_dir():
    base = os.path.join(worker.ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


class Checker(unittest.TestCase):
    def setUp(self):
        self.dir = scratch_dir()
        self.reference = wl.load_reference()
        self.op = wl.Op(name="cli:purity:paper:cnot", run=None, key="cli:purity:paper:cnot",
                        numbers=lambda s: {"loss": s["loss"], "decay_rate": s["decay_rate"]},
                        outdir=self.dir, summary="purity_summary.json")

    def tearDown(self):
        shutil.rmtree(self.dir)

    def _summary(self, **scale):
        ref = self.reference["cli:purity:paper:cnot"]
        summary = {k: v * scale.get(k, 1.0) for k, v in ref.items()}
        with open(os.path.join(self.dir, "purity_summary.json"), "w") as fh:
            json.dump(summary, fh)

    def test_accepts_reference_values(self):
        self._summary()
        self.assertEqual(self.op.check((0, ""), self.reference), [])

    def test_rejects_perturbed_value(self):
        self._summary(loss=1.0 + 1e-5)
        problems = self.op.check((0, ""), self.reference)
        self.assertEqual(len(problems), 1)
        self.assertIn("loss", problems[0])

    def test_radius_has_its_own_tolerance(self):
        want = self.reference["cli:sensitivity:paper:cnot"]["radius"]
        op = wl.fixed_purity_ops(self.dir)[4]
        rtol = wl.radius_rtol(want)
        self.assertGreater(rtol, 1e-4)
        for factor, ok in ((1.0 + 0.5 * rtol, True), (1.0 - 0.5 * rtol, True),
                           (1.0 + 2.0 * rtol, False)):
            problems = wl.compare(op.key, {"radius": want * factor}, self.reference, op.rtols)
            self.assertEqual(problems == [], ok, factor)

    def test_rejects_nonzero_exit(self):
        self._summary()
        self.assertTrue(self.op.check((3, "numerical failure"), self.reference))


class TracingIsTransparent(unittest.TestCase):
    def test_traced_ops_bit_identical(self):
        work = scratch_dir()
        try:
            plain = wl.fixed_purity_ops(os.path.join(work, "plain"))[0]
            traced = wl.fixed_purity_ops(os.path.join(work, "traced"))[0]
            window = wl.window_ops(*wl.window_lattice()[0], wl.fig1_noise())[0]
            a, sweep_a = plain.run(), window.run()
            original = degengate.redfield.gate_purity
            with tr.Tracer() as t:
                t.begin_op(0)
                b, sweep_b = traced.run(), window.run()
            self.assertEqual(a, b)
            self.assertEqual(wl.digest_dir(plain.outdir), wl.digest_dir(traced.outdir))
            self.assertTrue(np.array_equal(sweep_a.decay_rate, sweep_b.decay_rate))
            labels = {s[1] for s in t.spans()}
            self.assertTrue({"cli.main", "redfield.gate_purity", "search.sweep"} <= labels)
            self.assertIs(degengate.redfield.gate_purity, original)
            self.assertIs(degengate.search.gate_purity, original)
        finally:
            shutil.rmtree(work)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_match_worker(self):
        with open(os.path.join(worker.ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        units = worker.per_layer_units()
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, units)
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         {"setup_s", "wall_s", "op_ms_p50", "op_ms_tail", "ok_frac", "peak_rss_mb"})
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(wl.BUILDERS))


if __name__ == "__main__":
    unittest.main()
