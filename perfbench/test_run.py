"""Tests of the benchmark's own logic (aggregation, VmHWM reading, output checks).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest

import run

REF = {
    "fig5b/single,overlap/8": {
        "fits": True, "iters": 100, "time_us": 902591.34850111336,
        "gflops": 808.27965936469423, "events": 125480, "messages": 6440,
        "path_us": 902591.34850111336,
    },
    "fig5b/single-half,overlap/1": {"fits": False, "iters": 100, "time_us": 0, "gflops": 0},
}


def op(op_id, pass_=0, host_s=1.0, **outputs):
    rec = {"type": "op", "id": op_id, "pass": pass_, "host_s": host_s}
    rec.update(outputs)
    return rec


def modeled(pass_=0, host_s=1.0, **changes):
    rec = op("fig5b/single,overlap/8", pass_, host_s, **REF["fig5b/single,overlap/8"])
    rec.update(changes)
    return rec


class Aggregation(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(run.geomean([1.0, 4.0, 16.0]), 4.0)
        self.assertAlmostEqual(run.geomean(iter([2.0])), 2.0)
        values = [854.97, 1e-3, 3.5e4, 2.25, 7.0]
        self.assertEqual(run.geomean(values), run.geomean(reversed(values)))
        with self.assertRaises(ValueError):
            run.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            run.geomean([])

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(range(19)))
        self.assertEqual(run.tail_percentile(range(1, 21)), (50, 10))
        self.assertEqual(run.tail_percentile(range(1, 101)), (90, 90))
        self.assertEqual(run.tail_percentile(range(1, 1001)), (99, 990))
        self.assertEqual(run.tail_percentile([5.0] * 29 + [1.0]), (50, 5.0))

    def test_run_s_sums_per_op_medians_and_gflops_skips_oom(self):
        records = [
            modeled(0, 1.0), modeled(1, 5.0), modeled(2, 2.0),
            op("fig5b/single-half,overlap/1", 0, 1e-6, fits=False, iters=100, gflops=0),
            op("fig5b/single-half,overlap/1", 1, 3e-6, fits=False, iters=100, gflops=0),
            {"type": "summary", "vmhwm": "VmHWM:\t    2048 kB"},
        ]
        m = run.end_to_end(records, [0.3, 0.1, 0.2])
        self.assertAlmostEqual(m["run_s"], 2.0 + 2e-6)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(m["sim_gflops"], REF["fig5b/single,overlap/8"]["gflops"])
        self.assertEqual(m["solver_iters"], 100)

    def test_propagator_run_s_is_pass_iters_at_fastest_rate(self):
        def solve(op_id, pass_, host_s, iters):
            return op(op_id, pass_, host_s, fits=True, iters=iters, gflops=14.0, converged=True)
        records = [
            solve("prop/spin0-color0", 0, 2.0, 20), solve("prop/spin0-color1", 0, 3.3, 22),
            solve("prop/spin0-color0", 1, 1.6, 20), solve("prop/spin0-color1", 1, 1.65, 22),
            solve("prop/spin0-color0", 2, 1.9, 20),
            {"type": "summary", "vmhwm": "VmHWM:\t    2048 kB"},
        ]
        m = run.end_to_end(records, [0.3])
        # fastest rate 1.65 s / 22 iterations = 0.075 s, over 20 + 22 iterations
        self.assertAlmostEqual(m["run_s"], 0.075 * 42)
        self.assertEqual(m["solver_iters"], 42)

    def test_other_s_closes_the_layer_sum(self):
        layers = {k: 0.5 for k in run.PER_LAYER}
        layers.update({"type": "layers", "run_s": 4.0, "traced_pass_s": 9.0, "sim.events": 1e6})
        out = run.per_layer([layers])
        self.assertAlmostEqual(out["other_s"] + sum(out[k] for k in run.SELF_TIMES), 4.0)
        self.assertAlmostEqual(out["bench.trace_overhead_s"], 5.0)
        self.assertAlmostEqual(out["sim.ns_per_event"], 500.0)
        del layers["api.apply_matrix_s"]
        with self.assertRaises(run.BenchError):
            run.per_layer([layers])


class VmHWM(unittest.TestCase):
    def test_parses_status_text(self):
        text = "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  500628 kB\nVmRSS:\t 1 kB\n"
        self.assertAlmostEqual(run.parse_vmhwm_mb(text), 500628 / 1024)

    def test_reads_this_process(self):
        with open("/proc/self/status") as f:
            self.assertGreater(run.parse_vmhwm_mb(f.read()), 0)

    def test_rejects_missing_or_malformed_line(self):
        with self.assertRaises(ValueError):
            run.parse_vmhwm_mb("VmRSS:\t 12 kB\n")
        with self.assertRaises(ValueError):
            run.parse_vmhwm_mb("VmHWM:\t 12 MB\n")


class ReferenceCheck(unittest.TestCase):
    def test_matching_op_passes(self):
        self.assertEqual(run.op_problems(modeled(), REF), [])
        oom = op("fig5b/single-half,overlap/1", fits=False, iters=100, time_us=0, gflops=0)
        self.assertEqual(run.op_problems(oom, REF), [])

    def test_perturbed_reference_fails_the_op(self):
        for key in ("time_us", "gflops", "path_us", "events", "messages"):
            ref = json.loads(json.dumps(REF))
            value = ref["fig5b/single,overlap/8"][key]
            ref["fig5b/single,overlap/8"][key] = (
                math.nextafter(value, math.inf) if isinstance(value, float) else value + 1)
            self.assertTrue(run.op_problems(modeled(), ref), key)

    def test_path_must_equal_makespan(self):
        rec = modeled(path_us=902591.0)
        ref = {rec["id"]: dict(REF[rec["id"]], path_us=902591.0)}
        self.assertTrue(any("critical path" in p for p in run.op_problems(rec, ref)))

    def test_unknown_op_fails(self):
        self.assertTrue(run.op_problems(op("fig5a/new/8", fits=True), REF))

    def test_propagator_needs_convergence_and_true_residual(self):
        good = op("prop/spin0-color0", converged=True, residual=5e-7, residual_bound=6e-7)
        self.assertEqual(run.op_problems(good, REF), [])
        self.assertTrue(run.op_problems(dict(good, residual=7e-7), REF))
        self.assertTrue(run.op_problems(dict(good, residual=float("nan")), REF))
        self.assertTrue(run.op_problems(dict(good, residual=None), REF))
        self.assertTrue(run.op_problems(dict(good, converged=False), REF))

    def test_evaluate_counts_failed_records(self):
        records = [
            modeled(0), modeled(1, host_s=2.0),
            modeled(2, iters=99),  # reference mismatch and pass-to-pass change
            {"type": "check", "id": "x", "check": "purity", "ok": True},
            {"type": "check", "id": "y", "check": "purity", "ok": False},
            {"type": "pass", "pass": 0},
        ]
        attempted, failed, problems = run.evaluate(records, REF)
        self.assertEqual((attempted, failed), (5, 2))
        self.assertTrue(any("differ between passes" in p for p in problems))


class Contract(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
