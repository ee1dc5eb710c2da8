"""Tests for the benchmark harness's own code.

Run from the repository root:

    python3 -m unittest discover -s campaign_bench -p 'test_*.py'
"""

import contextlib
import io
import json
import math
import os
import statistics
import unittest

import run

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "testdata", "campaign_cold_seed1995.stdout"), encoding="utf-8") as f:
    SAMPLE = f.read()
COLD = run.WORKLOADS["campaign_cold"]
WARM = run.WORKLOADS["campaign_warm"]


def child(stdout=SAMPLE, code=0):
    return run.Child(wall=1.0, cpu=0.9, rss_mb=16.0, steal=0.0, code=code, stdout=stdout)


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 3.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(run.median(values), 5.5)
        self.assertEqual(run.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(run.quartiles(values), (2.75, 5.5, 8.25))

    def test_spread_is_interquartile_range_over_median(self):
        self.assertAlmostEqual(run.spread([7.0, 1.0, 3.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0, 10.0]),
                               5.5 / 5.5)
        self.assertEqual(run.spread([4.0] * 10), 0.0)
        self.assertEqual(run.spread([0.0] * 10), 0.0)
        self.assertEqual(run.spread([0.0] * 6 + [1.0] * 4), math.inf)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        for n, expected in [(5, 0), (10, 0), (19, 0), (20, 50), (40, 75), (100, 90),
                            (300, 96), (543, 98), (5000, 99)]:
            p = run.tail_percentile(n)
            self.assertEqual(p, expected, n)
            if p:
                self.assertGreaterEqual(n - math.ceil(p * n / 100), 10)
                if p < 99:
                    self.assertLess(n - math.ceil((p + 1) * n / 100), 10)

    def test_nearest_rank_percentile(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile([3.0], 99), 3.0)

    def test_scale_is_robust_to_one_disturbed_calibration(self):
        ref = run.CALIB_REF_S
        self.assertEqual(run.scale([ref] * 5), 1.0)
        self.assertAlmostEqual(run.scale([2 * ref] * 4 + [10 * ref]), 0.5)
        self.assertAlmostEqual(run.scale([ref, 2 * ref, 3 * ref]), 0.5)

    def test_failed_frac(self):
        self.assertEqual(run.failed_frac(10, 0), 0.0)
        self.assertEqual(run.failed_frac(12, 3), 0.25)
        with self.assertRaises(ValueError):
            run.failed_frac(0, 0)


class Parsers(unittest.TestCase):
    def test_captured_sample_parses(self):
        out = run.parse_campaign(SAMPLE)
        self.assertEqual([m["name"] for m in out["macros"]],
                         ["comparator", "ladder", "bias_gen", "clock_gen", "decoder_slice"])
        self.assertEqual(out["fingerprints"]["comparator"], "cd020960772eba25")
        self.assertEqual(out["macros"][2]["classes"], 61)
        self.assertEqual(out["store"]["computed"], 18)
        self.assertEqual(out["store"]["disk_hits"], 0)
        self.assertEqual(out["occupancy"], {"entries": 18, "bytes": 12002})
        self.assertEqual(out["fig4"], run.CAMPAIGN_FIG4)
        self.assertEqual((out["sim_failed"], out["inject_failed"], out["escalated"]), (0, 0, 0))
        self.assertEqual(run.classes_evaluated(out["macros"], 2), 10)
        self.assertEqual(run.classes_evaluated(out["macros"], None), 184 + 543 + 61 + 145 + 175)

    def test_format_drift_fails_loudly(self):
        drifts = {
            "macro line": ("fingerprint=", "digest="),
            "store line": ("campaign store accounting:", "store accounting:"),
            "occupancy line": ("campaign store occupancy:", "occupancy:"),
            "sim-failed count": ("sim-failed classes:    0", "sim-failed classes:    none"),
            "inject-failed count": ("inject-failed classes:", "injection failures:"),
            "escalated count": ("escalated classes:", "escalations:"),
            "coverage line": ("total fault coverage:", "coverage:"),
            "coverage value": (" 55.7%", " n/a"),
        }
        for what, (old, new) in drifts.items():
            self.assertIn(old, SAMPLE, what)
            with self.assertRaises(run.FormatDrift, msg=what):
                run.parse_campaign(SAMPLE.replace(old, new))

    def test_one_missing_fig4_panel_is_drift(self):
        cut = SAMPLE[: SAMPLE.index("(b — non-catastrophic)")] + SAMPLE[SAMPLE.index("-----"):]
        with self.assertRaises(run.FormatDrift):
            run.parse_fig4(cut)


class Gates(unittest.TestCase):
    def test_clean_run_passes(self):
        out, classes, failed, problems = run.check_campaign(
            child(), COLD, run.DEFAULT_SEED, None, warm_replay=False)
        self.assertEqual((classes, failed, problems), (10, 0, []))
        out, classes, failed, problems = run.check_campaign(
            child(), COLD, run.DEFAULT_SEED, out["fingerprints"], warm_replay=False)
        self.assertEqual((classes, failed, problems), (10, 0, []))

    def test_nonzero_exit_fails_every_class(self):
        _, classes, failed, problems = run.check_campaign(
            child(code=4), COLD, run.DEFAULT_SEED, None, warm_replay=False)
        self.assertEqual((classes, failed), (10, 10))
        self.assertEqual(problems, ["exit 4 (io)"])

    def test_sim_and_inject_failures_count_per_class(self):
        text = SAMPLE.replace("sim-failed classes:    0", "sim-failed classes:    2")
        text = text.replace("inject-failed classes: 0", "inject-failed classes: 1")
        _, classes, failed, problems = run.check_campaign(
            child(text), COLD, run.DEFAULT_SEED, None, warm_replay=False)
        self.assertEqual((classes, failed), (10, 3))
        self.assertEqual(len(problems), 2)

    def test_warm_replay_must_compute_nothing(self):
        _, classes, failed, problems = run.check_campaign(
            child(), WARM, run.DEFAULT_SEED, None, warm_replay=True)
        self.assertEqual((classes, failed), (10, 10))
        self.assertIn("computed=18 on a warm store", problems)

    def test_fingerprint_mismatch_fails_every_class(self):
        reference = dict(run.parse_campaign(SAMPLE)["fingerprints"], ladder="0" * 16)
        _, _, failed, problems = run.check_campaign(
            child(), COLD, 7, reference, warm_replay=False)
        self.assertEqual(failed, 10)
        self.assertEqual(problems, ["fingerprints differ from the first setup run"])

    def test_fig4_is_checked_at_the_default_seed_only(self):
        text = SAMPLE.replace("voltage detectable:    86.6%", "voltage detectable:    86.5%")
        self.assertEqual(run.check_campaign(child(text), COLD, 7, None, False)[2], 0)
        self.assertEqual(run.check_campaign(child(text), COLD, run.DEFAULT_SEED, None, False)[2], 10)

    def test_unparsable_output_is_reported_not_zero(self):
        out, classes, failed, problems = run.check_campaign(
            child("panic\n", code=101), COLD, run.DEFAULT_SEED, None, False)
        self.assertIsNone(out)
        self.assertEqual(problems[0], "exit 101 (io)")
        self.assertTrue(problems[1].startswith("format drift"))

    def test_exit_names_follow_the_serve_contract(self):
        self.assertEqual([run.exit_name(c) for c in (0, 1, 2, 3, 4, 5, 101, -9)],
                         ["ok", "uncategorised", "usage", "stale-shard", "io", "interrupted",
                          "io", "signal 9"])


class Traced(unittest.TestCase):
    def tracer_child(self, fingerprints, gaps):
        doc = {
            "fingerprints": fingerprints,
            "classes": len(gaps),
            "sim_failed": 0,
            "inject_failed": 0,
            "layer_calls_s": 5.0,
            "standalone_goodspace_s": 1.0,
            "class_gaps_ms": gaps,
            "metrics": {name: 1.0 for name in run.TRACER_METRICS},
        }
        return run.Child(wall=6.5, cpu=6.0, rss_mb=16.0, steal=0.1, code=0,
                         stdout="noise\n" + json.dumps(doc) + "\n")

    def test_traced_metrics_fold_gaps_and_glue(self):
        fps = {"ladder": "ab" * 8}
        tally = run.Tally()
        timed = [child(), child()]
        timed[1].wall, timed[1].steal = 3.0, 0.4
        with contextlib.redirect_stdout(io.StringIO()):
            metrics = run.traced_metrics(
                self.tracer_child(fps, [float(i) for i in range(1, 101)]), tally, fps, timed,
                [0.3, 0.5, 0.4])
        self.assertEqual(sorted(metrics), sorted(run.PER_LAYER))
        self.assertEqual(metrics["pipeline.class_tail_pct"], 90)
        self.assertEqual(metrics["pipeline.class_tail_ms"], 90.0)
        self.assertEqual(metrics["pipeline.class_p50_ms"], 50.5)
        self.assertAlmostEqual(metrics["campaign.unattributed_s"], 1.5)
        self.assertAlmostEqual(metrics["trace.overhead_s"], 6.5 - 1.0 - 2.0)
        self.assertAlmostEqual(metrics["host.steal_s"], 0.2)
        self.assertEqual(metrics["host.calib_s"], 0.4)
        self.assertEqual((tally.attempted, tally.failed, tally.problems), (100, 0, []))

    def test_traced_fingerprint_mismatch_fails_every_class(self):
        tally = run.Tally()
        with contextlib.redirect_stdout(io.StringIO()):
            run.traced_metrics(self.tracer_child({"ladder": "00" * 8}, [1.0] * 4), tally,
                               {"ladder": "ab" * 8}, [child()], [0.3])
        self.assertEqual((tally.attempted, tally.failed), (4, 4))
        self.assertEqual(tally.problems, ["traced: traced fingerprints differ from the untraced runs"])


class Spec(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, [w for w in run.WORKLOADS if w in names])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: run.unit_of(name) for name in run.PER_LAYER})
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


if __name__ == "__main__":
    unittest.main()
