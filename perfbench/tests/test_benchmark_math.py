"""Self-tests for the benchmark's own arithmetic and tracing plumbing.

    python3 -m pytest perfbench/tests
    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import os
import pickle
import sys
import unittest
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402


def _double(value):
    return 2 * value


class PercentileRuleTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertTrue(stats.percentile_reportable(100, 0.9))
        self.assertEqual(stats.samples_beyond(99, 0.9), 9)
        self.assertFalse(stats.percentile_reportable(99, 0.9))
        self.assertFalse(stats.percentile_reportable(0, 0.9))

    def test_median_rule_matches(self):
        self.assertTrue(stats.percentile_reportable(20, 0.5))
        self.assertFalse(stats.percentile_reportable(19, 0.5))

    def test_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(stats.nearest_rank(values, 0.9), 9)
        self.assertEqual(stats.nearest_rank(values, 1.0), 10)
        self.assertEqual(stats.nearest_rank([5.0], 0.9), 5.0)
        self.assertEqual(stats.nearest_rank([3, 1, 2], 0.5), 2)
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 0.9)

    def test_iqr_share(self):
        self.assertAlmostEqual(stats.iqr_share([10.0] * 5), 0.0)
        share = stats.iqr_share([9.0, 10.0, 10.0, 10.0, 11.0])
        self.assertAlmostEqual(share, 0.1)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans_ = [(1, "outer", 0.0, 10.0, None),
                  (2, "mid", 2.0, 5.0, 1),
                  (3, "inner", 3.0, 4.0, 2)]
        self.assertEqual(stats.self_times(spans_),
                         {1: 7.0, 2: 2.0, 3: 1.0})

    def test_overlapping_children_count_once(self):
        # Two workers ran jobs for the same parent at the same time.
        spans_ = [(1, "run", 0.0, 10.0, None),
                  (2, "job", 1.0, 6.0, 1),
                  (3, "job", 4.0, 9.0, 1)]
        selfs = stats.self_times(spans_)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 5.0)

    def test_children_clipped_to_parent(self):
        spans_ = [(1, "run", 0.0, 10.0, None),
                  (2, "late", 8.0, 12.0, 1)]
        self.assertAlmostEqual(stats.self_times(spans_)[1], 8.0)

    def test_by_name_sums(self):
        spans_ = [(1, "a", 0.0, 4.0, None), (2, "b", 1.0, 2.0, 1),
                  (3, "b", 2.5, 3.0, 1), (4, "a", 5.0, 6.0, None)]
        self.assertEqual(stats.self_time_by_name(spans_),
                         {"a": 3.5, "b": 1.5})

    def test_cross_process_spans_adopted(self):
        rec = spans.recorder()
        rec.reset(root=None, unit=0)
        worker = [(900, "analysis.scheduler.job", 1.0, 6.0, None, 0),
                  (901, "runtime.allocate", 2.0, 3.0, 900, 0)]
        other = [(950, "analysis.scheduler.job", 4.0, 9.0, None, 0)]
        job = {"sent": 0.5, "start": 1.0, "wall": 5.0, "arrival": 6.5}
        results = {
            "a": spans.TracedResult("ra", worker, Counter(x=1), dict(job)),
            "b": spans.TracedResult("rb", other, Counter(x=2), dict(job)),
            "c": "plain",
        }
        out = spans._unpack(results, run_sid=7)
        self.assertEqual(out, {"a": "ra", "b": "rb", "c": "plain"})
        self.assertEqual(rec.counts["x"], 3)
        self.assertEqual(len(rec.jobs), 2)
        parents = {span[0]: span[4] for span in rec.spans}
        self.assertEqual(parents, {900: 7, 901: 900, 950: 7})
        all_spans = rec.spans + [(7, "analysis.scheduler.run", 0.0, 10.0,
                                  None, 0)]
        selfs = stats.self_times(all_spans)
        self.assertAlmostEqual(selfs[7], 2.0)
        self.assertAlmostEqual(selfs[900], 4.0)
        rec.reset(root=None, unit=None)


class RatioTest(unittest.TestCase):
    def test_value_and_base(self):
        ratio = stats.Ratio("busy", 3.0, "worker wall (s)", 4.0,
                            "2 workers x wall (s)")
        self.assertAlmostEqual(ratio.value, 0.75)
        text = ratio.render()
        self.assertIn("worker wall (s) 3", text)
        self.assertIn("2 workers x wall (s) 4", text)

    def test_scale_is_printed(self):
        ratio = stats.Ratio("ns_per_op", 2.0, "self (s)", 4.0, "ops",
                            scale=1e9)
        self.assertAlmostEqual(ratio.value, 5e8)
        self.assertIn("1e+09 *", ratio.render())

    def test_empty_base(self):
        ratio = stats.Ratio("r", 1.0, "n", 0.0, "d")
        self.assertEqual(ratio.value, 0.0)
        self.assertIn("d 0", ratio.render())


class ScaleTest(unittest.TestCase):
    def test_scale_by_each_calibration(self):
        scaled = speed.scale([1.0, 2.0], [0.01, 0.0025])
        self.assertAlmostEqual(scaled[0], 1.0 * speed.REFERENCE_S / 0.01)
        self.assertAlmostEqual(scaled[1], 2.0 * speed.REFERENCE_S / 0.0025)

    def test_sampler_mean_inside_window_else_nearest(self):
        sampler = speed.Sampler()
        self.assertIsNone(sampler.during(0.0, 1.0))
        sampler.samples = [(1.0, 0.004), (2.0, 0.006), (3.0, 0.010)]
        self.assertAlmostEqual(sampler.during(0.5, 2.5), 0.005)
        self.assertAlmostEqual(sampler.during(3.2, 3.4), 0.010)


class TracedJobTest(unittest.TestCase):
    def test_pickle_stamps_send_and_arrival(self):
        job = pickle.loads(pickle.dumps(spans.TracedJob(
            _double, {spans.SCHEDULER_BOUNDARY}, unit=3)))
        self.assertIsNotNone(job.sent)
        traced = pickle.loads(pickle.dumps(job(21)))
        self.assertEqual(traced.result, 42)
        stats_ = traced.job
        self.assertGreaterEqual(stats_["start"], job.sent)
        self.assertGreaterEqual(stats_["arrival"], stats_["start"])
        self.assertGreater(stats_["pickle_bytes"], 0)
        self.assertEqual([s[1] for s in traced.spans],
                         ["analysis.scheduler.job"])
        self.assertEqual(traced.spans[0][5], 3)
        # The job left this process as it found it.
        self.assertEqual(spans._STATE.enabled, frozenset())
        self.assertEqual(spans._STATE.originals, {})


class WrapperFrameTest(unittest.TestCase):
    def test_wrapper_frames_are_skipped_by_context_capture(self):
        from repro.runtime.context import capture_context

        rec = spans.Recorder()

        def site():
            return capture_context(depth=2)

        wrapped = spans._internal("_plain")("probe", site, rec)

        def caller():
            return site(), wrapped()

        (plain_key, plain_walked), (traced_key, traced_walked) = caller()
        self.assertEqual([f.location for f in plain_key.frames],
                         [f.location for f in traced_key.frames])
        # The wrapper frame is walked (like any library frame) but
        # never recorded.
        self.assertEqual(traced_walked, plain_walked + 1)
        self.assertEqual(len(rec.spans), 1)


if __name__ == "__main__":
    unittest.main()
