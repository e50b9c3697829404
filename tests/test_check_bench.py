#!/usr/bin/env python3
"""Contract tests for bench/check_bench.py.

The gating script is the only thing standing between a perf regression and
a green CI run, so its failure modes are pinned here:

  * a missing baseline file is a hard failure (exit 3) -- it must never
    degrade into "no metrics to compare, pass";
  * a metric absent from an existing baseline takes the non-fatal
    "baselined" path (reported, gated after the next baseline refresh);
  * drops beyond tolerance on higher-is-better keys fail, rises beyond
    tolerance on *_seconds* keys fail, and *_us keys are never gated --
    unless they are tail-latency SLO keys (p99/p999/reject markers),
    which gate lower-is-better with the seconds tolerance.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "bench", "check_bench.py")


def run_check(baseline, new, *extra):
    return subprocess.run(
        [sys.executable, SCRIPT, baseline, new, *extra],
        capture_output=True, text=True)


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, obj):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(obj, f)
        return path

    def test_missing_baseline_is_hard_failure(self):
        new = self.write("new.json", {"events_per_sec": 1e6})
        missing = os.path.join(self.tmp.name, "no_such_baseline.json")
        r = run_check(missing, new)
        self.assertEqual(r.returncode, 3, r.stderr)
        self.assertIn("does not exist", r.stderr)
        self.assertIn("Refusing to pass", r.stderr)

    def test_missing_new_file_is_io_error_not_baseline_failure(self):
        base = self.write("base.json", {"events_per_sec": 1e6})
        missing = os.path.join(self.tmp.name, "no_such_new.json")
        r = run_check(base, missing)
        self.assertEqual(r.returncode, 2, r.stderr)

    def test_new_metric_takes_baselined_path_not_failure(self):
        base = self.write("base.json", {"events_per_sec": 1e6})
        new = self.write("new.json",
                         {"events_per_sec": 1e6, "burst_deliver_per_sec": 5e6})
        r = run_check(base, new)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("baselined", r.stdout)
        self.assertIn("burst_deliver_per_sec", r.stdout)

    def test_within_tolerance_passes(self):
        base = self.write("base.json", {"events_per_sec": 1e6})
        new = self.write("new.json", {"events_per_sec": 0.8e6})
        r = run_check(base, new, "--tolerance", "0.30")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_drop_beyond_tolerance_fails(self):
        base = self.write("base.json", {"events_per_sec": 1e6})
        new = self.write("new.json", {"events_per_sec": 0.5e6})
        r = run_check(base, new, "--tolerance", "0.30")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)

    def test_improvement_never_fails(self):
        base = self.write("base.json", {"events_per_sec": 1e6})
        new = self.write("new.json", {"events_per_sec": 5e6})
        r = run_check(base, new)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_seconds_keys_gate_in_the_other_direction(self):
        base = self.write("base.json", {"wall_seconds_total": 10.0})
        slower = self.write("slow.json", {"wall_seconds_total": 30.0})
        r = run_check(base, slower, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        faster = self.write("fast.json", {"wall_seconds_total": 2.0})
        r = run_check(base, faster, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_ns_keys_gate_lower_is_better_with_seconds_tolerance(self):
        base = self.write("base.json", {"barrier_wait_ns_p50": 1000.0})
        slower = self.write("slow.json", {"barrier_wait_ns_p50": 2000.0})
        r = run_check(base, slower, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        within = self.write("within.json", {"barrier_wait_ns_p50": 1700.0})
        r = run_check(base, within, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        faster = self.write("fast.json", {"barrier_wait_ns_p50": 100.0})
        r = run_check(base, faster, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_ns_suffix_without_percentile_also_gates_lower(self):
        base = self.write("base.json", {"handoff_latency_ns": 100.0})
        worse = self.write("worse.json", {"handoff_latency_ns": 500.0})
        r = run_check(base, worse, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_epoch_counts_gate_lower_is_better(self):
        base = self.write("base.json", {"epochs_per_run": 500.0})
        more = self.write("more.json", {"epochs_per_run": 800.0})
        r = run_check(base, more, "--tolerance", "0.30")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        fewer = self.write("fewer.json", {"epochs_per_run": 100.0})
        r = run_check(base, fewer, "--tolerance", "0.30")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_bytes_per_conn_gates_lower_with_plain_tolerance(self):
        base = self.write("base.json", {"smoke_bytes_per_conn": 30000.0})
        worse = self.write("worse.json", {"smoke_bytes_per_conn": 40000.0})
        r = run_check(base, worse, "--tolerance", "0.30",
                      "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        self.assertIn("lower-better", r.stdout)
        within = self.write("within.json", {"smoke_bytes_per_conn": 38000.0})
        r = run_check(base, within, "--tolerance", "0.30",
                      "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        # Less memory is never a regression (it would be for a default
        # higher-is-better key).
        smaller = self.write("smaller.json", {"smoke_bytes_per_conn": 5000.0})
        r = run_check(base, smaller, "--tolerance", "0.30")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_allocs_per_pkt_hop_gates_lower_with_plain_tolerance(self):
        base = self.write("base.json", {"smoke_allocs_per_pkt_hop": 0.25})
        worse = self.write("worse.json", {"smoke_allocs_per_pkt_hop": 0.4})
        r = run_check(base, worse, "--tolerance", "0.30",
                      "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        self.assertIn("lower-better", r.stdout)
        within = self.write("within.json", {"smoke_allocs_per_pkt_hop": 0.3})
        r = run_check(base, within, "--tolerance", "0.30",
                      "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        # Fewer allocations never fail (they would on a default
        # higher-is-better key).
        fewer = self.write("fewer.json", {"smoke_allocs_per_pkt_hop": 0.05})
        r = run_check(base, fewer, "--tolerance", "0.30")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_zero_spill_baseline_gates_exactly_at_zero(self):
        base = self.write("base.json",
                          {"spsc_spills_total": 0.0, "events_per_sec": 1e6})
        clean = self.write("clean.json",
                           {"spsc_spills_total": 0.0, "events_per_sec": 1e6})
        r = run_check(base, clean)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        dirty = self.write("dirty.json",
                           {"spsc_spills_total": 3.0, "events_per_sec": 1e6})
        r = run_check(base, dirty)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)

    def test_us_latency_keys_are_never_gated(self):
        base = self.write("base.json",
                          {"events_per_sec": 1e6, "completion_us": 100.0})
        new = self.write("new.json",
                         {"events_per_sec": 1e6, "completion_us": 900.0})
        r = run_check(base, new)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_p99_us_keys_gate_lower_despite_us_suffix(self):
        # The serving stack's SLO keys: the tail marker takes precedence
        # over the _us informational skip.
        base = self.write("base.json", {"serving_fct_p99_us": 1000.0})
        worse = self.write("worse.json", {"serving_fct_p99_us": 5000.0})
        r = run_check(base, worse, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        within = self.write("within.json", {"serving_fct_p99_us": 1700.0})
        r = run_check(base, within, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        better = self.write("better.json", {"serving_fct_p99_us": 100.0})
        r = run_check(base, better, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_p999_us_keys_gate_lower(self):
        base = self.write("base.json", {"smoke_serving_fct_p999_us": 1e5})
        worse = self.write("worse.json", {"smoke_serving_fct_p999_us": 9e5})
        r = run_check(base, worse, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_reject_keys_gate_lower(self):
        base = self.write("base.json", {"flash_reject_rate": 0.40})
        worse = self.write("worse.json", {"flash_reject_rate": 0.90})
        r = run_check(base, worse, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)
        better = self.write("better.json", {"flash_reject_rate": 0.10})
        r = run_check(base, better, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_p50_us_keys_stay_informational(self):
        # Only the tail markers gate; the median with a _us suffix keeps
        # the informational treatment.
        base = self.write("base.json",
                          {"events_per_sec": 1e6, "serving_fct_p50_us": 100.0})
        worse = self.write("worse.json",
                          {"events_per_sec": 1e6, "serving_fct_p50_us": 900.0})
        r = run_check(base, worse)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_simulated_seconds_suffix_gates_lower(self):
        base = self.write("base.json", {"flash_recovery_s": 0.10})
        worse = self.write("worse.json", {"flash_recovery_s": 0.90})
        r = run_check(base, worse, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        better = self.write("better.json", {"flash_recovery_s": 0.05})
        r = run_check(base, better, "--seconds-tolerance", "0.75")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
