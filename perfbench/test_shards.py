#!/usr/bin/env python3
"""Shard count must change execution only, never the simulated outcome.

    python3 perfbench/test_shards.py

Runs reduced-scale fleet and cross_shard on 1 and 2 shards and requires
identical outcome fingerprints; per-layer shard numbers compare like for
like only if the simulated work is the same. Also checks that a traced
repetition reproduces the untraced fingerprint.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fp(workload, shards, traced=False, seed=5):
    r = run.rep(workload, seed, traced, ["--reduced", "--shards", str(shards)])
    assert r["exit"] == 0 and not r["check"], r
    assert r["shards"] == shards, r
    return run.fingerprint(r)


class ShardIdentity(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_fleet_same_outcome_on_1_and_2_shards(self):
        self.assertEqual(fp("fleet", 1), fp("fleet", 2))

    def test_cross_shard_same_outcome_on_1_and_2_shards(self):
        self.assertEqual(fp("cross_shard", 1), fp("cross_shard", 2))

    def test_taps_do_not_perturb_the_simulation(self):
        for w in ("fleet", "cross_shard"):
            self.assertEqual(fp(w, 2), fp(w, 2, traced=True), w)


if __name__ == "__main__":
    unittest.main()
