#!/usr/bin/env python3
"""Run the sim_digest run list in two build trees and diff the results.

Usage: bench/diff_runs.py OLD_BUILD NEW_BUILD

Each invocation in RUNS runs once with OLD_BUILD/bench/sim_digest and once
with NEW_BUILD/bench/sim_digest, both with --stats and with
MPTCP_ALLOW_OVERSUBSCRIBE=1 (so the pinned shard counts run as asked on
any machine). The tool prints every stdout line and every stats key that
differs, and exits 1 if anything differs or a run fails. A
behaviour-neutral change passes with the parent's tree as OLD_BUILD;
passing one tree twice checks that every run repeats itself.
"""

import json
import os
import subprocess
import sys
import tempfile

SCHEDULERS = ["lowest-rtt", "round-robin", "redundant", "backup-aware"]

# Every scenario the digests pin: the default two-host run at three seeds
# and under each scheduler, capacity under three schedulers and at 1, 2
# and 4 shards, fleet over 3 s at two seeds and 1, 2 and 4 shards, serving
# at two seeds and over 3 s, and pingpong at 1 and 2 shards.
RUNS = (
    [["--seed", str(s)] for s in (1, 2, 3)]
    + [["--seed", "1", "--scheduler", p] for p in SCHEDULERS[1:]]
    + [["--scenario", "capacity", "--seed", "1"]]
    + [["--scenario", "capacity", "--seed", "1", "--scheduler", p]
       for p in SCHEDULERS[:3]]
    + [["--scenario", "capacity", "--shards", str(n), "--seed", "1"]
       for n in (1, 2, 4)]
    + [["--scenario", "fleet", "--shards", str(n), "--seed", str(s),
        "--duration-ms", "3000"] for s in (1, 9) for n in (1, 2, 4)]
    + [["--scenario", "serving", "--seed", str(s)] for s in (1, 2)]
    + [["--scenario", "serving", "--seed", "1", "--duration-ms", "3000"]]
    + [["--scenario", "pingpong", "--shards", str(n), "--seed", "1"]
       for n in (1, 2)]
)


def run(build, args, stats_path):
    """Runs one invocation; returns (exit code, stdout lines, stats text)."""
    if os.path.exists(stats_path):
        os.remove(stats_path)
    binary = os.path.join(build, "bench", "sim_digest")
    env = dict(os.environ, MPTCP_ALLOW_OVERSUBSCRIBE="1")
    proc = subprocess.run([binary, *args, "--stats", stats_path], env=env,
                          capture_output=True, text=True, check=False)
    stats = ""
    if os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as f:
            stats = f.read()
    return proc.returncode, proc.stdout.splitlines(), stats


def diff_lines(old, new):
    """Names each stdout line that differs."""
    out = []
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else "<missing>"
        b = new[i] if i < len(new) else "<missing>"
        if a != b:
            out.append(f"line {i + 1}: {a!r} -> {b!r}")
    return out


def diff_stats(old, new):
    """Names each stats key whose presence or value differs."""
    if old == new:
        return []
    a = json.loads(old) if old else {}
    b = json.loads(new) if new else {}
    out = []
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            out.append(f"stats {key}: {a[key]!r} -> <missing>")
        elif key not in a:
            out.append(f"stats {key}: <missing> -> {b[key]!r}")
        elif a[key] != b[key]:
            out.append(f"stats {key}: {a[key]!r} -> {b[key]!r}")
    if not out:
        out.append("stats: same keys and values, different bytes")
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_build, new_build = argv[1], argv[2]
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for args in RUNS:
            name = " ".join(args)
            old = run(old_build, args, os.path.join(tmp, "old.json"))
            new = run(new_build, args, os.path.join(tmp, "new.json"))
            problems = []
            for side, (code, _, _) in (("old", old), ("new", new)):
                if code != 0:
                    problems.append(f"{side} run exited {code}")
            problems += diff_lines(old[1], new[1])
            problems += diff_stats(old[2], new[2])
            print(f"{'DIFF' if problems else 'same'}  {name}")
            for p in problems:
                print(f"      {p}")
            failed += bool(problems)
    print(f"{len(RUNS) - failed}/{len(RUNS)} invocations identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
