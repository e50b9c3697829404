#!/usr/bin/env python3
"""Run the digest run list and figure programs in two trees; diff them.

Usage: bench/diff_runs.py OLD_BUILD NEW_BUILD

Each invocation in RUNS runs once with OLD_BUILD/bench/sim_digest and once
with NEW_BUILD/bench/sim_digest, both with --stats; each program in
PROGRAMS runs once in each tree with no arguments, and only its stdout is
compared. Every run sets MPTCP_ALLOW_OVERSUBSCRIBE=1 (so the pinned shard
counts run as asked on any machine). The tool prints every stdout line
and every stats key that differs, and exits 1 if anything differs or a
run fails. A behaviour-neutral change passes with the parent's tree as
OLD_BUILD; passing one tree twice checks that every run repeats itself.
One pass takes about three minutes per tree on a 4-vCPU host, most of
it fig06_scenarios.
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

# The figure benches and examples, whose stdout prints outcomes, not
# timings. fig06_scenarios takes about 130 s, fig08b_ooo_sim 25 s,
# fig11_http 18 s and each of the rest under 3 s.
PROGRAMS = [
    "bench/fig02_deadlock",
    "bench/fig04_rcvbuffer",
    "bench/fig05_memory",
    "bench/fig06_scenarios",
    "bench/fig07_appdelay",
    "bench/fig08b_ooo_sim",
    "bench/fig09_wifi3g",
    "bench/fig11_http",
    "bench/ablation_scheduler",
    "bench/mbox_matrix",
    "examples/quickstart",
    "examples/middlebox_gauntlet",
    "examples/mobile_handover",
]


def run(build, program, args, stats_path=None):
    """Runs one invocation; returns (exit code, stdout lines, stats text).

    With a stats_path the program also writes its --stats export there.
    """
    cmd = [os.path.join(build, program), *args]
    if stats_path is not None:
        if os.path.exists(stats_path):
            os.remove(stats_path)
        cmd += ["--stats", stats_path]
    env = dict(os.environ, MPTCP_ALLOW_OVERSUBSCRIBE="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=False)
    stats = ""
    if stats_path is not None and os.path.exists(stats_path):
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
    invocations = ([("bench/sim_digest", args, True) for args in RUNS]
                   + [(program, [], False) for program in PROGRAMS])
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for program, args, stats in invocations:
            name = " ".join(args) if stats else program
            old = run(old_build, program, args,
                      os.path.join(tmp, "old.json") if stats else None)
            new = run(new_build, program, args,
                      os.path.join(tmp, "new.json") if stats else None)
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
    print(f"{len(invocations) - failed}/{len(invocations)} invocations "
          "identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
