#!/usr/bin/env python3
"""Compare a fresh benchmark JSON against a tracked baseline.

Both files are flat {"metric": number} objects (the shape bench_hotpath
and bench_capacity write). Gating is direction-aware:

  * default metrics (rates, counts, concurrency) are higher-is-better --
    falling below baseline * (1 - tolerance) fails the check;
  * wall-clock metrics (wall_seconds_total and any key containing
    "_seconds") are lower-is-better -- rising above
    baseline * (1 + seconds-tolerance) fails the check. Wall time is
    noisy across CI hosts, so its tolerance is wider by default;
  * nanosecond metrics (keys ending in "_ns" or containing "_ns_", e.g.
    barrier_wait_ns_p50) are wall-clock costs too: lower-is-better,
    gated with the wide seconds tolerance;
  * deterministic lower-is-better counters (epochs_per_run and keys
    ending in "_spills_total") rise-fail at baseline * (1 + tolerance);
    a zero baseline gates exactly -- any nonzero value fails, since the
    whole point of a zero-spill baseline is staying at zero;
  * memory per connection (keys ending in "bytes_per_conn") and heap
    allocations per packet-hop (keys ending in "_allocs_per_pkt_hop")
    are lower-is-better with the plain tolerance, like the counters
    above;
  * tail-latency SLO metrics (any key containing "_p99", "_p999" or
    "_reject") are lower-is-better and ARE gated, with the wide seconds
    tolerance -- these are the serving stack's promise and take
    precedence over the _us skip below;
  * simulated-seconds metrics (keys ending in "_s", e.g.
    flash_recovery_s) are lower-is-better with the seconds tolerance;
  * other latency metrics ending in _us are reported but never gated
    (completion times shift with workload tuning; goodput/concurrency
    are the gated signals), as are metrics present in only one file.

A missing baseline file is a hard failure (exit 3), not a pass: with no
baseline every metric would fall into the ungated "new metric" path and a
regression could land silently. This is distinct from a metric that is
merely absent from an existing baseline, which is reported as "baselined"
and gated once the baseline is refreshed.

Usage: check_bench.py BASELINE NEW [--tolerance 0.30]
                      [--seconds-tolerance 0.75]
Exit status: 0 ok, 1 regression, 2 usage/IO error, 3 missing baseline.
"""

import argparse
import json
import os
import sys

# Lower-is-better latency metrics: tracked for visibility, never gated
# (unless they are tail-latency SLO keys, which is_tail catches first).
SKIP_SUFFIXES = ("_us",)

# Tail-latency / rejection SLO markers: gated lower-is-better even when
# the key carries a _us suffix.
TAIL_MARKERS = ("_p99", "_p999", "_reject")


def is_tail(key: str) -> bool:
    """Serving-stack SLO metrics (tail percentiles, rejection counts and
    rates): lower-is-better, gated with the wide seconds tolerance."""
    return any(m in key for m in TAIL_MARKERS)


def is_seconds(key: str) -> bool:
    """Wall-clock or simulated-time cost metrics: gated in the
    lower-is-better direction with the wide seconds tolerance."""
    return ("_seconds" in key or key.endswith("_ns") or "_ns_" in key
            or key.endswith("_s"))


def is_lower_count(key: str) -> bool:
    """Lower-is-better quantities gated with the plain tolerance:
    deterministic counters (virtual-schedule quantities, not wall-clock),
    memory per connection and allocations per packet-hop."""
    return (key == "epochs_per_run" or key.endswith("_spills_total")
            or key.endswith("bytes_per_conn")
            or key.endswith("_allocs_per_pkt_hop"))


def gated(key: str) -> bool:
    if is_tail(key):
        return True
    return not key.endswith(SKIP_SUFFIXES)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--tolerance", type=float, default=0.30,
                    help="allowed fractional drop below baseline for "
                         "higher-is-better metrics (default 0.30 = 30%%)")
    ap.add_argument("--seconds-tolerance", type=float, default=0.75,
                    help="allowed fractional rise above baseline for "
                         "*_seconds* metrics (default 0.75 = 75%%; wall "
                         "time is noisy across hosts)")
    args = ap.parse_args()

    if not os.path.exists(args.baseline):
        print(
            f"check_bench: baseline '{args.baseline}' does not exist.\n"
            "  Refusing to pass: without a baseline no metric is gated and "
            "a regression\n"
            "  would land silently. Record one (the hotpath_bench / "
            "capacity_bench make\n"
            "  targets write it) and commit it, or fix the path.",
            file=sys.stderr)
        return 3

    try:
        with open(args.baseline) as f:
            base = json.load(f)
        with open(args.new) as f:
            new = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: {e}", file=sys.stderr)
        return 2

    shared = sorted(
        k for k in base
        if k in new and gated(k)
        and isinstance(base[k], (int, float))
        and isinstance(new[k], (int, float))
    )
    if not shared:
        print("check_bench: no comparable metrics", file=sys.stderr)
        return 2

    failed = False
    for k in shared:
        ratio = new[k] / base[k] if base[k] else float("inf")
        if is_tail(k) or is_seconds(k):
            ceiling = base[k] * (1.0 + args.seconds_tolerance)
            status = "ok" if new[k] <= ceiling else "REGRESSION"
            direction = "lower-better"
        elif is_lower_count(k):
            # base 0 yields ceiling 0: a zero-spill baseline gates at
            # exactly zero, which is the invariant worth having.
            ceiling = base[k] * (1.0 + args.tolerance)
            status = "ok" if new[k] <= ceiling else "REGRESSION"
            direction = "lower-better"
        else:
            floor = base[k] * (1.0 - args.tolerance)
            status = "ok" if new[k] >= floor else "REGRESSION"
            direction = "higher-better"
        failed |= status != "ok"
        print(f"{status:>10}  {k:<28} base={base[k]:<12.6g} "
              f"new={new[k]:<12.6g} ({ratio:.2%} of baseline, "
              f"{direction})")

    only = sorted((set(base) | set(new)) - set(shared))
    for k in only:
        if k in base and k in new:
            note = "tracked, not gated"
            print(f"{'skipped':>10}  {k:<28} base={base[k]:<12.6g} "
                  f"new={new[k]:<12.6g} ({note})")
        elif k in new:
            # A metric the benchmark gained since the baseline was
            # recorded: it becomes gated once the baseline is refreshed.
            print(f"{'baselined':>10}  {k:<28} new={new[k]:<12.6g} "
                  f"(new metric; baseline on next refresh)")
        else:
            print(f"{'skipped':>10}  {k:<28} (dropped from benchmark)")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
