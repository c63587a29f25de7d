#!/usr/bin/env python3
"""Compares two sets of bench_sgq runs under the bounds in BENCHMARK.json.

    python3 bench_sgq/compare_runs.py BASE_DIR NEW_DIR [--benchmark PATH]

Each directory holds result files: the standard output of
`bench_sgq/run.py` (or of the bench_sgq binary), one or more runs per file.
Every line that is a bench_sgq JSON row of an untraced, non-smoke run
counts; each side needs at least five rows per workload.

For each (workload, metric) the table gives both medians and quartiles, the
change of the median, the share of (base, new) run pairs the new side wins
(ties count for neither) and a verdict:

  better      the new side wins at least 90% of the pairs and the medians
              differ by more than the base runs' own quartile spread;
  worse       for a bounded metric: the new median is worse than the base
              median by more than the bound (for set-up time also by more
              than 0.5 ms), and the spreads are within the bound;
              for an unbounded one: the mirror image of better;
  unresolved  a bounded metric whose spread on either side is wider than
              its bound, unless every new run reads better than every base
              run (set-up time is exempt: only its median is judged); an
              unbounded metric that is neither better nor worse;
  within      a bounded metric that is none of the above.

The bounded metrics are BENCHMARK.json's end-to-end set; the other metrics
of the rows (the user timings it lists as per-layer) are compared without a
bound. Exits 1 when a bounded metric reads worse or the new runs failed more
operations than the base runs, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

MIN_RUNS = 5
# Set-up takes well under a millisecond on most workloads and jitters by a
# few tenths of one between runs: a change must also exceed this many
# seconds before it counts as worse.
ABS_FLOOR_S = {"setup_s": 0.0005}
# Judged on the median alone: set-up time is bimodal between processes on
# the reference box, so its spread says nothing about a change.
SPREAD_EXEMPT = {"setup_s"}


def load_rows(directory):
    rows = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            for line in f:
                try:
                    row = json.loads(line)
                except ValueError:
                    continue
                if (isinstance(row, dict) and row.get("bench") == "sgq"
                        and row.get("trace") == 0 and not row.get("smoke")):
                    rows.setdefault(row["workload"], []).append(row)
    return rows


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(name, lower, bound, base, new):
    """Returns (verdict, signed median change, share of pairs won)."""
    mb, mn = statistics.median(base), statistics.median(new)
    qb, qn = quartiles(base), quartiles(new)

    def better(x, y):  # x reads better than y
        return x < y if lower else x > y

    pairs = len(base) * len(new)
    wins = sum(better(n, b) for b in base for n in new) / pairs
    losses = sum(better(b, n) for b in base for n in new) / pairs
    change = (mn - mb) / mb if mb else 0.0
    base_iqr = qb[1] - qb[0]

    if wins >= 0.9 and better(mn, mb) and abs(mn - mb) > base_iqr:
        return "better", change, wins
    if bound is None:
        if losses >= 0.9 and better(mb, mn) and abs(mn - mb) > base_iqr:
            return "worse", change, wins
        return "unresolved", change, wins
    spread = max((qb[1] - qb[0]) / mb if mb else 0.0,
                 (qn[1] - qn[0]) / mn if mn else 0.0)
    if spread > bound and name not in SPREAD_EXEMPT:
        return ("within" if wins == 1.0 else "unresolved"), change, wins
    worse_by = change if lower else -change
    if worse_by > bound and abs(mn - mb) > ABS_FLOOR_S.get(name, 0.0):
        return "worse", change, wins
    return "within", change, wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument(
        "--benchmark",
        default=os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"] == "lower", m.get("bound"))
               for m in spec["end_to_end"] + spec["per_layer"]]
    base_rows, new_rows = load_rows(args.base), load_rows(args.new)

    status = 0
    counts = {}
    print("%-15s %-15s %27s %27s %8s %5s  %s" % (
        "workload", "metric", "base median [q1,q3]", "new median [q1,q3]",
        "change", "wins", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        base, new = base_rows.get(workload, []), new_rows.get(workload, [])
        if len(base) < MIN_RUNS or len(new) < MIN_RUNS:
            print("%-15s needs %d runs per side, has %d and %d"
                  % (workload, MIN_RUNS, len(base), len(new)))
            status = 1
            continue
        failed_base = sum(r["failed"] for r in base)
        failed_new = sum(r["failed"] for r in new)
        if failed_new > failed_base or not all(r["correct"] for r in new):
            print("%-15s new runs failed %d operations (base %d)"
                  % (workload, failed_new, failed_base))
            status = 1
        for name, lower, bound in metrics:
            if not all(name in r["metrics"] for r in base + new):
                continue
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            v, change, wins = verdict(name, lower, bound, b, n)
            counts[v] = counts.get(v, 0) + 1
            if v == "worse" and bound is not None:
                status = 1
            qb, qn = quartiles(b), quartiles(n)
            print("%-15s %-15s %9.4g [%.4g,%.4g] %9.4g [%.4g,%.4g] %+7.1f%% "
                  "%4.0f%%  %s%s" % (
                      workload, name, statistics.median(b), qb[0], qb[1],
                      statistics.median(n), qn[0], qn[1], 100 * change,
                      100 * wins, v,
                      "" if bound is not None else " (no bound)"))
    print("verdicts: " + ", ".join("%s %d" % kv for kv in sorted(
        counts.items())))
    return status


if __name__ == "__main__":
    sys.exit(main())
