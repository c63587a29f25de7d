#!/usr/bin/env python3
"""Builds and runs bench_sgq, the repository's end-to-end benchmark.

    python3 bench_sgq/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Builds the benchmark from source (bench_sgq/CMakeLists.txt) into
.bench_build/, or into $CARGO_TARGET_DIR when that is set, then runs each
workload in a process of its own. For every workload it prints the
benchmark's full JSON row (seed, cpus, sample counts, attribution detail)
and then a result object: correct, attempted, failed and the metrics
BENCHMARK.json lists -- the end-to-end set, or with --trace 1 the
per-layer set. The result object of the last workload is the last line of
standard output. Exits non-zero when a build, a run or a check fails.

Checkpoints and trace files stay inside the build directory.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench_sgq")
# A run ends well inside 180 s on the reference box; this only stops a hang.
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out, env):
    """Configures and builds bench_sgq; returns the binary path."""
    subprocess.run(
        ["cmake", "-S", BENCH_DIR, "-B", out,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", out, "--target", "bench_sgq", "-j",
         str(len(os.sched_getaffinity(0)))],
        check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "bench_sgq")


def run_workload(binary, out, spec, args, workload, env):
    """Runs one workload; prints its row and result object, returns ok."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--ckpt-dir", os.path.join(out, "ckpt")]
    if args.trace:
        cmd += ["--trace", os.path.join(
            out, "traces", "%s-seed%d.jsonl" % (workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, env=env)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("bench_sgq printed no result (exit %d)" % proc.returncode)
        return False
    row = json.loads(lines[-1])
    print(json.dumps(row), flush=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = row["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric %s missing or not in %s" % (m["name"], m["unit"]))
            return False
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": row["correct"], "attempted": row["attempted"],
              "failed": row["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return proc.returncode == 0 and row["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log("unknown workload %s; choose from %s or all"
            % (args.workload, ", ".join(names)))
        return 2

    out = build_dir()
    # Compiler and tool temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    for sub in ("tmp", "ckpt", "traces"):
        os.makedirs(os.path.join(out, sub), exist_ok=True)
    try:
        binary = build(out, env)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    ok = True
    for workload in workloads:
        try:
            ok = run_workload(binary, out, spec, args, workload, env) and ok
        except (subprocess.TimeoutExpired, ValueError, KeyError) as e:
            log("%s: %s" % (workload, e))
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
