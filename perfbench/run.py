#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

  python3 perfbench/run.py --workload dense|lookup|graph|kv --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

Run from the repository root.  The benchmark binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics, and the
lines before it hold the span report (self and waiting time per layer).
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402  (the span reader next to this file)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_BUDGET_S = 170   # the whole run, retries included
ATTEMPT_SLACK_S = 30  # set-up, warm-up and traced extras of one attempt

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
}

ALGOS = ("for_each", "map_reduce", "partial_sum", "sample_sort")
LADDER = ("raw", "bcontainer", "local_get", "local_rmi", "remote_get_queue",
          "remote_get_direct", "remote_set_queue", "remote_set_direct",
          "resolve_cached", "resolve_cold", "fence", "allreduce_flat",
          "allreduce_tree", "task")
# Per-layer metric -> always-on metrics counter it reads (delta over the
# traced rounds).
COUNTERS = {
    "task_graph.tasks_run": "tg.tasks_run",
    "task_graph.values_sent": "tg.values_sent",
    "task_graph.tasks_stolen": "tg.tasks_stolen",
    "runtime.rmis_sent": "rmi.rmis_sent",
    "runtime.msgs_sent": "rmi.msgs_sent",
    "runtime.msg_bytes": "rmi.msg_bytes",
    "runtime.inbox_depth": "rmi.inbox_depth",
    "runtime.idle_nap_us": "idle.nap_us",
    "collectives.ops": "coll.ops",
    "collectives.flat_fallbacks": "coll.flat_fallbacks",
    "directory.home_routed": "dir.home_routed",
    "directory.cache_hits": "dir.cache_hits",
    "directory.forwards": "dir.forwards",
    "directory.stale_bounces": "dir.stale_bounces",
}
# Per-layer metric -> (layer, call) whose spans' inclusive time it reads.
SPAN_TIMES = {
    "runtime.fence_s": ("runtime", "rmi_fence"),
    "collectives.allreduce_s": ("collectives", "allreduce"),
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {name: "count" for name in COUNTERS}
    units.update({name: "s" for name in SPAN_TIMES})
    units["runtime.rmis_per_msg"] = "ratio"
    units["directory.cache_hit_ratio"] = "ratio"
    units["containers.async_issue_ns"] = "ns"
    units["load_balancer.waves"] = "count"
    units["load_balancer.migrations"] = "count"
    units["load_balancer.rebalance_s"] = "s"
    units.update({f"ladder.{r}_ns": "ns" for r in LADDER})
    units.update({f"graph.{m}": "s" for m in ("churn_s", "recompute_s")})
    units["graph.drains"] = "count"
    for a in ALGOS:
        for impl in ("algorithms", "raw", "omp"):
            units[f"{impl}.{a}_s"] = "s"
        units[f"algorithms.{a}_native_frac"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "runtime" / "runtime.hpp").is_file():
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr, "cwd": ROOT}
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True,
                   **quiet)
    return out / "perfbench"


def run_binary(binary, args, seconds, start):
    """Runs the binary; returns (its result object, exit codes of crashed
    attempts).  The library's rmi_fence can return on some locations while
    others start another round (a race between the barrier check and the
    next poll); the SPMD program then crashes in its next collective.  A
    crashed attempt is re-run with the same inputs while the budget allows,
    and every crash is reported as a failed check."""
    env = dict(os.environ, OMP_WAIT_POLICY="passive")
    crashes = []
    while True:
        left = RUN_BUDGET_S - (time.monotonic() - start)
        proc = subprocess.run([str(binary)] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(left, 1))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), crashes
        crashes.append(proc.returncode)
        left = RUN_BUDGET_S - (time.monotonic() - start)
        if left < seconds + ATTEMPT_SLACK_S:
            sys.exit(f"perfbench: binary exited with {crashes}")


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw, trace_dir):
    """Assembles the per-layer metrics from the traced run's counters,
    spans, ladder and references."""
    counters = {k[len("counter."):]: v for k, v in raw.items()
                if k.startswith("counter.")}
    summary = spans.summarize(trace_dir)
    out = {name: counters.get(key, 0.0) for name, key in COUNTERS.items()}
    for name, site in SPAN_TIMES.items():
        out[name] = summary.get(site, {}).get("total_s", 0.0)
    out["runtime.rmis_per_msg"] = ratio(counters.get("rmi.rmis_sent", 0),
                                        counters.get("rmi.msgs_sent", 0))
    resolutions = sum(counters.get(f"dir.{k}", 0) for k in
                      ("local_hits", "cache_hits", "home_routed",
                       "cold_lookups"))
    out["directory.cache_hit_ratio"] = ratio(
        counters.get("dir.cache_hits", 0), resolutions)
    # Values the binary measured itself; graph.* are 0 off the graph
    # workload, where no churn or recompute runs.
    for name in per_layer_units():
        if name not in out:
            out[name] = raw.get(name, 0.0)
    return out, summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("dense", "lookup", "graph", "kv"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every output check catches a "
                         "corrupted output")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    start = time.monotonic()
    if args.self_test:
        return subprocess.run([str(binary), "--selftest"], cwd=ROOT,
                              timeout=RUN_BUDGET_S).returncode

    trace_dir = build_dir() / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    raw, crashes = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(trace_dir)], args.seconds, start)
    values = raw["metrics"]
    attempted = int(raw["attempted"]) + len(crashes)
    failed = int(raw["failed"]) + len(crashes)
    for rc in crashes:
        print(f"# failed check: an attempt died with exit code {rc}")

    if args.trace:
        chosen, summary = per_layer(values, trace_dir)
        units = per_layer_units()
        print(f"# span report, workload {args.workload} "
              f"(mean per location over the traced rounds)")
        spans.render(summary, prefix="# ")
        print(f"# trace.overhead_frac = {chosen['trace.overhead_frac']:.4f}")
    else:
        chosen = {name: values.get(name, 0.0) for name in END_TO_END}
        units = END_TO_END
        # Every end-to-end metric is a positive measurement.
        attempted += len(chosen)
        failed += sum(1 for v in chosen.values() if not v > 0)
        extra = {k: v for k, v in values.items() if k not in chosen}
        print("# " + " ".join(f"{k}={v:.6g}" for k, v in sorted(extra.items())))
    print(f"# fail_frac = {failed / attempted:.3g} "
          f"({failed} of {attempted} checks)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
