#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the mcpta library, pta-tool and the benchmark driver from source
(Release) under $CARGO_TARGET_DIR (default .bench_build), runs one
workload, and prints one JSON result line last on stdout.

Two self-check modes run the driver repeatedly:

    python3 perfbench/run.py --steadiness [--runs 10] [--seeds 100,200]
    python3 perfbench/run.py --check-counts [--seed 7]

--steadiness runs each workload BENCHMARK.json keeps --runs times per seed
base, prints each end-to-end metric's median, quartiles and relative
spread, flags spreads over the metric's bound in BENCHMARK.json, compares
the medians of the two seed bases, and shows whether p50 or p90 of a run's
ops sits on a boundary between op classes. --check-counts runs two traced
runs of one seed per workload and reports any count metric that differs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["edit-loop", "batch-corpus"]
# Per-layer metrics that must repeat exactly across two traced runs.
COUNT_METRICS = [
    "simple.basic_stmts", "ig.nodes", "pointsto.stmt_visits",
    "pointsto.body_analyses", "pointsto.memo_hits",
    "pointsto.set_kernel_calls", "pointsto.set_heap_peak_mb",
    "demand.answered_ratio", "demand.visited_stmts", "incr.used_ratio",
    "incr.dirty_functions", "incr.memo_reuse", "serve.blob_kb",
    "trace.spans",
]
RUN_TIMEOUT_S = 170


def spec():
    return json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def chosen_workloads(args):
    """--workloads, or by default the workloads BENCHMARK.json keeps."""
    if args.workloads:
        return args.workloads.split(",")
    return [w["name"] for w in spec()["workloads"]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the driver and pta-tool; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: error: no src/ next to perfbench/; run from a full "
            "checkout of the repository")
        sys.exit(1)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_driver", "pta-tool"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("perfbench: error: build step failed: " + " ".join(cmd))
            sys.exit(1)
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "mcpta", "pta-tool"))


def run_one(driver, tool, workload, seed, seconds, trace, ops_file=None):
    """Runs the driver once; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tool", tool, "--work", work]
    if ops_file:
        cmd += ["--ops-file", ops_file]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
        code, out = r.returncode, r.stdout
    except subprocess.TimeoutExpired as e:
        code = 1
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else ""
        log("perfbench: error: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code, out.splitlines()


def result_of(lines):
    for line in reversed(lines):
        line = line.strip()
        if line.startswith("{\"correct\""):
            return json.loads(line)
    return None


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def boundary_report(ops):
    """Where p50 and p90 of one run's ops sit: the relative width of the
    window of ranks +-5% around each, and the op classes inside it. A
    wide window means the quantile lies in a gap between op classes."""
    ops = sorted(ops, key=lambda o: o[1])
    n = len(ops)
    out = {}
    for q in (0.5, 0.9):
        i = int(q * (n - 1))
        lo, hi = max(0, i - max(1, n // 20)), min(n - 1, i + max(1, n // 20))
        v = ops[i][1]
        width = (ops[hi][1] - ops[lo][1]) / v if v else 0.0
        classes = {}
        for c, _ in ops[lo:hi + 1]:
            classes[c] = classes.get(c, 0) + 1
        out[q] = (width, classes)
    return out


def steadiness(args):
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = chosen_workloads(args)
    bases = [int(s) for s in args.seeds.split(",")]
    driver, tool = build()
    ops_file = os.path.join(build_dir(), "ops-%d.tsv" % os.getpid())
    flagged = []
    for wl in workloads:
        medians = []
        for base in bases:
            values, widths = {}, []
            for i in range(args.runs):
                code, lines = run_one(driver, tool, wl, base + i, seconds, 0,
                                      ops_file)
                res = result_of(lines)
                if code != 0 or not res or not res["correct"]:
                    log("%s seed %d: FAILED (exit %d)" % (wl, base + i, code))
                    flagged.append("%s seed %d failed" % (wl, base + i))
                    continue
                for k, m in res["metrics"].items():
                    values.setdefault(k, []).append(m["value"])
                ops = []
                with open(ops_file) as f:
                    for row in f:
                        c, ms = row.rstrip("\n").split("\t")
                        ops.append((c, float(ms)))
                widths.append(boundary_report(ops))
            print("== %s, seeds %d..%d" % (wl, base, base + args.runs - 1))
            meds = {}
            for k, vs in values.items():
                if len(vs) < 2:
                    continue
                med, q1, q3, rel = spread(vs)
                meds[k] = med
                b = bounds.get(k)
                flag = ""
                if b is not None and rel > b:
                    flag = "  OVER BOUND"
                    flagged.append("%s %s spread %.3f > %.3f" % (wl, k, rel, b))
                elif b is not None and rel > b / 3:
                    flag = "  over bound/3"
                print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %.4f bound %s%s" % (k, med, q1, q3, rel, b, flag))
            for q in (0.5, 0.9):
                ws = [w[q][0] for w in widths]
                if not ws:
                    continue
                merged = {}
                for w in widths:
                    for c, cnt in w[q][1].items():
                        merged[c] = merged.get(c, 0) + cnt
                tot = sum(merged.values())
                mix = ", ".join("%s %.0f%%" % (c, 100.0 * cnt / tot)
                                for c, cnt in sorted(merged.items(),
                                                     key=lambda x: -x[1]))
                worst = max(ws)
                # A quantile on a class boundary has a wide window shared
                # by two classes; a wide window inside one class is a tail.
                on_edge = any(w[q][0] > 0.25 and
                              max(w[q][1].values()) < 0.8 * sum(w[q][1].values())
                              for w in widths)
                mark = "  ON A BOUNDARY" if on_edge else ""
                if mark:
                    flagged.append("%s p%d window width %.2f" %
                                   (wl, int(q * 100), worst))
                print("  p%d window (+-5%% of ranks): widest %.3f of the "
                      "quantile; classes: %s%s" % (int(q * 100), worst, mix,
                                                   mark))
            medians.append(meds)
        if len(medians) == 2:
            for k, b in bounds.items():
                if k not in medians[0] or k not in medians[1]:
                    continue
                better = next(m["better"] for m in bench["end_to_end"]
                              if m["name"] == k)
                a, c = medians[0][k], medians[1][k]
                worse = (c - a) / a if better == "lower" else (a - c) / a
                if worse > b:
                    flagged.append("%s %s second median worse by %.3f" %
                                   (wl, k, worse))
                print("  %-14s median %.6g -> %.6g (worse by %.4f, bound %s)"
                      % (k, a, c, worse, b))
    if os.path.exists(ops_file):
        os.remove(ops_file)
    print("flagged: %s" % ("; ".join(flagged) if flagged else "none"))
    return 1 if flagged else 0


def check_counts(args):
    workloads = chosen_workloads(args)
    driver, tool = build()
    bad = []
    for wl in workloads:
        runs = []
        for _ in range(2):
            code, lines = run_one(driver, tool, wl, args.seed, 4, 1)
            res = result_of(lines)
            if code != 0 or not res:
                bad.append("%s: traced run failed" % wl)
                break
            runs.append(res["metrics"])
        if len(runs) != 2:
            continue
        for k in COUNT_METRICS:
            a, b = runs[0][k]["value"], runs[1][k]["value"]
            same = a == b
            print("%-14s %-28s %-14.10g %-14.10g %s" %
                  (wl, k, a, b, "exact" if same else "NONDETERMINISTIC"))
            if not same:
                bad.append("%s %s: %r vs %r" % (wl, k, a, b))
    print("nondeterminism: %s" % ("; ".join(bad) if bad else "none"))
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--check-counts", action="store_true")
    p.add_argument("--workloads", default="")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seeds", default="100,200")
    args = p.parse_args()
    if args.steadiness:
        return steadiness(args)
    if args.check_counts:
        return check_counts(args)
    if not args.workload or args.seconds <= 0:
        p.error("--workload and --seconds are required")
    driver, tool = build()
    code, lines = run_one(driver, tool, args.workload, args.seed,
                          args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
