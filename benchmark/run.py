#!/usr/bin/env python3
"""Build the StableShard benchmark, run its workloads, check the outputs.

  python3 benchmark/run.py                  # every workload: untraced + traced
  python3 benchmark/run.py --smoke          # 1/20 of the rounds, one rep each
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

The build goes to build-bench/ (Release) under the repository root. Every
metric is printed as `workload metric value unit`. With --workload the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics of BENCHMARK.json for --trace 0, its
per-layer metrics for --trace 1. Every run also writes a results file with a
provenance block (default build-bench/results*.json) that
benchmark/compare.py reads. A failed output check is named and makes the exit
code 1; a Debug or sanitizer build is refused with exit code 2.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# The library's latency histogram (stats/latency_recorder.cc) has 100
# buckets of 100 rounds; a quantile at or past 10,000 rounds saturates.
HISTOGRAM_CEILING_ROUNDS = 10000
TIME_LIMIT_S = 175
TIMED_BUILD_TYPES = ("Release", "RelWithDebInfo")
# Minimum measured reps of an untraced process, and minimum untraced/traced
# rep pairs of a traced one; --smoke runs one of each.
REPS = 5
PAIRS = 3


class Refused(Exception):
    """A build the benchmark must not time (exit code 2)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def read_cache(build_dir):
    cache = {}
    path = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def build(build_dir):
    """Configure (Release) on first use, then build; returns the binary."""
    cache = read_cache(build_dir)
    if cache is None:
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        done = subprocess.run(configure, capture_output=True, text=True)
        if done.returncode != 0:
            log(done.stdout + done.stderr)
            raise RuntimeError("cmake configure failed")
        cache = read_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in TIMED_BUILD_TYPES:
        raise Refused(f"build type {build_type or '(empty)'} in {build_dir}")
    for option in ("SSHARD_SANITIZE", "SSHARD_TSAN"):
        if cache.get(option, "OFF").upper() in ("ON", "1", "TRUE", "YES"):
            raise Refused(f"{option}=ON in {build_dir}")
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "sshard_bench", "-j", jobs],
        capture_output=True, text=True)
    if done.returncode != 0:
        log(done.stdout + done.stderr)
        raise RuntimeError("build failed")
    return os.path.join(build_dir, "sshard_bench")


def run_workload(binary, workload, args, traced, deadline):
    """One sshard_bench process; returns its parsed JSON document."""
    command = [binary, f"--workload={workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}",
               f"--reps={args.pairs if traced else args.reps}"]
    if traced:
        command.append("--traced")
    if args.smoke:
        command.append("--smoke")
    timeout = None if deadline is None else max(1.0, deadline - time.time())
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=timeout)
    if done.returncode == 2:
        raise Refused(done.stderr.strip())
    if done.returncode != 0:
        log(done.stderr)
        raise RuntimeError(f"sshard_bench {workload} exited "
                           f"{done.returncode}")
    return json.loads(done.stdout)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summary(values, unit):
    q1, median, q3 = quartiles(values)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "reps": values}


def end_to_end(doc, units):
    """The end-to-end metrics of one untraced process."""
    reps = [r for r in doc["reps"] if not r["warmup"]]
    first = reps[0]["result"]
    per_rep = {
        "committed_tps": [r["result"]["committed"] / r["run_s"] for r in reps],
        "ns_per_shard_round": [
            r["run_s"] * 1e9 / (r["result"]["rounds_executed"] * doc["shards"])
            for r in reps],
        "setup_s": [r["setup_s"] for r in reps] + doc["setup_samples_s"],
        "peak_rss_mb": [doc["peak_rss_kb"] / 1024.0],
        "latency_p50_rounds": [first["p50_latency"]],
        "latency_p99_rounds": [first["p99_latency"]],
        "pending_per_shard_avg": [first["avg_pending_per_shard"]],
    }
    return {name: summary(per_rep[name], unit) for name, unit in units}


def per_layer(doc, units):
    """The per-layer metrics of one traced process (medians over reps)."""
    reps = [r for r in doc["reps"] if not r["warmup"]]
    traced = [r for r in reps if r["traced"]]
    # Measured reps come in adjacent (untraced, traced) pairs; a ratio
    # within a pair cancels the host's slower drift.
    def run_s(pair, traced):
        return next(r["run_s"] for r in pair if r["traced"] == traced)

    overhead = statistics.median(
        run_s(pair, True) / run_s(pair, False)
        for pair in zip(reps[0::2], reps[1::2])) - 1.0
    metrics = {}
    for name, unit in units:
        if name == "trace.overhead_frac":
            values = [overhead]
        else:
            values = [r["layers"][name] for r in traced]
        metrics[name] = summary(values, unit)
    return metrics


def check(doc):
    """Output checks over every rep of one process: {check: failure or None}."""
    outcomes = {}

    def expect(name, ok, detail):
        if outcomes.get(name) is None:
            outcomes[name] = None if ok else detail

    reps = doc["reps"]
    for i, rep in enumerate(reps):
        r = rep["result"]
        where = f"rep {i}"
        expect("drained", r["drained"] and r["unresolved"] == 0,
               f"{where}: drained={r['drained']} unresolved={r['unresolved']}")
        expect("accounting",
               r["injected"] == r["committed"] + r["aborted"] + r["unresolved"]
               and r["injected"] == r["injected_txns"],
               f"{where}: injected={r['injected']} committed={r['committed']}"
               f" aborted={r['aborted']} unresolved={r['unresolved']}")
        expect("offered_eq_injected", r["offered_txns"] == r["injected_txns"],
               f"{where}: offered={r['offered_txns']} "
               f"injected={r['injected_txns']}")
        expect("p99_below_histogram_ceiling",
               r["p99_latency"] < HISTOGRAM_CEILING_ROUNDS,
               f"{where}: p99={r['p99_latency']}")
        if doc["faults"]:
            expect("churn_replay_bytes", r["replay_bytes"] > 0,
                   f"{where}: replay_bytes={r['replay_bytes']}")
            expect("churn_recovery_rounds", r["recovery_rounds"] > 0,
                   f"{where}: recovery_rounds={r['recovery_rounds']}")
    differing = [i for i, rep in enumerate(reps)
                 if rep["result"] != reps[0]["result"]]
    expect("traced_eq_untraced" if doc["traced"] else "reps_identical",
           not differing, f"reps {differing} differ from rep 0")
    return outcomes


def git_provenance():
    def git(*argv):
        return subprocess.run(["git", "-C", ROOT, *argv], capture_output=True,
                              text=True).stdout.strip()
    try:
        top = git("rev-parse", "--show-toplevel")
        if not top or os.path.realpath(top) != os.path.realpath(ROOT):
            return None, None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
    except OSError:
        return None, None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args, doc):
    rev, dirty = git_provenance()
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "compiler": doc["compiler"], "build_type": doc["build_type"],
            "git_rev": rev, "git_dirty": dirty, "seed": args.seed,
            "reps": args.reps, "traced_pairs": args.pairs,
            "seconds": args.seconds, "smoke": args.smoke}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=0,
                        help="keep adding reps until this much measuring "
                             "time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, "
                             "1 = traced per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the rounds, one rep, no warm-up")
    parser.add_argument("--build-dir", default=os.path.join(ROOT, "build-bench"))
    parser.add_argument("--out", help="results file (default: in the build "
                                      "directory)")
    args = parser.parse_args()
    args.reps, args.pairs = (1, 1) if args.smoke else (REPS, PAIRS)

    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    e2e_units = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer_units = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload}; known: "
                     f"{' '.join(names)}")
    workloads = [args.workload] if args.workload else names
    modes = [bool(args.trace)] if args.workload else [False, True]

    binary = build(args.build_dir)
    # A single-workload run must finish within TIME_LIMIT_S of the build.
    deadline = time.time() + TIME_LIMIT_S if args.workload else None
    results = {}
    failures = []
    attempted = failed = 0
    for workload in workloads:
        entry = results.setdefault(workload, {"checks": {}})
        for traced in modes:
            doc = run_workload(binary, workload, args, traced, deadline)
            entry["config"] = doc["config"]
            entry["result"] = doc["reps"][0]["result"]
            metrics = (per_layer(doc, layer_units) if traced
                       else end_to_end(doc, e2e_units))
            entry["per_layer" if traced else "end_to_end"] = metrics
            for name, m in metrics.items():
                print(f"{workload} {name} {m['value']:.6g} {m['unit']}",
                      flush=True)
            for name, detail in check(doc).items():
                entry["checks"][name] = detail is None
                if detail is not None:
                    failures.append(f"{workload}: {name}: {detail}")
            for rep in doc["reps"]:
                if rep["warmup"]:
                    continue
                r = rep["result"]
                attempted += r["offered_txns"]
                failed += (r["aborted"] + r["unresolved"] + r["offered_txns"]
                           - r["injected_txns"])

    out = args.out
    if out is None:
        suffix = (f"_{args.workload}_trace{args.trace}" if args.workload
                  else "_smoke" if args.smoke else "")
        out = os.path.join(args.build_dir, f"results{suffix}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"schema": 1, "provenance": provenance(args, doc),
                   "workloads": results}, f, indent=1)
        f.write("\n")
    log(f"results written to {out}")

    for failure in failures:
        print(f"CHECK FAILED {failure}", flush=True)
    if args.workload:
        entry = results[args.workload]
        metrics = entry["per_layer"] if args.trace else entry["end_to_end"]
        print(json.dumps({
            "correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in metrics.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as refused:
        log(f"refusing to time this build: {refused}")
        sys.exit(2)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        log(f"benchmark failed: {error}")
        sys.exit(1)
