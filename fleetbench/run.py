#!/usr/bin/env python3
"""Fleet-sweep benchmark entry point.

Run from the repository root:

    python3 fleetbench/run.py --workload fleet_numeric --seed 1 --seconds 45 --trace 0

Builds fleet_bench from source into .bench_build/ (CMake, the repository's
default RelWithDebInfo build type) and generates the workload's inputs for
the seed once (cached under .bench_build/inputs/).

With --trace 0 it splits --seconds over a few measuring processes, run one
after another, each in its own work directory that holds the plan store and
is removed afterwards.  The reported timings are medians over the samples of
all of them, so that no single process's placement or memory layout decides a
metric.  With --trace 1 one traced process prints the per-layer metrics.

The last line of standard output is the JSON result; build and generator logs
go to standard error.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("fleet_paper", "fleet_mix", "fleet_longtail", "fleet_numeric")
TIMINGS = ("setup_s",
           "sweep_cold_k1_s", "sweep_cold_k4_s",
           "sweep_disk_k1_s", "sweep_disk_k4_s",
           "sweep_warm_k1_s", "sweep_warm_k4_s")
BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170
# Measuring processes per run: one per SLICE_S seconds of --seconds, at most
# MAX_PROCS.
SLICE_S = 9
MAX_PROCS = 5
# Nominal CPU time of fleet_bench's reference work (reference_work_s), about
# its median on a 4-vCPU Xeon VM.  Every timing is reported at the host speed
# at which the reference work takes this long.
REFERENCE_S = 0.004


def log(msg):
    print("fleetbench: " + msg, file=sys.stderr, flush=True)


def call(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout); returns its exit code
    and, when stdout=subprocess.PIPE, its standard output."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("timed out after %ds: %s" % (timeout, " ".join(cmd)))
        return 124, None


def build(root, bench_dir, build_dir):
    """Configures once, then builds incrementally (the build re-runs CMake itself
    when a CMakeLists.txt or a globbed source directory changes)."""
    cmds = [["cmake", "--build", build_dir, "-j", "4"]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        cmds.insert(0, configure)
    for cmd in cmds:
        if call(cmd, BUILD_TIMEOUT_S, cwd=root, stdout=sys.stderr)[0] != 0:
            return None
    exe = os.path.join(build_dir, "fleet_bench")
    return exe if os.path.isfile(exe) else None


def inputs_for(exe, root, workload, seed):
    """Generates (once per workload and seed) and returns the input directory."""
    base = os.path.join(root, ".bench_build", "inputs")
    final = os.path.join(base, "%s-%d" % (workload, seed))
    if os.path.isfile(os.path.join(final, "manifest.json")):
        return final
    tmp = "%s.tmp%d" % (final, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    code, _ = call([exe, "gen", "--workload", workload, "--seed", str(seed), "--out", tmp],
                   GEN_TIMEOUT_S, cwd=root, stdout=sys.stderr)
    if code != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return None
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    return final


def measure(exe, root, inputs, seconds, trace, timeout):
    """Runs one measuring process in a fresh work directory; returns its exit
    code and standard output."""
    work = os.path.join(root, ".bench_build", "runs", "%d-%d" % (os.getpid(), time.monotonic_ns()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        return call([exe, "run", "--inputs", inputs, "--work", work,
                     "--seconds", repr(seconds), "--trace", str(trace)],
                    max(1, timeout), cwd=root, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def pool(parts):
    """The run's result from the measuring processes' raw results."""
    failures = []
    if len({p["reference"] for p in parts}) != 1:
        failures.append("processes disagree on the per-group replay results")
    errors = {p["replay_error_pct"] for p in parts}
    if len(errors) != 1 or None in errors:
        failures.append("replay_error_pct missing or differing across processes")
    metrics = {}
    ref = [x for p in parts for x in p["samples"]["reference_s"]]
    if not ref:
        failures.append("no reference_s samples")
        ref = [REFERENCE_S]
    speed = REFERENCE_S / statistics.median(ref)
    print("  %-18s %12.6f s   median of %d; timings below are scaled by %.4f"
          % ("reference_s", statistics.median(ref), len(ref), speed))
    for name in TIMINGS:
        v = sorted(x for p in parts for x in p["samples"][name])
        if not v:
            failures.append("no %s samples" % name)
            continue
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
        wall = statistics.median(x for p in parts for x in p["wall_samples"][name])
        print("  %-18s %12.6f s   busiest-thread CPU %.6f, median of %d from %d processes "
              "(p25 %.6f, p75 %.6f); wall-clock median %.6f"
              % (name, q[1] * speed, q[1], len(v), len(parts), q[0], q[2], wall))
        metrics[name] = {"value": statistics.median(v) * speed, "unit": "s"}
    error = parts[0]["replay_error_pct"]
    if error is not None:
        print("  %-18s %12.6f %%   virtual time, population-weighted" % ("replay_error_pct", error))
        metrics["replay_error_pct"] = {"value": error, "unit": "%"}
    rss = max(p["peak_rss_mb"] for p in parts)
    print("  %-18s %12.3f MB  highest of the processes" % ("peak_rss_mb", rss))
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    print("  %-18s %12.6f     %d of %d groups not ok (reported as failed/attempted)"
          % ("group_fail_ratio", failed / attempted if attempted else 0.0, failed, attempted))
    for f in failures:
        print("CHECK FAILED: " + f)
    correct = all(p["correct"] for p in parts) and not failures
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def end_to_end(exe, root, inputs, seconds):
    procs = max(1, min(MAX_PROCS, seconds // SLICE_S))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = []
    for _ in range(procs):
        code, out = measure(exe, root, inputs, seconds / procs, 0,
                            int(deadline - time.monotonic()))
        lines = (out or "").splitlines()
        for line in lines[:-1]:
            if not parts or not line.startswith("stamp:"):
                print(line)
        # Exit code 1 is a failed check, whose result still counts (and makes
        # the run's result incorrect); anything else is a crash.
        if code not in (0, 1) or not lines or not lines[-1].startswith("{"):
            log("measuring process failed (exit code %d)" % code)
            return code or 1
        parts.append(json.loads(lines[-1]))
    result = pool(parts)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "core", "replay_driver.h")):
        log("no repository sources under %s/src; run from the repository root" % root)
        return 2

    exe = build(root, bench_dir, os.path.join(root, ".bench_build", "cmake"))
    if exe is None:
        log("build failed")
        return 3
    inputs = inputs_for(exe, root, args.workload, args.seed)
    if inputs is None:
        log("input generation failed")
        return 4

    if args.trace == 0:
        return end_to_end(exe, root, inputs, args.seconds)
    code, out = measure(exe, root, inputs, args.seconds, 1, RUN_TIMEOUT_S)
    sys.stdout.write(out or "")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
