#!/usr/bin/env python3
"""Build and run the LDX benchmark from the root of a checkout.

    python3 perfbench/run.py --workload oneshot|incremental|service \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark itself is perfbench/main.ml, built here with dune into
.bench_build/.  It prints detail on stderr and, as the last line of
stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Spans of traced runs and temporary journals go to .perfbench/.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
OUT_DIR = ".perfbench"
WORKLOADS = ["oneshot", "incremental", "service"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build main.exe from source; the first build compiles the tree."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("perfbench: run from the root of an LDX checkout "
            "(no dune-project or lib/ here)")
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    if proc.returncode != 0 or not os.path.isfile(EXE):
        log(f"perfbench: build failed (exit {proc.returncode})")
        return False
    return True


def commit():
    """The checked-out commit, or None outside a git checkout.  Git is
    asked only when the checkout itself has a .git, and may not look
    above it or read configuration outside it."""
    if not os.path.exists(".git"):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(workload, seed, seconds, trace):
    """Run main.exe once; returns (stdout lines, parsed result) or
    None on failure."""
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", OUT_DIR, "--nproc", str(len(os.sched_getaffinity(0)))]
    sha = commit()
    if sha:
        args += ["--commit", sha]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {workload} run failed: {e}")
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} run failed (exit {proc.returncode})")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: {workload}: last line is not JSON: {lines[-1]!r}")
        return None
    return lines, result


def self_test():
    """A few requests of each workload, untraced and traced: every
    declared metric is printed with its unit, no request fails its known
    answer, and main.exe's span checks (parents within the request,
    children inside their parent, a product and a replay root per
    request) hold."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = run(workload, 1, 1, trace)
            tag = f"{workload} --trace {trace}"
            if out is None:
                problems.append(f"{tag}: run failed")
                continue
            _, result = out
            metrics = result.get("metrics", {})
            for name, unit in declared[trace].items():
                m = metrics.get(name)
                if m is None:
                    problems.append(f"{tag}: metric {name} missing")
                elif m.get("unit") != unit:
                    problems.append(f"{tag}: {name} has unit "
                                    f"{m.get('unit')!r}, declared {unit!r}")
            for name in metrics:
                if name not in declared[trace]:
                    problems.append(f"{tag}: metric {name} not declared")
            if result.get("failed") != 0 or result.get("attempted", 0) < 1:
                problems.append(f"{tag}: {result.get('failed')} of "
                                f"{result.get('attempted')} requests failed")
            if trace == 0 and metrics.get("ok_frac", {}).get("value") != 1:
                problems.append(f"{tag}: error_frac is not 0")
            if not result.get("correct"):
                problems.append(f"{tag}: result not correct "
                                "(failed checks are listed above)")
    for p in problems:
        log("SELF-TEST " + p)
    log("self-test: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return self_test()
    out = run(args.workload, args.seed, args.seconds, args.trace)
    if out is None:
        return 1
    for line in out[0]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
