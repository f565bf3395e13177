#!/usr/bin/env python3
"""Repository benchmark of the memento simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper-sweep|fleet-node \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the memento library from src/ plus driver.cc) as a
Release build in .bench_build/, runs the workload through the driver and
prints two JSON lines: a detail record (seed, host fingerprint, failed
output checks), then the result {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics of untraced timed
calls; --trace 1 runs the workload traced and reports the per-layer
metrics. Raw driver documents, spans included, are kept in .bench_work/.
Exits non-zero, without a result line, when nothing can be built or run,
and with one when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import metrics  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("paper-sweep", "fleet-node")
# Set-up-only launches per run; with the timed launch's own set-up,
# setup_s is the median of SETUP_SAMPLES + 1.
SETUP_SAMPLES = 20
DRIVER_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/CMakeLists.txt not found next to "
                 "perfbench/; run from a full checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=850)


def drive(mode, args, out):
    """Launch the driver once and return its raw document."""
    cmd = [DRIVER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", WORK_DIR, "--out", out, "--t0-ns"]
    cmd.append(str(time.monotonic_ns()))
    subprocess.run(cmd, check=True, stdout=sys.stderr,
                   timeout=DRIVER_TIMEOUT_S)
    with open(out) as f:
        return json.load(f)


def git_sha():
    # Never look above the checkout: outside a repository it is unknown.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, env=env,
                           timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def host_fingerprint(raw):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "build_flags": raw["build"]["flags"].strip(),
        "git_sha": git_sha(),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    stem = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}")

    if args.trace:
        raw = drive("traced", args, stem + "-traced.json")
        values = metrics.per_layer(raw)
    else:
        setup_ns = [drive("setup", args, stem + "-setup.json")["setup_ns"]
                    for _ in range(SETUP_SAMPLES)]
        raw = drive("timed", args, stem + "-timed.json")
        setup_ns.append(raw["setup_ns"])
        values = metrics.end_to_end(raw, setup_ns)

    attempted, failed, problems = metrics.check_outputs(raw, reference)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(raw),
        "timed_calls": len(raw.get("wall_ns", [None])),
        "failed_frac": failed / attempted,
        "problems": problems,
    }
    fleet = raw.get("fleet")
    if fleet is not None and not fleet["error"]:
        detail["fleet"] = {
            "rate_rps": fleet["rate_rps"],
            "offered_load": metrics.offered_load(
                fleet["rate_rps"], fleet["service_cycles"],
                fleet["freq_ghz"], fleet["cores"]),
            "p50_ms": fleet["p50_ms"],
            "p99_ms": fleet["p99_ms"],
            "digest": fleet["digest"],
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        sys.exit(f"perfbench: {e!r}")
