#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver, makes the workload's input
from the seed, runs one measured process and prints one JSON result line.

    python3 perfbench/run.py --workload scalefree-pipeline --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. Everything it writes stays under .bench_build/
in the current directory. The last stdout line is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The line before it is the
run's fingerprint (host, caches, STREAM triad, workload, seed, threads),
which is also kept in .bench_build/records/. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("scalefree-pipeline", "random-pipeline")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170  # the whole run, build excluded, must end within 180 s


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Runs cmd to completion (killed and reaped on timeout)."""
    return subprocess.run(cmd, check=True, timeout=max(1.0, timeout), text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr)


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator, 600)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench_driver"], 900)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def json_lines(text):
    return [json.loads(ln) for ln in text.splitlines() if ln.startswith("{")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 1

    start = time.monotonic()
    remaining = lambda: DEADLINE_S - (time.monotonic() - start)
    work = os.path.join(".bench_build", "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run([DRIVER, "gen", "--workload", args.workload, "--seed", str(args.seed),
             "--dir", work], remaining())
        *_, info, result = json_lines(run(
            [DRIVER, "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", work],
            remaining(), capture=True).stdout)
        # After the measured process, so its memory traffic cannot disturb it.
        machine = json_lines(run([DRIVER, "machine", "--ceiling", str(args.trace)],
                                 remaining(), capture=True).stdout)[-1]
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        log("run failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace:
        metrics["machine.stream_gbps"] = machine["stream_gbps"]
        metrics["kernel.ceiling_gbps"] = machine["ceiling_gbps"]
        metrics["kernel.row_bw_frac"] = {
            "value": metrics["kernel.row_gbps"]["value"] / machine["stream_gbps"]["value"],
            "unit": "frac"}
    fingerprint = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), **info["info"],
        "machine": {k: v["value"] for k, v in machine.items()},
    }
    os.makedirs(os.path.join(".bench_build", "records"), exist_ok=True)
    record = os.path.join(".bench_build", "records", "%s-seed%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"fingerprint": fingerprint, "result": result}, f, indent=1)
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
