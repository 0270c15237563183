#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 perfbench/run.py --workload batch-miss --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Builds `xseed` and the load generator with dune (inside the checkout's
_build), then runs perfbench/bench.ml, which starts `xseed serve --port 0`,
drives it over TCP and prints one JSON result object as the last line of
stdout. `--workload all` runs every workload in turn (one JSON line each)
and exits non-zero if any of them failed. Scratch files go to
.perfbench-work/ in the checkout.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["batch-miss", "point-hot", "point-hot-open", "feedback-tenants"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORK_DIR = ".perfbench-work"
TARGETS = ["./bin/xseed.exe", "./perfbench/bench.exe"]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    for need in ["dune-project", "bin/xseed.ml", "lib", "perfbench/dune"]:
        if not os.path.exists(os.path.join(root, need)):
            die("not the root of an xseed checkout (missing %s)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune is not installed")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if done.returncode != 0:
        die("build failed")


def run_one(root, workload, args):
    cmd = [os.path.join("_build", "default", "perfbench", "bench.exe"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--xseed", os.path.join("_build", "default", "bin", "xseed.exe"),
           "--work", WORK_DIR]
    # Own process group, so a timeout also stops the server it started.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    root = os.getcwd()
    build(root)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    failed = [w for w in names if run_one(root, w, args) != 0]
    if failed:
        print("perfbench: failed: " + ", ".join(failed), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
