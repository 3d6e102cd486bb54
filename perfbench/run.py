#!/usr/bin/env python3
"""Run one perfbench workload from the root of a repository checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `gp` CLI (repository workspace) and the perfbench runner (its
own workspace under perfbench/) in release mode into $CARGO_TARGET_DIR
(default .bench_build), then runs the workload in a scratch directory
.bench_work that is removed afterwards. Build output goes to stderr; the
runner's report and its final JSON result line go to stdout.
"""

import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 175
WORK_DIR = ".bench_work"


def build(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr)
    if r.returncode != 0:
        print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
    return r.returncode == 0


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isfile("crates/cli/Cargo.toml")):
        print("perfbench: run me from the root of a repository checkout", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    if not (build(cargo + ["-p", "gp-cli"])
            and build(cargo + ["--manifest-path", "perfbench/Cargo.toml"])):
        return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--gp", os.path.join(release, "gp"), "--work", WORK_DIR]
    # own process group, so a timeout also stops the gp processes it spawned
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
