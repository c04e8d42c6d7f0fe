#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <loops|branchy|serve> --seed N \
        --seconds S --trace <0|1>

Run from the root of a checkout. Builds the driver and the jtc-fleet binary
from source into the build directory (CARGO_TARGET_DIR if set, else
.bench_build), then runs one workload. The driver prints a report and, as
the last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. The exit code is the driver's: 0 only when
every session and check passed.

Build output goes to standard error. The traced run (--trace 1) writes its
spans to <build dir>/spans/<workload>-seed<N>.json.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures until a build system exists, then builds the two targets
    (a no-op when current)."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "jtc-fleet",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def source_id():
    """The git commit when the checkout is a repository; otherwise a digest
    of the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["loops", "branchy", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--inject-mismatch", action="store_true",
                   help="corrupt one reference digest (the gate must fail)")
    args = p.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}",
           f"--commit={source_id()}",
           f"--spans={os.path.join(spans, f'{args.workload}-seed{args.seed}.json')}",
           f"--fleet-bin={os.path.join(out, 'jtc_tools', 'jtc-fleet')}"]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    # The driver and the fleet shards it forks share a process group of
    # their own, so that nothing outlives the run whatever happens to it.
    driver = subprocess.Popen(cmd, start_new_session=True)
    try:
        # A run measures for about --seconds and sets up and checks around
        # that; at 30 seconds this ends well within three minutes.
        return driver.wait(timeout=2 * args.seconds + 100)
    except subprocess.TimeoutExpired:
        print("perfbench: the driver did not finish in time", file=sys.stderr)
        driver.kill()
        driver.wait()
        return 1
    finally:
        stop_group(driver.pid)


def stop_group(pgid):
    """Kills whatever is left of the driver's process group and waits
    until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
