#!/usr/bin/env python3
"""hetbench's benchmark driver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures|planner|service \
        --seed N --seconds S --trace 0|1

Builds the Go program in perfbench/ (a module of its own that replaces
`hetbench` with the checkout) into $CARGO_TARGET_DIR, default
.bench_build, with every Go cache kept there too. Then runs it in fresh
processes:

  * with --trace 0, eight set-up-only processes and the measured one; each
    reports set-up time as the time from spawn until the program prints
    "ready", and setup_s is the median of the nine;
  * with --trace 1, only the measured process, which reports the
    per-layer metrics.

Lines the program prints starting with "# " are forwarded. The last line
of standard output is the run's JSON result. Any failure exits 1 without
printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

SETUP_ONLY_RUNS = 8
# The whole run, build included, must end well inside the 180 s a run
# may take; the first build in a checkout gets longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env(build_dir):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOMODCACHE": os.path.join(build_dir, "gomodcache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "",
        "CGO_ENABLED": "0",
    })
    return env


def build(root, build_dir):
    binary = os.path.join(build_dir, "perfbench", "perfbench")
    try:
        proc = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=os.path.join(root, "perfbench"), env=go_env(build_dir),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout)
    return binary


def run_once(cmd, deadline):
    """Runs one program process. Returns (setup seconds, stdout lines).

    Set-up time is measured from spawn to the "ready" line. The process is
    killed and awaited if it outlives the deadline.
    """
    lines = []
    ready = []

    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def read():
        for line in proc.stdout:
            if not ready and line.strip() == "ready":
                ready.append(time.perf_counter() - start)
            lines.append(line.rstrip("\n"))

    reader = threading.Thread(target=read)
    reader.start()
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        reader.join()
        fail("%s timed out" % " ".join(cmd[1:]))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    reader.join()
    if code != 0:
        fail("%s exited %d" % (" ".join(cmd[1:]), code))
    if not ready:
        fail("%s never became ready" % " ".join(cmd[1:]))
    return ready[0], lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["figures", "planner", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(root, build_dir)
    deadline = max(deadline, time.monotonic() + 120)

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-root", root, "-state", os.path.join(build_dir, "perfbench", "state")]
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_ONLY_RUNS):
            setup, _ = run_once(cmd + ["-setup-only"], deadline)
            setups.append(setup)
    setup, lines = run_once(cmd, deadline)
    setups.append(setup)

    for line in lines:
        if line.startswith("# "):
            print(line)
    if not lines or not lines[-1].startswith("{"):
        fail("no result line")
    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail("bad result line: %s" % e)
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("# setup_s median of %d fresh processes: %s" % (len(setups), ", ".join("%.4f" % s for s in setups)))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
