#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload resident --seed 1 --seconds 20 --trace 0

Run from the repository root. The driver is configured and built with
CMake into $CARGO_TARGET_DIR (default .bench_build), then run once for
the measurement. With --trace 0 it is first launched up to its first
op only, at least SETUP_MIN_LAUNCHES times and until SETUP_BUDGET_S
have passed (at most SETUP_MAX_LAUNCHES), and setup_s is the median
over all launches. Everything the driver prints goes to stdout; the
last line is the result JSON. The exit status is the driver's (1 when
an op failed) or 2 when the benchmark cannot run (no sources, build
failure, crash).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resident", "paging", "checked-run", "campaign")
SETUP_MIN_LAUNCHES = 4
SETUP_MAX_LAUNCHES = 40
# A millisecond start-up needs many launches for a steady median; a
# set-up that builds traces gets its minimum within this budget.
SETUP_BUDGET_S = 2.0
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def host_cpus():
    return len(os.sched_getaffinity(0))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configure and build gexbench; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found beside perfbench/")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "gexbench",
                  "-j", str(min(4, host_cpus()))])
    # Compiler temporaries stay inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "gexbench")


def launch(cmd):
    """Run the driver, stamping its launch time for setup_s."""
    cmd = cmd + ["--launched-at", str(time.monotonic_ns())]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {RUN_TIMEOUT_S} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 0:
        fail("--seed and --seconds must not be negative")

    binary = build()
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out-dir", out_dir]

    setups = []
    if not a.trace:
        t0 = time.monotonic()
        while len(setups) < SETUP_MIN_LAUNCHES or (
                len(setups) < SETUP_MAX_LAUNCHES
                and time.monotonic() - t0 < SETUP_BUDGET_S):
            r = launch(cmd + ["--setup-only"])
            lines = [l for l in r.stdout.splitlines()
                     if l.startswith("setup_s ")]
            if r.returncode != 0 or not lines:
                fail("set-up launch failed")
            setups.append(float(lines[-1].split()[1]))

    r = launch(cmd)
    lines = r.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(r.stdout)
        fail(f"driver exited {r.returncode} without a result")
    for line in lines[:-1]:
        print(line)
    if not a.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s is the median of {len(setups)} launches "
              f"(fastest {min(setups):.6f} s, slowest {max(setups):.6f} s)")
    print(json.dumps(result))
    sys.exit(r.returncode if r.returncode in (0, 1) else 2)


if __name__ == "__main__":
    main()
