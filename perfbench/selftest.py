#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Builds gexbench (as run.py does) and checks, with short runs:

1. every workload's timed run exits 0 and prints exactly the
   end-to-end metrics of BENCHMARK.json, with their units, as
   positive finite numbers, and correct=true with failed=0;
2. every workload's traced run prints exactly the per-layer metrics of
   BENCHMARK.json; the traced run's passes also re-run every point at
   the other SM-thread count and check it against the pinned result,
   so a pass means smThreads 1 and N give identical counts;
3. two traced runs at the same non-default seed give identical count
   metrics (all of them come from SimResult::stats);
4. --wrong-pin (a deliberately wrong pinned value) is reported as a
   failed op: exit status 1, correct=false, failed >= 1;
5. in a directory holding only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.

Exit status 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after disabling __pycache__ in the source tree)

SEED = 7
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def drive(binary, out_dir, workload, *extra):
    cmd = [binary, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--out-dir", out_dir, *extra]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=run.RUN_TIMEOUT_S)
    try:
        result = json.loads(r.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return r.returncode, result, r.stderr


def metrics_match(result, spec, positive):
    got = result["metrics"]
    if set(got) != {m["name"] for m in spec}:
        return False
    for m in spec:
        v = got[m["name"]]
        if v["unit"] != m["unit"] or not isinstance(v["value"], (int, float)):
            return False
        if not math.isfinite(v["value"]) or (positive and v["value"] <= 0):
            return False
    return True


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    out_dir = os.path.join(run.build_dir(), "selftest")
    os.makedirs(out_dir, exist_ok=True)
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]

    for w in run.WORKLOADS:
        rc, res, err = drive(binary, out_dir, w, "--trace", "0")
        check(rc == 0 and res is not None and res["correct"]
              and res["failed"] == 0 and res["attempted"] >= 1,
              f"{w}: timed run is correct {err.strip()}")
        check(res is not None
              and metrics_match(res, bench["end_to_end"], positive=True),
              f"{w}: timed run prints every end-to-end metric with its unit")

        rc, res, err = drive(binary, out_dir, w, "--trace", "1")
        check(rc == 0 and res is not None and res["correct"],
              f"{w}: traced run is correct, smThreads 1 and N agree "
              f"{err.strip()}")
        check(res is not None
              and metrics_match(res, bench["per_layer"], positive=False),
              f"{w}: traced run prints every per-layer metric")
        if res is not None and w == "paging":
            rc2, res2, _ = drive(binary, out_dir, w, "--trace", "1")
            check(rc2 == 0 and res2 is not None and all(
                res["metrics"][c] == res2["metrics"][c] for c in counts),
                f"{w}: two runs at seed {SEED} give identical counts")

    rc, res, _ = drive(binary, out_dir, "resident", "--wrong-pin")
    check(rc == 1 and res is not None and not res["correct"]
          and res["failed"] >= 1,
          "a wrong pinned value is reported as a failed op")

    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "resident", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=180)
    check(r.returncode != 0 and '"correct"' not in r.stdout,
          "without the sources, run.py fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
