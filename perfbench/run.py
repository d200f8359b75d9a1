#!/usr/bin/env python3
"""Build and run the repository's benchmark (described in BENCHMARK.json).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the benchmark program
(perfbench/wcpbench.ml, a dune package of its own) and the `wcpdetect`
daemon from source, runs one workload, and prints the result object as
the last line of stdout. The human-readable report (every metric with
its unit and sample count, and the traffic actually measured) goes to
stderr; the full result document is written to
.perfbench/<workload>-seed<N>-trace<T>.json, and the traced run's spans
to .perfbench/<workload>-seed<N>-spans.jsonl.

`--workload all` runs every workload, untraced then traced, and prints
each report (a convenience; the result line is then the last run's).

Workloads:
  offline-text   text traces decoded and detected on the dense path
  stream-btrace  large binary traces sliced from the mmap cursor
  serve-feed     sessions streamed to a `wcpdetect serve` daemon

Exit status is non-zero, with no result line, when the build fails or
wcpbench crashes or times out; it is 1, after the result line, when
any operation returned a wrong cut or failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["offline-text", "stream-btrace", "serve-feed"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
WCPBENCH = os.path.join("_build", "default", "perfbench", "wcpbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "wcpdetect.exe")
OUT_DIR = ".perfbench"


def build():
    # No shared dune cache: the build reads and writes only the checkout.
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "./perfbench/wcpbench.exe", "./bin/wcpdetect.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if r.returncode != 0 or not (os.path.exists(WCPBENCH) and os.path.exists(DAEMON)):
        sys.exit(f"run.py: build failed (exit {r.returncode})")


def run_one(workload, seed, seconds, trace):
    """Run wcpbench once; return (exit code, result line or None)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}"
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    cmd = [
        WCPBENCH, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--wcpdetect", DAEMON, "--work-dir", work,
        "--report", os.path.join(OUT_DIR, f"{tag}-trace{trace}.json"),
        "--spans", os.path.join(OUT_DIR, f"{tag}-spans.jsonl"),
    ]
    # Own process group, so the daemon wcpbench starts dies with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out after {RUN_TIMEOUT_S}s", file=sys.stderr)
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if out is None:
        return 3, None
    lines = out.strip().splitlines()
    if not lines:
        return proc.returncode or 3, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode or 3, None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return 3, None
    return proc.returncode, lines[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    # On SIGTERM still run the cleanup below: kill wcpbench's process
    # group (and with it the daemon) and remove its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    worst, line = 0, None
    for workload, trace in runs:
        code, line = run_one(workload, args.seed, args.seconds, trace)
        if line is None:
            sys.exit(f"run.py: {workload} produced no result (exit {code})")
        worst = max(worst, code)
    print(line, flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
