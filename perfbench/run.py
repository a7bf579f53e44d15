#!/usr/bin/env python3
"""Build and run the EffiCSense benchmark (perfbench).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library from ../src) with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the repository root, then
runs the workload in a fresh scratch directory there, so no file cache or
journal is shared between runs. The program's table and its result line
pass through; the last line of stdout is the JSON result. --trace 1 also
writes the run's spans to <build dir>/traces/. Exits non-zero, without a
result line, when the build fails, a correctness check fails or the
program does not finish in time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_sweep", "solver_sweep", "mc_yield", "gateway_stream"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build; returns the binary path or None on failure."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.isfile(binary) else None


def run_one(binary, workload, seed, seconds, trace, extra):
    """Run one workload in a fresh scratch directory; returns (code, result)."""
    runs = os.path.join(build_dir(), "runs")
    scratch = os.path.join(runs, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=scratch, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if proc.returncode == 0 and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        lines = lines[:-1]
    print("\n".join(lines), flush=True)
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=2022)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own tests)")
    ap.add_argument("--tamper", action="store_true",
                    help="corrupt one output, so the checks must fail")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    extra = (["--smoke"] if args.smoke else []) + \
        (["--tamper"] if args.tamper else [])
    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        code, result = run_one(binary, name, args.seed, args.seconds,
                               args.trace, extra)
        if code != 0 or result is None:
            print("perfbench: %s failed (exit %d)" % (name, code),
                  file=sys.stderr)
            return 1
        if len(names) == 1:
            combined = result
            break
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"]["%s/%s" % (name, metric)] = value
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
