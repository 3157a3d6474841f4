#!/usr/bin/env python3
"""Served-query benchmark of the secure k-NN deployment (BENCHMARK.json).

Run from the root of a source tree:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run. The last stdout line is the result object
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      with --trace 0, the per-layer metrics with --trace 1.

  python3 perfbench/run.py --all [--seed N] [--seconds S]
      Every workload, untraced and traced, printed as `name value unit`.

  python3 perfbench/run.py --self-check
      Tiny sizes: every metric named in BENCHMARK.json appears with its unit,
      no part of the time ledger is negative or counted twice, and an
      injected typed error and a corrupted answer are both counted as
      failures.

The benchmark program (perfbench/served_bench.cc) and the libraries it links
are built with CMake into $CARGO_TARGET_DIR (default .bench_build) under the
current directory; a build that is up to date costs about a second.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
LEDGER_PARTS = ("ledger.client_ms", "ledger.queue_wait_ms",
                "ledger.party_a_ms", "ledger.party_b_ms",
                "ledger.unattributed_ms")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds served_bench; returns its path or None."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_dir / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp.resolve()))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "served_bench", "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the result.
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return None
        if res.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return build_dir / "served_bench"


def declared_metrics(trace):
    """(name -> unit) that BENCHMARK.json declares for this trace mode."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Runs served_bench; returns (exit code, result object or None)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", *extra]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S}s")
        return 1, None
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return res.returncode, result


def metric_mismatch(result, trace):
    """Why the result's metrics differ from BENCHMARK.json, or ''."""
    want = declared_metrics(trace)
    got = {n: m.get("unit") for n, m in result["metrics"].items()}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
    if missing or extra or units:
        return f"missing {missing}, undeclared {extra}, wrong unit {units}"
    return ""


def workload_names():
    return [w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())
            ["workloads"]]


def single(args, binary):
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        return code or 1
    problem = metric_mismatch(result, args.trace)
    if problem:
        log(f"perfbench: metrics do not match BENCHMARK.json: {problem}")
        return 1
    print(json.dumps(result))
    return code


def run_all(args, binary):
    status = 0
    for name in workload_names():
        for trace in (0, 1):
            code, result = run_once(binary, name, args.seed, args.seconds,
                                    trace)
            if result is None or code != 0:
                log(f"perfbench: {name} trace={trace} failed (exit {code})")
                status = 1
                continue
            print(f"# {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"{name}/{metric} {m['value']} {m['unit']}")
            sys.stdout.flush()
    return status


def self_check(binary):
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            log(f"self-check FAILED: {what}")

    for name in workload_names():
        # Enough seconds at the toy preset for 100 timed samples.
        for trace, seconds in ((0, 8), (1, 4)):
            code, result = run_once(binary, name, 1, seconds, trace,
                                    ["--tiny"])
            tag = f"{name} trace={trace}"
            expect(code == 0 and result is not None, f"{tag} exit {code}")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0,
                   f"{tag} correct={result['correct']} "
                   f"failed={result['failed']}")
            problem = metric_mismatch(result, trace)
            expect(not problem, f"{tag}: {problem}")
            if trace and not problem:
                # The residual is wall minus the parts, so the parts always
                # sum to the wall; parts counted twice show as a negative
                # residual, overall or per query.
                m = {k: v["value"] for k, v in result["metrics"].items()}
                for part in LEDGER_PARTS:
                    expect(m[part] >= 0, f"{tag}: {part} = {m[part]} < 0")
                expect(m["ledger.client_wall_ms"] > 0,
                       f"{tag}: no traced client wall time")
                expect(m["ledger.overlapping_traces"] == 0,
                       f"{tag}: {m['ledger.overlapping_traces']} queries "
                       f"whose ledger parts overlap")
    # One A worker, so the two injected worker faults hit one query: its
    # re-execution fails too and the client gets a typed error. One answer
    # is also corrupted before verification.
    code, result = run_once(binary, "small-solo", 1, 8, 0,
                            ["--tiny", "--inject-failure"])
    expect(code != 0, f"injected failure: exit {code}, want non-zero")
    expect(result is not None and not result["correct"] and
           result["failed"] == 2,
           f"injected failure: result {result and {k: result[k] for k in ('correct', 'attempted', 'failed')}}")
    if result is not None:
        ratio = result["metrics"]["success_ratio"]["value"]
        want = 1 - 2 / result["attempted"]
        expect(abs(ratio - want) < 1e-9,
               f"injected failure: success_ratio {ratio}, want {want}")
    print("self-check " + ("ok" if not failures else
                           f"FAILED ({len(failures)})"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not (args.all or args.self_check or args.workload):
        p.error("need --workload, --all or --self-check")
    binary = build()
    if binary is None:
        return 2
    if args.self_check:
        return self_check(binary)
    if args.all:
        return run_all(args, binary)
    return single(args, binary)


if __name__ == "__main__":
    sys.exit(main())
