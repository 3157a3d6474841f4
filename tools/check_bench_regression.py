#!/usr/bin/env python3
"""Kernel-timing regression gate for bench_microops.

Compares the candidate bench_microops (--bin) against bench_microops
built from the baseline commit, on the same host, in interleaved runs.
The baseline commit is the one that last wrote the committed
BENCH_microops.json (--baseline): that file stays the trajectory record
of kernel timings, and its last commit is the reference the gate
measures against. After an intentional kernel change, move the baseline
by regenerating BENCH_microops.json (run bench_microops from the repo
root) and committing it; the next run then builds that commit instead.

Timings recorded on another machine are never compared: one speed factor
cannot map one host's per-kernel costs onto another's.

Steps:
  1. Reference commit: `git log -1 --format=%H -- BENCH_microops.json`.
     When it is not in the checkout (no git history, or a shallow clone
     cut at or before it), the script prints what is missing and exits
     with SKIP_CODE, which ctest reports as a skip.
  2. Reference build: `git archive` of that commit is extracted into
     <reference-dir>/<sha>/src, configured with the --cmake-arg values
     (the candidate's compiler, flags, build type and sanitizer) and only
     bench_microops is built. The tree is cached by SHA, so later runs
     only pay for an up-to-date check.
  3. Measurement: ROUNDS rounds; each runs both binaries with
     --repetitions repetitions over --filter, alternating which goes
     first. Per benchmark and side the fastest repetition counts (min is
     the standard noise reducer for microbenchmarks).
  4. Comparison: every shared benchmark gets the ratio
     candidate/reference; the median ratio is the build-wide speed factor
     and each ratio is divided by it. A benchmark whose normalized ratio
     exceeds 1 + tolerance regressed relative to its peers.
  5. Offenders are re-measured on both sides in one window, held open
     for as long as one first-pass round took (whole-machine slow phases
     last seconds), and only those that regress again fail the gate
     (exit 1).

Usage:
  check_bench_regression.py --baseline=BENCH_microops.json \\
      --bin=path/to/bench_microops --reference-dir=build/bench_reference \\
      [--cmake-arg=-DCMAKE_BUILD_TYPE=Release ...] [--filter=/1024$] \\
      [--tolerance=0.25] [--min-time=0.05] [--repetitions=3]

--reference-bin takes an already built bench_microops of the reference
commit in place of step 2.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

# Exit code for "the reference commit is not in this checkout"; declared as
# SKIP_RETURN_CODE of the bench_regression ctest.
SKIP_CODE = 77

# Interleaved reference/candidate rounds per measurement.
ROUNDS = 6


def load_benchmarks(path):
    """name -> fastest real_time in ns from a google-benchmark JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    for row in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if row.get("run_type", "iteration") != "iteration":
            continue
        name = row.get("name")
        t = row.get("real_time")
        if name is None or t is None:
            continue
        unit = row.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            continue
        ns = float(t) * scale
        # With --benchmark_repetitions each repetition is its own iteration
        # row under the same name; keep the fastest.
        out[name] = min(out[name], ns) if name in out else ns
    return out


def run_bench(binary, bench_filter, min_time, repetitions):
    """Runs the bench binary into a temp JSON file and loads it."""
    fd, path = tempfile.mkstemp(suffix=".json", prefix="bench_run_")
    os.close(fd)
    cmd = [
        binary,
        f"--benchmark_out={path}",
        "--benchmark_out_format=json",
        f"--benchmark_min_time={min_time}",
        f"--benchmark_repetitions={repetitions}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    try:
        # The console table and per-run context header are not needed; the
        # stderr is shown only when the run fails.
        res = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, text=True)
        if res.returncode != 0:
            raise RuntimeError(f"{binary} exited with {res.returncode}:\n"
                               f"{res.stderr[-2000:]}")
        return load_benchmarks(path)
    finally:
        os.unlink(path)


def git(cwd, *args):
    """stdout of a git command, or None when it fails."""
    try:
        res = subprocess.run(["git", "-C", cwd, *args], capture_output=True,
                             text=True)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def find_reference_commit(baseline):
    """(sha, None) for the commit that last wrote `baseline`, or
    (None, reason) when that commit is not in the checkout."""
    folder, name = os.path.split(os.path.abspath(baseline))
    sha = git(folder, "log", "-1", "--format=%H", "--", name)
    if not sha:
        return None, (f"no commit in the git history at {folder} wrote "
                      f"{name} (not a git checkout?)")
    # In a shallow clone the boundary commit looks as if it added every
    # file, so it may be named although the real writer lies beyond it.
    shallow = git(folder, "rev-parse", "--git-path", "shallow")
    if shallow:
        shallow = os.path.join(folder, shallow)
        if os.path.exists(shallow):
            with open(shallow, "r", encoding="utf-8") as f:
                if sha in f.read().split():
                    return None, (f"{sha} is the boundary of a shallow "
                                  f"clone; the commit that last wrote "
                                  f"{name} is not in this checkout")
    if git(folder, "cat-file", "-e", f"{sha}^{{commit}}") is None:
        return None, f"commit {sha} is not in this checkout"
    return sha, None


def build_reference(repo, sha, reference_dir, cmake, cmake_args):
    """Builds bench_microops of commit `sha`; returns the binary path.

    The source tree, build tree and build log live in
    <reference_dir>/<sha>. A build tree already configured with the same
    arguments is only brought up to date."""
    root = os.path.abspath(os.path.join(reference_dir, sha))
    src = os.path.join(root, "src")
    build = os.path.join(root, "build")
    log_path = os.path.join(root, "build.log")
    # Written into the build tree after a successful configure, so a
    # removed or half-configured tree is configured again.
    stamp = os.path.join(build, "configure_args.json")
    os.makedirs(root, exist_ok=True)

    if not os.path.isdir(src):
        # Extract next to the final name and rename, so an interrupted
        # extraction is never mistaken for a complete tree.
        partial = tempfile.mkdtemp(prefix="src.", dir=root)
        cmd = ["git", "-C", repo, "archive", sha]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE) as archive:
            with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
                tar.extractall(partial)
        if archive.returncode != 0:
            raise subprocess.CalledProcessError(archive.returncode, cmd)
        os.rename(partial, src)

    # Keep the extracted tree's own `git rev-parse` from finding the
    # enclosing checkout's HEAD.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=root)
    configure = [cmake, "-S", src, "-B", build, *cmake_args]
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [[cmake, "--build", build, "--target", "bench_microops",
              "--parallel", jobs]]
    configured = None
    if os.path.exists(stamp):
        with open(stamp, "r", encoding="utf-8") as f:
            configured = json.load(f)
    if configured != configure:
        steps.insert(0, configure)
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            res = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                 env=env)
            if res.returncode != 0:
                raise RuntimeError(f"reference build step failed "
                                   f"(exit {res.returncode}); see {log_path}")
            if step is configure:
                with open(stamp, "w", encoding="utf-8") as f:
                    json.dump(configure, f)
    return os.path.join(build, "bench", "bench_microops")


def measure(sides, bench_filter, args, min_seconds=0.0):
    """Interleaved runs of every binary in `sides` (label -> path): at least
    ROUNDS rounds, and more until min_seconds have passed.

    Returns (label -> {name: fastest ns over all rounds}, seconds taken)."""
    best = {label: {} for label in sides}
    order = list(sides)
    start = time.monotonic()
    rnd = 0
    while rnd < ROUNDS or time.monotonic() - start < min_seconds:
        # Alternate which side goes first so a drift in machine speed
        # within a round does not always favour the same side.
        for label in (order if rnd % 2 == 0 else order[::-1]):
            times = run_bench(sides[label], bench_filter, args.min_time,
                              args.repetitions)
            for name, ns in times.items():
                prev = best[label].get(name)
                best[label][name] = ns if prev is None else min(prev, ns)
        rnd += 1
    return best, time.monotonic() - start


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_microops.json; the commit "
                             "that last wrote it is the reference")
    parser.add_argument("--bin", required=True,
                        help="candidate bench_microops binary")
    parser.add_argument("--reference-dir",
                        help="where the reference commit is extracted and "
                             "built, one subdirectory per SHA")
    parser.add_argument("--reference-bin",
                        help="already built bench_microops of the reference "
                             "commit (skips the reference build)")
    parser.add_argument("--cmake", default="cmake",
                        help="cmake executable for the reference build")
    parser.add_argument("--cmake-arg", action="append", default=[],
                        help="configure argument for the reference build "
                             "(repeatable)")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter for every run")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative regression after "
                             "median-ratio normalization (default 0.25)")
    parser.add_argument("--min-time", default="0.01",
                        help="--benchmark_min_time for every run")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="--benchmark_repetitions per run")
    args = parser.parse_args()
    if not args.reference_bin and not args.reference_dir:
        parser.error("one of --reference-dir or --reference-bin is required")

    sha, missing = find_reference_commit(args.baseline)
    if sha is None:
        print(f"bench_regression: SKIPPED: {missing}")
        return SKIP_CODE
    print(f"bench_regression: reference commit {sha} "
          f"(last to write {os.path.basename(args.baseline)})")

    reference_bin = args.reference_bin
    if not reference_bin:
        repo = git(os.path.dirname(os.path.abspath(args.baseline)),
                   "rev-parse", "--show-toplevel")
        reference_bin = build_reference(repo, sha, args.reference_dir,
                                        args.cmake, args.cmake_arg)
        print(f"bench_regression: reference binary {reference_bin}")

    sides = {"reference": reference_bin, "candidate": args.bin}
    best, seconds = measure(sides, args.filter, args)
    reference, candidate = best["reference"], best["candidate"]

    shared = sorted(name for name in set(reference) & set(candidate)
                    if reference[name] > 0)
    if not shared:
        print("bench_regression: no shared benchmark with a positive "
              "reference timing — nothing to compare", file=sys.stderr)
        return 1
    ratios = {name: candidate[name] / reference[name] for name in shared}
    speed_factor = statistics.median(ratios.values())
    if speed_factor <= 0:
        print("bench_regression: degenerate median ratio", file=sys.stderr)
        return 1

    failures = []
    print(f"bench_regression: {len(shared)} shared benchmarks, "
          f"{ROUNDS} interleaved rounds x {args.repetitions} "
          f"repetitions, speed factor {speed_factor:.3f}, "
          f"tolerance {args.tolerance:.0%}")
    for name in shared:
        normalized = ratios[name] / speed_factor
        status = "ok"
        if normalized > 1.0 + args.tolerance:
            status = "REGRESSED"
            failures.append(name)
        print(f"  {name:50s} reference {reference[name]:12.1f} ns  "
              f"candidate {candidate[name]:12.1f} ns  "
              f"normalized x{normalized:.3f}  {status}")

    if failures:
        # A single-digit-percent false-positive rate per kernel is normal on
        # a loaded machine; a real regression reproduces. Re-measure the
        # offenders on both sides, so the ratio is taken in one window.
        # Runs of a few kernels take a fraction of a second, and slow
        # phases of the whole machine last seconds, so the window is held
        # open for as long as one round of the first pass took: enough
        # runs fall outside a slow phase for the fastest to be clean.
        print(f"bench_regression: re-measuring {len(failures)} "
              f"regression(s) on both sides: {', '.join(failures)}")
        refilter = "^(" + "|".join(re.escape(n) for n in failures) + ")$"
        rerun, _ = measure(sides, refilter, args,
                           min_seconds=seconds / ROUNDS)
        confirmed = []
        for name in failures:
            ref_ns = rerun["reference"].get(name)
            cand_ns = rerun["candidate"].get(name)
            if not ref_ns or cand_ns is None:
                confirmed.append(name)
                continue
            normalized = cand_ns / ref_ns / speed_factor
            regressed = normalized > 1.0 + args.tolerance
            print(f"  {name:50s} reference {ref_ns:12.1f} ns  "
                  f"candidate {cand_ns:12.1f} ns  "
                  f"normalized x{normalized:.3f}  "
                  f"{'REGRESSED' if regressed else 'noise'}")
            if regressed:
                confirmed.append(name)
        failures = confirmed

    if failures:
        print(f"bench_regression: {len(failures)} benchmark(s) regressed "
              f"more than {args.tolerance:.0%} against {sha}: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"bench_regression: OK against {sha}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as e:
        # A failed reference build or bench run is a gate failure, not a
        # skip: the comparison could not be made.
        print(f"bench_regression: {e}", file=sys.stderr)
        sys.exit(1)
