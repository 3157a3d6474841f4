#!/usr/bin/env python3
"""Self-test of the kernel-timing gate, tools/check_bench_regression.py.

No timing is involved: stand-in bench "binaries" write google-benchmark
JSON with fixed timings, so every case checks the gate's verdict rather
than the host's speed. The reference commit comes from a throwaway git
repository, and the stand-ins are passed as --reference-bin, so nothing is
built.

Run directly (python3 tests/check_bench_regression_test.py) or through
ctest as bench_regression_selftest.
"""

import json
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "tools")
sys.path.insert(0, TOOLS)
from check_bench_regression import ROUNDS, SKIP_CODE  # noqa: E402

GATE = os.path.join(TOOLS, "check_bench_regression.py")

BASE_NS = {
    "BM_NttForward/1024": 6000.0,
    "BM_RnsGaloisApply/1024": 3000.0,
    "BM_BgvEncrypt/1024": 380000.0,
    "BM_PaillierEncrypt/1024": 4.7e6,
    "BM_HistogramRecord/1024": 20.0,
}
SLOW = "BM_RnsGaloisApply/1024"

# A stand-in for bench_microops. Its Nth call reports the timing table
# tables[min(N, len(tables) - 1)], repeated --benchmark_repetitions times
# and restricted to --benchmark_filter; each call's filter is appended to
# the calls file so tests can see which side ran what.
STAND_IN = """#!{python}
import json, re, sys
tables, calls_path = {tables!r}, {calls!r}
flags = dict(a[2:].split("=", 1) for a in sys.argv[1:] if "=" in a)
with open(calls_path, "a+", encoding="utf-8") as calls:
    calls.seek(0)
    n = len(calls.read().splitlines())
    calls.write(flags.get("benchmark_filter", "") + "\\n")
table = tables[min(n, len(tables) - 1)]
rows = [{{"name": name, "run_type": "iteration", "real_time": ns,
          "time_unit": "ns"}}
        for name, ns in table.items()
        if re.search(flags.get("benchmark_filter", ""), name)
        for _ in range(int(flags["benchmark_repetitions"]))]
with open(flags["benchmark_out"], "w", encoding="utf-8") as out:
    json.dump({{"benchmarks": rows}}, out)
"""


def scaled(factor, only=None):
    """BASE_NS with every timing (or only `only`'s) multiplied by factor."""
    return {name: ns * factor if only in (None, name) else ns
            for name, ns in BASE_NS.items()}


def git(cwd, *args):
    env = dict(os.environ, GIT_AUTHOR_NAME="gate", GIT_COMMITTER_NAME="gate",
               GIT_AUTHOR_EMAIL="gate@example.invalid",
               GIT_COMMITTER_EMAIL="gate@example.invalid")
    return subprocess.run(
        ["git", "-c", "commit.gpgsign=false", "-c", "init.defaultBranch=main",
         "-C", cwd, *args],
        check=True, capture_output=True, text=True, env=env).stdout.strip()


@unittest.skipUnless(shutil.which("git"), "git is not installed")
class GateTest(unittest.TestCase):

    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="bench_gate_test_")
        self.addCleanup(shutil.rmtree, self.tmp)
        # The baseline file is written by one commit and left alone by the
        # next, so the reference is not simply HEAD.
        self.repo = os.path.join(self.tmp, "repo")
        os.makedirs(self.repo)
        git(self.repo, "init", "-q")
        self.baseline = os.path.join(self.repo, "BENCH_microops.json")
        with open(self.baseline, "w", encoding="utf-8") as f:
            json.dump({"benchmarks": []}, f)
        git(self.repo, "add", "BENCH_microops.json")
        git(self.repo, "commit", "-q", "-m", "baseline")
        self.reference_sha = git(self.repo, "rev-parse", "HEAD")
        with open(os.path.join(self.repo, "kernel.cc"), "w",
                  encoding="utf-8") as f:
            f.write("// later change\n")
        git(self.repo, "add", "kernel.cc")
        git(self.repo, "commit", "-q", "-m", "later")

    def stand_in(self, name, tables):
        path = os.path.join(self.tmp, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(STAND_IN.format(python=sys.executable, tables=tables,
                                    calls=path + ".calls"))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def calls(self, binary):
        with open(binary + ".calls", "r", encoding="utf-8") as f:
            return f.read().splitlines()

    def calls_made(self, *binaries):
        """How many of `binaries` were run at all."""
        return sum(os.path.exists(b + ".calls") for b in binaries)

    def gate(self, reference, candidate, baseline=None):
        return subprocess.run(
            [sys.executable, GATE, f"--baseline={baseline or self.baseline}",
             f"--bin={candidate}", f"--reference-bin={reference}",
             "--filter=/1024$", "--tolerance=0.25", "--repetitions=2"],
            capture_output=True, text=True)

    def test_planted_slowdown_fails(self):
        reference = self.stand_in("reference", [BASE_NS])
        candidate = self.stand_in("candidate", [scaled(1.5, only=SLOW)])
        res = self.gate(reference, candidate)
        self.assertEqual(res.returncode, 1, res.stdout + res.stderr)
        self.assertIn(self.reference_sha, res.stdout)
        self.assertIn(SLOW, res.stderr)
        # The re-measure runs both sides, for at least ROUNDS rounds each,
        # over the offender alone.
        refilter = "^(BM_RnsGaloisApply/1024)$"
        reruns = self.calls(reference).count(refilter)
        self.assertGreaterEqual(reruns, ROUNDS)
        self.assertEqual(self.calls(candidate).count(refilter), reruns)

    def test_uniform_shift_passes(self):
        reference = self.stand_in("reference", [BASE_NS])
        candidate = self.stand_in("candidate", [scaled(2.0)])
        res = self.gate(reference, candidate)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        self.assertIn("speed factor 2.000", res.stdout)
        self.assertNotIn("re-measuring", res.stdout)

    def test_slowdown_that_does_not_reproduce_passes(self):
        # The first pass (ROUNDS rounds) sees the candidate slow; the
        # re-measure lands in a whole-machine slow phase that stretches
        # both sides alike, so the offender is cleared as noise. Comparing
        # the re-run candidate with the first pass's reference would not.
        slow_once = scaled(1.5, only=SLOW)
        reference = self.stand_in("reference",
                                  [BASE_NS] * ROUNDS + [scaled(1.7)])
        candidate = self.stand_in("candidate",
                                  [slow_once] * ROUNDS + [scaled(1.7)])
        res = self.gate(reference, candidate)
        self.assertEqual(res.returncode, 0, res.stdout + res.stderr)
        self.assertIn("re-measuring 1", res.stdout)
        self.assertIn("noise", res.stdout)

    def test_missing_history_skips(self):
        reference = self.stand_in("reference", [BASE_NS])
        candidate = self.stand_in("candidate", [scaled(1.5, only=SLOW)])
        # An exported source tree: the baseline file without git history.
        tarball = os.path.join(self.tmp, "tarball")
        os.makedirs(tarball)
        shutil.copy(self.baseline, tarball)
        res = self.gate(reference, candidate,
                        os.path.join(tarball, "BENCH_microops.json"))
        self.assertEqual(res.returncode, SKIP_CODE, res.stdout + res.stderr)
        self.assertIn("SKIPPED", res.stdout)
        self.assertEqual(self.calls_made(reference, candidate), 0)

    def test_shallow_clone_without_reference_commit_skips(self):
        reference = self.stand_in("reference", [BASE_NS])
        candidate = self.stand_in("candidate", [scaled(1.5, only=SLOW)])
        shallow = os.path.join(self.tmp, "shallow")
        git(self.tmp, "clone", "-q", "--depth=1", f"file://{self.repo}",
            shallow)
        head = git(shallow, "rev-parse", "HEAD")
        res = self.gate(reference, candidate,
                        os.path.join(shallow, "BENCH_microops.json"))
        self.assertEqual(res.returncode, SKIP_CODE, res.stdout + res.stderr)
        self.assertIn(head, res.stdout)
        self.assertEqual(self.calls_made(reference, candidate), 0)


if __name__ == "__main__":
    unittest.main()
