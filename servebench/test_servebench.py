#!/usr/bin/env python3
"""Self-tests of the serving benchmark.

    python3 servebench/test_servebench.py

Runs the real benchmark (building it first if needed), so it takes a
few minutes. Checks that:
  - two traced runs with one seed report identical exact work counters
    (SearchStats per query, hits per query, frame bytes per query), on
    every workload, and another seed reports different ones;
  - the benchmark refuses to run with EXMA_FAULTS set;
  - it fails without a result when the sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("reads_bulk", "seeds_locate", "stream_small")

# Per-layer metrics that are counts, not clocks: they must repeat.
EXACT_METRICS = (
    "core.kstep_iters_per_query",
    "core.onestep_iters_per_query",
    "learned.model_lookups_per_query",
    "learned.mean_error",
    "learned.probes_per_lookup",
    "core.hits_per_query",
    "core.hits_per_query_max",
    "transport.request_bytes_per_query",
    "transport.response_bytes_per_query",
    "route.shard_calls_per_request",
    "route.routed_share",
    "shard.load_imbalance",
)


def run_bench(workload, seed, trace, env=None, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def traced(workload, seed):
    """The result line and the counters file of one traced run."""
    proc = run_bench(workload, seed, 1)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d failed:\n%s"
                             % (workload, seed, proc.stderr[-3000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_out",
                        "counters-%s-%d.json" % (workload, seed))
    with open(path) as fh:
        counters = json.load(fh)
    return result, counters


class CountersRepeat(unittest.TestCase):
    def test_same_seed_same_counters(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, c1 = traced(workload, 7)
                second, c2 = traced(workload, 7)
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(c1, c2)
                for name in EXACT_METRICS:
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name], name)
                _, other = traced(workload, 8)
                self.assertNotEqual(c1["per_query_digest"],
                                    other["per_query_digest"])


class RefusesBadEnvironment(unittest.TestCase):
    def test_faults_env_refused(self):
        env = dict(os.environ, EXMA_FAULTS="kill@*:nth=3")
        proc = run_bench("reads_bulk", 1, 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_missing_sources_fail_without_result(self):
        tmp = tempfile.mkdtemp()
        try:
            shutil.copytree(HERE, os.path.join(tmp, "servebench"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = run_bench("reads_bulk", 1, 0, env=env, cwd=tmp,
                             script=os.path.join(tmp, "servebench",
                                                 "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
