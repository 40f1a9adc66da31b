"""The benchmark's own tests, on smoke-size workloads.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check the output schema against BENCHMARK.json, that the output
checks gate a run (a flipped checksum and a perturbed replica each fail
it), and that a directory without the repository's crates fails fast.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

BINARY = run.build()


def smoke(workload, trace, inject="none", seed=11):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke", "--inject", inject]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def result(p):
    return json.loads(p.stdout.splitlines()[-1])


class Schema(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], run.WORKLOADS)

    def test_every_workload_prints_exactly_the_schema(self):
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in run.WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    p = smoke(w, trace)
                    self.assertEqual(p.returncode, 0, p.stderr)
                    r = result(p)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(r["correct"], True)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    got = {n: m["unit"] for n, m in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for n, m in r["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), n)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, n)
                    # Every metric is also printed for people, with its unit.
                    for n, unit in want.items():
                        self.assertRegex(p.stdout, rf"metric: {n.replace('.', '[.]')} +\S+ {unit}\n")

    def test_md_times_a_fixed_number_of_steps(self):
        # One nstlist cycle for a 1-s smoke run, however fast it goes.
        for w in ["md24k_native", "md12k_pme_native"]:
            with self.subTest(workload=w):
                p = smoke(w, 0)
                self.assertEqual(p.returncode, 0, p.stderr)
                self.assertEqual(result(p)["attempted"], 10)
                self.assertIn("# timed steps 10..20 (1 nstlist cycles,", p.stdout)

    def test_serve_reports_service_quality(self):
        p = smoke("serve240_chaos", 0)
        self.assertEqual(p.returncode, 0, p.stderr)
        for n in ["jobs_per_s", "job_latency_p50_vms", "job_latency_p95_vms",
                  "slo_attainment", "jobs_failed_ratio"]:
            self.assertIn(f"metric: {n} ", p.stdout)
        self.assertRegex(p.stdout, r"metric: jobs_failed_ratio +0\.000000 ratio")


class Layers(unittest.TestCase):
    def layers(self, workload):
        p = smoke(workload, 1)
        self.assertEqual(p.returncode, 0, p.stderr)
        return {n: m["value"] for n, m in result(p)["metrics"].items()}

    def test_layer_times_add_up_to_the_engine_step(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                m = self.layers(w)
                per_step = (m["pairsearch.ms_per_step"]
                            + m["lowering.ms_per_call"] * m["lowering.calls_per_step"]
                            + m["pack.ms_per_call"] * m["lowering.calls_per_step"]
                            + m["kernel.ms_per_call"] * m["lowering.calls_per_step"]
                            + m["pme.ms_per_step"] + m["update.ms_per_step"]
                            + m["constraints.ms_per_step"])
                self.assertGreater(per_step, 0)
                # io is amortized over all steps, not per frame: what is
                # left over must be the residual plus io's share.
                left = m["engine.step_ms_mean"] - per_step - m["engine.residual_ms"]
                self.assertGreaterEqual(left, -1e-9)
                self.assertLessEqual(left, m["io.ms_per_frame"] + 1e-9)

    def test_engine_step_is_the_one_ns_per_day_implies(self):
        # MD: the engine pass times the untraced run's window, and
        # engine.step_ms_mean is its median cycle over nstlist, so
        # step_ms_mean x ns_per_day = dt x 86400 s/day = 172.8 ms ns/day.
        for w in ["md24k_native", "md12k_pme_native"]:
            with self.subTest(workload=w):
                p = smoke(w, 1)
                self.assertEqual(p.returncode, 0, p.stderr)
                ns_day = float(re.search(r"# engine pass: (\S+) ns/day", p.stdout).group(1))
                step_ms = result(p)["metrics"]["engine.step_ms_mean"]["value"]
                self.assertAlmostEqual(step_ms * ns_day, 172.8, delta=172.8 * 1e-3)

    def test_pme_reads_zero_without_a_mesh(self):
        self.assertEqual(self.layers("md24k_native")["pme.ms_per_step"], 0.0)
        self.assertGreater(self.layers("md12k_pme_native")["pme.ms_per_step"], 0.0)

    def test_serve_layers_are_zero_on_md(self):
        m = self.layers("md24k_native")
        self.assertEqual(m["scheduler.dispatches"], 0.0)
        self.assertEqual(m["serve.engine_s"], 0.0)


class ChecksGateTheRun(unittest.TestCase):
    def assert_refused(self, p, why):
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn("metric:", p.stdout)
        self.assertNotIn('"metrics"', p.stdout)
        self.assertIn("CHECK FAILED", p.stderr)
        self.assertIn(why, p.stderr)

    def test_flipped_checksum_fails_the_run(self):
        self.assert_refused(smoke("serve240_chaos", 0, "flip-checksum"), "checksum mismatch")

    def test_perturbed_replica_fails_the_run(self):
        self.assert_refused(smoke("md24k_native", 1, "perturb-replica"), "diverged from Engine")
        self.assert_refused(smoke("serve240_chaos", 1, "perturb-replica"), "diverged from Engine")

    def test_bad_usage_exits_nonzero(self):
        p = subprocess.run([BINARY, "--workload", "nope"], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True)
        self.assertEqual(p.returncode, 2)
        self.assertEqual(p.stdout, "")


class Standalone(unittest.TestCase):
    def test_fails_without_the_repository(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(d, ".bench_build"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "md24k_native",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               cwd=d, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
