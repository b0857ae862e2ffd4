"""Tests of the benchmark itself: tiny-size smoke runs of every workload, and
doctored results that the output checks must reject.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root; the first test builds the harness.
"""

import copy
import json
import shutil
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import results  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def tiny_raw(workload, trace=0):
    args = types.SimpleNamespace(workload=workload, seed=3, seconds=0, trace=trace, tiny=True)
    raw = run.run_harness(args)
    assert raw is not None, f"harness failed on {workload}"
    return raw


class SmokeTest(unittest.TestCase):
    """Every workload passes its checks and prints every declared metric."""

    @classmethod
    def setUpClass(cls):
        assert run.build(), "harness build failed"

    def check_run(self, workload, trace, section):
        done = run_cli("--workload", workload, "--seed", "5", "--seconds", "0",
                       "--trace", str(trace), "--tiny")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, unit in declared.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            printed = [line for line in lines[:-1] if line.split()[:1] == [name]]
            self.assertEqual(len(printed), 1, f"{name} not printed once")
            self.assertIn(f" {unit}", printed[0])
        return result

    def test_end_to_end_every_workload(self):
        for workload in results.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, "end_to_end")

    def test_ledger_every_workload(self):
        for workload in results.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, "per_layer")

    def test_same_seed_same_digest(self):
        digests = []
        for _ in range(2):
            done = run_cli("--workload", "sim-exact-160", "--seed", "7", "--seconds", "0",
                           "--tiny")
            digests.append(done.stdout.split("digest ")[1].split(",")[0])
        self.assertEqual(digests[0], digests[1])

    def test_fails_without_program_sources(self):
        bare = run.BUILD_DIR.parent / "test-bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            done = run_cli("--workload", "schedd-swarm", "--seed", "1", "--trace", "0",
                           cwd=bare, script=bare / "perfbench" / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class DoctoredResultTest(unittest.TestCase):
    """The output checks reject results that break an invariant."""

    @classmethod
    def setUpClass(cls):
        assert run.build(), "harness build failed"
        cls.sim = tiny_raw("sim-exact-160")
        cls.swarm = tiny_raw("schedd-swarm")

    def assertRejected(self, raw, fragment):
        errors = results.check(raw)[0]
        self.assertTrue(any(fragment in e for e in errors), errors)

    def test_untouched_results_pass(self):
        self.assertEqual(results.check(self.sim)[0], [])
        self.assertEqual(results.check(self.swarm)[0], [])

    def test_over_capacity_timeline_sample(self):
        raw = copy.deepcopy(self.sim)
        raw["reps"][0]["timeline"][3][2] = raw["cluster_gpus"] + 1
        self.assertRejected(raw, "timeline sample")

    def test_mismatched_sim_digest(self):
        raw = copy.deepcopy(self.sim)
        raw["reps"][1]["jobs"][0][4] += 1  # one more restart in one repetition
        self.assertRejected(raw, "digests differ")

    def test_start_before_submit(self):
        raw = copy.deepcopy(self.sim)
        job = raw["reps"][0]["jobs"][0]
        job[2] = job[1] - 1.0
        self.assertRejected(raw, "has submit")

    def test_lost_job(self):
        raw = copy.deepcopy(self.sim)
        del raw["reps"][0]["jobs"][-1]
        self.assertRejected(raw, "account for every trace job")

    def test_over_capacity_decision(self):
        raw = copy.deepcopy(self.swarm)
        raw["reps"][0]["max_node_usage"][2] = raw["gpus_per_node"] + 1
        self.assertRejected(raw, "node capacity")

    def test_missing_round(self):
        raw = copy.deepcopy(self.swarm)
        raw["reps"][0]["rounds_ok"] -= 1
        self.assertRejected(raw, "rounds completed")

    def test_bad_frames(self):
        raw = copy.deepcopy(self.swarm)
        raw["reps"][1]["daemon"]["bad_frames"] = 1
        self.assertRejected(raw, "bad_frames")

    def test_mismatched_allocation_digest(self):
        raw = copy.deepcopy(self.swarm)
        raw["reps"][1]["allocation"][0][3] += 1
        self.assertRejected(raw, "digests differ")

    def test_swarm_times_ignore_a_minority_of_stalled_epochs(self):
        raw = copy.deepcopy(self.swarm)
        before = results.end_to_end(raw)
        epochs = raw["reps"][0]["epoch_ms"]
        self.assertEqual(len(epochs), raw["epochs"])
        epochs[0] += 1000.0  # one epoch stalls for a second
        after = results.end_to_end(raw)
        self.assertEqual(after["run_s"], before["run_s"])
        self.assertEqual(after["rounds_per_s"], before["rounds_per_s"])


if __name__ == "__main__":
    unittest.main()
