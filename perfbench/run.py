#!/usr/bin/env python3
"""Pollux benchmark: runs one workload at one seed, checks its outputs, and
prints its metrics.

    python3 perfbench/run.py --workload sim-exact-160 --seed 1 --seconds 35 --trace 0

Run from the repository root. The first call builds the harness and the
src/ libraries from source into .bench_build/perfbench (Release). With
--trace 0 it prints every end-to-end metric; with --trace 1 it runs one
plain and one instrumented repetition and prints the per-layer ledger. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 ok, 1 an output check failed or the harness failed, 2 usage
or build error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import results  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
# The harness is killed past this, so a run always ends within 180 s.
HARNESS_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env():
    """The environment for the build and the harness: temporary files (the
    compiler's among them) stay inside the build directory."""
    tmp = BUILD_DIR.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures once and (re)builds the harness; False on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no src/ tree next to {HERE}; cannot build")
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=child_env())
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(step)}")
            return False
    return True


def run_harness(args):
    """Runs the harness in a private working directory; returns its raw result."""
    work = BUILD_DIR.parent / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        command = [
            str(HARNESS),
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--seconds={args.seconds}",
            f"--trace={args.trace}",
            "--out=result.json",
        ]
        if args.tiny:
            command.append("--tiny")
        try:
            done = subprocess.run(command, cwd=work, stdout=sys.stderr, env=child_env(),
                                  timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s and was killed")
            return None
        if done.returncode != 0:
            log(f"perfbench: harness exited with {done.returncode}")
            return None
        with open(work / "result.json") as f:
            return json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def fmt(name, value, unit):
    count = getattr(value, "count", None)
    suffix = f"  (n={count})" if count is not None else ""
    return f"  {name:<28} {float(value):>14.6g} {unit}{suffix}"


def report(raw, trace):
    """Prints the human-readable lines; returns (correct, attempted, failed, metrics)."""
    errors, digest, attempted, failed = results.check(raw)
    reps = raw["reps"]
    print(f"workload {raw['workload']} seed {raw['seed']}: {len(reps)} repetitions, "
          f"digest {digest}, {failed} failed of {attempted} attempted")
    times = [rep["run_s"] for rep in results.plain_reps(raw)]
    line = (f"{len(times)} plain repetitions, run_s min {min(times):.3f} "
            f"median {results.median(times):.3f} max {max(times):.3f}")
    traced = results.traced_rep(raw)
    print(line + (f"; traced {traced['run_s']:.3f}" if traced else ""))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    if trace:
        metrics, units = results.ledger(raw), results.PER_LAYER
        print("per-layer ledger (traced repetition):")
    else:
        metrics, units = results.end_to_end(raw), results.END_TO_END
        print("end-to-end metrics (untraced repetitions):")
    for name, unit in units.items():
        print(fmt(name, metrics[name], unit))
    if trace:
        if raw["workload"] == results.SWARM_WORKLOAD:
            print(f"client-side overhead p50 {metrics['service.overhead_ms_p50']:.3f} ms vs "
                  f"daemon round busy p50 {metrics['service.round_busy_ms_p50']:.3f} ms")
        else:
            top = results.largest_layer(metrics)
            print(f"largest layer: {top} = {metrics[top]:.3f} s")
        print(f"tracing overhead {metrics['trace.overhead_s']:+.3f} s")
    else:
        print("without a bound:")
        for name, (value, unit) in results.unbounded(raw).items():
            print(fmt(name, value, unit))
    out = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()}
    return not errors, attempted, failed, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=results.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (smoke tests)")
    args = parser.parse_args()
    if not build():
        return 2
    raw = run_harness(args)
    if raw is None:
        return 1
    correct, attempted, failed, metrics = report(raw, args.trace == 1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
