#!/usr/bin/env python3
"""Run one workload of the cheriperf benchmark.

    python3 perfbench/run.py --workload sweep-exact --seed 42 \
        --seconds 20 --trace 0

Builds the harness and the `cheriperf` daemon from the checkout's
sources (CMake, Release) into $CARGO_TARGET_DIR (default .bench_build),
runs the workload, checks that the harness reported exactly the metrics
BENCHMARK.json names for this mode, and passes its output through. The
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Workloads, metrics and seeds are described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 42


def harness_timeout(seconds):
    """A safety net only: the harness ends its own measuring loop.

    Past --seconds it finishes the pass in flight (a traced run does an
    untraced and a traced pass per loop) and then its fixed work: setup
    repetitions, the fidelity scorer or the serve probe and the layer
    probes. At --seconds 30 this is 170 s.
    """
    return 110 + 2 * seconds


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build the harness and the daemon."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    built = subprocess.run(["cmake", "--build", build_dir, "--target",
                            "perfbench_harness", "-j", jobs],
                           stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}, \
        [w["name"] for w in spec["workloads"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("tiny", "small"),
                        default="small",
                        help="cell scale; tiny is for the self-test")
    args = parser.parse_args()

    expected, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    workdir = os.path.join(build_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale,
               "--daemon", os.path.join(build_dir, "cheriperf", "tools",
                                        "cheriperf"),
               "--workdir", workdir]
    # Its own process group, so a timeout also stops the daemon it runs.
    harness = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    timeout = harness_timeout(args.seconds)
    try:
        stdout, _ = harness.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.communicate()
        fail(f"harness exceeded {timeout:g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if harness.returncode != 0:
        fail(f"harness exited with {harness.returncode}")

    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness printed no result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
