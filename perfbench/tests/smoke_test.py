#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-scale smoke run of every workload.

    python3 perfbench/tests/smoke_test.py

Runs each workload untraced and traced for one second at `tiny` scale,
twice with the same seed, and asserts that every BENCHMARK.json metric
is emitted with its unit, that no operation failed, and that the
deterministic metrics (fidelity scores, model-truth counts, call
counts) repeat exactly. Finally checks that the command fails without
a result outside a full checkout. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
SEED = 5

# Metrics that depend only on the model and the seed, never on the host.
DETERMINISTIC_E2E = {"paper_rank_rho", "paper_slowdown_err",
                     "approx_cpi_err"}
DETERMINISTIC_LAYER_UNITS = {"count"}
DETERMINISTIC_LAYER = {"trace.sampled_inst_share"}
# Counts that depend on timing: dedup outcomes and rejections.
TIMING_COUNTS = {"serve.rejected"}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{workload} trace={trace}:\n{out.stderr}"
    return json.loads(out.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            section = spec["per_layer"] if trace else spec["end_to_end"]
            units = {m["name"]: m["unit"] for m in section}
            first, second = run(workload, trace), run(workload, trace)
            for result in (first, second):
                assert result["correct"] and result["failed"] == 0, result
                assert result["attempted"] >= 1, result
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                assert got == units, (workload, trace, got)
            for name, unit in units.items():
                deterministic = (
                    name in DETERMINISTIC_E2E if not trace else
                    (unit in DETERMINISTIC_LAYER_UNITS
                     or name in DETERMINISTIC_LAYER)
                    and name not in TIMING_COUNTS)
                if deterministic:
                    a = first["metrics"][name]["value"]
                    b = second["metrics"][name]["value"]
                    assert a == b, f"{workload} {name}: {a} != {b}"
            print(f"ok  {workload} trace={trace}")

    # Outside a full checkout the build must fail without a result.
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(PERFBENCH, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "sweep-exact", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=tmp, capture_output=True, text=True, timeout=180,
            env=env)
        assert out.returncode != 0, "ran without the repository sources"
        assert '"metrics"' not in out.stdout, out.stdout
    print("ok  fails outside a full checkout")


if __name__ == "__main__":
    main()
