"""Self-test of the benchmark at tiny sizes (a few seconds per workload).

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload untraced and traced through `run.main` with the TINY
sizes, and checks that each result is correct, names exactly the metrics
BENCHMARK.json lists, and shows the predicted zeros: no kernel call outside
demo_fixed and no seeding on oracle_joint.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
import workloads

# workload -> per-layer counts predicted to be zero
ZERO = {
    "demo_fixed": ("simulate.outcomes", "cli.trace_rows"),
    "audit_auto_trace": ("kernels.calls", "simulate.outcomes"),
    "oracle_joint": ("kernels.calls", "simulate.seed_calls"),
}


def _run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                         "--trace", str(trace)], sizes=workloads.TINY)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if code != 0 or not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} trace={trace}: {out.getvalue()}")
    return result["metrics"]


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in workloads.WORKLOADS:
        e2e = _run(workload, 0)
        assert {k: v["unit"] for k, v in e2e.items()} == end_to_end, sorted(e2e)
        assert all(v["value"] > 0 for v in e2e.values()), e2e
        layers = _run(workload, 1)
        assert {k: v["unit"] for k, v in layers.items()} == per_layer, sorted(layers)
        for name in ZERO[workload]:
            assert layers[name]["value"] == 0, (workload, name, layers[name])
        if workload == "demo_fixed":
            assert layers["kernels.calls"]["value"] == 3, layers["kernels.calls"]
            assert layers["simulate.seed_calls"]["value"] == 3
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
