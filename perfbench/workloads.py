"""Seeded inputs, invocations and correctness checks for the three workloads.

Every world and config the program reads is generated here from the run's
``--seed``; the program receives only the written files. The checks run in
the child process after its timed ``cli.main`` call, so they cost run time
but never enter a measured duration.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

# The paper's world (configs/w1.json), kept here so the demo workload does not
# move when the repository's example configs are edited.
W1 = {
    "alphabet_size": 2,
    "cells": [
        {"left": 0.0, "right": 0.8, "mass": 0.8, "expert": 0, "fast": 0, "score": 0.1},
        {"left": 0.8, "right": 1.0, "mass": 0.2, "expert": 1, "fast": 0, "score": 0.9},
    ],
}

LOSS = {"kind": "zero_one", "epsilon": 0.0}

# Badness of each cell by rank of its score (B = fast label wrong). Fixing the
# pattern and drawing only masses, edges and score values keeps the work per
# invocation steady across seeds, so seeds vary inputs and not the cost.
AUDIT_PATTERN = "GGBGGBGBGGBGBBGB"
ORACLE_PATTERN = "GGBGBGBBGB"

FULL = {
    "demo_fixed": {"n": 100, "replications": 20000, "workers": 2},
    "audit_auto_trace": {"n": 100, "replications": 10000, "workers": 1},
    "oracle_joint": {"n": 7},
}

# Sizes for the benchmark's self-test: the same paths at a fraction of the cost.
TINY = {
    "demo_fixed": {"n": 100, "replications": 200, "workers": 2},
    "audit_auto_trace": {"n": 100, "replications": 200, "workers": 1},
    "oracle_joint": {"n": 3},
}

# demo_fixed: `pacroute demo` on the paper's world with a fixed grid. The
# paper's headline experiment; seeding dominates it, and it is the only
# workload that runs `_kernels.tau_indices` and its thread pool, so a seeding
# or parallel-chunking change shows here.
#
# audit_auto_trace: `pacroute audit` on a 16-cell world with the auto grid and
# a `--trace` CSV. The auto grid skips the kernel and runs the per-replication
# walk; the trace writes R x points rows through `iter_trace_rows` and
# `csv.writer`. A change that speeds the summary but slows the trace writing,
# or the reverse, shows here. Seeding is only a small share.
#
# oracle_joint: `pacroute oracle` with x = "joint" on a 10-cell world, n = 7,
# alpha = 0.8, delta_split = 0.3: C(16, 9) = 11440 outcomes. No seeding and no
# kernel; time goes to `select_threshold`, `exact_miscoverage` and the
# enumeration loop, which is where an exact closed form would show and where
# seeding or kernel changes should show none. alpha = 0.1 is avoided: at
# n <= 23 it gives b* = -1, every walk stops at the first threshold and the
# answer is always 0.
WORKLOADS = ("demo_fixed", "audit_auto_trace", "oracle_joint")


def generated_world(rng: np.random.Generator, pattern: str) -> dict:
    """A world with one cell per pattern letter; edges, masses, scores from rng."""
    from pacroute.worlds import normalized_masses

    c = len(pattern)
    lengths = 1.0 + rng.random(c)
    cuts = np.cumsum(lengths) / lengths.sum()
    edges = [0.0] + [float(x) for x in cuts[:-1]] + [1.0]
    masses = normalized_masses(0.5 + rng.random(c))
    scores = np.sort(rng.random(c))
    rank_of_cell = rng.permutation(c)
    cells = []
    for i in range(c):
        rank = int(rank_of_cell[i])
        expert = int(rng.integers(2))
        bad = pattern[rank] == "B"
        cells.append(
            {
                "left": edges[i],
                "right": edges[i + 1],
                "mass": masses[i],
                "expert": expert,
                "fast": 1 - expert if bad else expert,
                "score": float(scores[rank]),
            }
        )
    return {"alphabet_size": 2, "cells": cells}


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=1)
    return path


def build(name: str, seed: int, workdir: str, sizes: dict) -> dict:
    """Write the workload's world and config into ``workdir``; return its spec.

    The spec holds the CLI argv, the output paths and what the checks need.
    Every world is loaded through ``load_world`` here, so an invalid one is a
    failure before anything is timed.
    """
    from pacroute.worlds import load_world

    rng = np.random.default_rng((seed, WORKLOADS.index(name)))
    size = sizes[name]
    world_path = os.path.join(workdir, f"{name}_world.json")
    config_path = os.path.join(workdir, f"{name}_config.json")
    report_path = os.path.join(workdir, f"{name}_report.json")
    trace_path = None
    master_seed = int(rng.integers(0, 2**32))
    if name == "demo_fixed":
        world = W1
        config = {
            "world": world_path,
            "loss": LOSS,
            "pac": {"epsilon": 0.0, "alpha": 0.1, "delta_split": 0.05,
                    "threshold_grid": [0.5, 0.95]},
            "mc": {"replications": size["replications"], "master_seed": master_seed,
                   "audit_points": "auto"},
            "demo": {"x_star": 0.4, "eta": 0.01, "n": size["n"]},
            "algorithm": "calibrated",
        }
        command = "demo"
    elif name == "audit_auto_trace":
        world = generated_world(rng, AUDIT_PATTERN)
        trace_path = os.path.join(workdir, f"{name}_trace.csv")
        config = {
            "world": world_path,
            "loss": LOSS,
            "pac": {"epsilon": 0.0, "alpha": 0.1, "delta_split": 0.05,
                    "threshold_grid": "auto"},
            "mc": {"replications": size["replications"], "master_seed": master_seed,
                   "audit_points": "auto"},
            "calibration": {"n": size["n"]},
            "algorithm": "calibrated",
        }
        command = "audit"
    elif name == "oracle_joint":
        world = generated_world(rng, ORACLE_PATTERN)
        config = {
            "world": world_path,
            "loss": LOSS,
            "pac": {"epsilon": 0.0, "alpha": 0.8, "delta_split": 0.3,
                    "threshold_grid": "auto"},
            "oracle": {"n": size["n"], "x": "joint"},
            "algorithm": "calibrated",
        }
        command = "oracle"
    else:
        raise ValueError(f"unknown workload {name!r}")
    _write_json(world_path, world)
    _write_json(config_path, config)
    load_world(world_path)
    argv = [command, "--config", config_path, "--out", report_path,
            "--workers", str(size.get("workers", 1))]
    if trace_path:
        argv += ["--trace", trace_path]
    return {
        "workload": name,
        "argv": argv,
        "config": config,
        "report": report_path,
        "trace": trace_path,
    }


# what calsets_per_s counts on each workload
WORK_UNIT = {"demo_fixed": "replications", "audit_auto_trace": "replications",
             "oracle_joint": "outcomes"}


def work_items(spec: dict, report: dict) -> int:
    """Calibration sets one invocation evaluates: simulated or enumerated."""
    name = spec["workload"]
    if name == "demo_fixed":
        # three lanes of R: base audit, perturbed audit, joint risk
        return 3 * spec["config"]["mc"]["replications"]
    if name == "audit_auto_trace":
        return spec["config"]["mc"]["replications"]
    return int(report["report"]["n_outcomes"])


def output_digest(spec: dict) -> str:
    """sha256 over the bytes of the report and, if written, the trace."""
    h = hashlib.sha256()
    for path in (spec["report"], spec["trace"]):
        if path:
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# ---------------------------------------------------------------- checks


def check(spec: dict) -> tuple[list[str], dict]:
    """Check one invocation's outputs; return (failures, report)."""
    with open(spec["report"], encoding="utf-8") as f:
        report = json.load(f)
    want = spec["argv"][0]
    if report.get("command") != want:
        return [f"report command {report.get('command')!r} != {want!r}"], report
    checker = {
        "demo_fixed": _check_demo,
        "audit_auto_trace": _check_audit,
        "oracle_joint": _check_oracle,
    }[spec["workload"]]
    return checker(spec, report["report"]), report


def _binom_cdf(b: int, n: int, p: float) -> float:
    return math.fsum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(b + 1))


def _check_demo(spec: dict, rep: dict) -> list[str]:
    from pacroute.worlds import cell_at, world_from_dict

    out = []
    want = {"nontrivial": True, "marginal_holds": True, "indistinguishable": True,
            "conditional_violation": True, "demo_vacuous": False}
    for k, v in want.items():
        if rep["verdicts"].get(k) is not v:
            out.append(f"verdict {k} = {rep['verdicts'].get(k)!r}, paper value {v!r}")
    cfg = spec["config"]
    pac, n, r = cfg["pac"], cfg["demo"]["n"], cfg["mc"]["replications"]
    grid = pac["threshold_grid"]
    t = pac["alpha"] - pac["delta_split"]
    b_star = -1
    while b_star < n and _binom_cdf(b_star + 1, n, t) <= pac["delta_split"]:
        b_star += 1
    world = world_from_dict(W1)

    def first_index(score: float) -> int:
        return next((k for k, g in enumerate(grid) if score <= g), len(grid))

    # Fixed-grid law: the exceedance count at grid index k is Binomial(n, q_k),
    # q_k the mass of bad cells counting by k, and it never decreases in k, so
    # P(idx >= k) = BinomCDF(b*; n, q_k).
    bad_first = [(first_index(c.score), c.mass) for c in world.cells
                 if c.fast_label != c.expert_label]
    audit = rep["base_audit"]
    if audit["points"][0]["x"] != cfg["demo"]["x_star"]:
        out.append("first base audit point is not x_star")
    for pt in audit["points"]:
        k = first_index(cell_at(world, pt["x"]).score)
        if k == len(grid):
            p = 0.0
        else:
            p = _binom_cdf(b_star, n, math.fsum(m for fk, m in bad_first if fk <= k))
        est = pt["est_fast_prob"]
        # 5 standard errors, plus one count of lattice slack for p near 0 or 1
        tol = 0.0 if p in (0.0, 1.0) else 5.0 * math.sqrt(p * (1.0 - p) / r) + 1.0 / r
        if abs(est - p) > tol:
            out.append(f"base est_fast_prob at x={pt['x']!r} is {est!r}, exact law {p!r}")
    return out


def _check_audit(spec: dict, rep: dict) -> list[str]:
    from pacroute.calibrate import PacConfig, select_threshold
    from pacroute.risk import ALWAYS_DEFER, LossSpec
    from pacroute.worlds import load_world, sample_calibration

    out = []
    cfg = spec["config"]
    r = cfg["mc"]["replications"]
    points = [p["x"] for p in rep["points"]]
    n_pts = len(points)
    fast = [0] * n_pts
    taus = []
    rows = 0
    with open(spec["trace"], encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        next(reader)
        for rows, row in enumerate(reader, 1):
            j = (rows - 1) % n_pts
            if j == 0 and len(taus) < 20:
                taus.append(row[2])
            if row[3] == "0":
                fast[j] += 1
    if rows != r * n_pts:
        out.append(f"trace has {rows} rows, want R x points = {r * n_pts}")
        return out
    for x, k, pt in zip(points, fast, rep["points"]):
        if pt["est_fast_prob"] != k / r:
            out.append(f"est_fast_prob at x={x!r} is {pt['est_fast_prob']!r}, "
                       f"trace says {k}/{r}")
    world = load_world(cfg["world"])
    loss = LossSpec(kind="zero_one", epsilon=0.0)
    pac = PacConfig(epsilon=0.0, alpha=cfg["pac"]["alpha"],
                    delta_split=cfg["pac"]["delta_split"])
    n, ms = cfg["calibration"]["n"], cfg["mc"]["master_seed"]
    for i, got in enumerate(taus):
        # README "Determinism": replication r of stream 0 draws from
        # PCG64(SeedSequence(master_seed, spawn_key=(0, r)))
        data = sample_calibration(world, n, np.random.SeedSequence(ms, spawn_key=(0, i)))
        tau = select_threshold(data, world, loss, pac).tau_hat
        if tau is ALWAYS_DEFER:
            ok = got == "ALWAYS_DEFER"
        else:
            ok = got != "ALWAYS_DEFER" and float(got) == tau
        if not ok:
            out.append(f"replication {i}: trace tau_hat {got}, select_threshold {tau!r}")
    return out


def _check_oracle(spec: dict, rep: dict) -> list[str]:
    out = []
    cfg = spec["config"]
    n = cfg["oracle"]["n"]
    with open(cfg["world"], encoding="utf-8") as f:
        c = len(json.load(f)["cells"])
    if abs(rep["total_probability"] - 1.0) > 1e-9:
        out.append(f"total_probability {rep['total_probability']!r} is not 1")
    # the marginal guarantee, exact here
    if not rep["value"] <= cfg["pac"]["alpha"] + 1e-12:
        out.append(f"joint risk {rep['value']!r} exceeds alpha {cfg['pac']['alpha']!r}")
    if rep["n_outcomes"] != math.comb(n + c - 1, c - 1):
        out.append(f"n_outcomes {rep['n_outcomes']} != C(n+c-1, c-1)")
    return out
