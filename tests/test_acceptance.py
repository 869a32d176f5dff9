"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import pacroute as pr
from pacroute.adversary import find_radius
from pacroute.cli import main as cli_main
from pacroute.simulate import (
    JOINT,
    McConfig,
    audit_profile,
    enumerate_distribution,
    mc_joint_risk,
)

from conftest import corpus, make_w1
from oracles import binomial_pvalue

LOSS01 = pr.LossSpec(kind="zero_one", epsilon=0.0)
PAC_W1 = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=(0.5, 0.95))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_marginal_pac_validity():
    w1 = make_w1()
    bound = 0.1 + 3 * math.sqrt(0.1 * 0.9 / 2000)
    t0 = time.perf_counter()
    est, _ = mc_joint_risk(w1, LOSS01, PAC_W1, 2000, 20250810, 100)
    elapsed = time.perf_counter() - t0
    ok = est <= bound and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"joint risk estimate {est:.6f} <= {bound:.6f} (M=2000, n=100), "
        f"runtime {elapsed:.2f}s < 60s",
    )


def test_criterion_2_exact_guarantee_enumerable():
    w1 = make_w1()
    res = enumerate_distribution(w1, LOSS01, PAC_W1, 6, JOINT)
    ok = res.value <= 0.1 and abs(res.total_probability - 1.0) <= 1e-12
    _verdict(
        2,
        ok,
        f"exact joint risk {res.value:.6g} <= 0.1, total probability "
        f"{res.total_probability:.15f} within 1e-12 of 1",
    )


def test_criterion_3_oracle_mc_agreement():
    w1 = make_w1()
    reps = 100_000
    est, se = mc_joint_risk(w1, LOSS01, PAC_W1, reps, 31337, 6)
    exact = enumerate_distribution(w1, LOSS01, PAC_W1, 6, JOINT).value
    ok = abs(est - exact) <= max(4 * se, 1e-12)
    points = (0.25, 0.6, 0.9)
    mc = McConfig(replications=reps, master_seed=31337, audit_points=points)
    profile = audit_profile(w1, LOSS01, PAC_W1, mc, 6)[0]
    details = [f"joint |{est:.6g} - {exact:.6g}| <= 4se"]
    for p in profile.points:
        exact_p = enumerate_distribution(w1, LOSS01, PAC_W1, 6, p.x).value
        tol = max(4 * p.std_err, 1e-12)
        ok = ok and abs(p.est_fast_prob - exact_p) <= tol
        details.append(f"P(g({p.x})=0) |{p.est_fast_prob:.6g} - {exact_p:.6g}| <= 4se")
    _verdict(3, ok, f"M={reps}: " + "; ".join(details))


def test_criterion_4_forward_direction_trivial_audit():
    mc = McConfig(replications=200, master_seed=7)
    ok = True
    for i, w in enumerate(corpus()):
        rep = audit_profile(w, LOSS01, PAC_W1, mc, 25, algorithm="trivial")[0]
        ok = ok and rep.max_fast_prob == 0.0
        ok = ok and all(
            p.est_fast_prob == 0.0 and p.est_violation_prob == 0.0
            for p in rep.points
        )
        ok = ok and rep.trivial_verdict
    _verdict(
        4,
        ok,
        f"trivial router audited on {len(corpus())} corpus worlds: fast-usage "
        "and violation frequencies are exactly zero at every point",
    )


def test_criterion_5_perturbation_construction():
    w1 = make_w1()
    radius, mass = find_radius(w1, 0.4, 0.01, 100)
    ok = mass < 5e-5
    _, perturbed = pr.perturb(w1, LOSS01, 0.4, 0.01, 100)
    base_split = pr.split_at(w1, [0.4 - radius, 0.4 + radius])
    tv1 = pr.tv_single(base_split, perturbed)
    ok = ok and abs(tv1 - mass) <= 1e-15
    bound = pr.tv_product_bound(mass, 100)
    ok = ok and bound < 0.01
    # no cell outside the ball changes
    outside_same = all(
        a == b
        for a, b in zip(base_split.cells, perturbed.cells)
        if not (a.left >= 0.4 - radius and a.right <= 0.4 + radius)
    )
    ok = ok and outside_same
    rng = np.random.default_rng(55)
    mass_ok = True
    for _ in range(100):
        a, b = sorted(rng.random(2))
        mass_ok = mass_ok and abs(
            pr.interval_mass(perturbed, a, b) - pr.interval_mass(w1, a, b)
        ) <= 1e-12
    ok = ok and mass_ok
    _verdict(
        5,
        ok,
        f"ball mass {mass:.3e} < 5e-5; |tv_single - ball_mass| = "
        f"{abs(tv1 - mass):.1e} <= 1e-15; product bound {bound:.4f} < 0.01; "
        "no cell outside the ball changed; marginal preserved on 100 intervals",
    )


def test_criterion_6_impossibility_demo():
    w1 = make_w1()
    mc = McConfig(replications=1000, master_seed=20250810)
    t0 = time.perf_counter()
    rep = pr.demo_with_replications(w1, LOSS01, PAC_W1, 0.4, 0.01, 100, mc)[0]
    elapsed = time.perf_counter() - t0
    base_fast = rep.base_audit.points[0].est_fast_prob
    pert_viol = rep.perturbed_audit.points[0].est_violation_prob
    floor = 0.95 - (rep.tv_bound + 3 * rep.perturbed_audit.points[0].std_err)
    ok = base_fast >= 0.95
    ok = ok and pert_viol >= floor and pert_viol > 0.1
    ok = ok and rep.cross_world_gap <= rep.tv_bound + 3 * rep.combined_std_err
    ok = ok and rep.deferral_mass_mean <= 0.25
    ok = ok and elapsed < 120.0
    _verdict(
        6,
        ok,
        f"base fast@x* {base_fast:.3f} >= 0.95; perturbed violation "
        f"{pert_viol:.3f} >= {floor:.3f} and > 0.1; gap {rep.cross_world_gap:.4f}"
        f" <= bound; deferral {rep.deferral_mass_mean:.3f} <= 0.25; "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_7_determinism_across_workers(tmp_path):
    root = Path(__file__).resolve().parents[1]
    cfg = root / "configs" / "demo_w1.json"
    out1 = tmp_path / "demo_workers1.json"
    out8 = tmp_path / "demo_workers8.json"
    code1 = cli_main(
        ["demo", "--config", str(cfg), "--out", str(out1), "--workers", "1"]
    )
    code8 = cli_main(
        ["demo", "--config", str(cfg), "--out", str(out8), "--workers", "8"]
    )
    identical = out1.read_bytes() == out8.read_bytes()
    ok = code1 == 0 and code8 == 0 and identical
    _verdict(
        7,
        ok,
        f"cmd_demo with --workers 1 and --workers 8: byte-identical={identical} "
        f"({out1.stat().st_size} bytes)",
    )


def test_criterion_8_statistical_unit_checks():
    ref = 0.95**100
    pv = binomial_pvalue(0, 100, 0.05)
    ok = abs(pv - ref) / ref <= 1e-12

    rng = np.random.default_rng(2024)
    worlds = corpus()
    risk_ok = True
    for _ in range(1000):
        w = worlds[int(rng.integers(len(worlds)))]
        t1, t2 = sorted(rng.uniform(-2, 2, 2))
        risk_ok = risk_ok and (
            pr.exact_miscoverage(w, LOSS01, float(t1))
            <= pr.exact_miscoverage(w, LOSS01, float(t2)) + 1e-15
        )
        risk_ok = risk_ok and (
            pr.exact_deferral_mass(w, float(t1))
            >= pr.exact_deferral_mass(w, float(t2)) - 1e-15
        )
    pv_b_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 150))
        t = float(rng.uniform(0.01, 0.99))
        b1 = int(rng.integers(0, n))
        b2 = int(rng.integers(b1 + 1, n + 1))
        pv_b_ok = pv_b_ok and binomial_pvalue(b1, n, t) <= binomial_pvalue(
            b2, n, t
        )
    pv_n_ok = True
    for _ in range(1000):
        b = int(rng.integers(0, 20))
        n1 = int(rng.integers(b + 1, b + 80))
        n2 = n1 + int(rng.integers(1, 40))
        t = float(rng.uniform(0.01, 0.99))
        pv_n_ok = pv_n_ok and binomial_pvalue(b, n2, t) <= binomial_pvalue(
            b, n1, t
        ) + 1e-15
    ok = ok and risk_ok and pv_b_ok and pv_n_ok
    _verdict(
        8,
        ok,
        f"binomial_pvalue(0,100,0.05) rel err {abs(pv - ref) / ref:.2e} <= 1e-12; "
        f"risk monotone in tau (1000 cases): {risk_ok}; p-value monotone in b "
        f"(1000 cases): {pv_b_ok}; p-value monotone in n (1000 cases): {pv_n_ok}",
    )
