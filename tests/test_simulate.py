import math
import tracemalloc

import numpy as np
import pytest

import pacroute as pr
from pacroute.calibrate import select_threshold
from pacroute.risk import ALWAYS_DEFER
from pacroute.serialize import dump_json
from pacroute.simulate import (
    CHUNK,
    JOINT,
    DemoPreconditionError,
    EnumerationBudgetError,
    McConfig,
    _replication_uniforms,
    _tau_values_for_replications,
    audit_profile,
    default_audit_points,
    demo_with_replications,
    enumerate_distribution,
    iter_trace_rows,
    mc_joint_risk,
)

from conftest import corpus, make_three_cell, make_tied_scores, make_w1
from oracles import brute_force_enumerate

# independently computed for the three-cell instance with alpha=0.5, delta=0.05,
# grid (0.15, 0.5), n=6: the top threshold survives iff cell 2 is empty
P_TOP = 0.11764899999999996  # 0.7**6
JOINT_3CELL = 0.035294699999999984  # 0.7**6 * 0.3

PAC_3CELL = pr.PacConfig(
    epsilon=0.0, alpha=0.5, delta_split=0.05, threshold_grid=(0.15, 0.5)
)


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(replications=0, master_seed=1)
    with pytest.raises(ValueError):
        McConfig(replications=10, master_seed=-1)
    with pytest.raises(ValueError):
        McConfig(replications=10, master_seed=1, audit_points=())
    with pytest.raises(ValueError):
        McConfig(replications=10, master_seed=1, audit_points=(1.5,))
    # a replication index is one uint32 spawn-key word; nothing is drawn here
    McConfig(replications=2**32, master_seed=1)
    with pytest.raises(ValueError):
        McConfig(replications=2**32 + 1, master_seed=1)


def test_default_audit_points(w1):
    pts = default_audit_points(w1)
    # W1's midpoints (0.4, 0.9) already sit on the 21-point grid
    assert len(pts) == 21
    assert 0.4 in pts and 0.9 in pts
    assert pts == tuple(sorted(set(pts)))
    off = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.66, 0.66, 0, 0, 0.1),
            pr.Cell(0.66, 1.0, 0.34, 1, 0, 0.9),
        ),
        alphabet_size=2,
    )
    pts_off = default_audit_points(off)
    mids = (off.lefts + off.rights) / 2
    assert all(m in pts_off for m in mids)  # off-grid midpoints get added
    assert len(pts_off) == 23
    assert pts_off == tuple(sorted(set(pts_off)))


# ---------------------------------------------------------------------------
# conditional profile

def test_profile_trivial_algorithm_is_exactly_zero(w1, loss01, pac_w1):
    mc = McConfig(replications=200, master_seed=4)
    rep = audit_profile(w1, loss01, pac_w1, mc, 100, algorithm="trivial")[0]
    for p in rep.points:
        assert p.est_fast_prob == 0.0
        assert p.est_violation_prob == 0.0
    assert rep.max_fast_prob == 0.0
    assert rep.trivial_verdict


def test_profile_w1_single_grid_point(w1, loss01):
    # grid {0.5}: zero exceedances always, so tau_hat = 0.5 in every replication
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=(0.5,))
    mc = McConfig(replications=500, master_seed=10, audit_points=(0.4, 0.9))
    rep = audit_profile(w1, loss01, pac, mc, 100)[0]
    at = {p.x: p for p in rep.points}
    assert at[0.4].est_fast_prob == 1.0
    assert at[0.4].est_violation_prob == 0.0  # fast agrees with expert there
    assert at[0.9].est_fast_prob == 0.0  # score 0.9 > 0.5 always defers
    assert at[0.9].est_violation_prob == 0.0


def test_profile_violation_below_fast_prob(loss01):
    w = make_three_cell()
    mc = McConfig(replications=400, master_seed=2)
    rep = audit_profile(w, loss01, PAC_3CELL, mc, 6)[0]
    for p in rep.points:
        assert p.est_violation_prob <= p.est_fast_prob + 1e-15


def test_profile_determinism_bytewise(w1, loss01, pac_w1):
    mc = McConfig(replications=300, master_seed=77)
    a = audit_profile(w1, loss01, pac_w1, mc, 50)[0]
    b = audit_profile(w1, loss01, pac_w1, mc, 50)[0]
    assert dump_json(a.to_dict()) == dump_json(b.to_dict())


def _engine_against_select_threshold(w, loss, pac, n, reps, seed, stream):
    """Rebuild each replication's calibration set from the same uniforms and
    check the count-based walk agrees with the reference implementation.
    Returns the walk's thresholds and the cells each replication occupied."""
    taus, _ = _tau_values_for_replications(w, loss, pac, n, reps, seed, stream)
    u = _replication_uniforms(seed, stream, reps, n)
    mids = (w.lefts + w.rights) / 2
    occupied = []
    for r in range(reps):
        cells = np.minimum(
            np.searchsorted(w.mass_cdf, u[r], side="right"), len(w.cells) - 1
        )
        d = pr.CalibrationSet(xs=mids[cells], ys=w.expert_labels[cells])
        ref = select_threshold(d, w, loss, pac).tau_hat
        if ref is ALWAYS_DEFER:
            assert taus[r] == -np.inf
        else:
            assert taus[r] == ref
        occupied.append(set(cells.tolist()))
    return taus, occupied


def test_engine_matches_select_threshold_explicit_grid(loss01):
    _engine_against_select_threshold(
        make_three_cell(), loss01, PAC_3CELL, 6, 60, 1234, 9
    )
    # a grid point on the tied score 0.6, with grid points below and above it
    pac = pr.PacConfig(epsilon=0.0, alpha=0.8, delta_split=0.3,
                       threshold_grid=(0.15, 0.5, 0.6, 1.0))
    taus, _ = _engine_against_select_threshold(
        make_tied_scores(), loss01, pac, 12, 300, 1234, 9
    )
    assert {0.5, 0.6, 1.0} <= set(taus.tolist())


def test_engine_matches_select_threshold_auto_grid(w1, loss01):
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=None)
    _engine_against_select_threshold(w1, loss01, pac, 40, 40, 4321, 11)
    # alpha = 0.8, delta = 0.3: b* = 4 at n = 12, so walks on the tied-score
    # world stop at several score levels
    pac_tied = pr.PacConfig(epsilon=0.0, alpha=0.8, delta_split=0.3, threshold_grid=None)
    taus, occupied = _engine_against_select_threshold(
        make_tied_scores(), loss01, pac_tied, 12, 300, 4321, 11
    )
    # the tie and the gap both occur: both 0.6 cells, and 0.1 and 0.6 without 0.4
    assert any({2, 3} <= cells for cells in occupied)
    assert any({0, 2} <= cells and 1 not in cells for cells in occupied)
    assert len(np.unique(taus)) >= 4


def _reference_walk(w, loss, pac, n, reps, seed, stream):
    """Row by row: numpy's Generator, then select_threshold on the cells hit."""
    mids = (w.lefts + w.rights) / 2
    taus, test_cells = np.empty(reps), np.empty(reps, dtype=np.int64)
    for r in range(reps):
        seq = np.random.SeedSequence(seed, spawn_key=(stream, r))
        u = np.random.Generator(np.random.PCG64(seq)).random(n + 1)
        cells = np.minimum(
            np.searchsorted(w.mass_cdf, u, side="right"), len(w.cells) - 1
        )
        d = pr.CalibrationSet(xs=mids[cells[:n]], ys=w.expert_labels[cells[:n]])
        tau = select_threshold(d, w, loss, pac).tau_hat
        taus[r] = -np.inf if tau is ALWAYS_DEFER else tau
        test_cells[r] = cells[n]
    return taus, test_cells


@pytest.mark.parametrize("grid", [(0.5, 0.95), None], ids=["fixed", "auto"])
def test_chunked_walk_matches_row_by_row_reference(w1, loss01, grid):
    # two full chunks and a partial one; alpha=0.3 gives b* = 17 against a
    # Binomial(100, 0.2) bad count, so the walk stops at either grid point
    pac = pr.PacConfig(epsilon=0.0, alpha=0.3, delta_split=0.05, threshold_grid=grid)
    n, reps, seed, stream = 100, 2 * CHUNK + 3, 2024, 5
    ref_taus, ref_cells = _reference_walk(w1, loss01, pac, n, reps, seed, stream)
    assert len(np.unique(ref_taus)) == 2
    taus, cells = _tau_values_for_replications(w1, loss01, pac, n, reps, seed, stream)
    assert cells is None
    assert np.array_equal(taus, ref_taus)
    taus, cells = _tau_values_for_replications(
        w1, loss01, pac, n, reps, seed, stream, need_test_draws=True
    )
    assert np.array_equal(taus, ref_taus)
    assert np.array_equal(cells, ref_cells)


def test_joint_risk_memory_does_not_grow_with_replications(w1, loss01, pac_w1):
    def peak(reps):
        tracemalloc.start()
        try:
            mc_joint_risk(w1, loss01, pac_w1, reps, 3, 100)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # only the per-replication outputs (a few bytes each) may grow
    assert peak(16 * CHUNK) - peak(4 * CHUNK) <= 2 * 2**20


# ---------------------------------------------------------------------------
# joint risk

def test_joint_risk_trivial_zero(w1, loss01, pac_w1):
    assert mc_joint_risk(w1, loss01, pac_w1, 100, 5, 50, algorithm="trivial") == (
        0.0,
        0.0,
    )


def test_joint_risk_zero_loss_world(loss01, pac_w1):
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.5, 0, 0, 0.2),
            pr.Cell(0.5, 1.0, 0.5, 1, 1, 0.8),
        ),
        alphabet_size=2,
    )
    est, _ = mc_joint_risk(w, loss01, pac_w1, 500, 5, 50)
    assert est == 0.0


def test_joint_risk_within_alpha(w1, loss01, pac_w1):
    est, se = mc_joint_risk(w1, loss01, pac_w1, 2000, 6, 100)
    assert est <= 0.1 + 3 * se


def test_joint_risk_within_alpha_across_corpus(loss01):
    pac = pr.PacConfig(epsilon=0.0, alpha=0.2, delta_split=0.1, threshold_grid=None)
    for i, w in enumerate(corpus()):
        est, se = mc_joint_risk(w, loss01, pac, 1000, 100 + i, 60)
        assert est <= pac.alpha + 3 * se


# ---------------------------------------------------------------------------
# enumeration oracle

def test_count_walk_rejects_epsilon_mismatch(w1, pac_w1):
    # as select_threshold does: the loss decides which cells are bad
    loss = pr.LossSpec(kind="zero_one", epsilon=0.5)
    with pytest.raises(ValueError, match="epsilon"):
        enumerate_distribution(w1, loss, pac_w1, 3, JOINT)
    with pytest.raises(ValueError, match="epsilon"):
        mc_joint_risk(w1, loss, pac_w1, 10, 1, 5)


def test_enumerate_two_assignments_n1(w1, loss01, pac_w1):
    res = enumerate_distribution(w1, loss01, pac_w1, 1, JOINT)
    assert res.n_outcomes == 2
    assert res.total_probability == pytest.approx(1.0, abs=1e-15)
    # n=1 never rejects anything at delta=0.05, so the joint risk is 0
    assert res.value == 0.0


def test_enumerate_trivial_is_zero(w1, loss01, pac_w1):
    fast = enumerate_distribution(w1, loss01, pac_w1, 4, 0.4, algorithm="trivial")
    assert fast.value == 0.0
    joint = enumerate_distribution(w1, loss01, pac_w1, 4, JOINT, algorithm="trivial")
    assert joint.value == 0.0


def test_enumerate_budget_guard(loss01, pac_w1):
    w = corpus()[5]  # ten cells: C(49, 9) ~ 2.05e9 outcomes at n=40
    with pytest.raises(EnumerationBudgetError):
        enumerate_distribution(w, loss01, pac_w1, 40, JOINT)


def test_enumerate_budget_counts_outcomes_not_sequences(w1, loss01, pac_w1):
    # two cells at n=30: 2**30 ordered samples but only 31 occupancy vectors
    res = enumerate_distribution(w1, loss01, pac_w1, 30, JOINT)
    assert res.n_outcomes == 31
    assert res.total_probability == pytest.approx(1.0, abs=1e-12)


def test_enumerate_matches_brute_force_w1(w1, loss01, pac_w1):
    for n in (1, 2, 3, 6):
        fast = enumerate_distribution(w1, loss01, pac_w1, n, JOINT)
        slow_value, slow_total = brute_force_enumerate(w1, loss01, pac_w1, n, JOINT)
        assert fast.value == pytest.approx(slow_value, abs=1e-12)
        assert fast.total_probability == pytest.approx(slow_total, abs=1e-12)


def test_enumerate_matches_brute_force_three_cell(loss01):
    w = make_three_cell()
    for x in (JOINT, 0.25, 0.6, 0.9):
        fast = enumerate_distribution(w, loss01, PAC_3CELL, 5, x).value
        slow, _ = brute_force_enumerate(w, loss01, PAC_3CELL, 5, x)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_enumerate_matches_brute_force_auto_grid(w1, loss01):
    # the data-dependent grid; alpha = 0.8, delta = 0.3 give b* = 1 at n = 5
    pac = pr.PacConfig(epsilon=0.0, alpha=0.8, delta_split=0.3, threshold_grid=None)
    cases = [(w1, JOINT, 6), (make_three_cell(), JOINT, 5), (make_three_cell(), 0.6, 5)]
    cases += [(make_tied_scores(), x, 5) for x in (JOINT, 0.2, 0.35, 0.5, 0.95)]
    for w, x, n in cases:
        fast = enumerate_distribution(w, loss01, pac, n, x)
        slow_value, slow_total = brute_force_enumerate(w, loss01, pac, n, x)
        assert fast.value == pytest.approx(slow_value, abs=1e-12), (w, x)
        assert fast.total_probability == pytest.approx(slow_total, abs=1e-12)
    tied = enumerate_distribution(make_tied_scores(), loss01, pac, 5, JOINT).value
    assert 0.0 < tied <= pac.alpha


def test_enumerate_three_cell_closed_forms(loss01):
    w = make_three_cell()
    assert enumerate_distribution(
        w, loss01, PAC_3CELL, 6, 0.6
    ).value == pytest.approx(P_TOP, rel=1e-10)
    assert enumerate_distribution(
        w, loss01, PAC_3CELL, 6, 0.25
    ).value == pytest.approx(1.0, rel=1e-10)
    assert enumerate_distribution(w, loss01, PAC_3CELL, 6, 0.9).value == 0.0
    assert enumerate_distribution(
        w, loss01, PAC_3CELL, 6, JOINT
    ).value == pytest.approx(JOINT_3CELL, rel=1e-10)


def test_enumerate_joint_never_exceeds_alpha(loss01):
    # the exact guarantee, checked over several instances and configs
    cases = [
        (make_w1(), pr.PacConfig(0.0, 0.1, 0.05, (0.5, 0.95)), 6),
        (make_w1(), pr.PacConfig(0.0, 0.1, 0.05, (0.5, 0.95)), 12),
        (make_three_cell(), PAC_3CELL, 6),
        (make_three_cell(), PAC_3CELL, 10),
        (make_three_cell(), pr.PacConfig(0.0, 0.3, 0.15, (0.15, 0.5)), 8),
        (make_three_cell(), pr.PacConfig(0.0, 0.5, 0.25, None), 7),
    ]
    for w, pac, n in cases:
        res = enumerate_distribution(w, loss01, pac, n, JOINT)
        assert res.value <= pac.alpha + 1e-12
        assert res.total_probability == pytest.approx(1.0, abs=1e-12)


def test_enumerate_joint_guarantee_randomized_instances(loss01):
    # exact guarantee over a randomized family: random small worlds, risk
    # budgets, grids (explicit and data-driven), and calibration sizes
    rng = np.random.default_rng(20250810)
    score_pool = (-0.5, 0.1, 0.2, 0.5, 0.9, 1.4)
    checked = 0
    for _ in range(120):
        n_cells = int(rng.integers(2, 5))
        cuts = np.sort(rng.uniform(0.05, 0.95, n_cells - 1))
        bounds = np.concatenate([[0.0], cuts, [1.0]])
        masses = pr.normalized_masses(rng.uniform(0.05, 1.0, n_cells))
        cells = tuple(
            pr.Cell(
                float(bounds[i]),
                float(bounds[i + 1]),
                masses[i],
                int(rng.integers(0, 2)),
                int(rng.integers(0, 2)),
                float(score_pool[int(rng.integers(len(score_pool)))]),
            )
            for i in range(n_cells)
        )
        w = pr.CellWorld(cells=cells, alphabet_size=2)
        assert pr.validate_world(w) == []
        alpha = float(rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        if rng.random() < 0.5:
            grid = None
        else:
            k = int(rng.integers(1, 4))
            grid = tuple(np.sort(rng.uniform(-1.0, 2.0, k)).tolist())
            if len(set(grid)) != len(grid):
                grid = None
        pac = pr.PacConfig(epsilon=0.0, alpha=alpha, threshold_grid=grid)
        n = int(rng.integers(2, 8))
        res = enumerate_distribution(w, loss01, pac, n, JOINT)
        assert res.value <= alpha + 1e-12, (w, pac, n, res.value)
        assert res.total_probability == pytest.approx(1.0, abs=1e-12)
        checked += 1
    assert checked == 120


def test_oracle_matches_mc_nondegenerate(loss01):
    w = make_three_cell()
    reps = 100_000
    est, se = mc_joint_risk(w, loss01, PAC_3CELL, reps, 4242, 6)
    exact = enumerate_distribution(w, loss01, PAC_3CELL, 6, JOINT).value
    assert abs(est - exact) <= 4 * se
    mc = McConfig(replications=reps, master_seed=4242, audit_points=(0.25, 0.6, 0.9))
    rep = audit_profile(w, loss01, PAC_3CELL, mc, 6)[0]
    for p in rep.points:
        exact_p = enumerate_distribution(w, loss01, PAC_3CELL, 6, p.x).value
        tol = 4 * p.std_err if p.std_err > 0 else 1e-12
        assert abs(p.est_fast_prob - exact_p) <= tol


# ---------------------------------------------------------------------------
# triviality verdict

def test_triviality_audit_trivial_passes_everywhere(loss01, pac_w1):
    mc = McConfig(replications=50, master_seed=3)
    for w in corpus():
        rep = audit_profile(w, loss01, pac_w1, mc, 20, algorithm="trivial")[0]
        assert rep.trivial_verdict
        assert rep.max_fast_prob == 0.0


def test_triviality_audit_calibrated_fails_on_w1(w1, loss01, pac_w1):
    mc = McConfig(
        replications=400,
        master_seed=8,
        audit_points=tuple(np.linspace(0, 1, 21)),
    )
    rep = audit_profile(w1, loss01, pac_w1, mc, 100)[0]
    assert not rep.trivial_verdict
    at = {round(p.x, 3): p for p in rep.points}
    for x in (0.0, 0.25, 0.5, 0.75):
        assert at[x].est_fast_prob == 1.0
    assert rep.max_fast_prob == 1.0
    assert 0.25 in rep.points_above_alpha


def test_triviality_audit_vacuous_alpha(w1, loss01):
    pac = pr.PacConfig(
        epsilon=0.0, alpha=1.0, delta_split=0.05, threshold_grid=(0.5, 0.95)
    )
    mc = McConfig(replications=100, master_seed=9)
    rep = audit_profile(w1, loss01, pac, mc, 100)[0]
    assert rep.trivial_verdict  # alpha = 1 makes the bound vacuous
    rep_trivial = audit_profile(
        w1, loss01, pac, mc, 100, algorithm="trivial"
    )[0]
    assert rep_trivial.trivial_verdict


# ---------------------------------------------------------------------------
# demo pipeline

def _demo_mc(reps=600):
    return McConfig(replications=reps, master_seed=20250810)


def test_demo_canonical_verdicts(w1, loss01, pac_w1):
    rep = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 100, _demo_mc())[0]
    assert rep.verdicts == {
        "demo_vacuous": False,
        "indistinguishable": True,
        "conditional_violation": True,
        "marginal_holds": True,
        "nontrivial": True,
    }
    assert rep.base_audit.points[0].x == 0.4
    assert rep.base_audit.points[0].est_fast_prob >= 0.95
    assert rep.perturbed_audit.points[0].est_violation_prob > pac_w1.alpha
    assert rep.tv_bound < 0.01
    assert rep.tv_coupling_bound <= rep.tv_bound
    assert rep.cross_world_gap <= rep.tv_bound + 3 * rep.combined_std_err
    assert rep.deferral_mass_mean == pytest.approx(0.2, abs=1e-12)


def test_demo_trivial_substitution(w1, loss01, pac_w1):
    rep = demo_with_replications(
        w1, loss01, pac_w1, 0.4, 0.01, 100, _demo_mc(200), algorithm="trivial"
    )[0]
    assert rep.verdicts["demo_vacuous"]  # trivial router never fast at x*
    assert not rep.verdicts["conditional_violation"]
    assert not rep.verdicts["nontrivial"]
    assert rep.deferral_mass_mean == 1.0


def test_demo_precondition_error(w1, loss01, pac_w1):
    with pytest.raises(DemoPreconditionError):
        demo_with_replications(w1, loss01, pac_w1, 0.9, 0.01, 100, _demo_mc(50))


def test_demo_large_eta_clamps(w1, loss01, pac_w1):
    rep = demo_with_replications(w1, loss01, pac_w1, 0.4, 1.9, 100, _demo_mc(200))[0]
    assert rep.tv_bound <= 1.0
    assert rep.verdicts["indistinguishable"]


def test_demo_report_determinism(w1, loss01, pac_w1):
    a = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 100, _demo_mc(300))[0]
    b = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 100, _demo_mc(300))[0]
    assert dump_json(a.to_dict()) == dump_json(b.to_dict())


def test_demo_cross_world_gap_definition(w1, loss01, pac_w1):
    rep = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 100, _demo_mc(300))[0]
    expected = abs(
        rep.base_audit.points[0].est_fast_prob
        - rep.perturbed_audit.points[0].est_fast_prob
    )
    assert rep.cross_world_gap == expected


def test_demo_exact_cross_world_bound(loss01):
    # enumeration on both worlds: the fast-usage gap at x* is bounded by the
    # exact single-draw TV scaled by 2n
    w = make_three_cell()
    x_star = 0.25
    n = 6
    spec = pr.make_perturbation(w, loss01, x_star, 0.5, n)
    p = pr.perturb(w, loss01, spec)
    base_split = pr.split_at(w, [x_star - spec.radius, x_star + spec.radius])
    g_base = enumerate_distribution(base_split, loss01, PAC_3CELL, n, x_star).value
    g_pert = enumerate_distribution(p, loss01, PAC_3CELL, n, x_star).value
    assert g_base == pytest.approx(1.0, rel=1e-12)
    assert 0.0 < g_pert < 1.0  # the swap genuinely moves the selection law
    tv1 = pr.tv_single(base_split, p)
    assert abs(g_base - g_pert) <= 2 * n * tv1 + 1e-12


def test_demo_with_table_loss(pac_w1):
    # three labels, losses graded: only the 0-vs-2 confusion counts as bad
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.8, 0.8, 0, 0, 0.1),
            pr.Cell(0.8, 1.0, 0.2, 2, 0, 0.9),
        ),
        alphabet_size=3,
    )
    table = (
        (0.0, 0.2, 0.8),
        (0.2, 0.0, 0.2),
        (0.8, 0.2, 0.0),
    )
    loss = pr.LossSpec(kind="table", epsilon=0.5, table=table)
    pac = pr.PacConfig(epsilon=0.5, alpha=0.1, delta_split=0.05,
                       threshold_grid=(0.5, 0.95))
    rep = demo_with_replications(w, loss, pac, 0.4, 0.01, 100, _demo_mc(300))[0]
    # adversarial label must be 2: the only one with loss above 0.5 vs fast=0
    assert rep.perturbation.adversarial_label == 2
    assert rep.verdicts["conditional_violation"]
    assert rep.verdicts["indistinguishable"]
    assert rep.verdicts["nontrivial"]
    assert not rep.verdicts["demo_vacuous"]


def test_trace_rows(w1, loss01):
    taus = np.array([0.5, -np.inf])
    rows = list(iter_trace_rows(w1, loss01, [0.4, 0.9], taus))
    assert rows == [
        (0, 0.4, 0.5, 0, 0),
        (0, 0.9, 0.5, 1, 0),
        (1, 0.4, "ALWAYS_DEFER", 1, 0),
        (1, 0.9, "ALWAYS_DEFER", 1, 0),
    ]


def test_audit_points_forwarded_in_demo(w1, loss01, pac_w1):
    mc = McConfig(replications=50, master_seed=1, audit_points=(0.1, 0.4, 0.95))
    rep, _, points, base_taus, _ = demo_with_replications(
        w1, loss01, pac_w1, 0.4, 0.01, 50, mc
    )
    assert points[0] == 0.4
    assert set(points) == {0.1, 0.4, 0.95}
    assert len(base_taus) == 50
    assert [p.x for p in rep.base_audit.points] == list(points)
