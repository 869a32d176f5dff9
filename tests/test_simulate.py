import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacroute as pr
from pacroute import _kernels, calibrate, simulate
from pacroute.adversary import DemoPreconditionError
from pacroute.calibrate import ALGORITHMS, binomial_tail, max_rejectable_count
from pacroute.risk import ALWAYS_DEFER
from pacroute.serialize import dump_json, encode_threshold
from pacroute.simulate import (
    CHUNK,
    CHUNK_CELLS,
    JOINT,
    TRACE_BLOCK_ROWS,
    McConfig,
    _tau_values_for_replications,
    audit_profile,
    default_audit_points,
    demo_with_replications,
    enumerate_distribution,
    mc_joint_risk,
    trace_blocks,
)

from conftest import (
    corpus,
    make_distinct_scores,
    make_five_cell,
    make_masses_short_of_one,
    make_ten_cell,
    make_three_cell,
    make_tied_scores,
    make_w1,
)
from oracles import (
    binomial_pvalue_table,
    generator_counts,
    brute_force_enumerate,
    csv_trace_text,
    joint_risk_by_test_draws,
    occupancy_enumerate,
    select_threshold_loop,
    threshold_law_by_stop,
    threshold_law_scalar,
)
from test_worlds import world_strategy


def walk_all(*args, **kwargs):
    """``_tau_values_for_replications``'s chunks' thresholds joined, in order."""
    chunks = list(_tau_values_for_replications(*args, **kwargs))
    assert [start for start, _ in chunks] == np.cumsum(
        [0] + [len(taus) for _, taus in chunks[:-1]]).tolist()
    return np.concatenate([taus for _, taus in chunks])


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


@pytest.mark.parametrize("replications, master_seed", [
    (True, 1), (2.5, 1), (10.0, 1), (10, False), (10, 1.5), (10, "1"),
])
def test_mc_config_refuses_a_bool_or_non_integer(replications, master_seed):
    with pytest.raises(ValueError, match="must be an integer"):
        McConfig(replications, master_seed)


def test_mc_config_stores_python_ints(w1, loss01, pac_w1):
    mc = McConfig(np.int64(10), np.uint32(3), (0.4,))
    assert type(mc.replications) is int and type(mc.master_seed) is int
    rep = audit_profile(w1, loss01, pac_w1, mc, 100)[0]
    assert type(rep.replications) is int
    assert dump_json(rep) == dump_json(audit_profile(w1, loss01, pac_w1, McConfig(10, 3, (0.4,)),
                                                     100)[0])


@pytest.mark.parametrize("replications, master_seed, message", [
    (0, 1, r"replications must be in \[1, 2\*\*32\], got 0"),
    (2**32 + 1, 1, "replications must be in"),
    (True, 1, "replications must be an integer"),
    (2.5, 1, "replications must be an integer"),
    (10, -1, "master_seed must be >= 0"),
    (10, 1.0, "master_seed must be an integer"),
])
def test_joint_risk_refuses_bad_counts_before_any_draw(w1, loss01, pac_w1, monkeypatch,
                                                       replications, master_seed, message):
    def refuse(*args, **kwargs):
        raise AssertionError("uniforms drawn")

    monkeypatch.setattr(simulate, "_replication_uniforms", refuse)
    with pytest.raises(ValueError, match=message):
        mc_joint_risk(w1, loss01, pac_w1, replications, master_seed, 100)


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


def test_default_audit_points_drop_rounding_twins():
    # the midpoints 0.15 and 0.35 of the tied world round one ulp away from
    # the grid's 0.15 and 0.35; each input is audited once
    w = make_tied_scores()
    pts = default_audit_points(w)
    assert np.diff(pts).min() > 1e-12
    assert len(pts) == 23
    for m in (w.lefts + w.rights) / 2:
        near = min(pts, key=lambda p: abs(p - m))
        assert abs(near - m) <= 1e-12
        assert pr.cell_at(w, near) == pr.cell_at(w, m)


@pytest.mark.parametrize("given, kept", [
    ((0.3, 0.3, 0.30000000000000004), (0.3,)),
    ((0.9, 0.1, 0.9), (0.9, 0.1)),  # list order kept
    ((1, 0, 0.5), (1.0, 0.0, 0.5)),
    ((0.5, 0.5 + 3e-12, 0.5 + 2.5e-12), (0.5, 0.5 + 3e-12)),  # the twin above
    ((0.5, 0.5 - 3e-12, 0.5 - 2.5e-12), (0.5, 0.5 - 3e-12)),  # the twin below
])
def test_mc_config_drops_twin_audit_points(given, kept):
    points = McConfig(replications=1, master_seed=0, audit_points=given).audit_points
    assert points == kept
    assert all(type(p) is float for p in points)


@given(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.3, 0.3 + 5e-13, 0.3 + 1.5e-12,
                                                       0.3 - 8e-13, 0.3 + 2.2e-12]),
                min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_twin_rule_matches_pairwise_reference(points):
    # each point against every point kept before it
    kept = []
    for p in points:
        if all(abs(p - q) > 1e-12 for q in kept):
            kept.append(p)
    mc = McConfig(replications=1, master_seed=0, audit_points=tuple(points))
    assert mc.audit_points == tuple(kept)


def test_audit_profile_audits_twin_points_once(w1, loss01, pac_w1):
    mc = McConfig(replications=4, master_seed=1, audit_points=(0.3, 0.3, 0.30000000000000004))
    blocks = []
    rep, tally = audit_profile(w1, loss01, pac_w1, mc, 100, trace=blocks.extend)
    assert [p.x for p in rep.points] == [0.3]
    assert sum(tally.values()) == 4
    assert "".join(blocks).count("\r\n") == 4


# (engine, n, algorithm, message): each engine refuses them before any draw
REFUSED_ENGINE_INPUTS = [
    (engine, n, algorithm, message)
    for engine in ("audit_profile", "mc_joint_risk", "enumerate_distribution")
    for n, algorithm, message in (
        (0, "calibrated", "n must be >= 1, got 0"),
        (0, "trivial", "n must be >= 1, got 0"),
        (10, "bogus", "algorithm must be one of"),
    )
]


@pytest.mark.parametrize(
    "engine, n, algorithm, message", REFUSED_ENGINE_INPUTS,
    ids=[f"{e}-{a}-n{n}" for e, n, a, _ in REFUSED_ENGINE_INPUTS],
)
def test_engines_refuse_bad_input(w1, loss01, pac_w1, monkeypatch, engine, n, algorithm,
                                  message):
    def refuse(*args, **kwargs):
        raise AssertionError("uniforms drawn")

    monkeypatch.setattr(simulate, "_replication_uniforms", refuse)
    call = {
        "audit_profile": lambda: audit_profile(
            w1, loss01, pac_w1, McConfig(replications=5, master_seed=1), n, algorithm=algorithm),
        "mc_joint_risk": lambda: mc_joint_risk(w1, loss01, pac_w1, 5, 1, n, algorithm=algorithm),
        "enumerate_distribution": lambda: enumerate_distribution(
            w1, loss01, pac_w1, n, JOINT, algorithm=algorithm),
    }[engine]
    with pytest.raises(ValueError, match=message):
        call()


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
    assert dump_json(a) == dump_json(b)


def _engine_against_select_threshold(w, loss, pac, n, reps, seed, stream):
    """Rebuild each replication's calibration set from the same uniforms and
    check the count-based walk agrees with the reference implementation.
    Returns the walk's thresholds and the cells each replication occupied."""
    taus = walk_all(w, loss, pac, n, reps, seed, stream)
    counts = generator_counts(w, n, reps, seed, stream)
    mids = (w.lefts + w.rights) / 2
    occupied = []
    for r in range(reps):
        cells = np.repeat(np.arange(w.n_cells), counts[r])
        d = pr.CalibrationSet(xs=mids[cells], ys=w.expert_labels[cells])
        ref = select_threshold_loop(d, w, loss, pac).tau_hat
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
    # b* = 1 at n = 100 (b* = -1 would make every threshold -inf)
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=None)
    taus, _ = _engine_against_select_threshold(w1, loss01, pac, 100, 40, 4321, 11)
    assert np.isfinite(taus).any()
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
    """Row by row: the scalar chain over numpy's Generator, then
    select_threshold_loop on a set with those counts."""
    mids = (w.lefts + w.rights) / 2
    taus = np.empty(reps)
    for r, row in enumerate(generator_counts(w, n, reps, seed, stream)):
        cells = np.repeat(np.arange(w.n_cells), row)
        d = pr.CalibrationSet(xs=mids[cells], ys=w.expert_labels[cells])
        tau = select_threshold_loop(d, w, loss, pac).tau_hat
        taus[r] = -np.inf if tau is ALWAYS_DEFER else tau
    return taus


@pytest.mark.parametrize(
    "make_world, grid, n_taus",
    [(make_w1, (0.5, 0.95), 2), (make_w1, None, 2), (make_ten_cell, None, 8)],
    ids=["fixed", "auto", "ten_cell_auto"],
)
def test_chunked_walk_matches_row_by_row_reference(loss01, make_world, grid, n_taus):
    # two full chunks and a partial one; alpha=0.3 gives b* = 17. On w1 the
    # bad count is Binomial(100, 0.2), so the walk stops at either grid
    # point; on the ten-cell world each odd cell is bad and adds 0.05-0.1 to
    # the bad mass below its score, so the walk stops at several levels
    w = make_world()
    pac = pr.PacConfig(epsilon=0.0, alpha=0.3, delta_split=0.05, threshold_grid=grid)
    n, reps, seed, stream = 100, 2 * CHUNK + 3, 2024, 5
    ref_taus = _reference_walk(w, loss01, pac, n, reps, seed, stream)
    assert len(np.unique(ref_taus)) == n_taus
    assert np.array_equal(walk_all(w, loss01, pac, n, reps, seed, stream), ref_taus)


def test_chunk_sets_shrink_as_cells_grow(loss01, monkeypatch):
    sizes = []

    def record(master_seed, stream, replications, *args, **kwargs):
        sizes.append(replications)
        return _kernels.occupancy_counts(master_seed, stream, replications, *args, **kwargs)

    def peak(w):
        sizes.clear()
        tracemalloc.start()
        try:
            walk_all(w, loss01, pac, 100, CHUNK, 3, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(simulate, "_replication_uniforms", record)
    pac = pr.PacConfig(epsilon=0.0, alpha=0.5, threshold_grid=None)
    # every world in configs/ and in the benchmark has at most 16 cells
    peak(make_distinct_scores(16))
    assert sizes == [CHUNK]
    # 141 MiB when one chunk held CHUNK sets of 1000 cells
    assert peak(make_distinct_scores(1000)) < 16 * 2**20
    assert sum(sizes) == CHUNK and max(sizes) * 1000 <= CHUNK_CELLS


def test_joint_risk_memory_does_not_grow_with_replications(w1, loss01, pac_w1):
    def peak(reps):
        tracemalloc.start()
        try:
            mc_joint_risk(w1, loss01, pac_w1, reps, 3, 100)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # each chunk's thresholds are tallied before the next is drawn
    peak(CHUNK)  # fill the caches first, so both runs below start alike
    assert abs(peak(64 * CHUNK) - peak(4 * CHUNK)) < 2**19


def test_joint_risk_memory_flat_in_n(w1, loss01, pac_w1):
    def peak(n):
        tracemalloc.start()
        try:
            mc_joint_risk(w1, loss01, pac_w1, CHUNK, 3, n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a set draws cells - 1 uniforms whatever n, so the chunk's working set
    # does not grow with the calibration size
    peak(100)  # fill the caches first, so both runs below start alike
    assert peak(4000) - peak(100) <= 2**20


def test_audit_memory_does_not_grow_with_replications(w1, loss01, pac_w1):
    def peak(reps):
        tracemalloc.start()
        try:
            audit_profile(w1, loss01, pac_w1, McConfig(reps, 3, (0.4,)), 100)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # each chunk is tallied before the next is drawn: the tally holds one
    # entry per distinct threshold, whatever the replication count
    peak(CHUNK)  # fill the caches first, so both runs below start alike
    assert abs(peak(64 * CHUNK) - peak(4 * CHUNK)) < 2**19


# ---------------------------------------------------------------------------
# joint risk

@pytest.mark.parametrize(
    "algorithm, grid, n",
    [("trivial", (0.5, 0.95), 100), ("calibrated", (0.5, 0.95), 20),
     ("calibrated", None, 20)],
    ids=["trivial", "b_star_negative_fixed", "b_star_negative_auto"],
)
def test_no_draws_when_b_star_negative(w1, loss01, monkeypatch, algorithm, grid, n):
    # b* < 0: every walk selects ALWAYS_DEFER, so no uniform is drawn
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=grid)
    if algorithm == "calibrated":
        assert max_rejectable_count(n, pac.test_level, pac.delta_split) == -1

    def refuse(*args, **kwargs):
        raise AssertionError("uniforms drawn")

    monkeypatch.setattr(simulate, "_replication_uniforms", refuse)
    mc = McConfig(replications=300, master_seed=9)
    assert audit_profile(w1, loss01, pac, mc, n, algorithm=algorithm)[1] == {ALWAYS_DEFER: 300}
    assert mc_joint_risk(w1, loss01, pac, 300, 9, n, algorithm=algorithm) == (0.0, 0.0)


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
# exact oracle

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


def _oracle_cases():
    """(world, n) for every world the oracle tests use, with n <= 8, plus
    n = 100 on the worlds of at most 3 cells."""
    small = [(make_w1(), 6), (make_w1(), 12), (make_three_cell(), 5),
             (make_three_cell(), 10), (make_tied_scores(), 5), (make_five_cell(), 6),
             (make_ten_cell(), 3)]
    return small + [(w, 100) for w in corpus() if len(w.cells) <= 3]


@pytest.mark.parametrize("grid", [(0.15, 0.5, 0.95), None], ids=["fixed", "auto"])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.8])
def test_enumerate_matches_occupancy_enumerator(loss01, grid, alpha):
    # the closed form against the sum over every occupancy vector
    pac = pr.PacConfig(epsilon=0.0, alpha=alpha, delta_split=alpha / 2,
                       threshold_grid=grid)
    for w, n in _oracle_cases():
        mids = (w.lefts + w.rights) / 2
        for x in (JOINT, *mids.tolist()):
            res = enumerate_distribution(w, loss01, pac, n, x)
            value, total = occupancy_enumerate(w, loss01, pac, n, x)
            assert res.value == pytest.approx(value, abs=1e-12), (w, n, x)
            assert res.total_probability == pytest.approx(total, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    world_strategy(score=st.sampled_from((-0.5, 0.1, 0.5, 0.9))),
    st.one_of(st.none(), st.lists(st.sampled_from((-1.0, 0.1, 0.3, 0.5, 0.9, 2.0)),
                                  min_size=1, max_size=4, unique=True).map(sorted).map(tuple)),
    st.sampled_from((0.1, 0.3, 0.5, 0.8)),
    st.sampled_from(ALGORITHMS),
    st.integers(1, 300),
    st.floats(0.0, 1.0),
)
def test_enumerate_matches_scalar_law(w, grid, alpha, algorithm, n, x):
    # the law against the pair-by-pair closed form, on worlds with
    # tied scores and zero-mass cells, at the sizes the Monte-Carlo runs use
    loss = pr.LossSpec(kind="zero_one", epsilon=0.0)
    pac = pr.PacConfig(epsilon=0.0, alpha=alpha, threshold_grid=grid)
    for query in (JOINT, x):
        res = enumerate_distribution(w, loss, pac, n, query, algorithm=algorithm)
        value, _ = threshold_law_scalar(w, loss, pac, n, query, algorithm)
        assert res.value == pytest.approx(value, abs=1e-12), query
        assert res.total_probability == pytest.approx(1.0, abs=1e-12)


def law_by_stop(w, loss, pac, n, algorithm="calibrated"):
    """``simulate._threshold_law``'s blocks cut into one (probabilities,
    thresholds) pair per stop."""
    return [(probs[lo:hi], taus[lo:hi])
            for bounds, probs, taus in simulate._threshold_law(w, loss, pac, n, algorithm)
            for lo, hi in zip(bounds, bounds[1:])]


def assert_law_bits_equal(got, want):
    # bit for bit: -0.0 and 0.0 differ; a fixed grid's reference stop has one threshold
    assert len(got) == len(want)
    for (probs, taus), (ref_probs, ref_taus) in zip(got, want):
        assert probs.tobytes() == ref_probs.tobytes()
        assert taus.tobytes() == np.broadcast_to(ref_taus, ref_probs.shape).tobytes()


@pytest.mark.parametrize("block", [1, 40, 256])
def test_law_does_not_depend_on_its_tail_blocks(loss01, monkeypatch, block):
    # every stop's probabilities and thresholds are the per-stop reference's,
    # bit for bit, whichever stops share a block and a tail call
    w = make_distinct_scores(60)
    pac = pr.PacConfig(epsilon=0.0, alpha=0.5, threshold_grid=None)
    want = threshold_law_by_stop(w, loss01, pac, 500)
    monkeypatch.setattr(simulate, "LAW_BLOCK", block)
    assert_law_bits_equal(law_by_stop(w, loss01, pac, 500), want)


@settings(max_examples=200, deadline=None)
@given(
    world_strategy(score=st.sampled_from((-0.5, 0.1, 0.5, 0.9))),
    st.one_of(st.none(), st.lists(st.sampled_from((-1.0, 0.1, 0.3, 0.5, 0.9, 2.0)),
                                  min_size=1, max_size=4, unique=True).map(sorted).map(tuple)),
    st.sampled_from((0.1, 0.3, 0.5, 0.8)),
    st.sampled_from(ALGORITHMS),
    st.integers(1, 300),
)
def test_law_matches_per_stop_reference(w, grid, alpha, algorithm, n):
    # the worlds of test_enumerate_matches_scalar_law: ties, zero-mass cells,
    # grids with thresholds outside [0, 1]
    loss = pr.LossSpec(kind="zero_one", epsilon=0.0)
    pac = pr.PacConfig(epsilon=0.0, alpha=alpha, threshold_grid=grid)
    assert_law_bits_equal(law_by_stop(w, loss, pac, n, algorithm),
                          threshold_law_by_stop(w, loss, pac, n, algorithm))


def test_law_tail_calls_stop_at_law_block_shares(loss01, monkeypatch):
    # the block bounds the law's memory: a tail call takes stops until their
    # shares reach LAW_BLOCK, so it holds fewer than LAW_BLOCK before its last
    # stop, which adds at most two for each of its pairs: 2 * 61 here
    shares = []

    def counted(k, n, t):
        shares.append(np.size(t))
        return binomial_tail(k, n, t)

    monkeypatch.setattr(simulate, "binomial_tail", counted)
    pac = pr.PacConfig(epsilon=0.0, alpha=0.5, threshold_grid=None)
    enumerate_distribution(make_distinct_scores(60), loss01, pac, 500, JOINT)
    assert max(shares) < simulate.LAW_BLOCK + 2 * 61
    assert len(shares) < 61 / 2


def test_enumerate_warns_nothing_on_a_denormal_cell(loss01):
    # the only mass past the grid is 1e-310: the law never divides a good
    # cell's mass by it
    w = pr.CellWorld(cells=(pr.Cell(0.0, 0.5, 1.0, 0, 0, 0.1),
                            pr.Cell(0.5, 1.0, 1e-310, 1, 0, 0.9)), alphabet_size=2)
    pac = pr.PacConfig(epsilon=0.0, alpha=0.5, threshold_grid=(0.5,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = enumerate_distribution(w, loss01, pac, 1, JOINT)
    assert (res.value, res.total_probability) == (0.0, 1.0)


# (b*, n, t values, the tail at each): no term to sum, or all terms in one
EXACT_TAILS = [(-1, 10, (0.0, 0.3, 1.0), 0.0), (10, 10, (0.0, 0.3, 1.0), 1.0),
               (12, 10, (0.3, 1.0), 1.0), (3, 10, (0.0,), 1.0), (3, 10, (1.0,), 0.0)]


@pytest.mark.parametrize("b_star, n, ts, tail", EXACT_TAILS)
def test_lower_tails_exact_at_the_edges(b_star, n, ts, tail):
    assert binomial_tail(b_star, n, np.array(ts)).tolist() == [tail] * len(ts)


# both sum lgamma terms near n log n, so ulp(n log n) bounds either's error
@pytest.mark.parametrize("n, tol", [(1, 1e-12), (7, 1e-12), (100, 1e-12), (1000, 1e-12),
                                    (10_000, 1e-9), (100_000, 1e-9)])
def test_lower_tails_match_pvalue_table(n, tol):
    ts = np.array([1e-9, 0.001, 0.02, 0.05, 0.3, 0.5, 0.9, 1.0 - 1e-9])
    tables = [binomial_pvalue_table(n, float(t)) for t in ts]
    for b_star in sorted({0, n // 100, n // 20, n // 2, n - 1}):
        want = [table[b_star] for table in tables]
        got = binomial_tail(b_star, n, ts)
        assert np.max(np.abs(got - want)) <= tol, b_star


def test_walk_and_law_memory_flat_in_score_levels(loss01):
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # no (levels + 1)**2 table: a walk and a 16-set chunk over 3000 levels
    w = make_distinct_scores(3000)
    pac = pr.PacConfig(epsilon=0.0, alpha=0.5, threshold_grid=None)
    counts = np.random.default_rng(3).multinomial(100, w.masses / w.masses.sum(), size=16)
    assert peak(lambda: calibrate._select(
        pac, calibrate._walk(w, loss01, pac, 100, "calibrated"), counts)) < 5 * 2**20
    # nor a (levels + 1)**2 law: the exact oracle over 1000 levels
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=None)
    w = make_distinct_scores(1000)
    assert peak(lambda: enumerate_distribution(w, loss01, pac, 100, JOINT)) < 5 * 2**20


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


@pytest.mark.parametrize(
    "world, grid, alpha, delta",
    [(make_w1(), (0.5, 0.95), 0.3, 0.05), (make_tied_scores(), None, 0.2, 0.1)],
    ids=["w1-fixed", "tied-auto"],
)
def test_oracle_matches_mc_at_n100(loss01, world, grid, alpha, delta):
    # at the calibration size the Monte-Carlo runs use
    pac = pr.PacConfig(epsilon=0.0, alpha=alpha, delta_split=delta, threshold_grid=grid)
    n, reps = 100, 20_000

    def tol(p):
        return 4 * math.sqrt(p * (1 - p) / reps) + 1 / reps

    est, _ = mc_joint_risk(world, loss01, pac, reps, 606, n)
    exact = enumerate_distribution(world, loss01, pac, n, JOINT).value
    assert abs(est - exact) <= tol(exact)
    rep = audit_profile(world, loss01, pac, McConfig(reps, 606), n)[0]
    exact_fast = [enumerate_distribution(world, loss01, pac, n, p.x).value
                  for p in rep.points]
    assert any(0.05 < p < 0.95 for p in exact_fast)  # not only 0s and 1s
    for p, exact_p in zip(rep.points, exact_fast):
        assert abs(p.est_fast_prob - exact_p) <= tol(exact_p), p.x


@pytest.mark.parametrize(
    "world, grid, alpha, delta",
    [(make_w1(), (0.5, 0.95), 0.3, 0.05), (make_tied_scores(), None, 0.2, 0.1)],
    ids=["w1-fixed", "tied-auto"],
)
def test_joint_risk_tally_beats_test_draws_at_n100(loss01, world, grid, alpha, delta):
    # the mean exact miscoverage of the selected thresholds has a smaller
    # error than counting one fresh test input per replication
    pac = pr.PacConfig(epsilon=0.0, alpha=alpha, delta_split=delta, threshold_grid=grid)
    n, reps = 100, 20_000
    exact = enumerate_distribution(world, loss01, pac, n, JOINT).value
    est, se = mc_joint_risk(world, loss01, pac, reps, 606, n)
    ref_est, ref_se = joint_risk_by_test_draws(world, loss01, pac, n, reps, 606)
    assert 0.0 < se < ref_se
    assert abs(est - exact) <= 4 * se
    assert abs(ref_est - exact) <= 4 * ref_se


@pytest.mark.parametrize("make_world, grid", [
    (make_w1, (0.5, 0.95)), (make_tied_scores, None), (make_ten_cell, None),
], ids=["w1-fixed", "tied-auto", "ten_cell_auto"])
def test_joint_risk_is_mean_exact_miscoverage_of_stream_1(loss01, make_world, grid):
    w = make_world()
    pac = pr.PacConfig(epsilon=0.0, alpha=0.3, delta_split=0.05, threshold_grid=grid)
    reps = CHUNK + 5
    taus = walk_all(w, loss01, pac, 100, reps, 9, simulate.STREAM_JOINT)
    risks = np.array([pr.exact_miscoverage(w, loss01, tau) for tau in taus.tolist()])
    est, se = mc_joint_risk(w, loss01, pac, reps, 9, 100)
    assert len(np.unique(taus)) >= 2
    assert est == pytest.approx(risks.mean(), rel=0, abs=1e-15)
    assert se == pytest.approx(risks.std() / math.sqrt(reps), rel=0, abs=1e-15)


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
    rep = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 100, _demo_mc())
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
    )
    assert rep.verdicts["demo_vacuous"]  # trivial router never fast at x*
    assert not rep.verdicts["conditional_violation"]
    assert not rep.verdicts["nontrivial"]
    assert rep.deferral_mass_mean == 1.0


def test_demo_precondition_error(w1, loss01, pac_w1):
    with pytest.raises(DemoPreconditionError):
        demo_with_replications(w1, loss01, pac_w1, 0.9, 0.01, 100, _demo_mc(50))


def test_demo_large_eta_clamps(w1, loss01, pac_w1):
    rep = demo_with_replications(w1, loss01, pac_w1, 0.4, 1.9, 100, _demo_mc(200))
    assert rep.tv_bound <= 1.0
    assert rep.verdicts["indistinguishable"]


def test_demo_report_determinism(w1, loss01, pac_w1):
    a = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 100, _demo_mc(300))
    b = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 100, _demo_mc(300))
    assert dump_json(a) == dump_json(b)


def test_demo_cross_world_gap_definition(w1, loss01, pac_w1):
    rep = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 100, _demo_mc(300))
    expected = abs(
        rep.base_audit.points[0].est_fast_prob
        - rep.perturbed_audit.points[0].est_fast_prob
    )
    assert rep.cross_world_gap == expected


def test_demo_exact_cross_world_bound(loss01):
    # the exact law on both worlds: the fast-usage gap at x* is bounded by the
    # exact single-draw TV scaled by 2n
    w = make_three_cell()
    x_star = 0.25
    n = 6
    spec, p = pr.perturb(w, loss01, x_star, 0.5, n)
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
    rep = demo_with_replications(w, loss, pac, 0.4, 0.01, 100, _demo_mc(300))
    # adversarial label must be 2: the only one with loss above 0.5 vs fast=0
    assert rep.perturbation.adversarial_label == 2
    assert rep.verdicts["conditional_violation"]
    assert rep.verdicts["indistinguishable"]
    assert rep.verdicts["nontrivial"]
    assert not rep.verdicts["demo_vacuous"]


def test_demo_router_deferring_everywhere_is_not_nontrivial(loss01):
    # the one grid threshold lies below every score, so every replication
    # defers everywhere; the masses sum to 1 - 1 ulp, yet the mean deferral
    # mass is exactly 1
    w = make_masses_short_of_one()
    pac = pr.PacConfig(epsilon=0.0, alpha=0.3, threshold_grid=(0.05,))
    assert pr.exact_deferral_mass(w, 0.05) == 1.0
    rep = demo_with_replications(w, loss01, pac, 0.25, 0.01, 100, _demo_mc(200))
    assert rep.base_audit.max_fast_prob == 0.0
    assert rep.deferral_mass_mean == 1.0
    assert rep.verdicts["nontrivial"] is False


def test_trace_rows(w1, loss01):
    taus = np.array([0.5, -np.inf])
    text = "".join(trace_blocks(w1, loss01, [0.4, 0.9], taus))
    assert text == (
        "0,0.4,0.5,0,0\r\n"
        "0,0.9,0.5,1,0\r\n"
        "1,0.4,ALWAYS_DEFER,1,0\r\n"
        "1,0.9,ALWAYS_DEFER,1,0\r\n"
    )


@st.composite
def trace_inputs(draw):
    """A world, audit points, a lane prefix and per-replication thresholds.

    The thresholds come from -inf, the cell scores (ties route fast) and
    arbitrary floats; the replication count sits at 1 or next to a block edge.
    """
    w = draw(world_strategy())
    mids = [(c.left + c.right) / 2.0 for c in w.cells]
    points = draw(st.lists(st.sampled_from(mids) | st.floats(0.0, 1.0), min_size=1, max_size=40))
    scores = [c.score for c in w.cells]
    distinct = draw(st.lists(
        st.just(-np.inf) | st.sampled_from(scores) | st.floats(-6.0, 6.0),
        min_size=1, max_size=6,
    ))
    per_block = max(1, TRACE_BLOCK_ROWS // len(points))
    replications = draw(st.sampled_from([1, per_block - 1, per_block, per_block + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taus = np.array(distinct)[rng.integers(len(distinct), size=replications)]
    lane = draw(st.sampled_from([None, "base", "perturbed"]))
    return w, points, taus, lane


@given(trace_inputs())
@settings(max_examples=40, deadline=None)
def test_trace_blocks_match_csv_writer(inputs):
    w, points, taus, lane = inputs
    loss = pr.LossSpec(kind="zero_one", epsilon=0.0)
    prefix = "" if lane is None else f"{lane},"
    blocks = list(trace_blocks(w, loss, points, taus, prefix=prefix))
    assert "".join(blocks) == csv_trace_text(w, loss, points, taus, lane)
    # whole replications per block, at most TRACE_BLOCK_ROWS rows each
    rows = [b.count("\r\n") for b in blocks]
    assert all(r % len(points) == 0 for r in rows)
    assert all(r <= max(TRACE_BLOCK_ROWS, len(points)) for r in rows)
    per_block = max(1, TRACE_BLOCK_ROWS // len(points))
    assert len(blocks) == -(-len(taus) // per_block)


def test_trace_tells_zero_from_negative_zero(w1, loss01):
    # the two zeros are equal as thresholds but are written differently
    taus = np.array([-0.0, 0.0, -0.0, 0.5, 0.0])
    text = "".join(trace_blocks(w1, loss01, [0.25], taus))
    assert text == csv_trace_text(w1, loss01, [0.25], taus)


def test_trace_blocks_across_index_width_and_block_edges(w1, loss01):
    # 10001 replications cross the 9999 -> 10000 index width and many block edges
    points = default_audit_points(w1)
    taus = np.resize([0.5, -np.inf, 0.95], 10_001)
    text = "".join(trace_blocks(w1, loss01, points, taus, prefix="perturbed,"))
    assert text == csv_trace_text(w1, loss01, points, taus, "perturbed")


def test_trace_formats_each_distinct_threshold_once(w1, loss01, monkeypatch):
    calls = []

    def counting(tau):
        calls.append(tau)
        return encode_threshold(tau)

    monkeypatch.setattr(simulate, "encode_threshold", counting)
    taus = np.resize([0.5, -np.inf, 0.95, 0.7], 20_000)
    for _ in trace_blocks(w1, loss01, default_audit_points(w1), taus):
        pass
    assert sorted(calls) == [-np.inf, 0.5, 0.7, 0.95]


def test_trace_memory_does_not_grow_with_replications(w1, loss01):
    points = default_audit_points(w1)

    def peak(reps):
        taus = np.resize([0.5, -np.inf, 0.95], reps)
        tracemalloc.start()
        try:
            for _ in trace_blocks(w1, loss01, points, taus):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2_000), peak(20_000)
    # one block of text, never the trace: 20000 replications write about 11 MB
    assert large - small <= 256 * 2**10
    assert large <= 4 * 2**20


def test_audit_points_forwarded_in_demo(w1, loss01, pac_w1):
    mc = McConfig(replications=50, master_seed=1, audit_points=(0.1, 0.4, 0.95))
    blocks = []
    rep = demo_with_replications(w1, loss01, pac_w1, 0.4, 0.01, 50, mc, trace=blocks.extend)
    points = [p.x for p in rep.base_audit.points]
    assert points[0] == 0.4
    assert set(points) == {0.1, 0.4, 0.95}
    rows = "".join(blocks).splitlines()
    assert len(rows) == 2 * 50 * 3
    assert all(row.startswith("base,") for row in rows[:150])
    assert [p.x for p in rep.perturbed_audit.points] == points


def test_demo_drops_x_star_rounding_twin(w1, loss01, pac_w1):
    # the default grid holds np.linspace's 0.35000000000000003, not 0.35
    rep = demo_with_replications(w1, loss01, pac_w1, 0.35, 0.01, 50, _demo_mc(20))
    points = [p.x for p in rep.base_audit.points]
    assert points[0] == 0.35
    assert min(abs(p - 0.35) for p in points[1:]) > 1e-12
    assert len(points) == len(default_audit_points(w1))


def test_demo_drops_configured_twins(w1, loss01, pac_w1):
    # a configured twin of x_star, and of another configured point, goes
    mc = McConfig(replications=20, master_seed=1,
                  audit_points=(0.9, 0.35000000000000003, 0.1, 0.1 + 1e-13))
    rep = demo_with_replications(w1, loss01, pac_w1, 0.35, 0.01, 50, mc)
    assert [p.x for p in rep.base_audit.points] == [0.35, 0.9, 0.1]
    assert [p.x for p in rep.perturbed_audit.points] == [0.35, 0.9, 0.1]
