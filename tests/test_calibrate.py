import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacroute as pr
from pacroute import calibrate
from pacroute._kernels import cell_indices
from pacroute.calibrate import binomial_pvalue_table, max_rejectable_count, select_threshold
from pacroute.risk import ALWAYS_DEFER

from conftest import make_distinct_scores, make_three_cell, make_w1, world_strategy
from oracles import (
    auto_threshold_grid,
    binomial_pvalue,
    empirical_exceedances,
    max_rejectable_count_scan,
    select_threshold_loop,
)

# closed forms computed independently: (1-t)^n for the zero-count tail
PV_0_10_005 = 0.5987369392383787  # 0.95**10
PV_0_100_005 = 0.0059205292203339975  # 0.95**100


def test_pvalue_full_tail_is_exactly_one():
    assert binomial_pvalue(10, 10, 0.05) == 1.0
    assert binomial_pvalue(100, 100, 0.7) == 1.0


def test_pvalue_zero_count_closed_form():
    assert binomial_pvalue(0, 10, 0.05) == pytest.approx(PV_0_10_005, rel=1e-12)
    assert binomial_pvalue(0, 100, 0.05) == pytest.approx(PV_0_100_005, rel=1e-12)


def test_pvalue_validates_inputs():
    with pytest.raises(ValueError):
        binomial_pvalue(0, 10, 0.0)
    with pytest.raises(ValueError):
        binomial_pvalue(0, 10, 1.0)
    with pytest.raises(ValueError):
        binomial_pvalue(11, 10, 0.5)
    with pytest.raises(ValueError):
        binomial_pvalue(-1, 10, 0.5)
    with pytest.raises(ValueError, match="n must be >= 1"):
        binomial_pvalue_table(0, 0.5)


def test_pvalue_nondecreasing_in_count():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        t = float(rng.uniform(0.01, 0.99))
        table = [binomial_pvalue(b, n, t) for b in range(n + 1)]
        assert all(a <= b for a, b in zip(table, table[1:]))
        assert all(0.0 < p <= 1.0 for p in table)


def test_pvalue_nonincreasing_in_n():
    rng = np.random.default_rng(1)
    for _ in range(200):
        b = int(rng.integers(0, 20))
        n = int(rng.integers(b + 1, b + 100))
        t = float(rng.uniform(0.01, 0.99))
        assert binomial_pvalue(b, n + 1, t) <= binomial_pvalue(b, n, t) + 1e-15


def test_max_rejectable_count_matches_pvalue_rule():
    for n, t, delta in [(100, 0.05, 0.05), (6, 0.45, 0.05), (50, 0.2, 0.01)]:
        b_star = max_rejectable_count(n, t, delta)
        for b in range(n + 1):
            assert (b <= b_star) == (binomial_pvalue(b, n, t) <= delta)


_open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@given(st.integers(1, 2000), _open_unit, _open_unit, st.data())
@settings(max_examples=100, deadline=None)
def test_max_rejectable_count_matches_scan(n, t, delta, data):
    table = binomial_pvalue_table(n, t)
    # a delta equal to a table entry is where "<=" and "<" part
    at_entry = float(table[data.draw(st.integers(0, n))])
    for d in (delta, at_entry):
        if 0.0 < d < 1.0:
            assert max_rejectable_count(n, t, d) == max_rejectable_count_scan(n, t, d)


def test_pvalue_table_is_read_only():
    # the cache hands the same array to every caller
    table = binomial_pvalue_table(20, 0.3)
    assert table.dtype == np.float64 and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.5
    assert binomial_pvalue_table(20, 0.3) is table


def test_empirical_exceedances_none_below_tau(w1, loss01):
    # all samples in the high-score cell: indicator never fires at tau=0.5
    xs = np.linspace(0.81, 0.99, 10)
    ys = np.ones(10, dtype=np.int64)
    d = pr.CalibrationSet(xs=xs, ys=ys)
    assert empirical_exceedances(d, w1, loss01, 0.5) == 0


def test_empirical_exceedances_all_count(w1, loss01):
    xs = np.linspace(0.81, 0.99, 10)
    ys = np.ones(10, dtype=np.int64)
    d = pr.CalibrationSet(xs=xs, ys=ys)
    assert empirical_exceedances(d, w1, loss01, 1.0) == 10


def test_empirical_exceedances_hand_count(loss01):
    # cell A [0,0.5) agrees, score 0.9 (above tau); cell B [0.5,1] disagrees, score 0.3
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.5, 0, 0, 0.9),
            pr.Cell(0.5, 1.0, 0.5, 1, 0, 0.3),
        ),
        alphabet_size=2,
    )
    xs = np.array([0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.48, 0.6, 0.7, 0.8])
    ys = np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1], dtype=np.int64)
    d = pr.CalibrationSet(xs=xs, ys=ys)
    assert empirical_exceedances(d, w, loss01, 0.5) == 3


def test_empirical_exceedances_uses_set_labels_not_world(w1, loss01):
    # same x, relabeled y: the count must follow the data
    xs = np.array([0.4])
    agree = pr.CalibrationSet(xs=xs, ys=np.array([0], dtype=np.int64))
    relabeled = pr.CalibrationSet(xs=xs, ys=np.array([1], dtype=np.int64))
    assert empirical_exceedances(agree, w1, loss01, 0.5) == 0
    assert empirical_exceedances(relabeled, w1, loss01, 0.5) == 1


def test_empirical_exceedances_monotone_in_tau(w1, loss01):
    d = pr.sample_calibration(w1, 200, 3)
    taus = np.linspace(-1, 2, 31)
    counts = [empirical_exceedances(d, w1, loss01, float(t)) for t in taus]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_select_threshold_w1_canonical(w1, loss01, pac_w1):
    d = pr.sample_calibration(w1, 100, 7)
    out = select_threshold(d, w1, loss01, pac_w1)
    assert out.tau_hat == 0.5
    assert out.n == 100
    assert [t.rejected for t in out.tested] == [True, False]
    assert out.tested[0].exceedances == 0
    assert out.tested[0].p_value == pytest.approx(PV_0_100_005, rel=1e-12)
    assert out.tested[1].p_value > 0.99


def test_select_threshold_small_n_defers(w1, loss01):
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=(0.5,))
    d = pr.sample_calibration(w1, 10, 7)
    out = select_threshold(d, w1, loss01, pac)
    # zero exceedances but 0.95**10 ~ 0.599 > delta: nothing rejected
    assert out.tau_hat is ALWAYS_DEFER
    assert out.tested[0].exceedances == 0
    assert not out.tested[0].rejected


def test_select_threshold_zero_loss_world_saturates(loss01):
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.5, 0, 0, 0.2),
            pr.Cell(0.5, 1.0, 0.5, 1, 1, 0.8),
        ),
        alphabet_size=2,
    )
    pac = pr.PacConfig(
        epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=(0.3, 0.9)
    )
    d = pr.sample_calibration(w, 100, 21)
    out = select_threshold(d, w, loss01, pac)
    assert out.tau_hat == 0.9
    assert all(t.rejected for t in out.tested)


def test_select_threshold_rejections_are_a_prefix(loss01):
    w = make_three_cell()
    pac = pr.PacConfig(
        epsilon=0.0, alpha=0.5, delta_split=0.05, threshold_grid=(0.15, 0.5)
    )
    for seed in range(40):
        d = pr.sample_calibration(w, 6, seed)
        out = select_threshold(d, w, loss01, pac)
        flags = [t.rejected for t in out.tested]
        assert flags == sorted(flags, reverse=True)
        if any(flags):
            assert out.tau_hat == out.tested[sum(flags) - 1].tau
        else:
            assert out.tau_hat is ALWAYS_DEFER


def test_select_threshold_safety_with_early_exceedance(loss01):
    # one bad point at the smallest grid tau with n too small to reject
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.5, 1, 0, 0.1),
            pr.Cell(0.5, 1.0, 0.5, 0, 0, 0.9),
        ),
        alphabet_size=2,
    )
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=(0.2,))
    xs = np.array([0.25, 0.6, 0.7, 0.8, 0.9, 0.95, 0.65, 0.55, 0.85, 0.75])
    ys = np.array([1, 0, 0, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64)
    out = select_threshold(pr.CalibrationSet(xs=xs, ys=ys), w, loss01, pac)
    assert out.tau_hat is ALWAYS_DEFER


TABLE_LOSS = pr.LossSpec(kind="table", epsilon=0.5, table=(
    (0, 1, 0.5, 2), (1, 0, 0.2, 1), (0.7, 1, 0, 0.5), (2, 0.5, 1, 0)))


@settings(max_examples=200, deadline=None)
@given(
    world_strategy(score=st.sampled_from((-0.5, 0.1, 0.5, 0.9))),
    st.sampled_from((pr.LossSpec(kind="zero_one", epsilon=0.5), TABLE_LOSS)),
    st.one_of(st.none(), st.lists(st.sampled_from((-1.0, 0.1, 0.3, 0.5, 0.9, 2.0)),
                                  min_size=1, max_size=4, unique=True).map(sorted).map(tuple)),
    st.sampled_from((0.1, 0.5, 0.8)),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
)
def test_select_threshold_matches_loop(w, loss, grid, alpha, n, seed):
    # one count per threshold from the sorted bad scores, against one pass
    # over the set per threshold; the labels are the set's, not the world's
    pac = pr.PacConfig(epsilon=0.5, alpha=alpha, threshold_grid=grid)
    d = pr.sample_calibration(w, n, seed)
    d = pr.CalibrationSet(xs=d.xs, ys=np.random.default_rng(seed).permutation(d.ys))
    out = select_threshold(d, w, loss, pac)
    assert out == select_threshold_loop(d, w, loss, pac)
    assert (out.tau_hat is ALWAYS_DEFER) == (out.tau_hat == ALWAYS_DEFER)


@pytest.mark.parametrize("grid, world_tau", [((0.5, 0.95), 0.95), (None, 1.1)],
                         ids=["fixed", "auto"])
def test_select_threshold_counts_the_set_labels(w1, loss01, grid, world_tau):
    # two points in the demo's relabeled ball carry its bad label; w1 calls
    # their cell good, so the walk on w1's own labels counts no bad point
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=grid)
    spec, _ = pr.perturb(w1, loss01, 0.4, 0.01, 100)
    xs = np.append(np.linspace(0.05, 0.3, 98), [0.4, 0.4 + spec.radius / 2])
    ys = np.append(np.zeros(98, dtype=np.int64), [spec.adversarial_label] * 2)
    d = pr.CalibrationSet(xs=xs, ys=ys)
    walk = calibrate._walk(w1, loss01, pac, 100, "calibrated")
    assert walk[0] == 1  # b*: two bad points are one too many
    out = select_threshold(d, w1, loss01, pac)
    assert out == select_threshold_loop(d, w1, loss01, pac)
    assert out.tau_hat is ALWAYS_DEFER and out.tested[0].exceedances == 2
    counts = np.bincount(cell_indices(w1.rights, xs), minlength=w1.n_cells)
    assert calibrate._select(pac, walk, counts[None]).tolist() == [world_tau]


def test_auto_grid_threshold_stays_below_the_next_score(loss01):
    # the scores are one ulp apart, so their midpoint rounds up onto the bad
    # cell's score; the walk counts that cell from its own position on
    a = float(np.nextafter(0.5, 1.0))
    b = float(np.nextafter(a, 1.0))
    assert (a + b) / 2.0 == b
    w = pr.CellWorld(cells=(pr.Cell(0.0, 0.8, 0.8, 0, 0, a), pr.Cell(0.8, 1.0, 0.2, 1, 0, b)),
                     alphabet_size=2)
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=None)
    d = pr.CalibrationSet(xs=np.repeat([0.5, 0.9], [90, 10]), ys=np.repeat([0, 1], [90, 10]))
    out = select_threshold(d, w, loss01, pac)
    assert out == select_threshold_loop(d, w, loss01, pac)
    assert out.tau_hat == a
    assert [t.exceedances for t in out.tested] == [
        empirical_exceedances(d, w, loss01, t.tau) for t in out.tested]
    assert pr.enumerate_distribution(w, loss01, pac, 100, pr.JOINT).value <= pac.alpha


def test_select_threshold_is_not_grid_times_n():
    # 2000 distinct scores, auto grid, n = 20000: about 1500 thresholds tested
    w = make_distinct_scores(2000)
    pac = pr.PacConfig(epsilon=0.0, alpha=0.5, threshold_grid=None)
    d = pr.sample_calibration(w, 20000, 11)
    start = time.perf_counter()
    out = select_threshold(d, w, pr.LossSpec(kind="zero_one", epsilon=0.0), pac)
    assert time.perf_counter() - start < 0.5
    assert len(out.tested) > 1000


def test_select_threshold_rejects_empty_set(w1, loss01, pac_w1):
    empty = pr.CalibrationSet(xs=np.array([]), ys=np.array([], dtype=np.int64))
    with pytest.raises(ValueError):
        select_threshold(empty, w1, loss01, pac_w1)
    with pytest.raises(ValueError, match="empty"):
        empirical_exceedances(empty, w1, loss01, 0.5)


def test_select_threshold_epsilon_mismatch(w1, pac_w1):
    loss = pr.LossSpec(kind="zero_one", epsilon=0.5)
    d = pr.sample_calibration(w1, 10, 0)
    with pytest.raises(ValueError):
        select_threshold(d, w1, loss, pac_w1)


def test_auto_grid_midpoints_plus_top():
    grid = auto_threshold_grid([0.1, 0.9, 0.1, 0.9])
    assert grid == (0.5, 1.9)
    assert auto_threshold_grid([0.3]) == (1.3,)
    with pytest.raises(ValueError, match="no observed scores"):
        auto_threshold_grid([])


def test_auto_grid_used_when_config_grid_absent(w1, loss01):
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=None)
    d = pr.sample_calibration(w1, 100, 7)
    out = select_threshold(d, w1, loss01, pac)
    # observed scores {0.1, 0.9} -> grid (0.5, 1.9); only 0.5 is rejected
    assert out.tau_hat == 0.5
    assert [t.tau for t in out.tested] == [0.5, 1.9]


def test_trivial_algorithm(w1, loss01):
    tau = pr.ALWAYS_DEFER
    assert tau is ALWAYS_DEFER and tau == float("-inf")
    # every score exceeds it, so every input goes to the expert and none is hurt
    for x in (0.0, 0.3, 0.9, 1.0):
        assert pr.cell_at(w1, x).score > tau
    assert pr.exact_miscoverage(w1, loss01, tau) == 0.0
    assert pr.exact_deferral_mass(w1, tau) == 1.0


def test_pac_config_default_delta_split():
    pac = pr.PacConfig(epsilon=0.0, alpha=0.1)
    assert pac.delta_split == 0.05
    assert pac.test_level == pytest.approx(0.05)
    explicit = pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.02)
    assert explicit.delta_split == 0.02


def test_pac_config_validation():
    pr.PacConfig(epsilon=0.0, alpha=1.0, delta_split=0.05)  # vacuous but legal
    with pytest.raises(ValueError):
        pr.PacConfig(epsilon=0.0, alpha=1.5, delta_split=0.05)
    with pytest.raises(ValueError):
        pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.1)
    with pytest.raises(ValueError):
        pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.0)
    with pytest.raises(ValueError):
        pr.PacConfig(epsilon=-1.0, alpha=0.1, delta_split=0.05)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        pr.PacConfig(epsilon=math.nan, alpha=0.1, delta_split=0.05)
    with pytest.raises(ValueError):
        pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=(0.5, 0.5))
    with pytest.raises(ValueError):
        pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=())


@pytest.mark.parametrize(
    "grid", [(math.nan,), (math.inf,), (0.1, math.inf)], ids=["nan", "inf", "tail_inf"]
)
def test_pac_config_rejects_non_finite_grid(grid):
    with pytest.raises(ValueError, match="finite"):
        pr.PacConfig(epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=grid)
