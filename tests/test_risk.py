import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacroute as pr
from pacroute.adversary import choose_adversarial_label
from pacroute.risk import ALWAYS_DEFER, cell_exceedance_flags

from conftest import corpus, make_masses_short_of_one, world_strategy
from oracles import empirical_exceedances, exceeds_scalar, pointwise_risk_scalar


def test_exact_miscoverage_w1(w1, loss01):
    assert pr.exact_miscoverage(w1, loss01, 0.5) == 0.0
    assert pr.exact_miscoverage(w1, loss01, 1.0) == pytest.approx(0.2, abs=1e-15)
    # a threshold equal to the bad cell's score routes it fast: ties go fast
    assert pr.exact_miscoverage(w1, loss01, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert pr.exact_miscoverage(w1, loss01, ALWAYS_DEFER) == 0.0


def test_exact_deferral_mass_w1(w1):
    assert pr.exact_deferral_mass(w1, 0.5) == pytest.approx(0.2, abs=1e-15)
    assert pr.exact_deferral_mass(w1, ALWAYS_DEFER) == 1.0
    assert pr.exact_deferral_mass(w1, 0.9) == 0.0
    assert pr.exact_deferral_mass(w1, 2.0) == 0.0


def test_exact_deferral_mass_always_defer_is_exactly_one():
    # these masses sum to 1 - 1 ulp; the trivial router still defers with
    # probability exactly 1, so the demo's "nontrivial" verdict stays false
    w = make_masses_short_of_one()
    assert pr.validate_world(w) == []
    assert np.sum(w.masses) == 0.9999999999999999
    assert pr.exact_deferral_mass(w, ALWAYS_DEFER) == 1.0
    assert pr.exact_deferral_mass(w, np.float64("-inf")) == 1.0


@pytest.mark.parametrize("r", [0.05, 0.1 - 1e-12, -7.0])
def test_exact_deferral_mass_below_every_score_is_exactly_one(r):
    # a finite threshold below every score defers everything too
    assert pr.exact_deferral_mass(make_masses_short_of_one(), r) == 1.0


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        pr.LossSpec(kind="zero_one", epsilon=1.0)
    with pytest.raises(ValueError):
        pr.LossSpec(kind="zero_one", epsilon=-0.1)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        pr.LossSpec(kind="zero_one", epsilon=float("nan"))
    table = ((0.0, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError, match="epsilon must be finite"):
        pr.LossSpec(kind="table", epsilon=float("inf"), table=table)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match=r"loss table \[0\]\[1\] must be finite and >= 0"):
            pr.LossSpec(kind="table", epsilon=0.0, table=((0.0, bad), (1.0, 0.0)))
    with pytest.raises(ValueError):
        pr.LossSpec(kind="table", epsilon=0.0)
    with pytest.raises(ValueError):
        pr.LossSpec(kind="table", epsilon=0.0, table=((0.0, 1.0), (1.0, 0.5)))
    with pytest.raises(ValueError):
        pr.LossSpec(kind="nope", epsilon=0.0)


def test_table_loss_must_cover_alphabet():
    w = pr.CellWorld(cells=(pr.Cell(0.0, 1.0, 1.0, 2, 0, 0.5),), alphabet_size=3)
    small = pr.LossSpec(kind="table", epsilon=0.0, table=((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(ValueError, match="loss table is 2x2"):
        cell_exceedance_flags(w, small)
    # the adversary looks labels up in the table too
    with pytest.raises(ValueError, match="loss table is 2x2"):
        choose_adversarial_label(w, small, 0.5)
    with pytest.raises(ValueError, match="loss table is 2x2"):
        pr.perturb(w, small, 0.5, 0.01, 10)


def test_table_loss_lookup_order():
    loss = pr.LossSpec(
        kind="table", epsilon=0.0, table=((0.0, 2.0), (1.0, 0.0))
    )
    # value(prediction, truth) = table[prediction][truth]
    assert loss.value(0, 1) == 2.0
    assert loss.value(1, 0) == 1.0
    assert loss.value(1, 1) == 0.0


def test_monotonicity_over_corpus(loss01):
    rng = np.random.default_rng(17)
    for w in corpus():
        taus = np.sort(rng.uniform(-2, 2, size=25))
        mis = [pr.exact_miscoverage(w, loss01, float(t)) for t in taus]
        defer = [pr.exact_deferral_mass(w, float(t)) for t in taus]
        assert all(a <= b + 1e-15 for a, b in zip(mis, mis[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(defer, defer[1:]))


def test_miscoverage_bounded_by_disagreement_mass(loss01):
    rng = np.random.default_rng(5)
    for w in corpus():
        cap = float(np.sum(w.masses[cell_exceedance_flags(w, loss01)]))
        for _ in range(25):
            tau = float(rng.uniform(-2, 2))
            assert pr.exact_miscoverage(w, loss01, tau) <= cap + 1e-15


def test_miscoverage_matches_monte_carlo(loss01):
    # decomposition check: exact cell sum vs simulated frequency of risk > eps,
    # 100k draws, pointwise risk evaluated one x at a time
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.5, 0, 0, 0.1),
            pr.Cell(0.5, 0.8, 0.3, 1, 0, 0.2),
            pr.Cell(0.8, 1.0, 0.2, 1, 0, 0.9),
        ),
        alphabet_size=2,
    )
    for tau in (0.15, 0.5, 1.0):
        d = pr.sample_calibration(w, 100_000, 99)
        risks = np.fromiter(
            (pointwise_risk_scalar(w, loss01, tau, float(x)) for x in d.xs),
            dtype=float,
            count=len(d),
        )
        freq = float(np.mean(risks > loss01.epsilon))
        exact = pr.exact_miscoverage(w, loss01, tau)
        se = np.sqrt(exact * (1 - exact) / 100_000)
        assert abs(freq - exact) <= max(4 * se, 1e-12)


@st.composite
def loss_strategy(draw, alphabet):
    """A zero-one or table loss that covers ``alphabet`` labels. Table entries
    often equal epsilon, where exceedance must stay strict."""
    epsilon = draw(st.floats(0.0, 0.99))
    if draw(st.booleans()):
        return pr.LossSpec(kind="zero_one", epsilon=epsilon)
    k = draw(st.integers(alphabet, alphabet + 1))
    entry = st.one_of(st.just(epsilon), st.floats(0.0, 2.0))
    table = tuple(
        tuple(0.0 if i == j else draw(entry) for j in range(k)) for i in range(k)
    )
    return pr.LossSpec(kind="table", epsilon=epsilon, table=table)


@given(world_strategy(), st.data())
@settings(max_examples=100, deadline=None)
def test_bad_cell_rules_match_scalar_reference(w, data):
    loss = data.draw(loss_strategy(w.alphabet_size))
    assert cell_exceedance_flags(w, loss).tolist() == [
        exceeds_scalar(loss, c.fast_label, c.expert_label) for c in w.cells
    ]
    # calibration labels drawn freely, as from a relabeled world
    m = data.draw(st.integers(1, 20))
    xs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    ys = data.draw(st.lists(st.integers(0, w.alphabet_size - 1), min_size=m, max_size=m))
    tau = data.draw(st.floats(-6.0, 6.0))
    cells = [pr.cell_at(w, x) for x in xs]
    d = pr.CalibrationSet(xs=np.array(xs), ys=np.array(ys, dtype=np.int64))
    assert empirical_exceedances(d, w, loss, tau) == sum(
        c.score <= tau and exceeds_scalar(loss, c.fast_label, y) for c, y in zip(cells, ys)
    )
    fast = cells[0].fast_label
    bad = [y for y in range(w.alphabet_size) if exceeds_scalar(loss, fast, y)]
    if not bad:
        with pytest.raises(ValueError, match="no label has loss"):
            choose_adversarial_label(w, loss, xs[0])
        return
    label = choose_adversarial_label(w, loss, xs[0])
    # zero-one takes the next label cyclically, a table the smallest bad one
    assert label == ((fast + 1) % w.alphabet_size if loss.kind == "zero_one" else bad[0])
    assert label in bad
