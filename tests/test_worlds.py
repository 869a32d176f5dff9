import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pacroute as pr
from pacroute._kernels import cell_indices
from pacroute.worlds import cell_index_at, json_number, world_from_dict

from conftest import corpus, make_w1, world_strategy, world_to_dict


def test_validate_accepts_w1():
    assert pr.validate_world(make_w1()) == []


def test_validate_accepts_corpus():
    for w in corpus():
        assert pr.validate_world(w) == []


def test_validate_rejects_bad_total_mass():
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.6, 0, 0, 0.1),
            pr.Cell(0.5, 1.0, 0.6, 0, 0, 0.2),
        ),
        alphabet_size=2,
    )
    violations = pr.validate_world(w)
    assert len(violations) == 1
    assert "total mass" in violations[0]


def test_validate_rejects_gap():
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.5, 0, 0, 0.1),
            pr.Cell(0.6, 1.0, 0.5, 0, 0, 0.2),
        ),
        alphabet_size=2,
    )
    violations = pr.validate_world(w)
    assert len(violations) == 1
    assert "gap" in violations[0]


def test_validate_rejects_label_outside_alphabet():
    w = pr.CellWorld(
        cells=(pr.Cell(0.0, 1.0, 1.0, 5, 0, 0.1),), alphabet_size=2
    )
    assert any("label" in v for v in pr.validate_world(w))


def test_validate_rejects_tiny_alphabet():
    w = pr.CellWorld(cells=(pr.Cell(0.0, 1.0, 1.0, 0, 0, 0.1),), alphabet_size=1)
    assert any("alphabet_size" in v for v in pr.validate_world(w))


def test_validate_rejects_cell_without_inner_midpoint():
    # no float lies strictly inside the middle cell, so its midpoint rounds
    # to 0.99, which the last cell owns
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.9899999999999999, 0.4, 0, 0, 0.1),
            pr.Cell(0.9899999999999999, 0.99, 0.2, 0, 0, 0.2),
            pr.Cell(0.99, 1.0, 0.4, 0, 0, 0.3),
        ),
        alphabet_size=2,
    )
    violations = pr.validate_world(w)
    assert len(violations) == 1
    assert violations[0].startswith("cell 1: midpoint")


def test_cell_at_containment_and_conventions(w1):
    assert pr.cell_at(w1, 0.4) is w1.cells[0]
    # boundary point belongs to the right cell (half-open convention)
    assert pr.cell_at(w1, 0.8) is w1.cells[1]
    # x = 1 is owned by the last cell
    assert pr.cell_at(w1, 1.0) is w1.cells[1]
    assert pr.cell_at(w1, 0.0) is w1.cells[0]


def test_cell_at_domain_error(w1):
    with pytest.raises(ValueError):
        pr.cell_at(w1, -0.1)
    with pytest.raises(ValueError):
        pr.cell_at(w1, 1.1)


def test_interval_mass_uniform():
    w = pr.CellWorld(cells=(pr.Cell(0.0, 1.0, 1.0, 0, 0, 0.0),), alphabet_size=2)
    assert pr.interval_mass(w, 0.3, 0.5) == pytest.approx(0.2, abs=1e-15)


def test_interval_mass_empty_interval(w1):
    assert pr.interval_mass(w1, 0.37, 0.37) == 0.0


def test_interval_mass_across_cells(w1):
    # density 1 on [0,0.8), density 1 on [0.8,1]: 0.8*(0.1/0.8) + 0.2*(0.1/0.2)
    assert pr.interval_mass(w1, 0.7, 0.9) == pytest.approx(0.2, abs=1e-15)


def test_interval_mass_domain_error(w1):
    with pytest.raises(ValueError):
        pr.interval_mass(w1, 0.5, 0.4)


def test_split_uniform_world_halves():
    w = pr.CellWorld(cells=(pr.Cell(0.0, 1.0, 1.0, 1, 0, 0.7),), alphabet_size=2)
    s = pr.split_at(w, [0.5])
    assert len(s.cells) == 2
    assert s.cells[0].mass == pytest.approx(0.5, abs=1e-15)
    assert s.cells[1].mass == pytest.approx(0.5, abs=1e-15)
    for c in s.cells:
        assert (c.expert_label, c.fast_label, c.score) == (1, 0, 0.7)


def test_split_at_existing_boundary_is_noop(w1):
    s = pr.split_at(w1, [0.8])
    assert len(s.cells) == len(w1.cells)
    assert s == w1
    assert pr.split_at(w1, []) is w1


def test_split_drops_cut_next_to_an_edge():
    w = pr.CellWorld(
        cells=(pr.Cell(0.0, 0.99, 0.5, 0, 0, 0.1), pr.Cell(0.99, 1.0, 0.5, 1, 0, 0.9)),
        alphabet_size=2,
    )
    # one ulp below the edge at 0.99: the piece between would own no midpoint
    s = pr.split_at(w, [0.9899999999999999, 0.4])
    assert [c.left for c in s.cells] == [0.0, 0.4, 0.99]
    assert pr.validate_world(s) == []


def test_split_preserves_interval_mass(w1):
    s = pr.split_at(w1, [0.4])
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = sorted(rng.random(2))
        assert pr.interval_mass(s, a, b) == pytest.approx(
            pr.interval_mass(w1, a, b), abs=1e-15
        )


def test_split_conserves_total_mass_exactly(w1):
    s = pr.split_at(w1, [0.123456, 0.4, 0.81])
    assert float(np.sum(s.masses)) == float(np.sum(w1.masses))
    assert pr.validate_world(s) == []


def test_sampling_is_deterministic(w1):
    a = pr.sample_calibration(w1, 50, 42)
    b = pr.sample_calibration(w1, 50, 42)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.ys, b.ys)
    c = pr.sample_calibration(w1, 50, 43)
    assert not np.array_equal(a.xs, c.xs)


def test_sampling_labels_are_deterministic_per_cell():
    w = pr.CellWorld(cells=(pr.Cell(0.0, 1.0, 1.0, 3, 0, 0.0),), alphabet_size=4)
    d = pr.sample_calibration(w, 200, 0)
    assert np.all(d.ys == 3)


def test_sampling_labels_match_cell_at(w1):
    d = pr.sample_calibration(w1, 1000, 11)
    for x, y in zip(d.xs, d.ys):
        assert pr.cell_at(w1, float(x)).expert_label == y


def test_sampling_tail_frequency(w1):
    d = pr.sample_calibration(w1, 100_000, 7)
    frac = float(np.mean(d.xs >= 0.8))
    # 3 binomial standard errors at p=0.2, n=1e5
    assert abs(frac - 0.2) <= 0.003794733192202056


def test_sampling_cell_frequencies_across_corpus():
    for w in corpus():
        d = pr.sample_calibration(w, 100_000, 5)
        idx = np.minimum(
            np.searchsorted(w.lefts, d.xs, side="right") - 1, len(w.cells) - 1
        )
        freq = np.bincount(idx, minlength=len(w.cells)) / 100_000
        for k, c in enumerate(w.cells):
            se = math.sqrt(c.mass * (1 - c.mass) / 100_000)
            assert abs(freq[k] - c.mass) <= 4 * se + 1e-12


def test_sample_requires_positive_n(w1):
    with pytest.raises(ValueError):
        pr.sample_calibration(w1, 0, 1)


@pytest.mark.parametrize("xs, ys", [([0.1, 0.2], [0]), ([[0.1]], [[0]])], ids=["length", "2-d"])
def test_calibration_set_refuses_mismatched_arrays(xs, ys):
    with pytest.raises(ValueError, match="1-d arrays of equal length"):
        pr.CalibrationSet(xs=np.array(xs), ys=np.array(ys))


def test_sample_accepts_seed_sequence(w1):
    seq = np.random.SeedSequence(entropy=5, spawn_key=(1, 2))
    a = pr.sample_calibration(w1, 20, seq)
    b = pr.sample_calibration(w1, 20, np.random.SeedSequence(entropy=5, spawn_key=(1, 2)))
    assert np.array_equal(a.xs, b.xs)


def test_normalized_masses_sum_to_one():
    m = pr.normalized_masses([3, 1, 2, 2])
    assert sum(m) == pytest.approx(1.0, abs=1e-15)
    assert all(x >= 0 for x in m)


@pytest.mark.parametrize("weights, message", [
    ([], "nonempty"),
    ([-1, 2], "nonnegative"),
    ([0, 0], "positive sum"),
])
def test_normalized_masses_refusals(weights, message):
    with pytest.raises(ValueError, match=message):
        pr.normalized_masses(weights)


def test_world_json_roundtrip(w1):
    again = world_from_dict(world_to_dict(w1))
    assert again == w1


def test_world_from_dict_rejects_invalid():
    d = world_to_dict(make_w1())
    d["cells"][0]["mass"] = 0.9
    with pytest.raises(pr.WorldValidationError) as err:
        world_from_dict(d)
    assert any("total mass" in v for v in err.value.violations)


@pytest.mark.parametrize(
    "key, value",
    [
        ("left", "0"), ("right", True), ("mass", "0.8"), ("mass", None),
        ("score", [0.1]), ("score", False),
        ("expert", 1.7), ("expert", "1"), ("fast", True), ("fast", float("nan")),
        ("alphabet_size", "2"), ("alphabet_size", 2.5),
    ],
)
def test_world_from_dict_refuses_non_numbers(key, value):
    d = world_to_dict(make_w1())
    (d if key == "alphabet_size" else d["cells"][1])[key] = value
    with pytest.raises(pr.WorldValidationError) as err:
        world_from_dict(d)
    noun = "a number" if key in ("left", "right", "mass", "score") else "an integer"
    assert err.value.violations == [
        f"malformed world object: {'' if key == 'alphabet_size' else 'cell 1: '}"
        f"{key} must be {noun}, got {value!r}"
    ]


def test_world_from_dict_accepts_integral_float_labels(w1):
    d = world_to_dict(w1)
    d["alphabet_size"] = 2.0
    d["cells"][1]["expert"] = 1.0
    again = world_from_dict(d)
    assert again == w1
    assert type(again.cells[1].expert_label) is int


@pytest.mark.parametrize(
    "value, kind, expected",
    [(100.0, int, 100), (-(2.0**53), int, -(2**53)), (2**60, int, 2**60), (1, float, 1.0),
     (float("inf"), float, float("inf"))],
)
def test_json_number_accepts(value, kind, expected):
    got = json_number(value, kind, "f")
    assert got == expected
    assert type(got) is kind


@pytest.mark.parametrize(
    "value, kind",
    [(True, float), (False, int), ("1", float), (None, int), ([1], float), (1.5, int),
     (float("nan"), int), (2.0**53 + 2, int), (10**400, float), (10**400, int)],
)
def test_json_number_refuses(value, kind):
    with pytest.raises(ValueError, match="^f (must|written)"):
        json_number(value, kind, "f")


# ---------------------------------------------------------------------------
# property tests

_weights = st.lists(
    st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=6
).filter(lambda ws: sum(ws) > 0.1)


@given(world_strategy())
@settings(max_examples=60, deadline=None)
def test_random_worlds_validate(w):
    assert pr.validate_world(w) == []


@given(world_strategy())
@settings(max_examples=60, deadline=None)
def test_mass_conservation(w):
    assert pr.interval_mass(w, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


@given(
    world_strategy(),
    st.floats(0, 1),
    st.floats(0, 1),
    st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_interval_mass_additivity(w, p, q, r):
    a, b, c = sorted((p, q, r))
    lhs = pr.interval_mass(w, a, c)
    rhs = pr.interval_mass(w, a, b) + pr.interval_mass(w, b, c)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(
    world_strategy(),
    st.lists(st.floats(0.01, 0.99, allow_nan=False), min_size=1, max_size=4),
    st.floats(0, 1),
    st.floats(0, 1),
)
@settings(max_examples=60, deadline=None)
def test_split_preserves_measure_and_pointwise_data(w, points, a, b):
    a, b = min(a, b), max(a, b)
    s = pr.split_at(w, points)
    assert pr.interval_mass(s, a, b) == pytest.approx(
        pr.interval_mass(w, a, b), abs=1e-12
    )
    for x in (0.0, 0.137, 0.5, 0.861, 1.0):
        if any(math.isclose(x, p) for p in points):
            continue
        before = pr.cell_at(w, x)
        after = pr.cell_at(s, x)
        assert (before.expert_label, before.fast_label, before.score) == (
            after.expert_label,
            after.fast_label,
            after.score,
        )


@given(world_strategy(), st.integers(1, 50), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sampled_labels_match_world(w, n, seed):
    d = pr.sample_calibration(w, n, seed)
    for x, y in zip(d.xs, d.ys):
        assert pr.cell_at(w, float(x)).expert_label == y


@given(world_strategy())
@settings(max_examples=40, deadline=None)
def test_cell_index_lookup_consistent(w):
    # each cell owns its left edge, its midpoint and the float just below its
    # right edge; the last cell owns x = 1.0
    points, owners = [1.0], [w.n_cells - 1]
    for i, c in enumerate(w.cells):
        points += [c.left, (c.left + c.right) / 2, float(np.nextafter(c.right, c.left))]
        owners += [i] * 3
    assert [cell_index_at(w, x) for x in points] == owners
    assert cell_indices(w.rights, np.array(points)).tolist() == owners
