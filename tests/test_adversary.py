import numpy as np
import pytest

import pacroute as pr
from pacroute.adversary import choose_adversarial_label, find_radius
from pacroute.risk import cell_exceedance_flags
from pacroute.worlds import cell_index_at

from conftest import corpus, make_w1


def test_find_radius_uniform_world():
    w = pr.CellWorld(cells=(pr.Cell(0.0, 1.0, 1.0, 0, 0, 0.5),), alphabet_size=2)
    r, mass = find_radius(w, 0.5, 0.1, 10)
    assert r > 0
    assert mass < 0.1 / 20
    assert 2 * r < 0.005
    assert mass == pytest.approx(2 * r, abs=1e-15)


def test_find_radius_zero_density_neighborhood():
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.4, 0.5, 0, 0, 0.1),
            pr.Cell(0.4, 0.6, 0.0, 0, 0, 0.1),
            pr.Cell(0.6, 1.0, 0.5, 0, 0, 0.1),
        ),
        alphabet_size=2,
    )
    r, mass = find_radius(w, 0.5, 0.01, 100)
    # the first radius tried (0.1) already fits inside the zero-mass cell
    assert r == 0.1
    assert mass == 0.0


def test_find_radius_w1_canonical(w1):
    r, mass = find_radius(w1, 0.4, 0.01, 100)
    # local density 1: halving from 0.1 stops at 0.1/2**12
    assert r == 2.44140625e-05
    assert mass < 5e-05
    assert 2 * r < 5e-05
    assert mass == pytest.approx(4.8828125e-05, rel=1e-9)
    assert mass == pr.interval_mass(w1, 0.4 - r, 0.4 + r)


def test_find_radius_validates_inputs(w1):
    with pytest.raises(ValueError):
        find_radius(w1, 1.5, 0.1, 10)
    with pytest.raises(ValueError):
        find_radius(w1, 0.5, 0.0, 10)
    with pytest.raises(ValueError):
        find_radius(w1, 0.5, 0.1, 0)


def test_choose_adversarial_label_zero_one(w1, loss01):
    # fast label at 0.4 is 0, so the swap label is 1
    assert choose_adversarial_label(w1, loss01, 0.4) == 1


def test_choose_adversarial_label_table():
    w = pr.CellWorld(cells=(pr.Cell(0.0, 1.0, 1.0, 0, 0, 0.5),), alphabet_size=3)
    loss = pr.LossSpec(
        kind="table",
        epsilon=0.5,
        table=((0.0, 0.2, 0.9), (0.2, 0.0, 0.1), (0.9, 0.1, 0.0)),
    )
    # row 0: only label 2 exceeds 0.5
    assert choose_adversarial_label(w, loss, 0.5) == 2
    saturated = pr.LossSpec(
        kind="table",
        epsilon=1.0,
        table=((0.0, 0.2, 0.9), (0.2, 0.0, 0.1), (0.9, 0.1, 0.0)),
    )
    with pytest.raises(pr.DemoPreconditionError, match=r"fast label 0 at x_star=0\.5;"):
        choose_adversarial_label(w, saturated, 0.5)


def test_perturb_keeps_marginal(w1, loss01):
    _, p = pr.perturb(w1, loss01, 0.4, 0.01, 100)
    rng = np.random.default_rng(8)
    for _ in range(100):
        a, b = sorted(rng.random(2))
        assert pr.interval_mass(p, a, b) == pytest.approx(
            pr.interval_mass(w1, a, b), abs=1e-12
        )


def test_perturb_swaps_label_at_center(w1, loss01):
    spec, p = pr.perturb(w1, loss01, 0.4, 0.01, 100)
    assert pr.cell_at(p, 0.4).expert_label == spec.adversarial_label
    # the center, routed fast at 0.5 in both worlds, turns from good to bad,
    # and the exact miscoverage at 0.5 grows from 0 by the ball's mass
    assert pr.cell_at(w1, 0.4).score <= 0.5 and pr.cell_at(p, 0.4).score <= 0.5
    assert not cell_exceedance_flags(w1, loss01)[cell_index_at(w1, 0.4)]
    assert cell_exceedance_flags(p, loss01)[cell_index_at(p, 0.4)]
    assert pr.exact_miscoverage(w1, loss01, 0.5) == 0.0
    assert pr.exact_miscoverage(p, loss01, 0.5) == pytest.approx(spec.ball_mass, abs=1e-15)


def test_perturb_noop_outside_ball(w1, loss01):
    spec, p = pr.perturb(w1, loss01, 0.4, 0.01, 100)
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = float(rng.random())
        if abs(x - 0.4) <= spec.radius:
            continue
        a = pr.cell_at(w1, x)
        b = pr.cell_at(p, x)
        assert (a.expert_label, a.fast_label, a.score) == (
            b.expert_label,
            b.fast_label,
            b.score,
        )


def test_perturb_preserves_validity_and_scores(loss01):
    for w in corpus():
        bad = cell_exceedance_flags(w, loss01)
        # pick a point in an agreeing cell if one exists
        x_star = None
        for c, is_bad in zip(w.cells, bad):
            if not is_bad and c.mass > 0:
                x_star = (c.left + c.right) / 2
                break
        if x_star is None:
            continue
        _, p = pr.perturb(w, loss01, x_star, 0.05, 25)
        assert pr.validate_world(p) == []
        assert p.alphabet_size == w.alphabet_size


def test_perturb_refuses_ball_that_misses_x_star(loss01):
    # 0.5 +- radius rounds to 0.5, so the light enough ball holds no cell piece
    w = pr.CellWorld(cells=(
        pr.Cell(0.0, 0.499999999999999, 0.05, 0, 0, 0.1),
        pr.Cell(0.499999999999999, 0.500000000000001, 0.9, 0, 0, 0.5),
        pr.Cell(0.500000000000001, 1.0, 0.05, 1, 0, 0.9),
    ), alphabet_size=2)
    assert find_radius(w, 0.5, 0.01, 100)[1] == 0.0
    with pytest.raises(pr.DemoPreconditionError, match=r"x_star=0\.5 \(cell 1\)"):
        pr.perturb(w, loss01, 0.5, 0.01, 100)


# row 0 has no entry above epsilon, so no label is bad against fast label 0
NO_BAD_LABEL = pr.LossSpec(kind="table", epsilon=0.5,
                           table=((0.0, 0.1, 0.1), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)))


def _world(*cells, alphabet_size=2):
    return pr.CellWorld(tuple(pr.Cell(*c) for c in cells), alphabet_size)


@pytest.mark.parametrize("w, loss, x_star, message", [
    (make_w1(), pr.LossSpec(kind="zero_one", epsilon=0.0), 0.9,
     r"^x_star=0\.9 lies in the disagreement region"),
    (_world((0.0, 0.8, 0.8, 0, 0, 0.2), (0.8, 1.0, 0.2, 0, 1, 0.9), alphabet_size=3),
     NO_BAD_LABEL, 0.4, r"^no label has loss > 0\.5 against fast label 0 at x_star=0\.4;"),
    # two refusals apply; the earlier one in perturb's order is raised
    (_world((0.0, 1e-320, 0.5, 1, 0, 0.1), (1e-320, 1.0, 0.5, 0, 0, 0.9)),
     pr.LossSpec(kind="zero_one", epsilon=0.0), 0.0, r"^x_star=0\.0 lies in the disagreement"),
    (_world((0.0, 0.499999999999999, 0.05, 0, 0, 0.1),
            (0.499999999999999, 0.500000000000001, 0.9, 0, 0, 0.5),
            (0.500000000000001, 1.0, 0.05, 1, 0, 0.9), alphabet_size=3),
     NO_BAD_LABEL, 0.5, r"^no float ball is light enough: .* x_star=0\.5 \(cell 1\)"),
], ids=["bad_cell", "no_bad_label", "bad_cell_before_heavy_ball", "ball_before_label"])
def test_perturb_refusals_name_x_star(w, loss, x_star, message):
    with pytest.raises(pr.DemoPreconditionError, match=message):
        pr.perturb(w, loss, x_star, 0.01, 100)


def test_tv_single_identical_worlds(w1):
    assert pr.tv_single(w1, w1) == 0.0


def test_tv_single_one_relabeled_cell(w1):
    relabeled = pr.CellWorld(
        cells=(w1.cells[0], pr.Cell(0.8, 1.0, 0.2, 0, 0, 0.9)),
        alphabet_size=2,
    )
    assert pr.tv_single(w1, relabeled) == pytest.approx(0.2, abs=1e-15)


def test_tv_single_equals_ball_mass(w1, loss01):
    spec, p = pr.perturb(w1, loss01, 0.4, 0.01, 100)
    base = pr.split_at(w1, [0.4 - spec.radius, 0.4 + spec.radius])
    # ball interior to one cell: identical arithmetic on both paths
    assert pr.tv_single(base, p) == spec.ball_mass


def test_tv_single_requires_matching_structure(w1):
    other = pr.split_at(w1, [0.3])
    with pytest.raises(ValueError):
        pr.tv_single(w1, other)
    reweighted = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.8, 0.7, 0, 0, 0.1),
            pr.Cell(0.8, 1.0, 0.3, 1, 0, 0.9),
        ),
        alphabet_size=2,
    )
    with pytest.raises(ValueError):
        pr.tv_single(w1, reweighted)
    moved = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.7, 0.8, 0, 0, 0.1),
            pr.Cell(0.7, 1.0, 0.2, 1, 0, 0.9),
        ),
        alphabet_size=2,
    )
    with pytest.raises(ValueError, match="cell 0 boundaries differ"):
        pr.tv_single(w1, moved)


def test_tv_product_bound_values():
    assert pr.tv_product_bound(0.002, 10) == pytest.approx(0.04, abs=1e-15)
    assert pr.tv_product_bound(0.0, 1000) == 0.0
    assert pr.tv_product_bound(0.5, 2) == 1.0


def test_tv_product_bound_validates():
    with pytest.raises(ValueError):
        pr.tv_product_bound(-0.1, 10)
    with pytest.raises(ValueError):
        pr.tv_product_bound(1.1, 10)
    with pytest.raises(ValueError):
        pr.tv_product_bound(0.1, 0)


def test_constructed_spec_meets_bound_chain(w1, loss01):
    # mass < eta/(2n) strictly, hence the product bound stays below eta
    for eta, n in [(0.01, 100), (0.5, 7), (0.05, 1)]:
        spec, p = pr.perturb(w1, loss01, 0.4, eta, n)
        assert spec.ball_mass < eta / (2 * n)
        assert pr.tv_product_bound(spec.ball_mass, n) < eta
        assert pr.interval_mass(
            p, max(0.0, 0.4 - spec.radius), min(1.0, 0.4 + spec.radius)
        ) == pytest.approx(spec.ball_mass, abs=1e-15)


def test_perturbed_disagreement_gains_ball_cells(w1, loss01):
    spec, p = pr.perturb(w1, loss01, 0.4, 0.01, 100)
    split = pr.split_at(w1, [0.4 - spec.radius, 0.4 + spec.radius])
    base_bad = cell_exceedance_flags(split, loss01)
    pert_bad = cell_exceedance_flags(p, loss01)
    gained = np.flatnonzero(pert_bad & ~base_bad)
    assert gained.size
    for i in gained:
        c = p.cells[i]
        assert c.left >= 0.4 - spec.radius and c.right <= 0.4 + spec.radius
    # above every score, the exact miscoverage is the mass of the bad cells
    top = float(np.max(p.scores))
    assert pr.exact_miscoverage(p, loss01, top) == pytest.approx(
        pr.exact_miscoverage(split, loss01, top) + spec.ball_mass, abs=1e-15
    )


def test_large_eta_clamps_bound(w1, loss01):
    # eta > 1 is allowed; the product bound just clamps at 1
    spec, _ = pr.perturb(w1, loss01, 0.4, 1.9, 1)
    assert spec.ball_mass < 1.9 / 2
    assert pr.tv_product_bound(spec.ball_mass, 1) <= 1.0


def test_perturbation_truncates_at_domain_edge(w1, loss01):
    spec, p = pr.perturb(w1, loss01, 0.0, 0.01, 50)
    # the ball (x*-r, x*+r) clips to [0, r); mass comes from the clipped part
    assert spec.ball_mass == pr.interval_mass(w1, 0.0, spec.radius)
    assert spec.ball_mass < 0.01 / 100
    assert pr.validate_world(p) == []
    assert pr.cell_at(p, 0.0).expert_label == spec.adversarial_label
    assert pr.cell_at(p, 2 * spec.radius).expert_label == 0


def test_perturbation_ball_spanning_cells(loss01):
    w = pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.5, 0, 0, 0.1),
            pr.Cell(0.5, 1.0, 0.5, 0, 0, 0.7),
        ),
        alphabet_size=2,
    )
    spec, p = pr.perturb(w, loss01, 0.5, 0.2, 1)
    assert spec.radius > 0.01  # wide enough to straddle the boundary at 0.5
    assert pr.validate_world(p) == []
    # both sides of the boundary are relabeled, scores untouched
    just_left = 0.5 - spec.radius / 2
    just_right = 0.5 + spec.radius / 2
    assert pr.cell_at(p, just_left).expert_label == spec.adversarial_label
    assert pr.cell_at(p, just_right).expert_label == spec.adversarial_label
    assert pr.cell_at(p, just_left).score == 0.1
    assert pr.cell_at(p, just_right).score == 0.7
    base = pr.split_at(w, [0.5 - spec.radius, 0.5 + spec.radius])
    assert abs(pr.tv_single(base, p) - spec.ball_mass) <= 1e-15
