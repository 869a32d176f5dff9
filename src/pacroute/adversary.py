"""Locally perturbed worlds that calibration data cannot distinguish.

Around a chosen point, :func:`perturb` shrinks an interval until its mass is
below eta / (2n), then swaps the expert label inside it for one the fast
model gets badly wrong. The X-marginal is untouched, so the perturbed world
differs from the base only on that sliver: a single draw differs with
probability equal to the sliver's mass, and the n-fold product law by at
most 2n times that, which stays below eta by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .risk import LossSpec, cell_exceedance_flags, check_loss_compatible
from .worlds import Cell, CellWorld, cell_at, cell_index_at, interval_mass, split_at

__all__ = [
    "DemoPreconditionError",
    "PerturbationSpec",
    "find_radius",
    "choose_adversarial_label",
    "perturb",
    "tv_single",
    "tv_product_bound",
]

_INITIAL_RADIUS = 0.1


class DemoPreconditionError(ValueError):
    """:func:`perturb` cannot use this point (its docstring lists why); only
    this module raises it."""


@dataclass(frozen=True)
class PerturbationSpec:
    """A solved perturbation: where, how wide, how heavy, and the swapped label.

    ``ball_mass`` is the exact base-world mass of (x_star - radius,
    x_star + radius) clipped to [0,1], and is strictly below eta / (2n).
    """

    x_star: float
    eta: float
    n: int
    radius: float
    ball_mass: float
    adversarial_label: int


def _ball_mass(w: CellWorld, x_star: float, radius: float) -> float:
    # clipping at the domain edge only shrinks the ball, never the bound
    return interval_mass(w, max(0.0, x_star - radius), min(1.0, x_star + radius))


def find_radius(w: CellWorld, x_star: float, eta: float, n: int) -> tuple[float, float]:
    """Halve the radius from 0.1 until the ball mass drops strictly below eta/(2n).

    Returns (radius, ball_mass). A cell only a few subnormals wide can keep
    every float ball too heavy; then DemoPreconditionError is raised.
    """
    if not 0.0 <= x_star <= 1.0:
        raise ValueError(f"x_star must be in [0,1], got {x_star!r}")
    if not 0.0 < eta < np.inf:  # NaN included
        raise ValueError(f"eta must be finite and > 0, got {eta!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    target = eta / (2.0 * n)
    radius = _INITIAL_RADIUS
    mass = _ball_mass(w, x_star, radius)
    while mass >= target:
        radius /= 2.0
        if radius == 0.0:
            raise DemoPreconditionError(
                f"no float ball is light enough: every ball around x_star={x_star!r} "
                f"(cell {cell_index_at(w, x_star)}) has mass >= eta/(2n) = {target!r}")
        mass = _ball_mass(w, x_star, radius)
    return radius, mass


def choose_adversarial_label(w: CellWorld, loss: LossSpec, x_star: float) -> int:
    """A label the fast model at x_star gets wrong by more than epsilon.

    Zero-one loss: the next label cyclically (any mismatch has loss 1).
    Table loss: the smallest label whose entry exceeds epsilon; if there is
    none, DemoPreconditionError is raised.
    """
    check_loss_compatible(w, loss)
    fast = cell_at(w, x_star).fast_label
    if loss.kind == "zero_one":
        return (fast + 1) % w.alphabet_size
    bad = np.flatnonzero(loss.exceeds(fast, np.arange(w.alphabet_size)))
    if bad.size:
        return int(bad[0])
    raise DemoPreconditionError(
        f"no label has loss > {loss.epsilon!r} against fast label {fast} at "
        f"x_star={x_star!r}; the perturbation cannot be built"
    )


def perturb(
    w: CellWorld, loss: LossSpec, x_star: float, eta: float, n: int
) -> tuple[PerturbationSpec, CellWorld]:
    """The solved spec and the world relabeled inside the ball it names.

    Solves the radius (:func:`find_radius`) and the label
    (:func:`choose_adversarial_label`). Masses, scores and fast labels are
    untouched and cells outside the ball carried over, so the X-marginal is
    the base world's. Raises DemoPreconditionError, in this order, if x_star's
    cell is already bad, no float ball is light enough, the ball relabels
    none of x_star's cell, or no label is bad against the fast label there.
    """
    if cell_exceedance_flags(w, loss)[cell_index_at(w, x_star)]:
        raise DemoPreconditionError(
            f"x_star={x_star!r} lies in the disagreement region; the swap "
            "would not change anything there"
        )
    radius, mass = find_radius(w, x_star, eta, n)
    lo, hi = x_star - radius, x_star + radius
    base = split_at(w, [p for p in (lo, hi) if 0.0 < p < 1.0])
    inside = [c.left >= lo and c.right <= hi for c in base.cells]
    if not inside[cell_index_at(base, x_star)]:  # e.g. x_star +- radius == x_star
        raise DemoPreconditionError(
            f"no float ball is light enough: the one of radius {radius!r} around "
            f"x_star={x_star!r} (cell {cell_index_at(w, x_star)}) relabels none of it")
    label = choose_adversarial_label(w, loss, x_star)
    cells = tuple(
        Cell(c.left, c.right, c.mass, label, c.fast_label, c.score) if swap else c
        for c, swap in zip(base.cells, inside)
    )
    spec = PerturbationSpec(x_star=x_star, eta=eta, n=n, radius=radius, ball_mass=mass,
                            adversarial_label=label)
    return spec, CellWorld(cells=cells, alphabet_size=base.alphabet_size)


def tv_single(w: CellWorld, w2: CellWorld) -> float:
    """Exact total variation between one (X, expert label) draw from each world.

    Requires identical cell boundaries and masses (refine with
    :func:`pacroute.worlds.split_at` first). Labels are deterministic given
    the cell, so conditionals are either identical or disjoint and the TV is
    the mass where expert labels differ.
    """
    if len(w.cells) != len(w2.cells):
        raise ValueError("worlds have different cell counts; split_at first")
    total = 0.0
    for i, (a, b) in enumerate(zip(w.cells, w2.cells)):
        if a.left != b.left or a.right != b.right:
            raise ValueError(f"cell {i} boundaries differ: {a.left, a.right} vs {b.left, b.right}")
        if a.mass != b.mass:
            raise ValueError(f"cell {i} masses differ: {a.mass!r} vs {b.mass!r}")
        if a.expert_label != b.expert_label:
            total += a.mass
    return total


def tv_product_bound(ball_mass: float, n: int) -> float:
    """Bound on the n-sample total variation: 2 * n * ball_mass, clamped to [0,1]."""
    if not 0.0 <= ball_mass <= 1.0:
        raise ValueError(f"ball_mass must be in [0,1], got {ball_mass!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return min(1.0, 2.0 * n * ball_mass)
