"""Threshold calibration with a marginal PAC guarantee.

Candidate thresholds are tested in ascending order. At each one, the number
of calibration points that would be routed fast with a bad fast answer is an
exact Binomial(n, p(tau)) count; we test H0: p(tau) > t at level delta with
t = alpha - delta and keep climbing while the test rejects. The selected
threshold is the largest rejected candidate, or ALWAYS_DEFER (-inf) if none
is.

Validity sketch: bad-rate exceedance probabilities are nondecreasing in the
threshold, so the true nulls form a suffix of the ladder and the first true
null is rejected with probability at most delta. Hence
P(p(tau_hat) > alpha - delta) <= delta, and the joint probability that a
fresh input suffers risk above epsilon is at most (alpha - delta) + delta
= alpha. The exact oracle in :mod:`pacroute.simulate` computes this joint
probability in closed form, at any calibration size.

The rule has one home, the count walk ``_walk``: ``select_threshold`` runs it
on one labeled set, ``_select`` on the occupancy counts of many sets, and the
Monte-Carlo engine and the exact law in :mod:`pacroute.simulate` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .risk import ALWAYS_DEFER, LossSpec, cell_exceedance_flags
from .worlds import CalibrationSet, CellWorld, cell_indices_at

__all__ = [
    "PacConfig",
    "TestedThreshold",
    "CalibrationOutcome",
    "binomial_pvalue_table",
    "select_threshold",
]

ALGORITHMS = ("calibrated", "trivial")


@dataclass(frozen=True)
class PacConfig:
    """Targets for calibration: tolerance, risk budget, and test budget.

    ``delta_split`` is the slice of ``alpha`` spent on testing confidence
    (default: half of alpha); the remainder ``alpha - delta_split`` is the
    bad-rate level each candidate threshold is tested against.
    ``threshold_grid=None`` derives the grid from the observed calibration
    scores (midpoints between distinct values plus one point above the
    maximum).
    """

    epsilon: float
    alpha: float
    delta_split: float | None = None
    threshold_grid: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.epsilon >= 0:  # NaN included
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon!r}")
        # alpha = 1 is allowed: the guarantee is vacuous but well-defined
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0,1], got {self.alpha!r}")
        if self.delta_split is None:
            object.__setattr__(self, "delta_split", self.alpha / 2.0)
        if not 0.0 < self.delta_split < self.alpha:
            raise ValueError(
                f"delta_split must be in (0, alpha), got {self.delta_split!r}"
            )
        if self.threshold_grid is not None:
            g = self.threshold_grid
            if len(g) == 0:
                raise ValueError("threshold_grid must be nonempty")
            if not all(math.isfinite(v) for v in g):
                raise ValueError(f"threshold_grid entries must be finite, got {g!r}")
            if any(not a < b for a, b in zip(g, g[1:])):
                raise ValueError("threshold_grid must be strictly ascending")

    @property
    def test_level(self) -> float:
        """Bad-rate level each threshold is tested against: alpha - delta_split."""
        return self.alpha - self.delta_split


def check_epsilon_match(cfg: PacConfig, loss: LossSpec) -> None:
    """Refuse a PAC target whose tolerance is not the loss's own."""
    if cfg.epsilon != loss.epsilon:
        raise ValueError(f"pac.epsilon ({cfg.epsilon!r}) must equal "
                         f"loss.epsilon ({loss.epsilon!r})")


class TestedThreshold(NamedTuple):
    tau: float
    exceedances: int
    p_value: float
    rejected: bool


@dataclass(frozen=True)
class CalibrationOutcome:
    """Result of a grid walk: selected threshold plus the tested ladder."""

    tau_hat: float
    tested: tuple[TestedThreshold, ...]
    n: int


@lru_cache(maxsize=256)
def binomial_pvalue_table(n: int, t: float) -> np.ndarray:
    """Lower-tail CDF of Binomial(n, t) at every count 0..n, as a read-only
    float64 array (the cache shares it between callers).

    Terms are computed in log space and summed directly from whichever end is
    smaller: the prefix when the tail is below one half, else one minus the
    suffix. That keeps values near 1 accurate to a few ulp and pins the full
    tail to exactly 1 (empty suffix). The table is nondecreasing by
    construction, which the kernels and ``max_rejectable_count`` rely on.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must be in (0,1), got {t!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    log_t = math.log(t)
    log_1mt = math.log1p(-t)
    lg_n1 = math.lgamma(n + 1)
    terms = np.empty(n + 1)
    for b in range(n + 1):
        terms[b] = math.exp(
            lg_n1
            - math.lgamma(b + 1)
            - math.lgamma(n - b + 1)
            + b * log_t
            + (n - b) * log_1mt
        )
    prefix = np.cumsum(terms)
    suffix_above = np.zeros(n + 1)  # suffix_above[b] = sum of terms for i > b
    suffix_above[:n] = np.cumsum(terms[::-1])[-2::-1]
    cdf = np.where(prefix <= 0.5, prefix, 1.0 - suffix_above)
    cdf = np.minimum(np.maximum.accumulate(cdf), 1.0)
    cdf.flags.writeable = False
    return cdf


def max_rejectable_count(n: int, t: float, delta: float) -> int:
    """Largest count whose p-value is <= delta, or -1 if even zero is too many.

    Because the lower-tail CDF is nondecreasing in the count, rejection at a
    candidate threshold is exactly "count <= this value"; the Monte-Carlo
    kernels rely on that equivalence.
    """
    return int(np.searchsorted(binomial_pvalue_table(n, t), delta, side="right")) - 1


def _walk(w: CellWorld, loss: LossSpec, cfg_pac: PacConfig, n: int, algorithm: str):
    """``(b_star, position, bad_position, n_positions, threshold)`` of the
    count walk over n points. Positions are grid indices on a fixed grid and
    the distinct scores on the auto grid; ``position[c]`` is cell ``c``'s
    (n_positions: past a fixed grid) and ``bad_position[c]`` the first at which
    its samples count as bad (n_positions: never). ``threshold(stop, prev)``
    is what ``select_threshold`` picks when the walk stops at ``stop``
    (n_positions: never) and ``prev`` is the highest occupied position below
    it (-1: none), elementwise on arrays; a fixed grid ignores ``prev``.

    The trivial router is this walk with b* = -1: no count rejects, so every
    walk stops at position 0 and selects ALWAYS_DEFER."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if n < 1:
        raise ValueError(f"calibration size n must be >= 1, got {n}")
    check_epsilon_match(cfg_pac, loss)
    b_star = (max_rejectable_count(n, cfg_pac.test_level, cfg_pac.delta_split)
              if algorithm == "calibrated" else -1)
    if cfg_pac.threshold_grid is not None:
        by_stop = np.concatenate(([ALWAYS_DEFER], cfg_pac.threshold_grid))
        position = np.searchsorted(by_stop[1:], w.scores, side="left")
        n_pos = len(by_stop) - 1
        def threshold(stop, prev):
            return by_stop[stop]
    else:
        levels, position = np.unique(w.scores, return_inverse=True)
        n_pos = len(levels)
        def threshold(stop, prev):
            # the midpoint up from prev, kept below the next level, or prev + 1 past the top
            low, high = levels[prev], levels[np.minimum(stop, n_pos - 1)]
            mid = np.minimum((low + high) / 2.0, np.nextafter(high, low))
            return np.where(prev < 0, ALWAYS_DEFER, np.where(stop < n_pos, mid, low + 1.0))
    bad_position = np.where(cell_exceedance_flags(w, loss), position, n_pos)
    return b_star, position, bad_position, n_pos, threshold


def _select(cfg_pac: PacConfig, walk, counts: np.ndarray) -> np.ndarray:
    """The threshold ``select_threshold`` picks from each calibration set with
    these (sets, cells) occupancy counts, given the ``_walk`` over that many
    points, with the world's labels as truth."""
    b_star, position, bad_position, n_pos, threshold = walk
    if cfg_pac.threshold_grid is not None:
        return threshold(_kernels.tau_indices(counts, bad_position, b_star, n_pos) + 1, None)
    stop = _kernels.stop_positions(counts, bad_position, b_star, n_pos)
    # the highest occupied position below the stop (-1: none)
    prev = np.where((counts > 0) & (position < stop[:, None]), position, -1).max(axis=1)
    return threshold(stop, prev)


def select_threshold(
    d: CalibrationSet, w: CellWorld, loss: LossSpec, cfg: PacConfig
) -> CalibrationOutcome:
    """Fixed-sequence walk up the threshold grid; stop at the first non-rejection.

    Truth labels come from the set itself, scores and fast labels from the
    world, so the counts hold for data drawn from a relabeled ``w``."""
    n = len(d)
    if n == 0:
        raise ValueError("calibration set is empty")
    b_star, position, _, n_pos, threshold = _walk(w, loss, cfg, n, "calibrated")
    idx = cell_indices_at(w, d.xs)
    at = position[idx]
    bad = np.cumsum(np.bincount(at[loss.exceeds(w.fast_labels[idx], d.ys)],
                                minlength=n_pos + 1))  # bad points at positions <= p
    # every grid threshold, or on the auto grid the set's distinct scores
    cand = (np.arange(n_pos) if cfg.threshold_grid is not None
            else np.flatnonzero(np.bincount(at, minlength=n_pos)))
    # each candidate is tested up to the next one, so this comes before the cut
    taus = threshold(np.append(cand[1:], n_pos), cand)
    rejected = int(np.searchsorted(bad[cand], b_star, side="right"))  # counts never fall
    counts = bad[cand[:rejected + 1]]
    tested = tuple(map(TestedThreshold, taus[:len(counts)].tolist(), counts.tolist(),
                       binomial_pvalue_table(n, cfg.test_level)[counts].tolist(),
                       (counts <= b_star).tolist()))
    return CalibrationOutcome(tau_hat=tested[rejected - 1].tau if rejected else ALWAYS_DEFER,
                              tested=tested, n=n)
