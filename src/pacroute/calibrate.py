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

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import _kernels
from .risk import ALWAYS_DEFER, LossSpec, cell_exceedance_flags
from .worlds import CalibrationSet, CellWorld

__all__ = [
    "PacConfig",
    "TestedThreshold",
    "CalibrationOutcome",
    "binomial_tail",
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


#: The tail sums at most REACH·(sigma + 1) terms (see ``binomial_tail``).
REACH = 10


def binomial_tail(k, n: int, t) -> np.ndarray:
    """P(Binomial(n, t) <= k), broadcast over ``k`` and ``t``. Exactly 0 at
    k < 0 and 1 at k >= n; below n, exactly 1 at t <= 0 and 0 at t >= 1.
    Elsewhere log-space terms are summed from the smaller side, far end
    first: the lower tail when k < n·t, else one minus the upper tail. With
    sigma² = n·t·(1 - t) and g from n·t to the first term, the j-th ratio of
    terms away from ``k`` is at most 1/(1 + (g + j)/sigma²), so summing L terms
    drops at most (1 + sigma²/(g + L))·prod_(j<L) 1/(1 + (g + j)/sigma²) of
    the sum. L = ceil(REACH·(sigma + 1)) keeps that below 1e-18 at every sigma
    up to 10^4, or L is the count at which the factors 1 + g/sigma² do."""
    k, t = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(t, dtype=float))
    tails = np.where(k < n, (k >= 0) & (t <= 0.0), 1.0)
    inner = (k >= 0) & (k < n) & (t > 0.0) & (t < 1.0)
    if not inner.any():
        return tails
    k, t = k[inner], t[inner]
    upper = k >= n * t
    var = n * t * (1.0 - t)
    rise = np.log(np.where(upper, k + 1 - n * t, n * t - k)) - np.log(var)  # log(g/sigma²)
    reach = np.minimum(np.ceil(REACH * (np.sqrt(var) + 1.0)), np.ceil(
        (np.logaddexp(0.0, -rise) + math.log(1e18)) / np.logaddexp(0.0, rise))).astype(int)
    # each window [lo, hi] from its far end; past it, a row repeats its last count
    lo = np.where(upper, k + 1, np.maximum(k - reach + 1, 0))
    hi = np.where(upper, np.minimum(k + reach, n), k)
    step = np.arange((hi - lo).max() + 1)[:, None]
    i = np.where(upper, np.maximum(hi - step, lo), np.minimum(lo + step, hi))
    lg = math.lgamma(n + 1)  # log C(n, c) once for each c the windows span
    log_choose = np.fromiter((lg - math.lgamma(c + 1) - math.lgamma(n - c + 1)
                              for c in range(lo.min(), hi.max() + 1)), float)
    terms = np.exp(log_choose[i - lo.min()] + i * np.log(t) + (n - i) * np.log1p(-t))
    # a cumulative sum adds in order, where a reduce may pair terms up
    sums = np.cumsum(np.where(step <= hi - lo, terms, 0.0), axis=0)[-1]
    tails[inner] = np.where(upper, 1.0 - sums, sums)
    return tails


@lru_cache(maxsize=256)
def max_rejectable_count(n: int, t: float, delta: float) -> int:
    """Largest count whose p-value is <= delta, or -1 if even zero is too many.

    Because the tail is nondecreasing in the count, rejection at a candidate
    threshold is exactly "count <= this value"; the Monte-Carlo kernels rely
    on that equivalence. Found by bisection, and cached for a run's walks."""
    return bisect.bisect_right(range(n), delta, key=lambda k: binomial_tail(k, n, t)) - 1


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
    idx = _kernels.cell_indices(w.rights, d.xs)
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
                       binomial_tail(counts, n, cfg.test_level).tolist(),
                       (counts <= b_star).tolist()))
    return CalibrationOutcome(tau_hat=tested[rejected - 1].tau if rejected else ALWAYS_DEFER,
                              tested=tested, n=n)
