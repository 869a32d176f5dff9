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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .risk import ALWAYS_DEFER, LossSpec, check_loss_compatible
from .worlds import CalibrationSet, CellWorld, cell_indices_at

__all__ = [
    "PacConfig",
    "TestedThreshold",
    "CalibrationOutcome",
    "binomial_pvalue",
    "binomial_pvalue_table",
    "empirical_exceedances",
    "auto_threshold_grid",
    "select_threshold",
]


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


def binomial_pvalue(b: int, n: int, t: float) -> float:
    """Exact P(Binomial(n, t) <= b); the p-value for H0: exceedance rate > t."""
    if not 0 <= b <= n:
        raise ValueError(f"need 0 <= b <= n, got b={b} n={n}")
    return float(binomial_pvalue_table(n, t)[b])


def max_rejectable_count(n: int, t: float, delta: float) -> int:
    """Largest count whose p-value is <= delta, or -1 if even zero is too many.

    Because the lower-tail CDF is nondecreasing in the count, rejection at a
    candidate threshold is exactly "count <= this value"; the Monte-Carlo
    kernels rely on that equivalence.
    """
    return int(np.searchsorted(binomial_pvalue_table(n, t), delta, side="right")) - 1


def empirical_exceedances(
    d: CalibrationSet, w: CellWorld, loss: LossSpec, tau: float
) -> int:
    """Count calibration points routed fast at ``tau`` whose fast answer is bad.

    Scores and fast labels come from the world; truth labels come from the
    calibration set itself, so the statistic stays correct when the data were
    drawn from a relabeled variant of ``w``.
    """
    if len(d) == 0:
        raise ValueError("calibration set is empty")
    check_loss_compatible(w, loss)
    idx = cell_indices_at(w, d.xs)
    return int(np.sum((w.scores[idx] <= tau) & loss.exceeds(w.fast_labels[idx], d.ys)))


def auto_threshold_grid(observed_scores) -> tuple[float, ...]:
    """Grid from observed scores: midpoints between distinct values, plus one above."""
    s = np.sort(np.asarray(observed_scores, dtype=float))
    if s.size == 0:
        raise ValueError("no observed scores to build a grid from")
    s = s[np.append(True, s[1:] != s[:-1])]  # np.unique would import numpy.ma
    mids = (s[:-1] + s[1:]) / 2.0
    return tuple(float(v) for v in mids) + (float(s[-1]) + 1.0,)


def select_threshold(
    d: CalibrationSet, w: CellWorld, loss: LossSpec, cfg: PacConfig
) -> CalibrationOutcome:
    """Fixed-sequence walk up the threshold grid; stop at the first non-rejection."""
    n = len(d)
    if n == 0:
        raise ValueError("calibration set is empty")
    check_epsilon_match(cfg, loss)
    check_loss_compatible(w, loss)
    idx = cell_indices_at(w, d.xs)
    grid = cfg.threshold_grid or auto_threshold_grid(w.scores[idx])
    bad = np.sort(w.scores[idx][loss.exceeds(w.fast_labels[idx], d.ys)])
    t = cfg.test_level
    tested: list[TestedThreshold] = []
    tau_hat = ALWAYS_DEFER
    for tau, b in zip(grid, np.searchsorted(bad, grid, side="right").tolist()):
        p = binomial_pvalue(b, n, t)
        rejected = p <= cfg.delta_split
        tested.append(TestedThreshold(tau=tau, exceedances=b, p_value=p, rejected=rejected))
        if not rejected:
            break
        tau_hat = tau
    return CalibrationOutcome(tau_hat=tau_hat, tested=tuple(tested), n=n)
