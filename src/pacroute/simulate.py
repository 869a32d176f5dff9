"""Monte-Carlo resampling and exact enumeration of routing guarantees.

Estimates two kinds of probability over fresh calibration sets: pointwise
("how often is this x routed fast / hurt") and joint ("how often does a
fresh input suffer risk above epsilon"). An exact enumeration oracle covers
small instances; a demo pipeline stitches calibration, audit and the
adversarial perturbation into one report.

Determinism: replication r of stream s draws the uniforms of
``Generator(PCG64(SeedSequence(entropy=master_seed, spawn_key=(s, r))))``,
which ``_kernels.replication_uniforms`` recomputes bit for bit across a chunk
of replications. Chunks of CHUNK replications are seeded and walked one after
another, so results do not depend on how the work is split and memory does
not grow with the replication count. Because scores and labels are
cell-constant, a replication's outcome depends only on how many of its
calibration points land in each cell (its occupancy counts); the engine
therefore draws cell indices directly and never materializes positions.
Monte-Carlo chunks and the enumeration oracle both select thresholds from
occupancy counts, through one selection and one stopping rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
# a module attribute looked up at call time, so perfbench/spans.py can time it
from ._kernels import replication_uniforms as _replication_uniforms
from .adversary import make_perturbation, perturb, PerturbationSpec, tv_product_bound
from .calibrate import PacConfig, cell_first_grid_index, max_rejectable_count
from .risk import (
    ALWAYS_DEFER,
    LossSpec,
    cell_exceedance_flags,
    exact_deferral_mass,
    exact_miscoverage,
)
from .worlds import CellWorld, cell_at

__all__ = [
    "JOINT",
    "McConfig",
    "PointAudit",
    "AuditReport",
    "DemoReport",
    "OracleResult",
    "DemoPreconditionError",
    "EnumerationBudgetError",
    "default_audit_points",
    "audit_profile",
    "mc_joint_risk",
    "enumerate_distribution",
    "demo_with_replications",
    "iter_trace_rows",
]

JOINT = "joint"

ENUMERATION_BUDGET = 10**7

# replications seeded and walked together; bounds the walk's working memory
CHUNK = 4096

# enumerated outcomes selected together; bounds the oracle's working memory
ORACLE_BATCH = 512

# independent substreams used by the demo pipeline
STREAM_AUDIT = 0
STREAM_JOINT = 1
STREAM_PERTURBED_AUDIT = 2

_ALGORITHMS = ("calibrated", "trivial")


class DemoPreconditionError(ValueError):
    """The demo point sits where the fast model is already bad."""


class EnumerationBudgetError(RuntimeError):
    """The C(n+cells-1, cells-1) calibration outcomes exceed the enumeration budget."""


@dataclass(frozen=True)
class McConfig:
    """Resampling controls: replication count, master seed, audit grid.

    ``audit_points=None`` uses :func:`default_audit_points` for the world
    being audited.
    """

    replications: int
    master_seed: int
    audit_points: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.replications <= 2**32:
            # a replication index is one uint32 spawn-key word
            raise ValueError(
                f"replications must be in [1, 2**32], got {self.replications}"
            )
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.audit_points is not None:
            if len(self.audit_points) == 0:
                raise ValueError("audit_points must be nonempty when given")
            for p in self.audit_points:
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"audit point {p!r} outside [0,1]")


@dataclass(frozen=True)
class PointAudit:
    """Estimates at one audited input; std_err is the binomial error of est_fast_prob."""

    x: float
    est_fast_prob: float
    est_violation_prob: float
    std_err: float

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "est_fast_prob": self.est_fast_prob,
            "est_violation_prob": self.est_violation_prob,
            "std_err": self.std_err,
        }


@dataclass(frozen=True)
class AuditReport:
    """Pointwise profile over the audit grid plus the triviality verdict.

    ``trivial_verdict`` is true when every audited point keeps its fast-usage
    frequency at or below alpha plus three standard errors, i.e. the router
    behaves like the always-defer baseline everywhere we looked.
    """

    points: tuple[PointAudit, ...]
    max_fast_prob: float
    alpha: float
    trivial_verdict: bool
    points_above_alpha: tuple[float, ...]
    replications: int
    algorithm: str

    def to_dict(self) -> dict:
        return {
            "points": [p.to_dict() for p in self.points],
            "max_fast_prob": self.max_fast_prob,
            "alpha": self.alpha,
            "trivial_verdict": self.trivial_verdict,
            "points_above_alpha": list(self.points_above_alpha),
            "replications": self.replications,
            "algorithm": self.algorithm,
        }


@dataclass(frozen=True)
class DemoReport:
    """End-to-end adversarial demonstration record; see demo_with_replications."""

    base_audit: AuditReport
    perturbed_audit: AuditReport
    perturbation: PerturbationSpec
    tv_bound: float
    tv_coupling_bound: float
    cross_world_gap: float
    combined_std_err: float
    marginal_risk_base: float
    marginal_risk_std_err: float
    deferral_mass_mean: float
    verdicts: dict

    def to_dict(self) -> dict:
        return {
            "base_audit": self.base_audit.to_dict(),
            "perturbed_audit": self.perturbed_audit.to_dict(),
            "perturbation": self.perturbation.to_dict(),
            "tv_bound": self.tv_bound,
            "tv_coupling_bound": self.tv_coupling_bound,
            "cross_world_gap": self.cross_world_gap,
            "combined_std_err": self.combined_std_err,
            "marginal_risk_base": self.marginal_risk_base,
            "marginal_risk_std_err": self.marginal_risk_std_err,
            "deferral_mass_mean": self.deferral_mass_mean,
            "verdicts": dict(self.verdicts),
        }


@dataclass(frozen=True)
class OracleResult:
    """Exact enumeration output; total_probability is a 1.0 self-check."""

    value: float
    total_probability: float
    n_outcomes: int
    quantity: str

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "total_probability": self.total_probability,
            "n_outcomes": self.n_outcomes,
            "quantity": self.quantity,
        }


def default_audit_points(w: CellWorld) -> tuple[float, ...]:
    """21 equispaced points plus every cell midpoint, sorted and deduplicated."""
    mids = (w.lefts + w.rights) / 2.0
    pts = np.unique(np.concatenate([np.linspace(0.0, 1.0, 21), mids]))
    return tuple(float(p) for p in pts)


def _resolve_audit_points(cfg_mc: McConfig, w: CellWorld) -> tuple[float, ...]:
    if cfg_mc.audit_points is not None:
        return tuple(float(p) for p in cfg_mc.audit_points)
    return default_audit_points(w)


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}")


def _threshold_selector(w: CellWorld, loss: LossSpec, cfg_pac: PacConfig, n: int):
    """``select(counts)``: the threshold ``select_threshold`` picks from any
    calibration set of n points with these (sets, cells) occupancy counts
    (-inf encodes always-defer).

    On a fixed grid the stopping rule's positions are grid indices. On the
    auto grid they are the world's distinct score levels; bad counts grow
    only on occupied levels, so the walk stops on one (or on level 0 when
    even zero exceedances fail), and the threshold is the midpoint from the
    occupied level below, with ``auto_threshold_grid``'s float operations.
    """
    if cfg_pac.epsilon != loss.epsilon:
        raise ValueError(f"PacConfig.epsilon ({cfg_pac.epsilon!r}) must match "
                         f"LossSpec.epsilon ({loss.epsilon!r})")
    b_star = max_rejectable_count(n, cfg_pac.test_level, cfg_pac.delta_split)
    if cfg_pac.threshold_grid is not None:
        n_grid = len(cfg_pac.threshold_grid)
        grid = np.append(cfg_pac.threshold_grid, -np.inf)  # index -1: always defer
        first_k = cell_first_grid_index(w, loss, grid[:n_grid])
        return lambda counts: grid[_kernels.tau_indices(counts, first_k, b_star, n_grid)]
    levels, level = np.unique(w.scores, return_inverse=True)
    n_levels = len(levels)
    bad_level = np.where(cell_exceedance_flags(w, loss), level, n_levels)

    def select(counts: np.ndarray) -> np.ndarray:
        stop = _kernels.stop_positions(counts, bad_level, b_star, n_levels)
        # the highest occupied level below the stop (-1: none, always defer)
        prev = np.where((counts > 0) & (level < stop[:, None]), level, -1).max(axis=1)
        below = levels[prev]
        midpoint = (below + levels[np.minimum(stop, n_levels - 1)]) / 2.0
        return np.where(
            prev < 0, -np.inf, np.where(stop < n_levels, midpoint, below + 1.0)
        )

    return select


def _tau_values_for_replications(
    w: CellWorld,
    loss: LossSpec,
    cfg_pac: PacConfig,
    n: int,
    replications: int,
    master_seed: int,
    stream: int,
    *,
    need_test_draws: bool = False,
    algorithm: str = "calibrated",
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-replication selected thresholds (-inf encodes always-defer).

    With ``need_test_draws``, each replication consumes one extra uniform for
    an independent test input and its cell index is returned alongside.
    Replications are seeded and walked CHUNK at a time, so memory does not
    grow with the replication count.
    """
    _check_algorithm(algorithm)
    if n < 1:
        raise ValueError(f"calibration size n must be >= 1, got {n}")
    test_cells = np.zeros(replications, dtype=np.int64) if need_test_draws else None
    if algorithm == "trivial":
        return np.full(replications, -np.inf), test_cells
    cols = n + 1 if need_test_draws else n
    cdf = w.mass_cdf
    select = _threshold_selector(w, loss, cfg_pac, n)
    taus = np.empty(replications)
    for start in range(0, replications, CHUNK):
        stop = min(start + CHUNK, replications)
        u = _replication_uniforms(master_seed, stream, stop - start, cols, start=start)
        if need_test_draws:
            test_cells[start:stop] = _kernels.cell_indices(cdf, u[:, n])
        # u.T is C-contiguous for the column-major blocks of replication_uniforms
        cells = _kernels.cell_indices(cdf, u[:, :n].T)
        taus[start:stop] = select(_kernels.cell_counts(cells, len(w.cells)))
        del u, cells  # free the block before the next one is drawn
    return taus, test_cells


def _point_records(
    w: CellWorld, loss: LossSpec, points, tau_values: np.ndarray
) -> tuple[PointAudit, ...]:
    m = len(tau_values)
    recs = []
    for x in points:
        c = cell_at(w, float(x))
        est = float(np.sum(c.score <= tau_values)) / m
        std_err = math.sqrt(est * (1.0 - est) / m)
        viol = est if loss.exceeds(c.fast_label, c.expert_label) else 0.0
        recs.append(
            PointAudit(
                x=float(x), est_fast_prob=est, est_violation_prob=viol, std_err=std_err
            )
        )
    return tuple(recs)


def audit_profile(
    w: CellWorld,
    loss: LossSpec,
    cfg_pac: PacConfig,
    cfg_mc: McConfig,
    n: int,
    *,
    algorithm: str = "calibrated",
    stream: int = STREAM_AUDIT,
) -> tuple[AuditReport, np.ndarray]:
    """Estimate fast-usage and violation probabilities at each audit point.

    The report's ``trivial_verdict`` says whether the router ever uses the fast
    model more often than alpha. Returns (report, per-replication thresholds).
    """
    points = _resolve_audit_points(cfg_mc, w)
    taus, _ = _tau_values_for_replications(
        w, loss, cfg_pac, n, cfg_mc.replications, cfg_mc.master_seed, stream,
        algorithm=algorithm,
    )
    recs = _point_records(w, loss, points, taus)
    max_fast = max(r.est_fast_prob for r in recs)
    verdict = all(
        r.est_fast_prob <= cfg_pac.alpha + 3.0 * r.std_err for r in recs
    )
    above = tuple(r.x for r in recs if r.est_fast_prob > cfg_pac.alpha)
    report = AuditReport(
        points=recs,
        max_fast_prob=max_fast,
        alpha=cfg_pac.alpha,
        trivial_verdict=verdict,
        points_above_alpha=above,
        replications=cfg_mc.replications,
        algorithm=algorithm,
    )
    return report, taus


def mc_joint_risk(
    w: CellWorld,
    loss: LossSpec,
    cfg_pac: PacConfig,
    replications: int,
    master_seed: int,
    n: int,
    *,
    algorithm: str = "calibrated",
    stream: int = STREAM_JOINT,
) -> tuple[float, float]:
    """Estimate the joint probability that a fresh input suffers risk > epsilon.

    Each replication calibrates on a fresh set of size n, then draws one test
    input. Returns (estimate, binomial standard error).
    """
    _check_algorithm(algorithm)
    if algorithm == "trivial":
        return 0.0, 0.0
    taus, test_cells = _tau_values_for_replications(
        w, loss, cfg_pac, n, replications, master_seed, stream,
        need_test_draws=True, algorithm=algorithm,
    )
    bad = cell_exceedance_flags(w, loss)
    risky = bad[test_cells] & (w.scores[test_cells] <= taus)
    est = float(np.sum(risky)) / replications
    return est, math.sqrt(est * (1.0 - est) / replications)


def _compositions(total: int, bins: int):
    if bins == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, bins - 1):
            yield (head,) + rest


def enumerate_distribution(
    w: CellWorld,
    loss: LossSpec,
    cfg_pac: PacConfig,
    n: int,
    x,
    *,
    algorithm: str = "calibrated",
) -> OracleResult:
    """Exact law of the selected threshold, reduced to the requested quantity.

    Which cells the n calibration points occupy is a sufficient statistic for
    the whole calibration walk (scores and labels are cell-constant), so the
    sum runs over occupancy vectors weighted by their multinomial
    probability. The vectors go through the Monte-Carlo walk's count-based
    selection ORACLE_BATCH at a time, and the quantity is evaluated once per
    distinct threshold. ``x`` is an input in [0,1] for P(routed fast at x),
    or ``JOINT`` for the joint exceedance probability.
    """
    _check_algorithm(algorithm)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    n_cells = len(w.cells)
    n_outcomes = math.comb(n + n_cells - 1, n_cells - 1)
    if n_outcomes > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"C(n+cells-1, cells-1) = {n_outcomes} outcomes for {n_cells} cells "
            f"and n={n} exceed the enumeration budget {ENUMERATION_BUDGET}"
        )
    if x != JOINT:
        x = float(x)
        query_cell = cell_at(w, x)
    masses = w.masses
    select = _threshold_selector(w, loss, cfg_pac, n) if algorithm != "trivial" else None
    quantity = {}  # threshold -> the requested quantity under it
    value = total = 0.0
    outcomes = _compositions(n, n_cells)
    while batch := list(itertools.islice(outcomes, ORACLE_BATCH)):
        taus = select(np.array(batch)) if select else np.full(len(batch), -np.inf)
        for counts, tau in zip(batch, taus):
            prob = float(math.factorial(n) // math.prod(map(math.factorial, counts)))
            for c, k in enumerate(counts):
                if k:
                    prob *= masses[c] ** k
            if prob == 0.0:
                continue
            total += prob
            if tau not in quantity:
                if x == JOINT:
                    r = ALWAYS_DEFER if tau == -np.inf else float(tau)
                    quantity[tau] = exact_miscoverage(w, loss, r)
                else:
                    quantity[tau] = 1.0 if query_cell.score <= tau else 0.0
            value += prob * quantity[tau]
    return OracleResult(
        value=value,
        total_probability=total,
        n_outcomes=n_outcomes,
        quantity="joint_risk" if x == JOINT else f"fast_usage_at_{x}",
    )


def _mean_deferral_mass(w: CellWorld, tau_values: np.ndarray) -> float:
    uniq, counts = np.unique(tau_values, return_counts=True)
    total = 0.0
    for tau, k in zip(uniq, counts):
        r = ALWAYS_DEFER if tau == -np.inf else float(tau)
        total += int(k) * exact_deferral_mass(w, r)
    return total / len(tau_values)


def demo_with_replications(
    base: CellWorld,
    loss: LossSpec,
    cfg_pac: PacConfig,
    x_star: float,
    eta: float,
    n: int,
    cfg_mc: McConfig,
    *,
    algorithm: str = "calibrated",
):
    """Audit a router at x_star, then again under a near-indistinguishable rival world.

    Pipeline: (1) audit the base world (x_star is always the first audit
    point); (2) solve and apply the local label swap around x_star; (3) audit
    the perturbed world with fresh replications; (4) estimate the base joint
    risk and mean deferral mass. Verdicts:

      demo_vacuous          base fast-usage at x_star is within alpha, so the
                            router is already effectively trivial there
      indistinguishable     the two audits differ at x_star by no more than
                            the product TV bound plus Monte-Carlo error
      conditional_violation the perturbed world sees risk above epsilon at
                            x_star more often than alpha
      marginal_holds        the base joint risk estimate is within alpha
                            (plus Monte-Carlo error)
      nontrivial            the router actually saves work (mean deferral < 1)

    x_star must sit where the fast model is fine (loss <= epsilon); otherwise
    DemoPreconditionError is raised. A router that is already trivial at
    x_star yields verdict ``demo_vacuous`` rather than an error.

    Returns (report, perturbed_world, audit_points, base_taus,
    perturbed_taus); the last four are the raw material trace writers need.
    """
    c = cell_at(base, x_star)
    if loss.exceeds(c.fast_label, c.expert_label):
        raise DemoPreconditionError(
            f"x_star={x_star!r} lies in the disagreement region; the swap "
            "would not change anything there"
        )
    points = (float(x_star),) + tuple(
        p for p in _resolve_audit_points(cfg_mc, base) if p != x_star
    )
    cfg_points = McConfig(
        replications=cfg_mc.replications,
        master_seed=cfg_mc.master_seed,
        audit_points=points,
    )
    base_report, base_taus = audit_profile(
        base, loss, cfg_pac, cfg_points, n,
        algorithm=algorithm, stream=STREAM_AUDIT,
    )
    spec = make_perturbation(base, loss, x_star, eta, n)
    perturbed = perturb(base, loss, spec)
    pc = cell_at(perturbed, x_star)
    if not loss.exceeds(pc.fast_label, pc.expert_label):
        raise RuntimeError("perturbed world is not bad at x_star; construction bug")
    pert_report, pert_taus = audit_profile(
        perturbed, loss, cfg_pac, cfg_points, n,
        algorithm=algorithm, stream=STREAM_PERTURBED_AUDIT,
    )
    risk_est, risk_se = mc_joint_risk(
        base, loss, cfg_pac, cfg_mc.replications, cfg_mc.master_seed, n,
        algorithm=algorithm, stream=STREAM_JOINT,
    )
    deferral_mean = _mean_deferral_mass(base, base_taus)
    base_star = base_report.points[0]
    pert_star = pert_report.points[0]
    gap = abs(base_star.est_fast_prob - pert_star.est_fast_prob)
    combined_se = math.sqrt(base_star.std_err**2 + pert_star.std_err**2)
    tv_bound = tv_product_bound(spec.ball_mass, n)
    verdicts = {
        "demo_vacuous": base_star.est_fast_prob <= cfg_pac.alpha,
        "indistinguishable": gap <= tv_bound + 3.0 * combined_se,
        "conditional_violation": pert_star.est_violation_prob > cfg_pac.alpha,
        "marginal_holds": risk_est <= cfg_pac.alpha + 3.0 * risk_se,
        "nontrivial": deferral_mean < 1.0,
    }
    report = DemoReport(
        base_audit=base_report,
        perturbed_audit=pert_report,
        perturbation=spec,
        tv_bound=tv_bound,
        tv_coupling_bound=min(1.0, spec.n * spec.ball_mass),
        cross_world_gap=gap,
        combined_std_err=combined_se,
        marginal_risk_base=risk_est,
        marginal_risk_std_err=risk_se,
        deferral_mass_mean=deferral_mean,
        verdicts=verdicts,
    )
    return report, perturbed, points, base_taus, pert_taus


def iter_trace_rows(
    w: CellWorld, loss: LossSpec, points, tau_values: np.ndarray
):
    """Yield (replication, point, tau_hat, g, risk_exceeded) rows for CSV traces."""
    cells = [cell_at(w, float(x)) for x in points]
    bad = [loss.exceeds(c.fast_label, c.expert_label) for c in cells]
    for r, tau in enumerate(tau_values):
        tau_out = "ALWAYS_DEFER" if tau == -np.inf else float(tau)
        for x, c, is_bad in zip(points, cells, bad):
            g = 0 if c.score <= tau else 1
            yield r, float(x), tau_out, g, int(g == 0 and is_bad)
