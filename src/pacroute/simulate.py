"""Monte-Carlo resampling and the exact law of routing guarantees.

Estimates two kinds of probability over fresh calibration sets: pointwise
("how often is this x routed fast / hurt") and joint ("how often does a
fresh input suffer risk above epsilon"). An exact oracle gives the same
probabilities in closed form at any calibration size; a demo pipeline
stitches calibration, audit and the adversarial perturbation into one report.

Determinism: replication r of stream s draws the first cells - 1 uniforms
of ``Generator(PCG64(SeedSequence(entropy=master_seed, spawn_key=(s, r))))``,
which ``_kernels.uniform_columns`` recomputes bit for bit across a chunk of
replications. Because scores and labels are cell-constant, a replication's
outcome depends only on how many of its calibration points land in each cell
(its occupancy counts), and ``_kernels.occupancy_counts`` draws those from
the uniforms by conditional binomial inversion: uniform c gives cell c's
count, and the last cell takes the rest. Chunks of CHUNK replications are
seeded, counted and walked one after another, so results do not depend on
how the work is split. A chunk holds CHUNK sets, fewer on worlds of more than
CHUNK_CELLS // CHUNK cells, and is tallied (and traced) before the next is
drawn: memory is one chunk's working set, whatever the calibration size and
replication count, plus one tally entry per threshold and the cells' CDF
tables. Monte-Carlo chunks and the exact oracle read the count walk of
:mod:`pacroute.calibrate`; the oracle computes its closed-form law a block
of stops at a time, and sums it one stop at a time.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

# the seeding seam, looked up at call time: perfbench/spans.py times it by this name
from ._kernels import occupancy_counts as _replication_uniforms
from ._kernels import CHUNK  # replications seeded, counted and walked together
from ._kernels import cell_indices
from .adversary import DemoPreconditionError, PerturbationSpec, perturb, tv_product_bound
from .calibrate import PacConfig, _select, _walk, binomial_tail
from .risk import (ALWAYS_DEFER, LossSpec, cell_exceedance_flags, exact_deferral_mass,
                   exact_miscoverage)
from .serialize import encode_threshold
from .worlds import CellWorld, cell_at

__all__ = [
    "JOINT",
    "McConfig",
    "PointAudit",
    "AuditReport",
    "DemoReport",
    "OracleResult",
    "default_audit_points",
    "audit_profile",
    "mc_joint_risk",
    "enumerate_distribution",
    "demo_with_replications",
    "trace_blocks",
]

JOINT = "joint"

# sets x cells per chunk: worlds of more than CHUNK_CELLS // CHUNK cells take
# fewer sets per chunk, so that a chunk's (sets, cells) arrays stay bounded
CHUNK_CELLS = CHUNK * 32

# trace rows formatted and written together; bounds the trace writer's memory
TRACE_BLOCK_ROWS = 8192

# bad shares whose tails one call reads: small stops share a call's overhead
LAW_BLOCK = 256

# independent substreams used by the demo pipeline
STREAM_AUDIT = 0
STREAM_JOINT = 1
STREAM_PERTURBED_AUDIT = 2

# audit points closer than this differ only by rounding and audit the same input
_TWIN_GAP = 1e-12


@dataclass(frozen=True)
class McConfig:
    """Resampling controls: replication count, master seed, audit grid.

    ``audit_points=None`` uses :func:`default_audit_points` for the world
    being audited. Given points are kept in order, less twins (``_drop_twins``).
    """

    replications: int
    master_seed: int
    audit_points: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("replications", "master_seed"):  # stored as Python ints
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 1 <= self.replications <= 2**32:
            # a replication index is one uint32 spawn-key word
            raise ValueError(f"replications must be in [1, 2**32], got {self.replications}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.audit_points is not None:
            if len(self.audit_points) == 0:
                raise ValueError("audit_points must be nonempty when given")
            for p in self.audit_points:
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"audit point {p!r} outside [0,1]")
            object.__setattr__(self, "audit_points", _drop_twins(self.audit_points))


@dataclass(frozen=True)
class PointAudit:
    """Estimates at one audited input; std_err is the binomial error of est_fast_prob."""

    x: float
    est_fast_prob: float
    est_violation_prob: float
    std_err: float


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


@dataclass(frozen=True)
class OracleResult:
    """Exact oracle output; total_probability is a 1.0 self-check."""

    value: float
    total_probability: float
    n_outcomes: int
    quantity: str


def _drop_twins(points) -> tuple[float, ...]:
    """``points`` as floats, in order, less any within _TWIN_GAP of a point
    kept before it. Kept points lie more than the gap apart, so a point is
    checked only against its two neighbours among them."""
    kept, ordered = [], []  # ordered: the kept points, sorted
    for p in map(float, points):
        i = bisect.bisect_left(ordered, p)
        if all(abs(p - q) > _TWIN_GAP for q in ordered[max(i - 1, 0):i + 1]):
            kept.append(p)
            ordered.insert(i, p)
    return tuple(kept)


def default_audit_points(w: CellWorld) -> tuple[float, ...]:
    """21 equispaced points plus every cell midpoint, sorted, less twins."""
    mids = (w.lefts + w.rights) / 2.0
    # np.sort, not np.unique (which imports numpy.ma): _drop_twins drops the repeats
    return _drop_twins(np.sort(np.concatenate([np.linspace(0.0, 1.0, 21), mids])))


def _tau_values_for_replications(
    w: CellWorld,
    loss: LossSpec,
    cfg_pac: PacConfig,
    n: int,
    replications: int,
    master_seed: int,
    stream: int,
    *,
    algorithm: str = "calibrated",
):
    """Yield ``(start, thresholds)`` per chunk, in order: the thresholds of
    replications ``start, start + 1, ...``, each chunk seeded, counted and
    walked only when asked for, so a caller that folds each chunk holds one
    chunk's working set, flat in ``n`` and bounded in cells.

    When b* < 0 (the trivial router, or a calibration too small to reject
    anything) every replication selects ALWAYS_DEFER, and nothing is drawn.
    """
    walk = _walk(w, loss, cfg_pac, n, algorithm)
    chunk = max(1, min(CHUNK, CHUNK_CELLS // w.n_cells))
    for start in range(0, replications, chunk):
        sets = min(chunk, replications - start)
        if walk[0] < 0:  # b*: no count rejects, every walk stops at position 0
            yield start, np.full(sets, ALWAYS_DEFER)
            continue
        counts = _replication_uniforms(master_seed, stream, sets, w.n_cells - 1, n, w.masses,
                                       start=start)
        yield start, _select(cfg_pac, walk, counts)


def _threshold_tally(chunks, visit=None) -> dict[float, int]:
    """The tally of ``(start, thresholds)`` chunks: each threshold, ascending, to
    its replication count. ``visit(start, thresholds)`` sees each chunk folded."""
    tally = Counter()
    for start, taus in chunks:
        values, counts = np.unique(taus, return_counts=True)
        tally.update(dict(zip(values.tolist(), counts.tolist())))
        if visit is not None:
            visit(start, taus)
    return dict(sorted(tally.items()))


def _tally_mean(tally: dict[float, int], value) -> float:
    """The mean of ``value(tau)`` over a tally's replications, summed over its
    distinct thresholds in ascending order."""
    return sum(k * value(tau) for tau, k in tally.items()) / sum(tally.values())


def audit_profile(
    w: CellWorld,
    loss: LossSpec,
    cfg_pac: PacConfig,
    cfg_mc: McConfig,
    n: int,
    *,
    algorithm: str = "calibrated",
    stream: int = STREAM_AUDIT,
    trace=None,
    trace_prefix: str = "",
) -> tuple[AuditReport, dict[float, int]]:
    """Estimate fast-usage and violation probabilities at each audit point.

    The report's ``trivial_verdict`` says whether the router ever uses the fast
    model more often than alpha. Returns (report, tally): the tally maps each
    selected threshold, ascending, to the number of replications that
    selected it. ``trace``, if given, is called with each chunk's
    ``trace_blocks`` (rows opened by ``trace_prefix``) as the chunk is walked.
    """
    points = cfg_mc.audit_points or default_audit_points(w)

    def traced(start, taus):
        trace(trace_blocks(w, loss, points, taus, trace_prefix, start=start))

    m = cfg_mc.replications
    tally = _threshold_tally(_tau_values_for_replications(
        w, loss, cfg_pac, n, m, cfg_mc.master_seed, stream, algorithm=algorithm),
        None if trace is None else traced)
    idx = cell_indices(w.rights, np.asarray(points, dtype=float))
    # a point is routed fast by every threshold at or above its score
    at_or_above = np.append(np.cumsum(list(tally.values())[::-1])[::-1], 0)
    fast = at_or_above[np.searchsorted(list(tally), w.scores[idx], side="left")] / m
    recs = tuple(
        PointAudit(x=float(x), est_fast_prob=est, est_violation_prob=est if is_bad else 0.0,
                   std_err=math.sqrt(est * (1.0 - est) / m))
        for x, est, is_bad in zip(points, fast.tolist(),
                                  cell_exceedance_flags(w, loss)[idx].tolist()))
    report = AuditReport(
        points=recs,
        max_fast_prob=max(r.est_fast_prob for r in recs),
        alpha=cfg_pac.alpha,
        trivial_verdict=all(r.est_fast_prob <= cfg_pac.alpha + 3.0 * r.std_err for r in recs),
        points_above_alpha=tuple(r.x for r in recs if r.est_fast_prob > cfg_pac.alpha),
        replications=m,
        algorithm=algorithm,
    )
    return report, tally


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

    Each replication calibrates on a fresh set of size n; a fresh input is
    then hurt with probability ``exact_miscoverage`` of the selected
    threshold, so the estimate is that value's mean over the replications.
    ``replications`` and ``master_seed`` follow McConfig's rule. Returns
    (estimate, standard error of the mean).
    """
    mc = McConfig(replications, master_seed)
    tally = _threshold_tally(_tau_values_for_replications(
        w, loss, cfg_pac, n, mc.replications, mc.master_seed, stream, algorithm=algorithm))
    risk = {tau: exact_miscoverage(w, loss, tau) for tau in tally}
    est = _tally_mean(tally, risk.get)
    spread = _tally_mean(tally, lambda tau: (risk[tau] - est)**2)
    return est, math.sqrt(spread) / math.sqrt(mc.replications)


def _threshold_law(w: CellWorld, loss: LossSpec, cfg_pac: PacConfig, n: int,
                   algorithm: str):
    """The exact law of the selected threshold, one block of stops at a time:
    yields (bounds, probabilities, thresholds), flat over the block's pairs
    (prev = a - 1, stop = j), stop by stop and a = 0..j within each; stop j
    of the block holds entries ``bounds[i]:bounds[i + 1]``.

    The points that count as bad by position p are Binomial(n, q_p), q_p the
    bad mass at positions <= p, and never fewer as p grows, so the walk passes
    p with probability P(Binomial(n, q_p) <= b*). Given positions a..j-1
    empty, the points fall on the others, so G(a, j) = P(positions a..j-1
    empty, stop at j) is (mass off them)^n times a difference of two such
    tails, and P(prev = i, stop = j) = G(i+1, j) - G(i, j). A block takes
    stops until their pairs' bad shares, two a pair, reach LAW_BLOCK; each
    numpy pass spans the block, and one tail call reads its shares."""
    b_star, position, bad_position, n_pos, threshold = _walk(w, loss, cfg_pac, n, algorithm)
    # masses by position; position n_pos holds the cells past a fixed grid
    mass = np.bincount(position, weights=w.masses, minlength=n_pos + 1)
    bad_mass = np.bincount(bad_position, weights=w.masses, minlength=n_pos + 1)
    bad_mass[n_pos] = 0.0  # "never": good cells, and bad cells past a fixed grid
    below = np.concatenate(([0.0], np.cumsum(mass)))  # mass on positions < a
    bad_below = np.concatenate(([0.0], np.cumsum(bad_mass)))
    above = np.cumsum(mass[::-1])[::-1]  # mass on positions >= j
    first = floor = 0  # no stop past those read has a pair a < floor with G > 0
    while first <= n_pos:
        # stops first..last, until their shares reach LAW_BLOCK: stop j has at
        # most 2(j + 1 - floor), two for each a = floor..j
        last, shares = first, 2 * (first + 1 - floor)
        while last < n_pos and shares < LAW_BLOCK:
            last += 1
            shares += 2 * (last + 1 - floor)
        sizes = np.arange(first + 1, last + 2)  # pairs of each stop
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        stop = np.repeat(np.arange(first, last + 1), sizes)
        a = np.arange(bounds[-1]) - np.repeat(bounds[:-1], sizes)
        rest = below[a] + above[stop]  # mass off positions a..j-1
        scale = np.where(a < stop, rest**n, 1.0)
        live = np.flatnonzero(scale > 0.0)  # G is 0 where the points cannot fall
        at, j = a[live], stop[live]
        q = np.concatenate((bad_below[at], bad_below[at] + bad_mass[j])) / np.tile(rest[live], 2)
        passed, stopped = np.split(binomial_tail(b_star, n, q), 2)
        g = np.zeros(len(stop))  # every walk reaches position 0, and none stops past the last
        g[live] = scale[live] * (np.where(j == 0, 1.0, passed)
                                 - np.where(j == n_pos, 0.0, stopped))
        probs = np.diff(g, prepend=0.0)
        probs[bounds[:-1]] = g[bounds[:-1]]  # a = 0: G(0, j), less nothing
        yield bounds.tolist(), probs, threshold(stop, a - 1)
        # rest falls as j grows, so a pair a that is 0 at the last stop stays 0
        floor = int(a[bounds[-2] + np.argmax(scale[bounds[-2]:] > 0.0)])
        first = last + 1


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

    Scores and labels are cell-constant, so the law over all C(n+cells-1,
    cells-1) occupancy vectors follows in closed form (``_threshold_law``), at
    any n. ``x`` is an input in [0,1] for P(routed fast at x), or ``JOINT``
    for the joint exceedance probability. Both quantities are step functions
    of the threshold, looked up once per block of stops; each stop is then
    summed on its own, in stop order. An n whose outcome count has more
    digits than ``str`` writes is refused first."""
    if x == JOINT:  # the bad mass at scores up to the threshold
        order = np.argsort(w.scores)
        scores, upto = w.scores[order], np.concatenate(
            ([0.0], np.cumsum((w.masses * cell_exceedance_flags(w, loss))[order])))
    else:  # 1 from x's score up
        x = float(x)
        scores, upto = np.array([cell_at(w, x).score]), np.array([0.0, 1.0])
    n_outcomes = math.comb(n + w.n_cells - 1, w.n_cells - 1)
    limit = sys.get_int_max_str_digits()
    if limit and n_outcomes >= 10**limit:
        raise ValueError(f"oracle.n = {n} on {w.n_cells} cells has more outcomes than "
                         f"a report can write: the count has more than {limit} digits")
    value = total = 0.0
    for bounds, probs, taus in _threshold_law(w, loss, cfg_pac, n, algorithm):
        weighted = probs * upto[np.searchsorted(scores, taus, side="right")]
        # one sum per stop: a sum over 8 or more terms pairs them up, by its length
        for lo, hi in zip(bounds, bounds[1:]):
            value += float(weighted[lo:hi].sum())
            total += float(probs[lo:hi].sum())
    return OracleResult(
        value=value,
        total_probability=total,
        n_outcomes=n_outcomes,
        quantity="joint_risk" if x == JOINT else f"fast_usage_at_{x}",
    )


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
    trace=None,
) -> DemoReport:
    """Audit a router at x_star, then again under a near-indistinguishable rival world.

    Pipeline: (1) solve and apply the local label swap around x_star, which
    draws nothing, so bad input is refused before any replication; (2) audit
    the base world (x_star is always the first audit point); (3) estimate the
    base joint risk and mean deferral mass; (4) audit the perturbed world
    with fresh replications.
    Verdicts:

      demo_vacuous          base fast-usage at x_star is within alpha, so the
                            router is already effectively trivial there
      indistinguishable     the two audits differ at x_star by no more than
                            the product TV bound plus Monte-Carlo error
      conditional_violation the perturbed world sees risk above epsilon at
                            x_star more often than alpha
      marginal_holds        the base joint risk estimate is within alpha
                            (plus Monte-Carlo error)
      nontrivial            the router actually saves work (mean deferral < 1)

    :func:`pacroute.adversary.perturb` refuses an x_star it cannot use with
    DemoPreconditionError. A router already trivial at x_star yields
    ``demo_vacuous``. An audit point within 1e-12 of x_star is dropped.

    ``trace``, if given, receives the rows of each audit lane as it is walked
    (``audit_profile``): the base rows, then the perturbed rows.
    """
    spec, perturbed = perturb(base, loss, x_star, eta, n)
    points = (x_star, *(cfg_mc.audit_points or default_audit_points(base)))
    cfg_points = replace(cfg_mc, audit_points=points)  # drops x_star's twins

    def audit(lane, w, stream):
        return audit_profile(w, loss, cfg_pac, cfg_points, n, algorithm=algorithm,
                             stream=stream, trace=trace, trace_prefix=f"{lane},")

    base_report, base_tally = audit("base", base, STREAM_AUDIT)
    risk_est, risk_se = mc_joint_risk(base, loss, cfg_pac, cfg_mc.replications,
                                      cfg_mc.master_seed, n, algorithm=algorithm)
    pert_report, _ = audit("perturbed", perturbed, STREAM_PERTURBED_AUDIT)
    deferral_mean = _tally_mean(base_tally, lambda tau: exact_deferral_mass(base, tau))
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
    return report


def trace_blocks(
    w: CellWorld, loss: LossSpec, points, tau_values: np.ndarray, prefix: str = "",
    start: int = 0,
):
    """Yield the CSV text of the (replication, point, tau_hat, g,
    risk_exceeded) rows of replications ``start, start + 1, ...``,
    replication-major, TRACE_BLOCK_ROWS rows or fewer at a time; ``prefix``
    (e.g. ``"base,"``) opens every row.

    A row depends on its replication only through the index and the
    threshold, so each distinct threshold's rows are formatted once, as the
    text pieces between the replication-index holes, and a replication is
    those pieces joined by its index: one int-to-text conversion per
    replication. The text is what ``csv.writer`` writes for those rows:
    ``repr`` floats, ALWAYS_DEFER as the string, ``\\r\\n`` line ends and
    nothing quoted."""
    idx = cell_indices(w.rights, np.asarray(points, dtype=float))
    rows = list(zip([repr(float(x)) for x in points], w.scores[idx].tolist(),
                    cell_exceedance_flags(w, loss)[idx].tolist()))
    templates: dict[float | str, list[str]] = {}

    def template(tau: float) -> list[str]:
        # g = 1: defer (score above tau); ties go fast
        tau_text = encode_threshold(tau)
        tails = [f",{x},{tau_text},{int(score > tau)},{int(score <= tau and is_bad)}\r\n"
                 for x, score, is_bad in rows]
        return [prefix, *(tail + prefix for tail in tails[:-1]), tails[-1]]

    per_block = max(1, TRACE_BLOCK_ROWS // len(rows))
    for first in range(0, len(tau_values), per_block):
        block = tau_values[first:first + per_block].tolist()
        parts = []
        for r, tau in enumerate(block, start + first):
            key = tau or repr(tau)  # 0.0 == -0.0, but their text differs
            pieces = templates.get(key)
            if pieces is None:
                pieces = templates[key] = template(tau)
            parts.append(str(r).join(pieces))
        yield "".join(parts)
