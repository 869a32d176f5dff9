"""Independent test oracles, kept deliberately naive.

The production oracle computes the law of the selected threshold in closed
form, from binomial tails, one stop at a time. Two enumerators check it from
other routes, and a scalar form of the same closed form checks it at any n:

- ``brute_force_enumerate`` loops over ordered cell assignments with product
  probabilities, rebuilding a calibration set per assignment and running
  ``select_threshold_loop`` on it, which shares no code with the count walk.
  It costs cells**n, so it serves n <= 6.
- ``occupancy_enumerate`` sums over the C(n+cells-1, cells-1) occupancy
  vectors with multinomial weights, selecting each vector's threshold with
  the Monte-Carlo walk's count-based selection. It is the exact reference at
  the sizes the Monte-Carlo runs use (n = 100) on worlds of at most 3 cells.
- ``threshold_law_scalar`` is the closed form one (prev, stop) pair at a
  time, each binomial tail read from a full ``binomial_pvalue_table``, and
  each threshold's quantity computed by ``exact_miscoverage``.

``csv_trace_text`` is the reference for the trace writer: one tuple per row,
formatted by ``csv.writer``.

``taus_drawing_every_column`` is the Monte-Carlo selection with no set
dropped early: every column drawn from numpy's own Generator.

``exceeds_scalar``, ``pointwise_risk_scalar``, ``max_rejectable_count_scan``,
``stop_position_scan`` and ``select_threshold_loop`` are the
one-value-at-a-time rules that the array forms in :mod:`pacroute.risk`,
:mod:`pacroute.calibrate` and :mod:`pacroute._kernels` replaced.
``select_threshold_loop`` walks the grid of ``auto_threshold_grid``,
counting ``empirical_exceedances`` afresh and reading a scalar
``binomial_pvalue`` at each threshold; it shares no code with the count walk
that ``select_threshold`` runs.
"""

import csv
import io
import itertools
import math

import numpy as np

import pacroute as pr
from pacroute._kernels import cell_indices
from pacroute.calibrate import (
    CalibrationOutcome,
    TestedThreshold,
    _select,
    _walk,
    binomial_pvalue_table,
    check_epsilon_match,
)
from pacroute.risk import ALWAYS_DEFER, check_loss_compatible
from pacroute.serialize import encode_threshold


def exceeds_scalar(loss, prediction, truth):
    """Is one label pair bad: its loss strictly above epsilon?"""
    return loss.value(prediction, truth) > loss.epsilon


def pointwise_risk_scalar(w, loss, tau, x):
    """Loss incurred at one x: zero when its cell's score is above ``tau`` (the
    expert answers; ties go fast), else the fast label's loss against the expert's."""
    c = pr.cell_at(w, x)
    return 0.0 if c.score > tau else loss.value(c.fast_label, c.expert_label)


def max_rejectable_count_scan(n, t, delta):
    """Scan the p-value table up to the first count whose p-value exceeds delta."""
    best = -1
    for b, p in enumerate(binomial_pvalue_table(n, t)):
        if p > delta:
            break
        best = b
    return best


def stop_position_scan(counts, position, b_star, n_positions):
    """One set's stop: walk the positions in order, adding each cell's count
    from its position on, and stop at the first running count above b_star."""
    running = 0
    for p in range(n_positions):
        running += sum(k for k, q in zip(counts, position) if q == p)
        if running > b_star:
            return p
    return n_positions


def brute_force_enumerate(w, loss, pac, n, x, algorithm="calibrated"):
    """Return (value, total_probability) by looping over all cells**n assignments."""
    mids = [(c.left + c.right) / 2.0 for c in w.cells]
    value = 0.0
    total = 0.0
    for assign in itertools.product(range(len(w.cells)), repeat=n):
        prob = 1.0
        for c in assign:
            prob *= w.cells[c].mass
        if prob == 0.0:
            continue
        total += prob
        if algorithm == "trivial":
            tau = ALWAYS_DEFER
        else:
            xs = np.array([mids[c] for c in assign])
            ys = np.array([w.cells[c].expert_label for c in assign], dtype=np.int64)
            tau = select_threshold_loop(pr.CalibrationSet(xs=xs, ys=ys), w, loss, pac).tau_hat
        if x == pr.JOINT:
            q = pr.exact_miscoverage(w, loss, tau)
        elif tau is ALWAYS_DEFER:
            q = 0.0
        else:
            q = 1.0 if pr.cell_at(w, x).score <= tau else 0.0
        value += prob * q
    return value, total


def taus_drawing_every_column(w, loss, pac, n, replications, master_seed, stream,
                              need_test_draws=False, algorithm="calibrated"):
    """``_tau_values_for_replications`` with every column drawn: replication
    r draws n (+1) uniforms from ``Generator(PCG64(SeedSequence(master_seed,
    spawn_key=(stream, r))))`` and ``_select`` reads its full occupancy
    counts. As there, b* < 0 draws nothing: ALWAYS_DEFER, test cells 0."""
    walk = _walk(w, loss, pac, n, algorithm)
    if walk[0] < 0:
        return (np.full(replications, ALWAYS_DEFER),
                np.zeros(replications, dtype=np.int64) if need_test_draws else None)
    cells = cell_indices(w.mass_cdf, np.array([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            master_seed, spawn_key=(stream, r)))).random(n + need_test_draws)
        for r in range(replications)]))
    counts = np.array([np.bincount(row[:n], minlength=w.n_cells) for row in cells])
    return _select(pac, walk, counts), cells[:, n] if need_test_draws else None


def _compositions(total, bins):
    if bins == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, bins - 1):
            yield (head,) + rest


def occupancy_enumerate(w, loss, pac, n, x, algorithm="calibrated"):
    """Return (value, total_probability) by summing over occupancy vectors."""
    outcomes = list(_compositions(n, len(w.cells)))
    taus = _select(pac, _walk(w, loss, pac, n, algorithm), np.array(outcomes))
    value = 0.0
    total = 0.0
    for counts, tau in zip(outcomes, taus.tolist()):
        prob = float(math.factorial(n) // math.prod(map(math.factorial, counts)))
        for c, k in enumerate(counts):
            if k:
                prob *= w.cells[c].mass ** k
        total += prob
        if x == pr.JOINT:
            q = pr.exact_miscoverage(w, loss, tau)
        else:
            q = 1.0 if pr.cell_at(w, x).score <= tau else 0.0
        value += prob * q
    return value, total


def _lower_tail(b_star, n, t):
    """P(Binomial(n, t) <= b_star), also at b_star = -1 and t in {0, 1}."""
    if b_star < 0 or (t >= 1.0 and b_star < n):
        return 0.0
    if t <= 0.0 or b_star >= n:
        return 1.0
    return float(binomial_pvalue_table(n, float(t))[b_star])


def threshold_law_scalar(w, loss, pac, n, x, algorithm="calibrated"):
    """Return (value, total_probability) of the closed-form law, pair by pair.

    G(a, j) = P(positions a..j-1 empty, stop at j) is (mass off them)^n times
    P(Binomial(n, q) <= b*) at the bad mass q by position j - 1 less that at
    j, both given those positions empty, and P(prev = a - 1, stop = j) =
    G(a, j) - G(a - 1, j)."""
    b_star, position, bad_position, n_pos, threshold = _walk(w, loss, pac, n, algorithm)
    mass = np.bincount(position, weights=w.masses, minlength=n_pos + 1)
    bad_mass = np.bincount(bad_position, weights=w.masses, minlength=n_pos + 1)
    below = np.concatenate(([0.0], np.cumsum(mass)))
    bad_below = np.concatenate(([0.0], np.cumsum(bad_mass)))
    above = np.cumsum(mass[::-1])[::-1]
    g = np.zeros((n_pos + 1, n_pos + 1))  # g[j, a] = G(a, j) for a <= j
    for j in range(n_pos + 1):
        for a in range(j + 1):
            rest = below[a] + above[j]
            if rest <= 0.0:
                continue
            passed = 1.0 if j == 0 else _lower_tail(b_star, n, bad_below[a] / rest)
            stopped = (0.0 if j == n_pos
                       else _lower_tail(b_star, n, (bad_below[a] + bad_mass[j]) / rest))
            g[j, a] = (rest**n if a < j else 1.0) * (passed - stopped)
    stop, a = np.tril_indices(n_pos + 1)
    probs = np.diff(g, axis=1, prepend=0.0)[stop, a]
    taus = np.broadcast_to(threshold(stop, a - 1), probs.shape)
    value = total = 0.0
    for prob, tau in zip(probs.tolist(), taus.tolist()):
        total += prob
        if x == pr.JOINT:
            value += prob * pr.exact_miscoverage(w, loss, tau)
        elif pr.cell_at(w, x).score <= tau:
            value += prob
    return value, total


def binomial_pvalue(b, n, t):
    """Exact P(Binomial(n, t) <= b); the p-value for H0: exceedance rate > t."""
    if not 0 <= b <= n:
        raise ValueError(f"need 0 <= b <= n, got b={b} n={n}")
    return float(binomial_pvalue_table(n, t)[b])


def empirical_exceedances(d, w, loss, tau):
    """Count calibration points routed fast at ``tau`` whose fast answer is bad.

    Scores and fast labels come from the world; truth labels come from the
    calibration set itself, so the statistic stays correct when the data were
    drawn from a relabeled variant of ``w``.
    """
    if len(d) == 0:
        raise ValueError("calibration set is empty")
    check_loss_compatible(w, loss)
    idx = cell_indices(w.rights, d.xs)
    return int(np.sum((w.scores[idx] <= tau) & loss.exceeds(w.fast_labels[idx], d.ys)))


def auto_threshold_grid(observed_scores):
    """Grid from observed scores: midpoints between distinct values, plus one above.
    A midpoint that rounds up onto the higher value (the two are one ulp
    apart) is the lower value instead, so that the higher one is not routed fast."""
    s = np.unique(np.asarray(observed_scores, dtype=float))
    if s.size == 0:
        raise ValueError("no observed scores to build a grid from")
    mids = [(a + b) / 2.0 if (a + b) / 2.0 < b else a for a, b in zip(s[:-1], s[1:])]
    return tuple(float(v) for v in mids) + (float(s[-1]) + 1.0,)


def select_threshold_loop(d, w, loss, cfg):
    """``select_threshold`` counting each grid threshold's exceedances afresh."""
    n = len(d)
    check_epsilon_match(cfg, loss)
    grid = cfg.threshold_grid or auto_threshold_grid(w.scores[cell_indices(w.rights, d.xs)])
    tested = []
    tau_hat = ALWAYS_DEFER
    for tau in grid:
        b = empirical_exceedances(d, w, loss, tau)
        p = binomial_pvalue(b, n, cfg.test_level)
        rejected = p <= cfg.delta_split
        tested.append(TestedThreshold(tau=tau, exceedances=b, p_value=p, rejected=rejected))
        if not rejected:
            break
        tau_hat = tau
    return CalibrationOutcome(tau_hat=tau_hat, tested=tuple(tested), n=n)


def mc_interval_probability(w, a, b, n_samples=100_000, seed=0):
    """Monte-Carlo estimate of P(a < X < b) straight from sample_calibration."""
    d = pr.sample_calibration(w, n_samples, seed)
    return float(np.mean((d.xs > a) & (d.xs < b)))


def iter_trace_rows(w, loss, points, tau_values):
    """Yield (replication, point, tau_hat, g, risk_exceeded) rows, one per
    replication and point."""
    cells = [pr.cell_at(w, float(x)) for x in points]
    bad = [exceeds_scalar(loss, c.fast_label, c.expert_label) for c in cells]
    for r, tau in enumerate(tau_values):
        tau_out = encode_threshold(tau)
        for x, c, is_bad in zip(points, cells, bad):
            g = 0 if c.score <= tau else 1
            yield r, float(x), tau_out, g, int(g == 0 and is_bad)


def csv_trace_text(w, loss, points, tau_values, lane=None):
    """The trace rows as ``csv.writer`` writes them, each led by ``lane`` if given."""
    lead = () if lane is None else (lane,)
    buf = io.StringIO()
    csv.writer(buf).writerows(lead + row for row in iter_trace_rows(w, loss, points, tau_values))
    return buf.getvalue()
