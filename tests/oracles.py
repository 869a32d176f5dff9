"""Independent test oracles, kept deliberately naive.

The production oracle computes the law of the selected threshold in closed
form, from binomial tails, one block of stops at a time. Two enumerators check it from
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

``threshold_law_by_stop`` is the closed form as the production law computed
it before it took a block of stops per numpy pass: one stop at a time, each
stop's pairs in their own arrays. It reads the same tails, so the two agree
bit for bit.

Two references check the production tail ``calibrate.binomial_tail``.
``binomial_pvalue_table`` is the tail it replaced: a Python loop over all
n + 1 ``math.lgamma`` terms, summed from the smaller end. Each term's log is
off by a few ulp of ``n log n``, so the table is off by 3.4e-13 relative at
n = 300 and about 1e-11 at 10^4. ``exact_tail_row`` is the exact rational
tail of the float ``t``, rounded once, for n up to a few hundred.

``csv_trace_text`` is the reference for the trace writer: one tuple per row,
formatted by ``csv.writer``.

``generator_counts`` is the reference for the Monte-Carlo counts: one set
at a time, numpy's own Generator draws the set's cells - 1 uniforms, and
each cell's count is searched in a lone CDF row for the points left
(``_kernels._cdf``), the last cell taking the rest.
``joint_risk_by_test_draws`` estimates the joint risk the direct way: each
replication draws one more uniform from that Generator, a fresh test input,
and counts as risky when the input's cell is bad and routed fast.

``exceeds_scalar``, ``pointwise_risk_scalar``, ``max_rejectable_count_scan``,
``stop_position_scan`` and ``select_threshold_loop`` are the
one-value-at-a-time rules that the array forms in :mod:`pacroute.risk`,
:mod:`pacroute.calibrate` and :mod:`pacroute._kernels` replaced.
``select_threshold_loop`` walks the grid of ``auto_threshold_grid``,
counting ``empirical_exceedances`` afresh and reading a scalar
p-value at each threshold from ``binomial_tail``; it shares no code with the
count walk that ``select_threshold`` runs. ``max_rejectable_count_scan`` reads
the same tail, so both compare exactly: they check the search and the walk,
and the references above check the tail.
"""

import csv
import functools
import io
import itertools
import math
from fractions import Fraction

import numpy as np

import pacroute as pr
from pacroute._kernels import _cdf, _window, cell_indices
from pacroute.calibrate import (
    CalibrationOutcome,
    TestedThreshold,
    _select,
    _walk,
    binomial_tail,
    check_epsilon_match,
)
from pacroute.risk import ALWAYS_DEFER, cell_exceedance_flags, check_loss_compatible
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
    """Scan the tail at every count up to the first whose p-value exceeds delta."""
    best = -1
    for b, p in enumerate(binomial_tail(np.arange(n + 1), n, t).tolist()):
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


def _generator_cells(w, cols, replications, master_seed, stream):
    """(replications, cols) cells of the uniforms replication r draws from
    ``Generator(PCG64(SeedSequence(master_seed, spawn_key=(stream, r))))``."""
    return cell_indices(w.mass_cdf, np.array([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            master_seed, spawn_key=(stream, r)))).random(cols)
        for r in range(replications)]))


def _taus_of_cells(w, loss, pac, n, cells, algorithm="calibrated"):
    """``_select`` on the occupancy counts of each row's first n ``cells``;
    as in the engine, b* < 0 selects ALWAYS_DEFER."""
    walk = _walk(w, loss, pac, n, algorithm)
    if walk[0] < 0:
        return np.full(len(cells), ALWAYS_DEFER)
    counts = np.array([np.bincount(row[:n], minlength=w.n_cells) for row in cells])
    return _select(pac, walk, counts)


@functools.lru_cache(maxsize=4096)
def _lone_row(r, p):
    """``(lo, row)``: row r of Binomial(r, p)'s CDF from its window's start,
    computed on its own."""
    rows, q = np.array([[r]]), np.array([[p]])
    lo, hi = (int(v[0, 0]) for v in _window(rows, q))
    return lo, _cdf(rows, np.arange(lo, min(hi + 1, r))[None], q)[0]


def chain_counts_scalar(n, masses, u):
    """The occupancy counts that the cells - 1 uniforms ``u`` of one set draw:
    cell c takes the entries of its CDF row for the points left that are
    <= u[c], the row computed on its own, and the last cell takes the rest."""
    m = np.asarray(masses, dtype=float)
    rest = np.cumsum(m[::-1])[::-1]
    counts, left = [], n
    for c in range(len(m) - 1):
        p = m[c] / rest[c] if rest[c] > 0 else 0.0
        if p in (0.0, 1.0):
            k = left if p else 0
        else:
            lo, row = _lone_row(left, float(p))
            k = lo + int(np.searchsorted(row, u[c], side="right"))
        counts.append(k)
        left -= k
    return counts + [left]


def generator_counts(w, n, replications, master_seed, stream, start=0):
    """(replications, cells) counts of ``chain_counts_scalar`` over the
    uniforms of ``Generator(PCG64(SeedSequence(master_seed, spawn_key=(stream,
    r))))``, r from ``start``."""
    return np.array([chain_counts_scalar(n, w.masses, np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=(stream, r)))).random(w.n_cells - 1))
        for r in range(start, start + replications)]).reshape(replications, w.n_cells)


def joint_risk_by_test_draws(w, loss, pac, n, replications, master_seed, stream=1,
                             algorithm="calibrated"):
    """(estimate, binomial standard error) of the joint risk: replication r
    draws n + 1 uniforms, selects its threshold from the first n, and is
    risky when column n's cell is bad and its score is at or below the
    threshold."""
    cells = _generator_cells(w, n + 1, replications, master_seed, stream)
    taus = _taus_of_cells(w, loss, pac, n, cells, algorithm)
    test = cells[:, n]
    est = float(np.mean(cell_exceedance_flags(w, loss)[test] & (w.scores[test] <= taus)))
    return est, math.sqrt(est * (1.0 - est) / replications)


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


def threshold_law_by_stop(w, loss, pac, n, algorithm="calibrated", block=256):
    """For each stop j, (probabilities, thresholds) of (prev = a - 1, stop = j)
    for a = 0..j: G(a, j) as in ``threshold_law_scalar``, with the pairs
    whose (mass off a..j-1)^n is 0 skipped, and the tails of stops read
    together until their bad shares reach ``block``."""
    b_star, position, bad_position, n_pos, threshold = _walk(w, loss, pac, n, algorithm)
    mass = np.bincount(position, weights=w.masses, minlength=n_pos + 1)
    bad_mass = np.bincount(bad_position, weights=w.masses, minlength=n_pos + 1)
    bad_mass[n_pos] = 0.0
    below = np.concatenate(([0.0], np.cumsum(mass)))
    bad_below = np.concatenate(([0.0], np.cumsum(bad_mass)))
    above = np.cumsum(mass[::-1])[::-1]
    stops, pending = [], []  # (stop, scale, live, bad shares q_(j-1) and q_j) not yet read
    for j in range(n_pos + 1):
        rest = below[:j + 1] + above[j]
        scale = np.append(rest[:j]**n, 1.0)
        live = np.flatnonzero(scale > 0.0)
        pending.append((j, scale, live, (bad_below[live] + [[0.0], [bad_mass[j]]]) / rest[live]))
        if j < n_pos and sum(q.size for *_, q in pending) < block:
            continue
        tails = binomial_tail(b_star, n, np.concatenate([q for *_, q in pending], axis=1))
        ends = np.cumsum([q.shape[1] for *_, q in pending])[:-1]
        for (j, scale, live, _), (passed, stopped) in zip(pending, np.split(tails, ends, axis=1)):
            g = np.zeros(j + 1)
            g[live] = scale[live] * ((1.0 if j == 0 else passed)
                                     - (0.0 if j == n_pos else stopped))
            stops.append((np.diff(g, prepend=0.0), threshold(j, np.arange(-1, j))))
        pending = []
    return stops


def binomial_pvalue_table(n, t):
    """Lower-tail CDF of Binomial(n, t) at every count 0..n, by a Python loop
    over n + 1 ``math.lgamma`` terms, summed directly from whichever end is
    smaller: the prefix when the tail is below one half, else one minus the
    suffix."""
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
    return np.minimum(np.maximum.accumulate(cdf), 1.0)


def exact_tail_row(n, t):
    """P(Binomial(n, t) <= k) for k = 0..n, exact for the float ``t`` and
    rounded once to the nearest float (``int / int`` rounds correctly)."""
    p, d = Fraction(t).as_integer_ratio()
    terms = (math.comb(n, i) * p**i * (d - p)**(n - i) for i in range(n + 1))
    return [s / d**n for s in itertools.accumulate(terms)]


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


@functools.lru_cache(maxsize=4096)
def _p_value(b, n, test_level):
    """The scalar ``binomial_tail`` p-value, once per (b, n, test_level): a
    reference walk over thousands of sets asks for the same few values."""
    return float(binomial_tail(b, n, test_level))


def select_threshold_loop(d, w, loss, cfg):
    """``select_threshold`` counting each grid threshold's exceedances afresh."""
    n = len(d)
    check_epsilon_match(cfg, loss)
    grid = cfg.threshold_grid or auto_threshold_grid(w.scores[cell_indices(w.rights, d.xs)])
    tested = []
    tau_hat = ALWAYS_DEFER
    for tau in grid:
        b = empirical_exceedances(d, w, loss, tau)
        p = _p_value(b, n, cfg.test_level)
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
