"""The hot replication kernel, vectorized in numpy.

The kernel turns a block of uniform draws into one selected-threshold index
per replication. It performs only integer comparisons on pre-drawn uniforms,
so its output depends on nothing but its inputs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["active_backend", "tau_indices"]


def active_backend() -> str:
    """Name of the kernel implementation, for environment records."""
    return "numpy"


def _tau_indices_numpy(
    u: np.ndarray, cdf: np.ndarray, first_k: np.ndarray, b_star: int, n_grid: int
) -> np.ndarray:
    m, _ = u.shape
    n_cells = cdf.shape[0]
    cells = np.minimum(np.searchsorted(cdf, u, side="right"), n_cells - 1)
    fk = first_k[cells]
    # per-replication histogram of "first counting grid index"; n_grid bins plus
    # one overflow bin for samples that never count
    flat = fk + np.arange(m)[:, None] * (n_grid + 1)
    counts = np.bincount(flat.ravel(), minlength=m * (n_grid + 1)).reshape(
        m, n_grid + 1
    )
    b = np.cumsum(counts[:, :n_grid], axis=1)
    still_rejecting = b <= b_star
    n_rejected = np.where(
        still_rejecting.all(axis=1), n_grid, np.argmin(still_rejecting, axis=1)
    )
    return (n_rejected - 1).astype(np.int64)


def tau_indices(
    u: np.ndarray,
    cdf: np.ndarray,
    first_k: np.ndarray,
    b_star: int,
    n_grid: int,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Selected grid index per replication; -1 means no threshold was accepted.

    ``u`` is (replications, n) uniforms in [0,1). ``first_k[c]`` is the first
    grid index at which cell ``c``'s samples count as exceedances (n_grid =
    never). ``b_star`` is the largest exceedance count that still rejects.
    Fixed-sequence semantics: stop at the first grid point whose count
    exceeds ``b_star``; return how many were rejected, minus one.

    ``workers`` splits replications into contiguous chunks evaluated on a
    thread pool; results are reassembled in order, so the output is identical
    for any worker count.
    """
    m = u.shape[0]
    if workers <= 1 or m < 2 * workers:
        return _tau_indices_numpy(u, cdf, first_k, b_star, n_grid)
    bounds = np.linspace(0, m, workers + 1).astype(int)
    chunks = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    out = np.empty(m, dtype=np.int64)
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [
            (a, b, pool.submit(
                _tau_indices_numpy, u[a:b], cdf, first_k, b_star, n_grid
            ))
            for a, b in chunks
        ]
        for a, b, fut in futures:
            out[a:b] = fut.result()
    return out
