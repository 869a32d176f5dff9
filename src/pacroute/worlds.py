"""Synthetic worlds: piecewise-uniform joint distributions on [0,1] x labels.

A world is an ordered list of cells tiling [0,1]. Within a cell, inputs are
uniform with total probability ``mass``, and the expert label, fast label and
router score are constant. Cell-constant functions keep every population
quantity (interval masses, miscoverage, deferral) exactly computable, which
is what the exact oracles rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import cell_indices, chain_counts

__all__ = [
    "Cell",
    "CellWorld",
    "CalibrationSet",
    "WorldValidationError",
    "validate_world",
    "cell_at",
    "cell_index_at",
    "interval_mass",
    "split_at",
    "sample_calibration",
    "normalized_masses",
    "world_from_dict",
    "load_world",
]

MASS_TOL = 1e-12


class WorldValidationError(ValueError):
    """Raised by loaders when a world fails validation.

    Carries the full violation list so callers can report every problem
    at once.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class Cell:
    """One tile of the input space: uniform on [left, right) with the given mass.

    Labels and score are constant on the cell.
    """

    left: float
    right: float
    mass: float
    expert_label: int
    fast_label: int
    score: float


@dataclass(frozen=True)
class CellWorld:
    """A joint distribution over ([0,1], labels), as contiguous cells.

    Immutable after construction; derived arrays are cached and shared.
    Use :func:`validate_world` to check invariants (tiling, unit mass,
    label range).
    """

    cells: tuple[Cell, ...]
    alphabet_size: int

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @cached_property
    def lefts(self) -> np.ndarray:
        return np.array([c.left for c in self.cells])

    @cached_property
    def rights(self) -> np.ndarray:
        return np.array([c.right for c in self.cells])

    @cached_property
    def masses(self) -> np.ndarray:
        return np.array([c.mass for c in self.cells])

    @cached_property
    def scores(self) -> np.ndarray:
        return np.array([c.score for c in self.cells])

    @cached_property
    def expert_labels(self) -> np.ndarray:
        return np.array([c.expert_label for c in self.cells], dtype=np.int64)

    @cached_property
    def fast_labels(self) -> np.ndarray:
        return np.array([c.fast_label for c in self.cells], dtype=np.int64)

    @cached_property
    def mass_cdf(self) -> np.ndarray:
        return np.cumsum(self.masses)


@dataclass(frozen=True)
class CalibrationSet:
    """Labeled calibration draws (x_i, y_i), y_i = expert label at x_i."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")

    def __len__(self) -> int:
        return int(self.xs.shape[0])


def validate_world(w: CellWorld) -> list[str]:
    """Return every invariant violation; an empty list means the world is valid."""
    out: list[str] = []
    if w.alphabet_size < 2:
        out.append(f"alphabet_size must be >= 2, got {w.alphabet_size}")
    if not w.cells:
        out.append("world has no cells")
        return out
    for i, c in enumerate(w.cells):
        if not c.left < c.right:
            out.append(f"cell {i}: left {c.left!r} must be < right {c.right!r}")
        elif not _midpoint_inside(c.left, c.right):
            out.append(f"cell {i}: midpoint of [{c.left!r}, {c.right!r}) is not inside it")
        if not c.mass >= 0.0:
            out.append(f"cell {i}: mass {c.mass!r} must be >= 0")
        if not np.isfinite(c.score):
            out.append(f"cell {i}: score {c.score!r} must be finite")
        for name, label in (("expert", c.expert_label), ("fast", c.fast_label)):
            if not (isinstance(label, (int, np.integer)) and 0 <= label < w.alphabet_size):
                out.append(
                    f"cell {i}: {name} label {label!r} outside alphabet "
                    f"[0, {w.alphabet_size})"
                )
    if w.cells[0].left != 0.0:
        out.append(f"first cell must start at 0, got {w.cells[0].left!r}")
    if w.cells[-1].right != 1.0:
        out.append(f"last cell must end at 1, got {w.cells[-1].right!r}")
    for i in range(len(w.cells) - 1):
        a, b = w.cells[i].right, w.cells[i + 1].left
        if a != b:
            out.append(f"gap or overlap at cell {i}/{i + 1}: {a!r} != {b!r}")
    total = float(np.sum(w.masses))
    if abs(total - 1.0) > MASS_TOL:
        out.append(f"total mass {total!r} differs from 1 by more than {MASS_TOL}")
    return out


def _midpoint_inside(left: float, right: float) -> bool:
    # false when no float lies strictly between the edges: the midpoint rounds to right
    return (left + right) / 2.0 < right


def cell_index_at(w: CellWorld, x: float) -> int:
    """Index of the cell owning x. Cells are [left, right); x=1 belongs to the last."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x!r}")
    return int(cell_indices(w.rights, x))


def cell_at(w: CellWorld, x: float) -> Cell:
    """The unique cell with left <= x < right (x=1 owned by the last cell)."""
    return w.cells[cell_index_at(w, x)]


def interval_mass(w: CellWorld, a: float, b: float) -> float:
    """Exact probability of the interval (a, b) under the world's X-marginal."""
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r} b={b!r}")
    total = 0.0
    for c in w.cells:
        overlap = min(b, c.right) - max(a, c.left)
        if overlap > 0.0:
            total += c.mass * (overlap / (c.right - c.left))
    # summation noise can overshoot 1 by an ulp on the full interval
    return min(total, 1.0)


def split_at(w: CellWorld, points) -> CellWorld:
    """Refine cell boundaries to include ``points`` without changing the distribution.

    Each affected cell is cut into pieces whose masses are proportional to
    length; the last piece takes the exact remainder so total mass is
    conserved bit-for-bit. Points on a boundary, and cuts that would leave a
    piece without its own float midpoint, are no-ops.
    """
    pts = sorted({float(p) for p in points if 0.0 < p < 1.0})
    if not pts:
        return w
    new_cells: list[Cell] = []
    for c in w.cells:
        inner = [p for p in pts if c.left < p < c.right]
        if not inner:
            new_cells.append(c)
            continue
        cuts = [c.left]
        for p in inner:
            if _midpoint_inside(cuts[-1], p) and _midpoint_inside(p, c.right):
                cuts.append(p)
        cuts.append(c.right)
        length = c.right - c.left
        assigned = 0.0
        for j in range(len(cuts) - 1):
            lo, hi = cuts[j], cuts[j + 1]
            if j < len(cuts) - 2:
                m = c.mass * ((hi - lo) / length)
                assigned += m
            else:
                m = c.mass - assigned
            new_cells.append(
                Cell(lo, hi, m, c.expert_label, c.fast_label, c.score)
            )
    return CellWorld(cells=tuple(new_cells), alphabet_size=w.alphabet_size)


def sample_calibration(w: CellWorld, n: int, seed) -> CalibrationSet:
    """Draw n labeled points: counts per cell by mass, positions uniform in
    their cells.

    ``seed`` is anything ``numpy.random.default_rng`` accepts (int or
    SeedSequence). The generator's first cells - 1 uniforms give the cells'
    counts as the Monte-Carlo engine draws them (``_kernels.chain_counts``,
    each count searched in its own row: one set would not repay the tables),
    and the next n place the points, cell by cell. Labels are the owning
    cell's expert label, so they match ``cell_at`` exactly.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    counts = chain_counts(n, w.masses, rng.random((w.n_cells - 1, 1)), tables=False)[:, 0]
    cells = np.repeat(np.arange(w.n_cells), counts)
    lefts = w.lefts[cells]
    rights = w.rights[cells]
    xs = lefts + rng.random(n) * (rights - lefts)
    # rounding can push x onto the next cell's left edge; pull it back inside
    hit = xs >= rights
    if np.any(hit):
        xs[hit] = np.nextafter(rights[hit], lefts[hit])
    ys = w.expert_labels[cells]
    return CalibrationSet(xs=xs, ys=ys)


def normalized_masses(weights) -> list[float]:
    """Scale nonnegative weights to masses summing to exactly 1.0.

    The largest entry absorbs the float residual, keeping every mass
    nonnegative.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-d sequence")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    s = float(np.sum(w))
    if s <= 0:
        raise ValueError("weights must have positive sum")
    m = w / s
    k = int(np.argmax(m))
    m[k] += 1.0 - float(np.sum(m))
    return [float(x) for x in m]


def json_number(value, kind, what: str):
    """``value`` as ``kind`` (float or int) if it is a JSON number a float can hold:
    not a bool, and for an int integral (as a float only up to 2**53, so ``100.0``
    is 100). Finiteness is the caller's to judge. Raises ValueError naming ``what``."""
    noun = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what} must be {noun}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{what} must be {noun} a float can hold") from None
    if kind is int and isinstance(value, float) and abs(value) > 2**53:
        raise ValueError(f"{what} written as a float must be at most 2**53, got {value!r}")
    return number if kind is float else int(value)


def json_field(obj, key: str, kind, where: str, what: str | None = None):
    """``obj[key]`` if ``obj`` is a JSON object (named ``where``) holding ``key``
    of type ``kind``: dict, list, str, or float or int by :func:`json_number`,
    naming the field ``what`` (default ``where.key``). Raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} is missing required key {key!r}")
    value = obj[key]
    if kind in (float, int):
        return json_number(value, kind, what or f"{where}.{key}")
    if not isinstance(value, kind):
        raise ValueError(f"{where}[{key!r}] must be {kind.__name__}, got {type(value).__name__}")
    return value


# JSON keys of a cell, in Cell's field order, with the type each converts to
_CELL_KEYS = (("left", float), ("right", float), ("mass", float),
              ("expert", int), ("fast", int), ("score", float))


def world_from_dict(d: dict) -> CellWorld:
    """Build a world from its JSON form, validating it; raises WorldValidationError."""
    try:
        cells = tuple(
            Cell(*(json_field(c, key, kind, f"cell {i}", f"cell {i}: {key}")
                   for key, kind in _CELL_KEYS))
            for i, c in enumerate(json_field(d, "cells", list, "world"))
        )
        w = CellWorld(cells, json_field(d, "alphabet_size", int, "world", "alphabet_size"))
    except ValueError as e:
        raise WorldValidationError([f"malformed world object: {e}"]) from e
    violations = validate_world(w)
    if violations:
        raise WorldValidationError(violations)
    return w


def load_world(path) -> CellWorld:
    with open(path, encoding="utf-8") as f:
        return world_from_dict(json.load(f))
