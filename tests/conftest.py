import os
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import pacroute as pr
from pacroute._kernels import _pcg_states, uniform_columns
from pacroute.worlds import _CELL_KEYS


def child_env() -> dict[str, str]:
    """``os.environ`` with the imported ``pacroute``'s directory first on
    ``PYTHONPATH``, so that a child process imports the package under test
    whether or not it is installed."""
    env = dict(os.environ)
    src = str(Path(pr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def joined_uniforms(master_seed, stream, replications, cols, start=0) -> np.ndarray:
    """The (replications, cols) uniforms of ``_kernels.uniform_columns``."""
    return uniform_columns(_pcg_states(master_seed, stream, replications, start), cols).T


def make_w1() -> pr.CellWorld:
    """Two cells: agreeing low-score bulk, disagreeing high-score tail."""
    return pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.8, 0.8, 0, 0, 0.1),
            pr.Cell(0.8, 1.0, 0.2, 1, 0, 0.9),
        ),
        alphabet_size=2,
    )


def make_uniform_agree() -> pr.CellWorld:
    return pr.CellWorld(
        cells=(pr.Cell(0.0, 1.0, 1.0, 0, 0, 0.5),), alphabet_size=2
    )


def make_uniform_disagree() -> pr.CellWorld:
    return pr.CellWorld(
        cells=(pr.Cell(0.0, 1.0, 1.0, 1, 0, 0.5),), alphabet_size=2
    )


def make_three_cell() -> pr.CellWorld:
    """Nondegenerate instance: one bad cell below the top threshold."""
    return pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.5, 0, 0, 0.1),
            pr.Cell(0.5, 0.8, 0.3, 1, 0, 0.2),
            pr.Cell(0.8, 1.0, 0.2, 1, 0, 0.9),
        ),
        alphabet_size=2,
    )


def make_five_cell() -> pr.CellWorld:
    """Mixed labels and scores, including a zero-mass cell."""
    return pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.2, 0.3, 0, 0, -1.0),
            pr.Cell(0.2, 0.4, 0.0, 2, 1, 0.0),
            pr.Cell(0.4, 0.6, 0.25, 1, 1, 0.3),
            pr.Cell(0.6, 0.8, 0.25, 2, 0, 0.3),
            pr.Cell(0.8, 1.0, 0.2, 0, 2, 1.5),
        ),
        alphabet_size=3,
    )


def make_tied_scores() -> pr.CellWorld:
    """A good and a bad cell share score 0.6, and the rare bad cell at 0.4
    leaves its score level unoccupied between occupied ones in most small
    calibration sets."""
    return pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.3, 0.35, 0, 0, 0.1),
            pr.Cell(0.3, 0.4, 0.05, 1, 0, 0.4),
            pr.Cell(0.4, 0.7, 0.3, 1, 1, 0.6),
            pr.Cell(0.7, 0.85, 0.15, 0, 1, 0.6),
            pr.Cell(0.85, 1.0, 0.15, 1, 0, 0.9),
        ),
        alphabet_size=2,
    )


def make_masses_short_of_one() -> pr.CellWorld:
    """Masses 0.7, 0.2 and 0.1, which sum to 1 - 1 ulp in floating point."""
    return pr.CellWorld(
        cells=(
            pr.Cell(0.0, 0.5, 0.7, 0, 0, 0.1),
            pr.Cell(0.5, 0.8, 0.2, 1, 0, 0.5),
            pr.Cell(0.8, 1.0, 0.1, 1, 1, 0.9),
        ),
        alphabet_size=2,
    )


def make_ten_cell() -> pr.CellWorld:
    cells = []
    masses = pr.normalized_masses([1, 2, 3, 1, 1, 2, 4, 1, 3, 2])
    for i in range(10):
        cells.append(
            pr.Cell(
                i / 10,
                (i + 1) / 10,
                masses[i],
                (i * 3) % 4,
                i % 4,
                (i - 5) / 3.0,
            )
        )
    return pr.CellWorld(cells=tuple(cells), alphabet_size=4)


def make_distinct_scores(levels: int) -> pr.CellWorld:
    """``levels`` cells of equal width and random mass, each its own score
    level; every third is bad."""
    rng = np.random.default_rng(levels)
    masses = pr.normalized_masses(rng.uniform(0.5, 1.5, levels))
    scores = rng.permutation(levels) / levels
    return pr.CellWorld(
        cells=tuple(pr.Cell(i / levels, (i + 1) / levels, masses[i], 0, int(i % 3 == 0),
                            float(scores[i])) for i in range(levels)),
        alphabet_size=2,
    )


def corpus() -> list[pr.CellWorld]:
    return [
        make_w1(),
        make_uniform_agree(),
        make_uniform_disagree(),
        make_three_cell(),
        make_five_cell(),
        make_ten_cell(),
    ]


def world_to_dict(w: pr.CellWorld) -> dict:
    """The JSON form of a world, as ``worlds.world_from_dict`` reads it."""
    keys = [key for key, _ in _CELL_KEYS]
    return {"alphabet_size": w.alphabet_size,
            "cells": [dict(zip(keys, astuple(c))) for c in w.cells]}


@pytest.fixture
def w1():
    return make_w1()


@pytest.fixture
def three_cell():
    return make_three_cell()


@pytest.fixture
def loss01():
    return pr.LossSpec(kind="zero_one", epsilon=0.0)


@pytest.fixture
def pac_w1():
    return pr.PacConfig(
        epsilon=0.0, alpha=0.1, delta_split=0.05, threshold_grid=(0.5, 0.95)
    )


# a cell must hold its own float midpoint (validate_world); cuts this far
# apart always leave one
MIN_CUT_GAP = 1e-9


@st.composite
def world_strategy(draw, score=st.floats(-5, 5, allow_nan=False)):
    """A world of 1-6 cells (some may have zero mass), each score drawn from
    ``score``."""
    n_cuts = draw(st.integers(0, 5))
    cuts = draw(
        st.lists(
            st.floats(0.01, 0.99, allow_nan=False),
            min_size=n_cuts,
            max_size=n_cuts,
            unique=True,
        )
    )
    bounds = [0.0] + sorted(cuts) + [1.0]
    assume(all(b - a >= MIN_CUT_GAP for a, b in zip(bounds, bounds[1:])))
    k = len(bounds) - 1
    weights = draw(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=k, max_size=k)
    )
    assume(sum(weights) > 0.1)
    masses = pr.normalized_masses(weights)
    alphabet = draw(st.integers(2, 4))
    experts = draw(
        st.lists(st.integers(0, alphabet - 1), min_size=k, max_size=k)
    )
    fasts = draw(st.lists(st.integers(0, alphabet - 1), min_size=k, max_size=k))
    scores = draw(st.lists(score, min_size=k, max_size=k))
    cells = tuple(
        pr.Cell(bounds[i], bounds[i + 1], masses[i], experts[i], fasts[i], scores[i])
        for i in range(k)
    )
    return pr.CellWorld(cells=cells, alphabet_size=alphabet)
