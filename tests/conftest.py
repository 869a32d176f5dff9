import os
from pathlib import Path

import pytest

import pacroute as pr


def child_env() -> dict[str, str]:
    """``os.environ`` with the imported ``pacroute``'s directory first on
    ``PYTHONPATH``, so that a child process imports the package under test
    whether or not it is installed."""
    env = dict(os.environ)
    src = str(Path(pr.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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


def corpus() -> list[pr.CellWorld]:
    return [
        make_w1(),
        make_uniform_agree(),
        make_uniform_disagree(),
        make_three_cell(),
        make_five_cell(),
        make_ten_cell(),
    ]


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
