"""Loss specs, per-cell bad flags, and exact population risk quantities.

A threshold router sends an input to the expert when its cell's score
strictly exceeds the threshold; ties go to the fast model. Callers apply the
rule to arrays of cell scores. A threshold is a float, and
``ALWAYS_DEFER`` is -inf: every score exceeds it, so it routes everything to
the expert. Compare thresholds with ``==``; reports write -inf as the string
"ALWAYS_DEFER" (:func:`pacroute.serialize.encode_threshold`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .worlds import CellWorld, json_field, json_number

__all__ = [
    "LossSpec",
    "ALWAYS_DEFER",
    "exact_miscoverage",
    "exact_deferral_mass",
    "cell_exceedance_flags",
    "check_loss_compatible",
    "loss_from_dict",
    "loss_to_dict",
]

ALWAYS_DEFER = float("-inf")


@dataclass(frozen=True)
class LossSpec:
    """Loss on label pairs plus the tolerance that defines "bad" fast outputs.

    ``kind="zero_one"`` is the mismatch indicator. ``kind="table"`` looks up
    ``table[prediction][truth]``; the diagonal must be zero. Exceedance is
    strict: a pair is bad when loss > epsilon.
    """

    kind: str
    epsilon: float
    table: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("zero_one", "table"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not self.epsilon >= 0:  # NaN included
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if self.epsilon == np.inf:
            raise ValueError("epsilon must be finite, got inf")
        if self.kind == "zero_one":
            if self.table is not None:
                raise ValueError("zero_one loss takes no table")
            if self.epsilon >= 1.0:
                raise ValueError(
                    "zero_one loss with epsilon >= 1 can never be exceeded"
                )
        else:
            if self.table is None:
                raise ValueError("table loss requires a table")
            k = len(self.table)
            for i, row in enumerate(self.table):
                if len(row) != k:
                    raise ValueError(f"loss table row {i} is not length {k}")
                if row[i] != 0.0:
                    raise ValueError(f"loss table diagonal [{i}][{i}] must be 0")
                for j, v in enumerate(row):
                    if not 0 <= v < np.inf:  # NaN included
                        raise ValueError(
                            f"loss table [{i}][{j}] must be finite and >= 0, got {v!r}")

    def value(self, prediction: int, truth: int) -> float:
        """Loss of predicting ``prediction`` when the expert says ``truth``."""
        if self.kind == "zero_one":
            return 1.0 if prediction != truth else 0.0
        return float(self.table[prediction][truth])

    def exceeds(self, prediction, truth):
        """Is the fast answer bad (loss > epsilon)? Takes labels or label arrays;
        a zero-one mismatch always is, as its loss 1 exceeds epsilon < 1."""
        if self.kind == "zero_one":
            return prediction != truth
        return np.asarray(self.table)[prediction, truth] > self.epsilon


def check_loss_compatible(w: CellWorld, loss: LossSpec) -> None:
    """A table loss must cover every label the world can produce."""
    if loss.kind == "table" and len(loss.table) < w.alphabet_size:
        raise ValueError(
            f"loss table is {len(loss.table)}x{len(loss.table)} but the world "
            f"uses {w.alphabet_size} labels"
        )


def cell_exceedance_flags(w: CellWorld, loss: LossSpec) -> np.ndarray:
    """Per-cell flag: does the fast model's loss against the expert exceed epsilon?"""
    check_loss_compatible(w, loss)
    return loss.exceeds(w.fast_labels, w.expert_labels)


def exact_miscoverage(w: CellWorld, loss: LossSpec, r: float) -> float:
    """Exact P(risk > epsilon) for a fixed threshold: mass routed fast AND bad."""
    sel = (w.scores <= r) & cell_exceedance_flags(w, loss)
    return float(np.sum(w.masses[sel]))


def exact_deferral_mass(w: CellWorld, r: float) -> float:
    """Exact probability the router defers to the expert."""
    deferred = w.scores > r
    if deferred.all():  # exactly 1, where the masses may sum to 1 - 1 ulp
        return 1.0
    return float(np.sum(w.masses[deferred]))


def loss_from_dict(d: dict) -> LossSpec:
    """The loss of a JSON object; epsilon and table entries must be numbers."""
    kind = json_field(d, "kind", str, "loss")
    epsilon = json_field(d, "epsilon", float, "loss")
    table = d.get("table")
    if table is not None:
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ValueError("loss.table must be a list of lists of numbers")
        table = tuple(
            tuple(json_number(v, float, f"loss.table[{i}][{j}]") for j, v in enumerate(row))
            for i, row in enumerate(table)
        )
    return LossSpec(kind=kind, epsilon=epsilon, table=table)


def loss_to_dict(loss: LossSpec) -> dict:
    out = {"kind": loss.kind, "epsilon": loss.epsilon}
    if loss.table is not None:
        out["table"] = [list(row) for row in loss.table]
    return out
