"""Deterministic report serialization.

Reports must reproduce byte-for-byte across runs, so JSON is emitted by the
standard encoder with sorted keys, and a float as its shortest round-trip
``repr`` (the text the trace CSV uses). A dataclass record is written as the
object of its fields; non-finite floats are refused.
"""

from __future__ import annotations

import dataclasses
import json

from .risk import ALWAYS_DEFER

__all__ = ["dump_json", "encode_threshold"]


def encode_threshold(tau: float):
    """JSON form of a threshold: ALWAYS_DEFER (-inf) becomes the string "ALWAYS_DEFER"."""
    if tau == ALWAYS_DEFER:
        return "ALWAYS_DEFER"
    return float(tau)


def _fields(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dump_json(obj) -> str:
    """Render to JSON with sorted keys and shortest round-trip floats."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, allow_nan=False, default=_fields)
