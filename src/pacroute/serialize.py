"""Deterministic report serialization.

Reports must reproduce byte-for-byte across runs, so JSON is emitted with
sorted keys and floats printed at 17 significant digits (enough to round-trip
any double).
"""

from __future__ import annotations

import numbers

import numpy as np

from .risk import ALWAYS_DEFER, RouterThreshold

__all__ = ["dump_json", "encode_threshold"]

# JSON forbids raw control characters in strings: escape all of them, with
# the short form kept for the newline
_STRING_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_STRING_ESCAPES.update({ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n"})


def encode_threshold(tau: RouterThreshold):
    """JSON form of a threshold: the sentinel becomes the string "ALWAYS_DEFER"."""
    if tau is ALWAYS_DEFER:
        return "ALWAYS_DEFER"
    return float(tau)


def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x!r} in report")
    return format(x, ".17g")


def _write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(f'"{obj.translate(_STRING_ESCAPES)}"')
    elif isinstance(obj, numbers.Integral):
        out.append(str(int(obj)))
    elif isinstance(obj, numbers.Real):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            _write(key, out)
            out.append(": ")
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dump_json(obj) -> str:
    """Render to JSON with sorted keys and 17-significant-digit floats."""
    out: list = []
    _write(obj, out)
    return "".join(out)
