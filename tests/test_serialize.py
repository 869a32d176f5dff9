import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacroute.adversary import PerturbationSpec
from pacroute.risk import ALWAYS_DEFER
from pacroute.serialize import dump_json, encode_threshold


@pytest.mark.parametrize(
    "s",
    ["a\tb", "line\r\nbreak", "\x00\x01\x1f", "quote \" and back\\slash", "\x7f é"],
)
def test_control_characters_round_trip(s):
    assert json.loads(dump_json({"world": s})) == {"world": s}


def test_escape_forms():
    assert dump_json("a\nb") == '"a\\nb"'
    assert dump_json("a\tb") == '"a\\tb"'
    assert dump_json("a\x01b") == '"a\\u0001b"'
    assert dump_json('"\\') == '"\\"\\\\"'


@given(st.text())
@settings(max_examples=200, deadline=None)
def test_any_string_round_trips(s):
    assert json.loads(dump_json(s)) == s


def test_encode_threshold_always_defer():
    # the engine's thresholds are numpy floats
    assert encode_threshold(np.float64("-inf")) == "ALWAYS_DEFER"
    assert encode_threshold(ALWAYS_DEFER) == "ALWAYS_DEFER"
    assert encode_threshold(np.float64(0.5)) == 0.5
    assert dump_json({"tau_hat": encode_threshold(ALWAYS_DEFER)}) == '{"tau_hat": "ALWAYS_DEFER"}'


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(1.0)
@example(1e16)
@example(5e-324)
@example(0.95)
@settings(max_examples=300, deadline=None)
def test_finite_float_round_trips(x):
    # an integral float stays a float, and -0.0 keeps its sign
    y = json.loads(dump_json(x))
    assert type(y) is float
    assert y == x
    assert math.copysign(1.0, y) == math.copysign(1.0, x)


@pytest.mark.parametrize("x", [float("-inf"), float("inf"), float("nan")])
def test_non_finite_floats_refused(x):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dump_json({"value": x})


def test_none_written_as_null():
    assert dump_json(None) == "null"
    assert dump_json({"a": None}) == '{"a": null}'


def test_dataclass_written_as_its_fields():
    @dataclass(frozen=True)
    class Outer:
        spec: PerturbationSpec
        xs: tuple
        flag: bool

    spec = PerturbationSpec(
        x_star=0.4, eta=0.01, n=100, radius=0.0125, ball_mass=0.0125, adversarial_label=1
    )
    assert dump_json(Outer(spec, (0.5, 1), True)) == (
        '{"flag": true, "spec": {"adversarial_label": 1, "ball_mass": 0.0125, '
        '"eta": 0.01, "n": 100, "radius": 0.0125, "x_star": 0.4}, "xs": [0.5, 1]}'
    )
    with pytest.raises(TypeError):
        dump_json(PerturbationSpec)  # the class itself is not a record
