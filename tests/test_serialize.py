import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacroute.serialize import dump_json


@pytest.mark.parametrize(
    "s",
    ["a\tb", "line\r\nbreak", "\x00\x01\x1f", "quote \" and back\\slash", "\x7f é"],
)
def test_control_characters_round_trip(s):
    assert json.loads(dump_json({"world": s})) == {"world": s}


def test_escape_forms():
    # the newline keeps its short form, so existing reports keep their bytes
    assert dump_json("a\nb") == '"a\\nb"'
    assert dump_json("a\tb") == '"a\\u0009b"'
    assert dump_json('"\\') == '"\\"\\\\"'


@given(st.text())
@settings(max_examples=200, deadline=None)
def test_any_string_round_trips(s):
    assert json.loads(dump_json(s)) == s
