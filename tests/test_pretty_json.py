"""The pretty encoding that every artifact and ``--json`` output uses is
``json.dumps(sort_keys=True, indent=2, ensure_ascii=False)`` plus a
newline, byte for byte, on any JSON value, and refuses what json
refuses with the same exception type."""

import json
import math
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgap.jsonutil import pretty_dumps

class Level(IntEnum):
    LOW = 1
    HIGH = 2**70


class Mode(str, Enum):
    LIVE = "live"


# Every code point, surrogates and control characters included.
TEXT = st.text(st.characters(blacklist_categories=()), max_size=12)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324])
    | TEXT
    # Subclasses, whose own repr json never calls.
    | st.sampled_from([*Level, *Mode])
)

# Dict keys are any that json converts to strings, but one kind per dict
# (numbers and bools mix): json sorts the keys before converting them, and
# str, numbers and None do not compare.
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
        | st.dictionaries(st.integers() | st.floats() | st.booleans(), children, max_size=4)
        | st.dictionaries(st.none(), children)
    ),
    max_leaves=24,
)


def json_pretty(value):
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(JSON_VALUES)
def test_pretty_dumps_is_json_dumps_byte_for_byte(value):
    assert pretty_dumps(value) == json_pretty(value)


@pytest.mark.parametrize(
    "value",
    [
        pytest.param({(1, 2): "a tuple key"}, id="tuple-key"),
        pytest.param({"nested": [{frozenset(): 1}]}, id="nested-frozenset-key"),
        pytest.param({1, 2}, id="set"),
        pytest.param({"nested": [{"a set": {"x"}}]}, id="nested-set"),
        pytest.param({"a": 1, 2: "b"}, id="keys-that-do-not-compare"),
        pytest.param(object(), id="object"),
        pytest.param(b"bytes", id="bytes"),
    ],
)
def test_pretty_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json_pretty(value)
    with pytest.raises(TypeError):
        pretty_dumps(value)
