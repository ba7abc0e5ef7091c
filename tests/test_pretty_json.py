"""The pretty encoding that every artifact and ``--json`` output uses is
``json.dumps(sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)``
plus a newline, byte for byte, on string-keyed values, and refuses what
json refuses with the same exception type. It is strict JSON: a key that
is not a string is a ``TypeError`` rather than converted. Neither it nor
the compact encoding writes a NaN or infinite float: each is a
``ValueError``."""

import json
import math
from enum import Enum, IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factgap.jsonutil import canonical_dumps, pretty_dumps


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

JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT | st.sampled_from(list(Mode)), children, max_size=4)
    ),
    max_leaves=24,
)


def json_pretty(value):
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(JSON_VALUES)
def test_pretty_dumps_is_json_dumps_byte_for_byte(value):
    # A NaN or an infinity anywhere in the value is refused by both.
    try:
        expected = json_pretty(value)
    except ValueError:
        with pytest.raises(ValueError):
            pretty_dumps(value)
    else:
        assert pretty_dumps(value) == expected


@pytest.mark.parametrize("key", [1, 1.5, True, None, Level.LOW], ids=repr)
def test_pretty_dumps_refuses_a_key_that_is_not_a_string(key):
    with pytest.raises(TypeError):
        pretty_dumps({"outer": [{key: "value"}]})


@pytest.mark.parametrize("dumps", [pretty_dumps, canonical_dumps], ids=["pretty", "canonical"])
@pytest.mark.parametrize("number", [math.nan, math.inf, -math.inf], ids=repr)
def test_a_float_that_is_not_finite_is_refused(dumps, number):
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        dumps({"outer": [number]})


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
