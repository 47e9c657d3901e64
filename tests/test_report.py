import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffitts import SigmaMethod
from ffitts.report import to_json

TEXTS = st.text() | st.sampled_from(['"', "\\", 'say "hi"\n', "\x00\x1f\x7f", "é", " ",
                                     "\U0001f600", "tab\there"])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1e16, -1e16, 5e-324, 1e308, 1.7976931348623157e308, 0.1, 1e-7])
LEAVES = (TEXTS | st.integers() | st.integers(min_value=2**63) | st.booleans() | FLOATS
          | st.none() | st.sampled_from(list(SigmaMethod)))
KEYS = TEXTS | st.sampled_from(list(SigmaMethod)) | st.integers() | FLOATS | st.booleans() | st.none()


def documents(leaves):
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=5)
                        | st.lists(inner, max_size=5).map(tuple)
                        | st.dictionaries(KEYS, inner, max_size=5), max_leaves=40)


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


@settings(max_examples=200, deadline=None)
@given(obj=documents(LEAVES))
def test_to_json_is_json_dumps_indent_2(obj):
    assert to_json(obj) == dumps(obj)


BAD = [float("nan"), float("inf"), float("-inf"), {1}, np.int64(1), np.float32(1.5), object()]


@settings(max_examples=100, deadline=None)
@given(obj=documents(LEAVES | st.sampled_from(BAD)))
def test_to_json_raises_as_json_dumps(obj):
    # the first bad value, depth first, raises the same error as json.dumps
    try:
        expected = dumps(obj)
    except (ValueError, TypeError) as exc:
        with pytest.raises(type(exc)) as got:
            to_json(obj)
        assert str(got.value) == str(exc)
    else:
        assert to_json(obj) == expected


@pytest.mark.parametrize("bad,error", [
    (float("nan"), ValueError), (float("inf"), ValueError), (float("-inf"), ValueError),
    (np.float64("nan"), ValueError), ({1, 2}, TypeError), (np.int64(3), TypeError),
])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [1.0, v], lambda v: {"a": {"b": (v,)}}])
def test_bad_values_raise_the_json_error(bad, error, wrap):
    with pytest.raises(error) as expected:
        dumps(wrap(bad))
    with pytest.raises(error) as got:
        to_json(wrap(bad))
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("key", [(1, 2), frozenset(), b"k"])
def test_a_key_json_has_no_form_for_raises_type_error(key):
    with pytest.raises(TypeError) as expected:
        dumps({key: 1})
    with pytest.raises(TypeError) as got:
        to_json({key: 1})
    assert str(got.value) == str(expected.value)


def test_subclasses_of_float_and_int_as_their_numbers():
    obj = {"f": np.float64(0.1), "i": SigmaMethod.USER_GIVEN, "e": [], "d": {}, "t": ()}
    assert to_json(obj) == dumps(obj)
