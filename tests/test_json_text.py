"""`json_text` writes exactly what `json.dumps(value, indent=2, sort_keys=True)` writes."""

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adlog.cli import _INFO_PAIRS, _INFO_WRITTEN, json_text

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# Characters the encoder escapes: quote, backslash, control characters, line
# breaks, non-ASCII, astral characters (written as surrogate pairs) and a lone
# surrogate.
SPECIAL = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\r", "\t", "\b", "\f", "/", "\u00e9",
           "\u2028", "\uffff", "\U0001f600", "\U0010ffff", "\ud800", "\udfff"]
strings = st.one_of(st.text(), st.lists(st.sampled_from(SPECIAL) | st.characters())
                    .map("".join))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), strings)
values = st.recursive(
    scalars,
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(strings, children)),
    max_leaves=25)


def expected(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


@settings(max_examples=200, deadline=None)
@given(values)
def test_equals_json_dumps(value):
    assert json_text(value) == expected(value)


@settings(max_examples=100, deadline=None)
@given(st.lists(strings, min_size=1).map(tuple), values)
def test_a_tuple_shared_at_several_depths(shared, other):
    """A tuple is written once per depth at which it occurs, and reused only there."""
    value = {"a": shared, "b": [shared, {"c": shared, "d": other}], "e": (shared, shared)}
    assert json_text(value) == expected(value)


@pytest.mark.parametrize("value", [{}, [], (), {"a": {}}, [[], {}], None, True, False, 0,
                                   -7, 2 ** 70, "", "\U0001f600", [1, "a", None, True]])
def test_edge_values(value):
    assert json_text(value) == expected(value)


@pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a": {2}}, [b"x"]])
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        json_text(value)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.name)
def test_golden_documents(path):
    text = path.read_text()
    doc = json.loads(text)
    assert json_text(doc) + "\n" == expected(doc) + "\n" == text


def test_written_texts_are_used_only_where_they_were_written():
    entries = [entry for _, entry in _INFO_PAIRS[:5]]
    for value in ({"info_leq": entries}, entries, {"a": {"info_leq": entries}}):
        assert json_text(value, _INFO_WRITTEN) == expected(value)
    seed = dict(_INFO_WRITTEN)
    json_text({"rows": [("a", "b")] * 2, "info_leq": entries}, seed)
    assert seed == _INFO_WRITTEN
