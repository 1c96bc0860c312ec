"""Every message echoes an input through ``value.shown``: at most 200
characters, cut with a note of the full length, the same in every process,
and never an exception of its own."""

import json

import pytest

from pfasfab import ConfigError, UnknownTargetError, asap7_preset, parse_config, sweep_beol
from pfasfab.value import shown

LIMIT = 200  # the most characters of an input that a message prints


def _config_entry(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    (entry,) = excinfo.value.entries
    return entry


def test_a_long_string_is_cut_in_a_config_message():
    document = {"design": {"area_cm2": "x" * 100_000, "yield": 1}}
    location, message = _config_entry(json.dumps(document))
    assert location == "design.area_cm2"
    assert message.startswith("must be a number, got 'xxx")
    assert message.endswith("... (cut; 100002 characters in all)")
    assert len(message) == len("must be a number, got ") + LIMIT


def test_an_integer_inside_a_list_is_cut_in_a_config_message():
    location, message = _config_entry('{"design": {"area_cm2": [%s], "yield": 1}}' % ("9" * 400))
    assert location == "design.area_cm2"
    assert message.endswith("... (cut; 402 characters in all)")
    assert len(message) == len("must be a number, got ") + LIMIT


def test_a_long_target_is_cut_in_its_message():
    with pytest.raises(UnknownTargetError) as info:
        sweep_beol(asap7_preset(), ["M" + "9" * 100_000])
    message = str(info.value)
    assert message.startswith("target 'M999")
    assert "... (cut; 100003 characters in all) is not a BEOL layer of '7nm-ASAP7'" in message
    assert len(message) < 2 * LIMIT


def test_a_value_nested_too_deeply_to_print_is_named_by_its_type():
    nested = []
    for _ in range(10_000):
        nested = [nested]
    assert shown(nested) == "a list nested too deeply to print"


def test_a_set_is_shown_with_its_members_sorted():
    assert shown(frozenset({"x", "routing", "power_grid"})) == (
        "frozenset({'power_grid', 'routing', 'x'})")
    assert shown({"b", "a"}) == "{'a', 'b'}"
    assert shown(frozenset()) == "frozenset()"


def test_a_short_value_is_shown_as_its_repr():
    for value in ("x" * (LIMIT - 2), [1.5, None], {"a": 1}):
        assert shown(value) == repr(value)
