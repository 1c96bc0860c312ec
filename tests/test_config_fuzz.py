"""Property tests for config ingest: any JSON value in any field of a config
is rejected as a ConfigError or accepted, and the CLI turns any config into
exit 0 with a strict-JSON report or exit 1 with an error message."""

import copy
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pfasfab import ConfigError, parse_config

from conftest import run_main

BASE = {
    "schema_version": "1",
    "stack": {
        "schema_version": "1",
        "technology_node": "fuzz",
        "layers": [
            {"name": "Fin", "region": "FEOL", "pitch_nm": 27, "metal_process": "ArFi_SAQP"},
            {"name": "V0", "region": "MOL", "pitch_nm": None, "via_process": "EUV_LE"},
            {"name": "M1", "region": "BEOL", "pitch_nm": 36, "metal_process": "EUV_LE",
             "via_process": "EUV_LE", "tags": ["routing"]},
            {"name": "M2", "region": "BEOL", "pitch_nm": 48, "metal_process": "ArFi_SADP",
             "via_process": "ArFi_LE2", "tags": ["routing"]},
            {"name": "M3", "region": "BEOL", "pitch_nm": 80, "metal_process": "ArFi_LE",
             "via_process": "ArFi_LE", "tags": ["power_grid"]},
        ],
    },
    "design": {"area_cm2": 1.0, "yield": 0.875},
    "fab": {
        "energy_weights": {"per_euv_mask": 10.0, "per_duv_mask": 1.0},
        "carbon": {
            "carbon_intensity": 0.4,
            "energy_per_unit_litho": 0.05,
            "energy_per_area_base": 5.0,
            "gas_per_area": 0.3,
            "material_per_area": 0.5,
        },
        "ci_band": {"low": 0.02, "high": 0.82},
    },
    "compare": {"stack_a": "n7_duv", "stack_b": {"preset": "n7_euv"}},
    "sweep": {"targets": ["M1"], "retain_power_grid": False, "beol_only": False},
    "soc": {
        "blocks": [
            {"name": "cpu", "area_cm2": 0.4, "required_top": "M2", "area_overhead": {"M1": 1.4}},
            {"name": "sram", "area_cm2": 0.6, "required_top": "M1", "area_overhead": {}},
        ],
        "target_top": "M1",
        "retain_power_grid": True,
    },
    "trend": {"series": [["28nm", 20], ["7nm", 29]], "reference": "28nm"},
}


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _paths(node, prefix=()):
    """Every location in ``node``: the root, each key and each list item."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


PATHS = list(_paths(BASE))
NUMBER_PATHS = [
    p for p in PATHS if type(_at(BASE, p)) in (int, float)  # numbers, not booleans
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=6,
)
# The extremes of the float range, so that computed figures can overflow.
EXTREMES = st.sampled_from([sys.float_info.max, 5e-324])


def _document(path, value) -> str:
    """BASE with the value at ``path`` replaced, as JSON text; NaN and
    infinities are written as the literals ``json.loads`` accepts."""
    if not path:
        return json.dumps(value)
    document = copy.deepcopy(BASE)
    _at(document, path[:-1])[path[-1]] = value
    return json.dumps(document)


def _reject_constant(name):
    raise AssertionError(f"report holds the non-JSON constant {name}")


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(PATHS), value=JSON_VALUES, strict=st.booleans())
def test_any_value_in_any_field_raises_only_config_error(path, value, strict):
    try:
        parse_config(_document(path, value), strict=strict)
    except ConfigError:
        pass


# tmp_path is shared by the examples; each one rewrites the config file.
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(["analyze", "sweep", "soc", "trend"]),
    path=st.sampled_from(PATHS) | st.sampled_from(NUMBER_PATHS),
    value=JSON_VALUES | EXTREMES,
)
def test_cli_exits_zero_with_strict_json_or_one(tmp_path, command, path, value):
    config = tmp_path / "config.json"
    config.write_text(_document(path, value), encoding="utf-8")
    proc = run_main(command, "--config", str(config), "--format", "json")
    assert proc.returncode in (0, 1), proc.stderr
    if proc.returncode == 0:
        json.loads(proc.stdout, parse_constant=_reject_constant)
    else:
        assert proc.stdout == ""
        assert any(line.startswith("error: ") for line in proc.stderr.splitlines())
