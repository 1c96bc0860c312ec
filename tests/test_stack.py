import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfasfab import (
    LayerSpec,
    Region,
    StackSpec,
    StackValidationError,
    asap7_preset,
    beol_index,
    derive_layer_metrics,
    n7_fixture,
    stack_violations,
    validate_stack,
)

from table_data import ASAP7_ROWS, N7_DUV_ROWS


@pytest.mark.parametrize("row", ASAP7_ROWS, ids=[r[0] for r in ASAP7_ROWS])
def test_asap7_rows_match_golden(row):
    name, region, pitch, metal, via, litho_steps, energy, pfas = row
    layer = asap7_preset().layer(name)
    assert layer.region == Region(region)
    assert layer.pitch_nm == pitch
    assert layer.metal_process == metal
    assert layer.via_process == via

    metrics = derive_layer_metrics(layer)
    assert metrics.litho_steps == litho_steps
    assert metrics.litho_energy == energy
    assert metrics.pfas_layers == pfas
    assert metrics.masks == pfas


def test_asap7_shape(asap7):
    assert asap7.technology_node == "7nm-ASAP7"
    assert len(asap7.layers) == 16
    assert asap7.names() == tuple(row[0] for row in ASAP7_ROWS)
    assert len(asap7.beol_layers()) == 9
    assert [l.name for l in asap7.routing_beol_layers()] == [f"M{k}" for k in range(1, 8)]
    assert asap7.layer("M8").is_power_grid and asap7.layer("M9").is_power_grid
    assert asap7.top_routing_layer() == "M7"


def test_preset_is_valid(asap7):
    assert validate_stack(asap7) is asap7


def test_spec_layer_spot_checks(asap7):
    m5 = asap7.layer("M5")
    assert (m5.metal_process, m5.via_process, m5.pitch_nm) == ("ArFi_SADP", "ArFi_LE2", 48)
    via0 = asap7.layer("VIA0")
    assert via0.metal_process is None
    assert via0.via_process == "EUV_LE"
    assert via0.pitch_nm == 25


def test_layer_metrics_examples(asap7):
    m1 = derive_layer_metrics(asap7.layer("M1"))
    assert (m1.litho_steps, m1.litho_energy, m1.pfas_layers) == (6, 20.0, 2)
    m4 = derive_layer_metrics(asap7.layer("M4"))
    assert (m4.litho_steps, m4.litho_energy, m4.pfas_layers) == (9, 3.0, 3)
    fin = derive_layer_metrics(asap7.layer("Fin"))
    assert (fin.litho_steps, fin.litho_energy, fin.pfas_layers) == (2, 1.0, 1)


def test_beol_index():
    assert beol_index("M1") == 1
    assert beol_index("M10") == 10
    assert beol_index("M0") is None
    assert beol_index("Fin") is None
    assert beol_index("M1x") is None
    assert beol_index("M" + "9" * 5000) is None  # beyond int()'s digit limit


def test_euv_fixture_is_the_preset():
    assert n7_fixture("euv") == asap7_preset()


def test_duv_fixture_matches_golden(n7_duv):
    assert n7_duv.technology_node == "7nm-DUV"
    assert validate_stack(n7_duv) is n7_duv
    total = 0
    for layer in n7_duv.layers:
        metal, via, masks = N7_DUV_ROWS[layer.name]
        assert layer.metal_process == metal
        assert layer.via_process == via
        assert derive_layer_metrics(layer).pfas_layers == masks
        total += masks
    assert total == 36


def test_duv_fixture_region_sums(n7_duv):
    sums = {region: 0 for region in Region}
    for layer in n7_duv.layers:
        sums[layer.region] += derive_layer_metrics(layer).pfas_layers
    assert sums == {Region.FEOL: 6, Region.MOL: 5, Region.BEOL: 25}


def test_fixture_unknown_variant():
    with pytest.raises(ValueError):
        n7_fixture("arf")


def _with_layer(stack, target, **changes):
    layers = tuple(
        layer._replace(**changes) if layer.name == target else layer for layer in stack.layers
    )
    return StackSpec(stack.technology_node, layers)


@pytest.mark.parametrize(
    "mutate, rule, layer_name",
    [
        (lambda s: _with_layer(s, "M5", metal_process="ArFi_LE9"), "unknown-process", "M5"),
        (lambda s: _with_layer(s, "Gate", pitch_nm=-3), "bad-pitch", "Gate"),
        (lambda s: _with_layer(s, "LIG", metal_process=None, via_process=None), "missing-process", "LIG"),
        (lambda s: _with_layer(s, "M4", name="MX4"), "beol-name", "MX4"),
        (lambda s: _with_layer(s, "Gate", name="Fin"), "duplicate-name", "Fin"),
        (lambda s: _with_layer(s, "VIA0", region=Region.FEOL), "region-order", "VIA0"),
    ],
)
def test_single_mutation_single_violation(asap7, mutate, rule, layer_name):
    violations = stack_violations(mutate(asap7))
    assert len(violations) == 1
    assert violations[0].rule == rule
    assert violations[0].layer == layer_name


def test_beol_out_of_order(asap7):
    layers = list(asap7.layers)
    i, j = asap7.names().index("M1"), asap7.names().index("M2")
    layers[i], layers[j] = layers[j], layers[i]
    violations = stack_violations(StackSpec(asap7.technology_node, tuple(layers)))
    assert [ (v.layer, v.rule) for v in violations ] == [("M1", "beol-order")]


def test_validate_raises_with_all_violations(asap7):
    broken = _with_layer(asap7, "M5", metal_process="ArFi_LE9")
    broken = _with_layer(broken, "Gate", pitch_nm=0)
    with pytest.raises(StackValidationError) as excinfo:
        validate_stack(broken)
    rules = sorted(v.rule for v in excinfo.value.violations)
    assert rules == ["bad-pitch", "unknown-process"]
    assert "M5" in str(excinfo.value)


def test_violation_text_names_layer_and_rule(asap7):
    broken = _with_layer(asap7, "M5", metal_process="ArFi_LE9")
    violation, = stack_violations(broken)
    assert str(violation) == f"layer 'M5': [unknown-process] {violation.message}"
    with pytest.raises(StackValidationError) as excinfo:
        validate_stack(broken)
    assert str(excinfo.value) == f"1 stack violation(s): {violation}"
    assert excinfo.value.details == (str(violation),)


def test_unknown_process_violation_names_layer(asap7):
    violations = stack_violations(_with_layer(asap7, "M7", via_process="ArFi_LE9"))
    assert violations[0].layer == "M7"
    assert "ArFi_LE9" in violations[0].message


@given(pitch=st.floats(min_value=0.5, max_value=500, allow_nan=False))
def test_metrics_invariant_under_pitch(pitch):
    layer = asap7_preset().layer("M4")
    altered = layer._replace(pitch_nm=pitch)
    assert derive_layer_metrics(altered) == derive_layer_metrics(layer)


def test_empty_stack_is_valid():
    empty = StackSpec("empty", ())
    assert validate_stack(empty) is empty


def test_layer_lookup_miss_raises(asap7):
    with pytest.raises(KeyError):
        asap7.layer("M42")


def test_via_only_layer_counts_once():
    layer = LayerSpec("VIA0", Region.MOL, via_process="EUV_LE")
    metrics = derive_layer_metrics(layer)
    assert metrics.pfas_layers == 1
    assert metrics.litho_steps == 3
