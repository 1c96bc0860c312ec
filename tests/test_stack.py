import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfasfab import (
    DEFAULT_CATALOG,
    DEFAULT_WEIGHTS,
    PRESETS,
    DomainError,
    LayerMetrics,
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
    assert tuple([l.name for l in asap7.layers]) == tuple(row[0] for row in ASAP7_ROWS)
    beol = [l for l in asap7.layers if l.region is Region.BEOL]
    routing = [l.name for l in beol if not l.is_power_grid]
    assert len(beol) == 9
    assert routing == [f"M{k}" for k in range(1, 8)]
    assert asap7.layer("M8").is_power_grid and asap7.layer("M9").is_power_grid
    assert routing[-1] == "M7"


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


_M_K = re.compile(r"M([1-9][0-9]*)")


@given(name=st.text(alphabet="M0123456789 \n\u0661\u00b2x", max_size=6) | st.integers())
def test_beol_index_is_the_m_k_rule(name):
    # M<k> with k ASCII digits and no leading zero; Unicode digits do not count
    m = _M_K.fullmatch(name) if isinstance(name, str) else None
    assert beol_index(name) == (int(m.group(1)) if m else None)


def test_euv_fixture_is_the_preset():
    assert n7_fixture("euv") == asap7_preset()


def test_each_preset_is_one_shared_value():
    assert asap7_preset() is n7_fixture("euv") is PRESETS["asap7"] is PRESETS["n7_euv"]
    assert n7_fixture("duv") is PRESETS["n7_duv"]
    assert list(PRESETS) == ["asap7", "n7_euv", "n7_duv"]


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


# A field's own type and range are checked once, when the layer is built, so a
# stack cannot hold a mistyped field: one DomainError at that field, with the
# message the stack check gave for it.
@pytest.mark.parametrize(
    "layer_name, field, value, message",
    [
        ("Gate", "pitch_nm", -3, "pitch_nm must be finite and > 0, got -3"),
        ("M5", "region", "BEOL", "region must be a Region (FEOL, MOL or BEOL), got 'BEOL'"),
        ("Active", "pitch_nm", "108", "pitch_nm must be finite and > 0, got '108'"),
        ("M4", "name", 4, "layer name must be a string, not int"),
        # unhashable, and an int with more digits than str() converts
        ("M1", "name", ["M1"], "layer name must be a string, not list"),
        ("Fin", "name", 10**5000, "layer name must be a string, not int"),
        ("M8", "tags", None, "tags must be a set of power_grid, routing, got None"),
        ("M9", "tags", ["power_grid"],
         "tags must be a set of power_grid, routing, got ['power_grid']"),
        ("M1", "tags", frozenset({"signal"}),
         "tags must be a set of power_grid, routing, got frozenset({'signal'})"),
        ("M5", "metal_process", 5, "metal_process must be a process id string or None, got 5"),
        ("M5", "via_process", ("EUV_LE",),
         "via_process must be a process id string or None, got ('EUV_LE',)"),
    ],
    ids=["pitch-negative", "region-str", "pitch-str", "name-int", "name-list", "name-huge-int",
         "tags-None", "tags-list", "tags-unknown", "metal-int", "via-tuple"],
)
def test_a_mistyped_field_is_one_domain_error_at_construction(
        asap7, layer_name, field, value, message):
    with pytest.raises(DomainError) as info:
        _with_layer(asap7, layer_name, **{field: value})
    assert type(info.value) is DomainError
    assert info.value.fields == ((field, message),)
    assert str(info.value) == message


def test_every_mistyped_field_of_a_layer_is_named():
    with pytest.raises(DomainError) as info:
        LayerSpec(1, "FEOL", -1, 2, 3, {"signal"})
    assert [field for field, _ in info.value.fields] == list(LayerSpec.__slots__)


def test_set_tags_are_stored_frozen():
    layer = LayerSpec("M1", Region.BEOL, 36, "EUV_LE", tags={"routing"})
    assert layer.tags.__class__ is frozenset
    assert layer == LayerSpec("M1", Region.BEOL, 36, "EUV_LE", tags=frozenset({"routing"}))


def test_huge_int_pitch_is_reported_without_its_digits(asap7):
    # 10**5000 has more digits than int's string conversion allows
    with pytest.raises(DomainError) as info:
        asap7.layers[-1]._replace(pitch_nm=10**5000)
    assert info.value.fields == (("pitch_nm", "pitch_nm must be finite and > 0, "
                                               "got an integer beyond floating-point range"),)


def test_beol_out_of_order(asap7):
    layers = list(asap7.layers)
    names = [l.name for l in asap7.layers]
    i, j = names.index("M1"), names.index("M2")
    layers[i], layers[j] = layers[j], layers[i]
    violations = stack_violations(StackSpec(asap7.technology_node, tuple(layers)))
    assert [ (v.layer, v.rule) for v in violations ] == [("M1", "beol-order")]


def test_validate_raises_with_all_violations(asap7):
    broken = _with_layer(asap7, "M5", metal_process="ArFi_LE9")
    broken = _with_layer(broken, "Gate", name="Fin")
    with pytest.raises(StackValidationError) as excinfo:
        validate_stack(broken)
    rules = sorted(v.rule for v in excinfo.value.violations)
    assert rules == ["duplicate-name", "unknown-process"]
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


# ---------------------------------------------------------------------------
# One layer's figures are its processes' catalog rows, summed


@pytest.mark.guard
def test_layer_without_process_is_a_missing_process_violation():
    # A layer derives figures only as a valid one-layer stack.
    with pytest.raises(StackValidationError) as excinfo:
        derive_layer_metrics(LayerSpec("X", Region.MOL))
    violation, = excinfo.value.violations
    assert (violation.layer, violation.rule) == ("X", "missing-process")


def _energy(proc) -> float:
    """Every mask of ``proc`` weighted by its exposure class."""
    return proc.masks * DEFAULT_WEIGHTS.per_mask(proc.exposure)


@pytest.mark.guard
@pytest.mark.parametrize("slot", ["metal_process", "via_process"])
def test_one_process_layer_is_its_catalog_row(slot):
    for proc in DEFAULT_CATALOG:
        metrics = derive_layer_metrics(LayerSpec("M1", Region.BEOL, **{slot: proc.id}))
        # The process's own StepCounts: values are immutable, so it is shared.
        assert metrics.total_steps is proc.steps
        assert repr(metrics) == repr(LayerMetrics(
            "M1", proc.steps.litho, proc.steps, proc.masks, proc.masks, _energy(proc)))


@pytest.mark.guard
def test_two_process_layer_sums_its_catalog_rows():
    for metal in DEFAULT_CATALOG:
        for via in DEFAULT_CATALOG:
            layer = LayerSpec("M1", Region.BEOL, metal_process=metal.id, via_process=via.id)
            steps = metal.steps + via.steps
            masks = metal.masks + via.masks
            assert repr(derive_layer_metrics(layer)) == repr(LayerMetrics(
                "M1", steps.litho, steps, masks, masks, _energy(metal) + _energy(via)))
