import json

import pytest

from pfasfab import (
    ConfigError,
    DomainError,
    asap7_preset,
    load_stack_document,
    n7_fixture,
    parse_carbon_profile,
    parse_config,
    stack_metrics,
    stack_to_dict,
    validate_ci_band,
)


def test_minimal_config_valid():
    doc = parse_config('{"stack": "asap7", "design": {"area_cm2": 1, "yield": 1}}')
    assert doc.stack == asap7_preset()
    assert doc.design.area_cm2 == 1.0
    assert doc.design.yield_fraction == 1.0
    assert doc.weights.per_euv_mask == 10.0


def test_yield_zero_range_violation():
    with pytest.raises(ConfigError) as excinfo:
        parse_config('{"stack": "asap7", "design": {"area_cm2": 1, "yield": 0}}')
    (location, message), = excinfo.value.entries
    assert location == "design.yield"
    assert "(0, 1]" in message
    assert "zero" in message


@pytest.mark.parametrize("bad_yield", [1.2, -0.5, "high"])
def test_yield_out_of_range(bad_yield):
    text = json.dumps({"stack": "asap7", "design": {"area_cm2": 1, "yield": bad_yield}})
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert any("design.yield" in loc for loc, _ in excinfo.value.entries)


def test_unknown_process_in_inline_stack_names_layer():
    document = {
        "stack": {
            "technology_node": "custom",
            "layers": [
                {"name": "Fin", "region": "FEOL", "metal_process": "ArFi_SAQP"},
                {"name": "M1", "region": "BEOL", "metal_process": "ArFi_LE9"},
            ],
        }
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(document))
    messages = [msg for _, msg in excinfo.value.entries]
    assert any("'M1'" in m and "unknown-process" in m for m in messages)


def test_unknown_key_lenient_warns_strict_rejects():
    text = '{"stack": "asap7", "design": {"area_cm2": 1, "yield": 1}, "extra": 1}'
    doc = parse_config(text, strict=False)
    assert any("extra" in w for w in doc.warnings)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text, strict=True)
    assert any("extra" in loc for loc, _ in excinfo.value.entries)


def test_exactly_one_stack_source():
    document = {
        "stack": {
            "preset": "asap7",
            "layers": [{"name": "Fin", "region": "FEOL", "metal_process": "ArFi_SAQP"}],
        }
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(document))
    assert any("exactly one stack source" in msg for _, msg in excinfo.value.entries)


def test_unknown_preset_lists_presets():
    with pytest.raises(ConfigError) as excinfo:
        parse_config('{"stack": "asap9"}')
    (_, message), = excinfo.value.entries
    assert "asap7" in message and "n7_duv" in message


def test_syntax_error_carries_location():
    with pytest.raises(ConfigError) as excinfo:
        parse_config('{"stack": "asap7",}')
    (location, message), = excinfo.value.entries
    assert location.startswith("line ")
    assert "invalid JSON" in message


def test_schema_version_mismatch():
    with pytest.raises(ConfigError):
        parse_config('{"schema_version": "9", "stack": "asap7"}')


def test_errors_are_aggregated():
    document = {
        "stack": "nope",
        "design": {"area_cm2": -1, "yield": 2},
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(document))
    locations = [loc for loc, _ in excinfo.value.entries]
    assert "stack" in locations
    assert "design.area_cm2" in locations
    assert "design.yield" in locations


@pytest.mark.parametrize("preset", ["asap7", "n7_euv", "n7_duv"])
def test_stack_roundtrip_through_document(preset, weights):
    original = {"asap7": asap7_preset(), "n7_euv": n7_fixture("euv"), "n7_duv": n7_fixture("duv")}[preset]
    text = json.dumps(stack_to_dict(original))
    restored = load_stack_document(text)
    assert restored == original
    assert stack_metrics(restored, weights=weights) == stack_metrics(original, weights=weights)


def test_load_stack_document_preset_reference():
    assert load_stack_document('{"preset": "asap7"}') == asap7_preset()
    assert load_stack_document('"n7_duv"') == n7_fixture("duv")


_NOT_PRESET_NAMES = {
    "inline-stack": stack_to_dict(asap7_preset()),
    "preset-reference": {"preset": "asap7"},
    "number": 5,
}


@pytest.mark.parametrize("value", _NOT_PRESET_NAMES.values(), ids=_NOT_PRESET_NAMES)
def test_preset_reference_takes_only_a_preset_name(value):
    for document, location in (
        ({"stack": {"preset": value}}, "stack.preset"),
        ({"compare": {"stack_a": {"preset": value}, "stack_b": "asap7"}}, "compare.stack_a.preset"),
    ):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(document))
        assert [loc for loc, _ in excinfo.value.entries] == [location]
    with pytest.raises(ConfigError) as excinfo:
        load_stack_document(json.dumps({"preset": value}))
    assert [loc for loc, _ in excinfo.value.entries] == ["preset"]


def test_carbon_profile_parses():
    text = json.dumps(
        {
            "carbon_intensity": 0.4,
            "energy_per_unit_litho": 0.05,
            "energy_per_area_base": 5.0,
            "gas_per_area": 0.3,
            "material_per_area": 0.5,
            "ci_band": {"low": 0.02, "high": 0.82},
        }
    )
    params, ci_band, warnings = parse_carbon_profile(text)
    assert params.carbon_intensity == 0.4
    assert ci_band == (0.02, 0.82)
    assert warnings == ()


def test_carbon_profile_missing_field():
    with pytest.raises(ConfigError) as excinfo:
        parse_carbon_profile('{"carbon_intensity": 0.4}')
    locations = [loc for loc, _ in excinfo.value.entries]
    assert "energy_per_unit_litho" in locations


def test_carbon_profile_errors_name_top_level_keys():
    profile = {"carbon_intensity": -1, "energy_per_unit_litho": 0.05,
               "energy_per_area_base": 5.0, "gas_per_area": 0.3, "material_per_area": "x"}
    with pytest.raises(ConfigError) as excinfo:
        parse_carbon_profile(json.dumps(profile))
    assert excinfo.value.entries == (("material_per_area", "must be a number, got 'x'"),)
    profile["material_per_area"] = 0.5
    with pytest.raises(ConfigError) as excinfo:
        parse_carbon_profile(json.dumps(profile))
    assert excinfo.value.entries == (
        ("carbon_intensity", "carbon_intensity must be finite and >= 0, got -1.0"),
    )


def test_inverted_ci_band_rejected():
    document = {
        "stack": "asap7",
        "fab": {"ci_band": {"low": 0.9, "high": 0.1}},
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(document))
    assert any("inverted" in msg for _, msg in excinfo.value.entries)


def test_non_finite_numbers_rejected():
    with pytest.raises(ConfigError):
        parse_config('{"stack": "asap7", "fab": {"ci_band": {"low": NaN, "high": 0.8}}}')
    with pytest.raises(ConfigError):
        parse_config('{"design": {"area_cm2": Infinity, "yield": 1}}')
    with pytest.raises(ConfigError):
        parse_config('{"trend": {"series": [["7nm", NaN]], "reference": "7nm"}}')


def test_infinite_pitch_rejected_at_its_field():
    document = {
        "stack": {
            "technology_node": "t",
            "layers": [
                {"name": "M1", "region": "BEOL", "metal_process": "EUV_LE", "pitch_nm": 36},
                {"name": "M2", "region": "BEOL", "metal_process": "EUV_LE", "pitch_nm": 1e999},
            ],
        }
    }
    text = json.dumps(document)
    assert '"pitch_nm": Infinity' in text
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    (location, message), = excinfo.value.entries
    assert location == "stack.layers[1].pitch_nm"
    assert "finite" in message


HUGE = "9" * 400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "document, location",
    [
        ('{"stack": "asap7", "design": {"area_cm2": %s, "yield": 1}}', "design.area_cm2"),
        (
            '{"fab": {"carbon": {"carbon_intensity": 0.4, "energy_per_unit_litho": 0.05, '
            '"energy_per_area_base": %s, "gas_per_area": 0.3, "material_per_area": 0.5}}}',
            "fab.carbon.energy_per_area_base",
        ),
        (
            '{"soc": {"target_top": "M4", "blocks": [{"name": "cpu", "area_cm2": 0.1, '
            '"required_top": "M7", "area_overhead": {"M4": %s}}]}}',
            "soc.blocks[0].area_overhead.M4",
        ),
        ('{"trend": {"series": [["7nm", %s]], "reference": "7nm"}}', "trend.series[0]"),
    ],
    ids=["design", "carbon", "overhead", "trend"],
)
def test_overflowing_integer_rejected_at_its_field(document, location):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(document % HUGE)
    assert [loc for loc, _ in excinfo.value.entries] == [location]


def test_scenario_sections_parse():
    document = {
        "stack": "asap7",
        "design": {"area_cm2": 1, "yield": 0.875},
        "compare": {"stack_a": "n7_duv", "stack_b": "n7_euv"},
        "sweep": {"targets": ["M7", "M3"], "retain_power_grid": True},
        "soc": {
            "blocks": [
                {"name": "cpu", "area_cm2": 0.1, "required_top": "M7", "area_overhead": {"M4": 1.47}}
            ],
            "target_top": "M4",
        },
        "trend": {"series": [["28nm", 20], ["7nm", 29]], "reference": "28nm"},
    }
    doc = parse_config(json.dumps(document))
    assert doc.compare.stack_a == n7_fixture("duv")
    assert doc.sweep.targets == ("M7", "M3")
    assert doc.sweep.retain_power_grid is True
    assert doc.sweep.beol_only is False
    assert doc.soc.blocks[0].area_overhead == {"M4": 1.47}
    assert doc.soc.retain_power_grid is True
    assert doc.trend.series.values() == {"28nm": 20.0, "7nm": 29.0}
    assert doc.trend.reference == "28nm"


def test_bad_overhead_factor_rejected():
    document = {
        "soc": {
            "blocks": [
                {"name": "cpu", "area_cm2": 0.1, "required_top": "M7", "area_overhead": {"M4": 0.9}}
            ],
            "target_top": "M4",
        }
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(document))
    assert any("area_overhead.M4" in loc for loc, _ in excinfo.value.entries)


def test_soc_block_fields_reported_together():
    document = {
        "soc": {
            "blocks": [
                {"name": "cpu", "area_cm2": 0, "required_top": "X7", "area_overhead": {"M4": 0.9}}
            ],
            "target_top": "M4",
        }
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(document))
    assert [loc for loc, _ in excinfo.value.entries] == [
        "soc.blocks[0].area_cm2",
        "soc.blocks[0].required_top",
        "soc.blocks[0].area_overhead.M4",
    ]


def test_required_top_beyond_the_digit_limit_rejected_at_its_field():
    document = {
        "soc": {
            "blocks": [{"name": "a", "area_cm2": 1, "required_top": "M" + "9" * 5000}],
            "target_top": "M4",
        }
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(document))
    (location, message), = excinfo.value.entries
    assert location == "soc.blocks[0].required_top"
    assert "BEOL label" in message


def test_bad_energy_weights_rejected_at_their_fields():
    document = {"fab": {"energy_weights": {"per_euv_mask": 0, "per_duv_mask": -1}}}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(document))
    assert [loc for loc, _ in excinfo.value.entries] == [
        "fab.energy_weights.per_euv_mask",
        "fab.energy_weights.per_duv_mask",
    ]


def test_range_messages_come_from_the_domain_types():
    for low, high, bad in [(-1.0, 0.5, "low"), (0.5, -1.0, "high")]:
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps({"fab": {"ci_band": {"low": low, "high": high}}}))
        with pytest.raises(DomainError) as domain:
            validate_ci_band(low, high)
        assert excinfo.value.entries == ((f"fab.ci_band.{bad}", str(domain.value)),)


def test_integer_beyond_the_digit_limit_rejected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config('{"design": {"area_cm2": %s, "yield": 1}}' % ("9" * 5000))
    (location, message), = excinfo.value.entries
    assert location == "<document>"
    assert message.startswith("invalid JSON")


def test_shipped_configs_parse_strict():
    from conftest import CONFIGS

    for path in sorted(CONFIGS.glob("*.json")):
        if path.name == "carbon_profile_example.json":
            params, ci_band, warnings = parse_carbon_profile(
                path.read_text(encoding="utf-8"), strict=True
            )
            assert params is not None and warnings == ()
        else:
            doc = parse_config(path.read_text(encoding="utf-8"), strict=True)
            assert doc.warnings == ()


def test_custom_stack_example_analyzes():
    from conftest import CONFIGS

    doc = parse_config((CONFIGS / "custom_stack_example.json").read_text(encoding="utf-8"))
    metrics = stack_metrics(doc.stack)
    # single-patterned example: one mask per metal or via slot
    assert metrics.total_pfas_layers == 15
    assert metrics.euv_masks == 0


def test_unknown_tag_rejected():
    document = {
        "stack": {
            "technology_node": "t",
            "layers": [
                {"name": "M1", "region": "BEOL", "metal_process": "EUV_LE", "tags": ["ground"]}
            ],
        }
    }
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(document))
    assert any("ground" in msg for _, msg in excinfo.value.entries)
