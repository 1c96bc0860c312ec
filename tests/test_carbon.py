import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfasfab import (
    CarbonParams,
    DesignParams,
    DomainError,
    StackSpec,
    asap7_preset,
    carbon_band,
    embodied_carbon,
    estimate_carbon,
    validate_ci_band,
    n7_fixture,
    stack_metrics,
)

UNIT_DESIGN = DesignParams(1.0, 1.0)
LITHO_ONLY = CarbonParams(
    carbon_intensity=1.0,
    energy_per_unit_litho=1.0,
    energy_per_area_base=0.0,
    gas_per_area=0.0,
    material_per_area=0.0,
)


def test_estimate_carbon_adds_band_only_when_given(asap7):
    metrics = stack_metrics(asap7)
    design = DesignParams(2.0, 0.8)
    params = CarbonParams(0.4, 0.05, 5.0, 0.3, 0.5)
    assert estimate_carbon(metrics, design, params) == embodied_carbon(metrics, design, params)
    assert estimate_carbon(metrics, design, params, (0.02, 0.82)) == carbon_band(
        metrics, design, params, 0.02, 0.82
    )


def test_estimate_carbon_is_none_without_design_or_params(asap7):
    metrics = stack_metrics(asap7)
    params = CarbonParams(0.4, 0.05, 5.0, 0.3, 0.5)
    assert estimate_carbon(metrics, None, params) is None
    assert estimate_carbon(metrics, UNIT_DESIGN, None, (0.02, 0.82)) is None
    assert estimate_carbon(metrics, None, None) is None


def test_degenerate_params_isolate_litho_term(asap7):
    metrics = stack_metrics(asap7)
    assert embodied_carbon(metrics, UNIT_DESIGN, LITHO_ONLY).embodied_kg == 128.0


def test_linear_in_carbon_intensity(asap7):
    metrics = stack_metrics(asap7)
    base = embodied_carbon(metrics, UNIT_DESIGN, LITHO_ONLY).embodied_kg
    doubled = embodied_carbon(
        metrics, UNIT_DESIGN, LITHO_ONLY._replace(carbon_intensity=2.0)
    ).embodied_kg
    assert doubled == 2 * base


def test_duv_stack_has_lower_litho_electricity_term():
    # golden pair: the DUV counterpart carries 36 relative energy units
    # (all masks DUV) against 128 for the EUV stack
    euv_metrics = stack_metrics(n7_fixture("euv"))
    duv_metrics = stack_metrics(n7_fixture("duv"))
    assert euv_metrics.total_litho_energy == 128.0
    assert duv_metrics.total_litho_energy == 36.0
    euv_kg = embodied_carbon(euv_metrics, UNIT_DESIGN, LITHO_ONLY).embodied_kg
    duv_kg = embodied_carbon(duv_metrics, UNIT_DESIGN, LITHO_ONLY).embodied_kg
    assert duv_kg < euv_kg


def test_band_zero_width(asap7):
    metrics = stack_metrics(asap7)
    result = carbon_band(metrics, UNIT_DESIGN, LITHO_ONLY, 0.4, 0.4)
    assert result.low_kg == result.high_kg


def test_band_coal_above_renewable(asap7):
    metrics = stack_metrics(asap7)
    result = carbon_band(metrics, UNIT_DESIGN, LITHO_ONLY, 0.02, 0.82)
    assert result.high_kg > result.low_kg
    assert result.low_kg == 0.02 * 128.0
    assert result.high_kg == 0.82 * 128.0


def test_band_collapses_without_electricity_terms(asap7):
    metrics = stack_metrics(asap7)
    params = CarbonParams(
        carbon_intensity=0.5,
        energy_per_unit_litho=0.0,
        energy_per_area_base=0.0,
        gas_per_area=0.3,
        material_per_area=0.5,
    )
    result = carbon_band(metrics, UNIT_DESIGN, params, 0.02, 0.82)
    assert result.low_kg == result.high_kg == result.embodied_kg == 0.8


def test_inverted_band_rejected(asap7):
    metrics = stack_metrics(asap7)
    with pytest.raises(DomainError):
        carbon_band(metrics, UNIT_DESIGN, LITHO_ONLY, 0.82, 0.02)
    with pytest.raises(DomainError):
        carbon_band(metrics, UNIT_DESIGN, LITHO_ONLY, -0.5, 0.02)


def test_negative_parameter_rejected():
    with pytest.raises(DomainError):
        CarbonParams(-0.1, 1.0, 0.0, 0.0, 0.0)


def test_carbon_params_report_every_failing_field():
    with pytest.raises(DomainError) as excinfo:
        CarbonParams(-0.1, 1.0, math.inf, 0.0, math.nan)
    assert [field for field, _ in excinfo.value.fields] == [
        "carbon_intensity", "energy_per_area_base", "material_per_area",
    ]


def test_validate_ci_band():
    assert validate_ci_band(0.02, 0.82) == (0.02, 0.82)
    assert validate_ci_band(0.5, 0.5) == (0.5, 0.5)
    with pytest.raises(DomainError, match="inverted"):
        validate_ci_band(0.82, 0.02)
    for low, high in [(-0.5, 0.02), (0.0, math.inf), (math.nan, 0.5)]:
        with pytest.raises(DomainError, match="finite and >= 0"):
            validate_ci_band(low, high)


def test_embodied_carbon_overflow_is_a_domain_error(asap7):
    params = CarbonParams(0.4, 0.05, 5.0, 1e308, 0.5)
    with pytest.raises(DomainError, match="embodied carbon overflows"):
        embodied_carbon(stack_metrics(asap7), DesignParams(1.0, 0.5), params)


_PARAM = st.floats(min_value=0.0, max_value=10.0)
_DELTA = st.floats(min_value=0.0, max_value=5.0)


@given(ci=_PARAM, e_litho=_PARAM, base=_PARAM, gas=_PARAM, material=_PARAM, delta=_DELTA,
       field=st.sampled_from(
           ["carbon_intensity", "energy_per_unit_litho", "energy_per_area_base",
            "gas_per_area", "material_per_area"]
       ))
def test_monotone_in_every_parameter(ci, e_litho, base, gas, material, delta, field):
    metrics = stack_metrics(asap7_preset())
    params = CarbonParams(ci, e_litho, base, gas, material)
    bumped = params._replace(**{field: getattr(params, field) + delta})
    low = embodied_carbon(metrics, UNIT_DESIGN, params).embodied_kg
    high = embodied_carbon(metrics, UNIT_DESIGN, bumped).embodied_kg
    assert high >= low


@given(indices=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=16, unique=True))
def test_carbon_ratio_equals_energy_ratio_with_litho_only(indices):
    preset = asap7_preset()
    sub = StackSpec("sub", tuple(preset.layers[i] for i in sorted(indices)))
    full_metrics = stack_metrics(preset)
    sub_metrics = stack_metrics(sub)
    if sub_metrics.total_litho_energy == 0:
        return
    full_kg = embodied_carbon(full_metrics, UNIT_DESIGN, LITHO_ONLY).embodied_kg
    sub_kg = embodied_carbon(sub_metrics, UNIT_DESIGN, LITHO_ONLY).embodied_kg
    assert math.isclose(
        full_kg / sub_kg,
        full_metrics.total_litho_energy / sub_metrics.total_litho_energy,
        rel_tol=1e-9,
    )


def test_beol_reduction_shifts_carbon_by_litho_delta_only(asap7):
    # same area: the only moving term is litho energy, so a fixed-area chip
    # capped at M3 differs from the M7 cap by ci * e_unit * energy delta
    from pfasfab import sweep_beol

    params = CarbonParams(0.4, 0.05, 5.0, 0.3, 0.5)
    design = DesignParams(1.0, 1.0)
    points = sweep_beol(
        asap7, ["M7", "M3"], retain_power_grid=True, design=design, carbon_params=params
    )
    by_label = {p.top_routing_layer: p for p in points}
    m7, m3 = by_label["M7"], by_label["M3"]
    energy_delta = m7.metrics.total_litho_energy - m3.metrics.total_litho_energy
    carbon_delta = m7.carbon.embodied_kg - m3.carbon.embodied_kg
    assert math.isclose(carbon_delta, 0.4 * 0.05 * energy_delta, rel_tol=1e-9)

    # large fixed terms shrink the relative change
    heavy = params._replace(material_per_area=500.0)
    heavy_points = sweep_beol(
        asap7, ["M7", "M3"], retain_power_grid=True, design=design, carbon_params=heavy
    )
    heavy_by_label = {p.top_routing_layer: p for p in heavy_points}
    rel_light = carbon_delta / m7.carbon.embodied_kg
    rel_heavy = (
        heavy_by_label["M7"].carbon.embodied_kg - heavy_by_label["M3"].carbon.embodied_kg
    ) / heavy_by_label["M7"].carbon.embodied_kg
    assert rel_heavy < rel_light
