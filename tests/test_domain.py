"""The one rule every numeric input passes: it must be a finite number within
float range. An int beyond that range is rejected at its field, as ``inf``
and ``NaN`` are, with a DomainError instead of an OverflowError later on."""

import math

import pytest

from pfasfab import (
    CarbonParams,
    DesignParams,
    DomainError,
    EnergyWeights,
    ExposureClass,
    InvalidProcessError,
    LayerSpec,
    Region,
    SocBlock,
    StackSpec,
    StackValidationError,
    StepCounts,
    TrendSeries,
    Violation,
    asap7_preset,
    chip_pfas,
    compose_soc,
    embodied_carbon,
    stack_metrics,
    validate_ci_band,
    validate_stack,
)
from pfasfab.catalog import ProcessClass

CARBON_FIELDS = ("carbon_intensity", "energy_per_unit_litho", "energy_per_area_base",
                 "gas_per_area", "material_per_area")


def _carbon(name, x):
    return CarbonParams(**{**dict.fromkeys(CARBON_FIELDS, 0.0), name: x})


def _pitch(x):
    return validate_stack(StackSpec("t", [LayerSpec("M1", Region.BEOL, x, "EUV_LE")]))


# (input, build with the bad value x, error type, the field the error names
# or None where the error reports no fields, a fragment of its message)
CHECKED = [
    ("DesignParams.area_cm2", lambda x: DesignParams(x, 1.0), DomainError, "area_cm2",
     "area_cm2 must be finite and > 0"),
    ("DesignParams.yield_fraction", lambda x: DesignParams(1.0, x), DomainError,
     "yield_fraction", "yield must be within (0, 1]"),
    *[(f"CarbonParams.{name}", lambda x, name=name: _carbon(name, x), DomainError, name,
       f"{name} must be finite and >= 0") for name in CARBON_FIELDS],
    ("EnergyWeights.per_euv_mask", lambda x: EnergyWeights(x, 1.0), InvalidProcessError,
     "per_euv_mask", "per_euv_mask must be finite and > 0"),
    ("EnergyWeights.per_duv_mask", lambda x: EnergyWeights(10.0, x), InvalidProcessError,
     "per_duv_mask", "per_duv_mask must be finite and > 0"),
    ("SocBlock.baseline_area_cm2", lambda x: SocBlock("a", x, "M3"), DomainError,
     "baseline_area_cm2", "baseline_area_cm2 must be finite and > 0"),
    ("SocBlock.area_overhead", lambda x: SocBlock("a", 1.0, "M3", {"M2": x}), DomainError,
     "area_overhead.M2", "overhead factor for M2 must be finite and >= 1"),
    ("TrendSeries value", lambda x: TrendSeries((("a", x),)), DomainError, None,
     "trend value for 'a' must be finite"),
    ("ProcessClass.masks", lambda x: ProcessClass("X", StepCounts(), x, ExposureClass.EUV),
     InvalidProcessError, None, "masks must be >= 1"),
    ("validate_ci_band low", lambda x: validate_ci_band(x, 1.0), DomainError, None,
     "band bounds must be finite and >= 0"),
    ("validate_ci_band high", lambda x: validate_ci_band(0.0, x), DomainError, None,
     "band bounds must be finite and >= 0"),
    ("LayerSpec.pitch_nm", _pitch, StackValidationError, "layers",
     "[bad-pitch] pitch_nm must be finite and > 0"),
]


@pytest.mark.parametrize("value", [10**400, math.inf, math.nan], ids=["huge_int", "inf", "nan"])
@pytest.mark.parametrize("build, error, field, message", [c[1:] for c in CHECKED],
                         ids=[c[0] for c in CHECKED])
def test_non_finite_input_is_a_domain_error_at_its_field(build, error, field, message, value):
    with pytest.raises(error) as info:
        build(value)
    assert isinstance(info.value, DomainError)
    assert message in str(info.value)
    assert [f for f, _ in info.value.fields] == ([field] if field else [])


def test_huge_ints_that_used_to_overflow_raise_domain_errors():
    asap7 = asap7_preset()
    metrics = stack_metrics(asap7)
    with pytest.raises(DomainError):
        chip_pfas(metrics, DesignParams(10**400, 1.0))
    with pytest.raises(DomainError):
        embodied_carbon(metrics, DesignParams(1.0, 1.0), CarbonParams(10**400, 0, 0, 0, 0))
    with pytest.raises(DomainError):
        compose_soc([SocBlock("a", 10**400, "M3")], asap7, "M3")


def test_stack_violations_are_reported_at_layers():
    violation = Violation("M1", "bad-pitch", "pitch_nm must be finite and > 0, got inf")
    error = StackValidationError([violation])
    assert isinstance(error, DomainError)
    assert error.fields == (("layers", str(violation)),)
    with pytest.raises(StackValidationError) as info:
        _pitch(math.inf)
    assert info.value.violations == (violation,)
