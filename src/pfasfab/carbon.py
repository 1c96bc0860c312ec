"""Parameterized embodied-carbon estimate for one manufactured chip.

Only the relative lithography energy of the stack is stack-sensitive; all
other fab electricity folds into a per-area base term, and direct gas
emissions and materials procurement enter as per-area constants:

    embodied = area / yield
               * (ci * (energy_per_unit_litho * litho_energy + energy_per_area_base)
                  + gas_per_area + material_per_area)

All five parameters are required. The library ships no hidden defaults
because credible constants depend on the fab; an example profile is
provided with the CLI configs and is labeled as illustrative.
"""

from __future__ import annotations

import math

from .engine import DesignParams, StackMetrics
from .errors import DomainError, check_type
from .value import Value, finite, shown


class CarbonParams(Value):
    """The five per-area and per-energy constants of the carbon model."""

    __slots__ = (
        "carbon_intensity",  # kg CO2e per kWh of fab electricity
        "energy_per_unit_litho",  # kWh per cm2 per unit of relative litho energy
        "energy_per_area_base",  # kWh per cm2, non-litho fab energy
        "gas_per_area",  # kg CO2e per cm2, direct gas emissions
        "material_per_area",  # kg CO2e per cm2, materials procurement
    )

    def __post_init__(self):
        DomainError.check([(name, f"{name} must be finite and >= 0, got {shown(value)}")
                           for name, value in zip(self.__slots__, self._astuple())
                           if not (finite(value) and value >= 0)])


class CarbonResult(Value):
    __slots__ = ("embodied_kg", "low_kg", "high_kg")
    _defaults = {"low_kg": None, "high_kg": None}


def _embodied_kg(
    metrics: StackMetrics, design: DesignParams, params: CarbonParams, carbon_intensity: float
) -> float:
    """Embodied kg CO2e per good chip with the profile's constants at the
    given carbon intensity."""
    per_cm2 = (
        carbon_intensity
        * (
            params.energy_per_unit_litho * metrics.total_litho_energy
            + params.energy_per_area_base
        )
        + params.gas_per_area
        + params.material_per_area
    )
    embodied_kg = design.area_cm2 / design.yield_fraction * per_cm2
    if not math.isfinite(embodied_kg):
        raise DomainError(f"embodied carbon overflows: {design.area_cm2} cm2 / yield "
                          f"{design.yield_fraction} x {per_cm2} kg CO2e/cm2 is {embodied_kg}")
    return embodied_kg


def _check_inputs(metrics, design, params):
    check_type(isinstance(metrics, StackMetrics), "metrics", "a StackMetrics", metrics)
    check_type(isinstance(design, DesignParams), "design", "a DesignParams", design)
    check_type(isinstance(params, CarbonParams), "params", "a CarbonParams", params)


def embodied_carbon(
    metrics: StackMetrics, design: DesignParams, params: CarbonParams
) -> CarbonResult:
    """Embodied kg CO2e for one good chip of the given stack and design."""
    _check_inputs(metrics, design, params)
    return CarbonResult(_embodied_kg(metrics, design, params, params.carbon_intensity))


def validate_ci_band(low: float, high: float) -> tuple[float, float]:
    """``(low, high)`` if both are finite and >= 0 and low <= high, else DomainError."""
    DomainError.check([
        (name, f"carbon-intensity band bound {name} must be finite and >= 0, "
               f"got {shown(value)}")
        for name, value in (("low", low), ("high", high))
        if not (finite(value) and value >= 0)
    ])
    if low > high:
        raise DomainError(f"inverted carbon-intensity band: low {shown(low)} > high {shown(high)}")
    return (low, high)


def carbon_band(
    metrics: StackMetrics,
    design: DesignParams,
    params: CarbonParams,
    ci_low: float,
    ci_high: float,
) -> CarbonResult:
    """Embodied carbon at the profile's nominal carbon intensity, plus the
    band spanned between a low and a high grid intensity. The three figures
    share ``embodied_carbon``'s expression, with only the intensity changed;
    the band's bounds are checked once, by ``validate_ci_band``."""
    _check_inputs(metrics, design, params)
    validate_ci_band(ci_low, ci_high)
    return CarbonResult(
        _embodied_kg(metrics, design, params, params.carbon_intensity),
        _embodied_kg(metrics, design, params, ci_low),
        _embodied_kg(metrics, design, params, ci_high),
    )


def estimate_carbon(
    metrics: StackMetrics,
    design: DesignParams | None,
    params: CarbonParams | None,
    band: tuple[float, float] | None = None,
) -> CarbonResult | None:
    """Embodied carbon, with the low and high figures of ``band`` when given;
    None without a design or carbon parameters. A given band is checked
    either way."""
    check_type(isinstance(metrics, StackMetrics), "metrics", "a StackMetrics", metrics)
    check_type(design is None or isinstance(design, DesignParams), "design",
               "a DesignParams or None", design)
    check_type(params is None or isinstance(params, CarbonParams), "params",
               "a CarbonParams or None", params)
    check_type(band is None or (isinstance(band, (list, tuple)) and len(band) == 2), "band",
               "None or a two-item list or tuple", band)
    if design is not None and params is not None:
        if band is None:
            return embodied_carbon(metrics, design, params)
        return carbon_band(metrics, design, params, *band)
    if band is not None:  # checked on every call, as carbon_band checks it
        validate_ci_band(*band)
    return None
