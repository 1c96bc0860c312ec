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
from .errors import DomainError
from .value import Value, finite


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
        DomainError.check([(name, f"{name} must be finite and >= 0, got {value}")
                           for name, value in zip(self.__slots__, self._astuple())
                           if not (finite(value) and value >= 0)])


class CarbonResult(Value):
    __slots__ = ("embodied_kg", "low_kg", "high_kg")
    _defaults = {"low_kg": None, "high_kg": None}


def embodied_carbon(
    metrics: StackMetrics, design: DesignParams, params: CarbonParams
) -> CarbonResult:
    """Embodied kg CO2e for one good chip of the given stack and design."""
    per_cm2 = (
        params.carbon_intensity
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
    return CarbonResult(embodied_kg=embodied_kg)


def validate_ci_band(low: float, high: float) -> tuple[float, float]:
    """``(low, high)`` if both are finite and >= 0 and low <= high, else DomainError."""
    if not (finite(low) and finite(high) and low >= 0 and high >= 0):
        raise DomainError(
            f"carbon-intensity band bounds must be finite and >= 0, got {low}, {high}")
    if low > high:
        raise DomainError(f"inverted carbon-intensity band: low {low} > high {high}")
    return (low, high)


def carbon_band(
    metrics: StackMetrics,
    design: DesignParams,
    params: CarbonParams,
    ci_low: float,
    ci_high: float,
) -> CarbonResult:
    """Embodied carbon at the profile's nominal carbon intensity, plus the
    band spanned between a low and a high grid intensity."""
    validate_ci_band(ci_low, ci_high)
    nominal = embodied_carbon(metrics, design, params)
    low = embodied_carbon(metrics, design, params._replace(carbon_intensity=ci_low))
    high = embodied_carbon(metrics, design, params._replace(carbon_intensity=ci_high))
    return CarbonResult(
        embodied_kg=nominal.embodied_kg,
        low_kg=low.embodied_kg,
        high_kg=high.embodied_kg,
    )


def estimate_carbon(
    metrics: StackMetrics,
    design: DesignParams | None,
    params: CarbonParams | None,
    band: tuple[float, float] | None = None,
) -> CarbonResult | None:
    """Embodied carbon, with the low and high figures of ``band`` when given;
    None without a design or carbon parameters."""
    if design is None or params is None:
        return None
    if band is None:
        return embodied_carbon(metrics, design, params)
    return carbon_band(metrics, design, params, *band)
