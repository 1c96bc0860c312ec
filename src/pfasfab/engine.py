"""Aggregation of per-layer mask counts into stack-level and chip-level totals.

The chip-level PFAS figure is a proxy in units of PFAS-containing-layer x
cm2: mask applications scaled by die area over yield. It is deliberately
not a chemical mass; per-layer chemical quantification is an open
measurement problem and the library never reports kilograms of PFAS.
"""

from __future__ import annotations

import math
from typing import Sequence

from .catalog import (
    DEFAULT_CATALOG,
    DEFAULT_WEIGHTS,
    EnergyWeights,
    ExposureClass,
    ProcessCatalog,
    StepCounts,
)
from .errors import DomainError
from .stack import LayerRow, StackSpec, layer_table, row_totals
from .value import Value, finite


class DesignParams(Value):
    """Die area and fab yield used to scale stack counts to one good chip."""

    __slots__ = ("area_cm2", "yield_fraction")

    def __post_init__(self):
        failed = []
        if not (finite(self.area_cm2) and self.area_cm2 > 0):
            failed.append(("area_cm2", f"area_cm2 must be finite and > 0, got {self.area_cm2}"))
        if not 0 < self.yield_fraction <= 1:
            failed.append(("yield_fraction", "yield must be within (0, 1] (the 0 - 1 range "
                           f"with zero excluded), got {self.yield_fraction}"))
        DomainError.check(failed)


class StackMetrics(Value):
    __slots__ = ("technology_node", "total_pfas_layers", "by_region", "by_exposure",
                 "total_steps", "total_litho_steps", "total_litho_energy", "per_layer")

    @property
    def euv_masks(self) -> int:
        return self.by_exposure[ExposureClass.EUV]

    @property
    def duv_masks(self) -> int:
        return (
            self.by_exposure[ExposureClass.DUV_DRY]
            + self.by_exposure[ExposureClass.DUV_IMMERSION]
        )


class ChipPfas(Value):
    """PFAS proxy for one chip, with the inputs echoed: ``value`` is in
    PFAS-containing layers x cm2 per good die."""

    __slots__ = ("value", "stack", "area_cm2", "yield_fraction")


def metrics_from_rows(technology_node: str, rows: Sequence[LayerRow]) -> StackMetrics:
    """Totals and breakdowns summed over per-layer rows."""
    litho_energy = 0.0
    for row in rows:  # in stack order, so the float sum is the layer-by-layer one
        litho_energy += row.metrics.litho_energy
    if not math.isfinite(litho_energy):
        raise DomainError(f"total litho energy of {technology_node} overflows to {litho_energy}")
    total_steps, by_region, by_exposure = row_totals(rows)
    return StackMetrics(
        technology_node=technology_node,
        total_pfas_layers=sum(by_region.values()),
        by_region=by_region,
        by_exposure=by_exposure,
        total_steps=total_steps,
        total_litho_steps=total_steps.litho,
        total_litho_energy=litho_energy,
        per_layer=tuple([row.metrics for row in rows]),
    )


def stack_metrics(
    stack: StackSpec,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
) -> StackMetrics:
    """Totals and FEOL/MOL/BEOL and exposure-class breakdowns for a stack."""
    return metrics_from_rows(stack.technology_node, layer_table(stack, catalog, weights))


def chip_pfas(metrics: StackMetrics, design: DesignParams) -> ChipPfas:
    """Scale stack PFAS layers to one good chip: layers x area / yield."""
    value = metrics.total_pfas_layers * design.area_cm2 / design.yield_fraction
    if not math.isfinite(value):
        raise DomainError(f"chip PFAS overflows: {metrics.total_pfas_layers} layers x "
                          f"{design.area_cm2} cm2 / yield {design.yield_fraction} is {value}")
    return ChipPfas(
        value=value,
        stack=metrics.technology_node,
        area_cm2=design.area_cm2,
        yield_fraction=design.yield_fraction,
    )


def step_totals(stack: StackSpec, catalog: ProcessCatalog = DEFAULT_CATALOG) -> StepCounts:
    """Category-wise step sums over every layer's metal and via processes."""
    return stack_metrics(stack, catalog).total_steps
