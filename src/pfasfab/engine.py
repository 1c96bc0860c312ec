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
from .errors import DomainError, check_type
from .stack import (
    COUNTS_END, REGIONS_END, STEPS_END, LayerMetrics, Region, StackSpec, layer_table,
)
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


_REGIONS = tuple(Region)
_EXPOSURES = tuple(ExposureClass)


def metrics_from_totals(
    technology_node: str,
    litho_energy: float,
    counts: Sequence[int],
    per_layer: tuple[LayerMetrics, ...],
) -> StackMetrics:
    """The one StackMetrics builder, from a stack's litho energy, its rows'
    column sums (``stack.layer_table`` ``counts`` layout) and its per-layer
    metrics; an energy that overflows raises DomainError."""
    if not math.isfinite(litho_energy):
        raise DomainError(f"total litho energy of {technology_node} overflows to {litho_energy}")
    total_steps = StepCounts(*counts[:STEPS_END])
    by_region = counts[STEPS_END:REGIONS_END]
    return StackMetrics(
        technology_node=technology_node,
        total_pfas_layers=sum(by_region),
        by_region=dict(zip(_REGIONS, by_region)),
        by_exposure=dict(zip(_EXPOSURES, counts[REGIONS_END:])),
        total_steps=total_steps,
        total_litho_steps=total_steps.litho,
        total_litho_energy=litho_energy,
        per_layer=per_layer,
    )


def metrics_from_rows(technology_node: str, rows: Sequence[tuple]) -> StackMetrics:
    """Totals and breakdowns summed over ``layer_table`` rows."""
    litho_energy = 0.0
    per_layer = []
    for _, metrics, _ in rows:  # in stack order, so the float sum is the layer-by-layer one
        litho_energy += metrics.litho_energy
        per_layer.append(metrics)
    counts = [sum(column) for column in zip(*[row[2] for row in rows])] or (0,) * COUNTS_END
    return metrics_from_totals(technology_node, litho_energy, counts, tuple(per_layer))


def stack_metrics(
    stack: StackSpec,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
) -> StackMetrics:
    """Totals and FEOL/MOL/BEOL and exposure-class breakdowns for a stack;
    an invalid stack raises StackValidationError (``layer_table``)."""
    check_type(isinstance(stack, StackSpec), "stack", "a StackSpec", stack)
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
