"""Aggregation of per-layer mask counts into stack-level and chip-level totals.

The one module that sums ``stack.layer_table`` rows, for whole stacks and for
capped stacks with their routing map. The chip-level PFAS figure is a proxy
in units of PFAS-containing-layer x cm2: mask applications scaled by die
area over yield. It is deliberately not a chemical mass; per-layer chemical
quantification is an open measurement problem and the library never reports
kilograms of PFAS.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence

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
    COUNTS_END, REGIONS_END, STEPS_END, LayerMetrics, Region, StackSpec, beol_index, layer_table,
)
from .value import Value, finite, shown


class DesignParams(Value):
    """Die area and fab yield used to scale stack counts to one good chip."""

    __slots__ = ("area_cm2", "yield_fraction")

    def __post_init__(self):
        failed = []
        if not (finite(self.area_cm2) and self.area_cm2 > 0):
            failed.append(("area_cm2",
                           f"area_cm2 must be finite and > 0, got {shown(self.area_cm2)}"))
        if not (finite(self.yield_fraction) and 0 < self.yield_fraction <= 1):
            failed.append(("yield_fraction", "yield must be within (0, 1] (the 0 - 1 range "
                           f"with zero excluded), got {shown(self.yield_fraction)}"))
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


def metrics_from_totals(node: str, counts: Sequence[int], per_layer: tuple[LayerMetrics, ...],
                        weights: EnergyWeights) -> StackMetrics:
    """The one StackMetrics builder, from a stack's rows' column sums
    (``layer_table`` ``counts`` layout) and per-layer metrics. The one place
    a stack's litho energy is computed: DUV (dry and immersion) masks times
    the DUV weight plus EUV masks times the EUV weight, a float as the
    weights are; beyond float range, DomainError."""
    dry, immersion, euv = by_exposure = counts[REGIONS_END:]
    try:
        litho_energy = (dry + immersion) * weights.per_duv_mask + euv * weights.per_euv_mask
    except OverflowError:  # a mask total too large to convert to a float
        litho_energy = math.inf
    if not math.isfinite(litho_energy):
        raise DomainError(f"total litho energy of {node} overflows to {litho_energy}")
    total_steps = StepCounts(*counts[:STEPS_END])
    by_region = counts[STEPS_END:REGIONS_END]
    return StackMetrics(
        technology_node=node,
        total_pfas_layers=sum(by_region),
        by_region=dict(zip(_REGIONS, by_region)),
        by_exposure=dict(zip(_EXPOSURES, by_exposure)),
        total_steps=total_steps,
        total_litho_steps=total_steps.litho,
        total_litho_energy=litho_energy,
        per_layer=per_layer,
    )


def metrics_from_rows(node: str, rows: Sequence[tuple], weights: EnergyWeights) -> StackMetrics:
    """Totals and breakdowns summed over ``layer_table`` rows."""
    counts = [sum(column) for column in zip(*[row[2] for row in rows])] or (0,) * COUNTS_END
    return metrics_from_totals(node, counts, tuple([row[1] for row in rows]), weights)


def capper(node: str, rows: Sequence[tuple], retain_power_grid: bool, weights: EnergyWeights):
    """``(capped, routing)`` for a stack's ``layer_table`` rows: ``routing``
    maps each routing row's label to its BEOL index, in stack order, and
    ``capped(top_index)`` is the StackMetrics of the rows kept when BEOL
    routing is capped at ``top_index`` (None keeps none).

    A cap keeps every FEOL and MOL row, each routing row whose BEOL index is
    at most the cap, and power-grid rows only with retention. Routing
    indices rise in stack order (the ``beol-order`` rule), so that is the
    prefix before the first routing row above the cap, plus the retained
    power-grid rows after it, both read from integer running totals.
    """
    zero = (0,) * COUNTS_END
    per_layer, totals, grid_totals = [], [zero], [zero]
    routing, routing_at, grid_at = {}, [], []
    for spec, metrics, counts in rows:
        if spec.region is Region.BEOL:
            if not spec.is_power_grid:
                routing_at.append(len(per_layer))
                routing[spec.name] = beol_index(spec.name)
            elif retain_power_grid:
                grid_at.append(len(per_layer))
                grid_totals.append(tuple([a + b for a, b in zip(grid_totals[-1], counts)]))
            else:
                continue
        per_layer.append(metrics)
        totals.append(tuple([a + b for a, b in zip(totals[-1], counts)]))
    routing_at.append(len(per_layer))  # a cap at or above every routing layer keeps all
    routing_index = [*routing.values()]

    def capped(top_index: int | None) -> StackMetrics:
        end = routing_at[bisect_right(routing_index, top_index or 0)]
        first = bisect_left(grid_at, end)  # the first retained power-grid row above the cap
        counts = [kept + grid - below for kept, grid, below
                  in zip(totals[end], grid_totals[-1], grid_totals[first])]
        layers = per_layer[:end] + [per_layer[i] for i in grid_at[first:]]
        return metrics_from_totals(node, counts, tuple(layers), weights)

    return capped, routing


def stack_metrics(
    stack: StackSpec,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
) -> StackMetrics:
    """Totals and FEOL/MOL/BEOL and exposure-class breakdowns for a stack;
    an invalid stack raises StackValidationError (``layer_table``)."""
    rows = layer_table(stack, catalog, weights)  # checks the stack's type first
    return metrics_from_rows(stack.technology_node, rows, weights)


def chip_pfas(metrics: StackMetrics, design: DesignParams) -> ChipPfas:
    """Scale stack PFAS layers to one good chip: layers x area / yield."""
    check_type(isinstance(metrics, StackMetrics), "metrics", "a StackMetrics", metrics)
    check_type(isinstance(design, DesignParams), "design", "a DesignParams", design)
    try:
        value = metrics.total_pfas_layers * design.area_cm2 / design.yield_fraction
    except OverflowError:  # a layer total too large to convert to a float
        value = math.inf
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
