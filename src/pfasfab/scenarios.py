"""Trade-off analyses over validated stacks.

Four scenario operations: two-stack comparison, routing-layer reduction
sweeps with optional power-grid retention, SoC composition under per-block
area overheads, and normalization of cross-node series to a reference node.
Each evaluation is a pure computation over immutable inputs, so scenarios
can run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .carbon import CarbonParams, CarbonResult, estimate_carbon
from .catalog import DEFAULT_CATALOG, DEFAULT_WEIGHTS, EnergyWeights, ProcessCatalog
from .engine import ChipPfas, DesignParams, StackMetrics, chip_pfas, metrics_from_rows
from .engine import stack_metrics
from .errors import DomainError, DuplicateTargetError, MissingOverheadError, TrendReferenceError
from .errors import UnknownTargetError
from .stack import LayerRow, Region, StackSpec, beol_index, layer_table, validate_stack


def _ratio(a: float, b: float) -> float | None:
    return a / b if b != 0 else None


@dataclass(frozen=True)
class ComparisonResult:
    """Stack-vs-stack ratios; ``a`` is conventionally the costlier baseline."""

    metrics_a: StackMetrics
    metrics_b: StackMetrics
    ratio_pfas: float | None
    ratio_litho_steps: float | None
    ratio_total_steps: float | None
    ratio_energy: float | None
    pfas_ratio_by_region: dict[Region, float | None]
    percent_reduction: float | None  # (pfas_a - pfas_b) / pfas_a, as a fraction


def compare_stacks(
    a: StackSpec,
    b: StackSpec,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
) -> ComparisonResult:
    """Ratios and reductions of PFAS layers, steps, and litho energy.

    Ratios with a zero denominator are reported as absent (None) rather
    than raising; a region empty in stack ``b`` simply has no ratio.
    """
    validate_stack(a, catalog)
    validate_stack(b, catalog)
    ma = stack_metrics(a, catalog, weights)
    mb = stack_metrics(b, catalog, weights)
    return ComparisonResult(
        metrics_a=ma,
        metrics_b=mb,
        ratio_pfas=_ratio(ma.total_pfas_layers, mb.total_pfas_layers),
        ratio_litho_steps=_ratio(ma.total_litho_steps, mb.total_litho_steps),
        ratio_total_steps=_ratio(ma.total_steps.total(), mb.total_steps.total()),
        ratio_energy=_ratio(ma.total_litho_energy, mb.total_litho_energy),
        pfas_ratio_by_region={
            region: _ratio(ma.by_region[region], mb.by_region[region])
            for region in Region
        },
        percent_reduction=(
            (ma.total_pfas_layers - mb.total_pfas_layers) / ma.total_pfas_layers
            if ma.total_pfas_layers != 0
            else None
        ),
    )


@dataclass(frozen=True)
class SweepPoint:
    top_routing_layer: str | None
    stack: StackSpec
    metrics: StackMetrics
    chip: ChipPfas | None = None
    carbon: CarbonResult | None = None


def _cap_levels(rows: Sequence[LayerRow], retain_power_grid: bool) -> list[float]:
    """The lowest routing cap that keeps each row: 0 for FEOL and MOL rows,
    the BEOL index for routing rows, and 0 or infinity for power-grid rows,
    which are kept verbatim when retention is on and dropped otherwise."""
    power_grid = 0 if retain_power_grid else math.inf
    return [
        0 if row.spec.region is not Region.BEOL
        else power_grid if row.spec.is_power_grid
        else beol_index(row.spec.name)
        for row in rows
    ]


def _capped_rows(rows: Sequence[LayerRow], levels: list[float], top_index: int | None):
    """The rows kept when BEOL routing is capped at ``top_index``."""
    cap = top_index or 0
    return [row for row, level in zip(rows, levels) if level <= cap]


def _resolve_targets(stack: StackSpec, targets: Sequence[str]) -> dict[str, int]:
    """BEOL index of each target label, which must name a BEOL layer once."""
    indices = {l.name: beol_index(l.name) for l in stack.layers if l.region is Region.BEOL}
    resolved = {}
    for target in targets:
        if target not in indices:
            raise UnknownTargetError(
                f"target {target!r} is not a BEOL layer of {stack.technology_node}; "
                f"BEOL layers: {', '.join(indices)}"
            )
        if target in resolved:
            raise DuplicateTargetError(f"target {target!r} is given more than once")
        resolved[target] = indices[target]
    return resolved


def sweep_beol(
    stack: StackSpec,
    targets: Sequence[str],
    retain_power_grid: bool = False,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
    design: DesignParams | None = None,
    carbon_params: CarbonParams | None = None,
    ci_band: tuple[float, float] | None = None,
) -> list[SweepPoint]:
    """Evaluate the stack capped at each target routing layer.

    The first point is the baseline: the stack capped at its own topmost
    routing layer, which with power-grid retention on is the unmodified
    stack. Target points follow in descending layer order. Chip scaling
    and carbon are filled in when ``design`` / ``carbon_params`` are given.
    Each layer is derived once; every point sums the rows it keeps.
    """
    validate_stack(stack, catalog)
    resolved = _resolve_targets(stack, targets)
    rows = layer_table(stack, catalog, weights)
    levels = _cap_levels(rows, retain_power_grid)
    node = stack.technology_node

    def point(label: str | None, top_index: int | None) -> SweepPoint:
        kept = _capped_rows(rows, levels, top_index)
        metrics = metrics_from_rows(node, kept)
        chip = chip_pfas(metrics, design) if design is not None else None
        carbon = estimate_carbon(metrics, design, carbon_params, ci_band)
        variant = StackSpec(technology_node=node, layers=tuple([row.spec for row in kept]))
        return SweepPoint(label, variant, metrics, chip, carbon)

    top = stack.top_routing_layer()
    points = [point(top, beol_index(top) if top is not None else None)]
    for target in sorted(resolved, key=resolved.get, reverse=True):
        points.append(point(target, resolved[target]))
    return points


@dataclass(frozen=True)
class SocBlock:
    """One SoC block: its area, the top layer its routing needs, and the
    measured area-overhead factors for constraining it below that layer."""

    name: str
    baseline_area_cm2: float
    required_top_layer: str
    area_overhead: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        failed = []
        if not 0 < self.baseline_area_cm2 < math.inf:
            failed.append(("baseline_area_cm2", f"block {self.name!r}: baseline_area_cm2 must "
                           f"be finite and > 0, got {self.baseline_area_cm2}"))
        if beol_index(self.required_top_layer) is None:
            failed.append(("required_top_layer", f"block {self.name!r}: required_top_layer must "
                           f"be a BEOL label M<k>, got {self.required_top_layer!r}"))
        for target, factor in self.area_overhead.items():
            if not 1 <= factor < math.inf:
                failed.append((f"area_overhead.{target}", f"block {self.name!r}: overhead factor "
                               f"for {target} must be finite and >= 1, got {factor}"))
        if failed:
            raise DomainError("; ".join(message for _, message in failed), failed)

    def overhead_factor(self, target: str) -> float:
        target_index = beol_index(target)
        if target_index is None:
            raise DomainError(f"target must be a BEOL label M<k>, got {target!r}")
        if target_index >= beol_index(self.required_top_layer):
            return 1.0
        try:
            return float(self.area_overhead[target])
        except KeyError:
            raise MissingOverheadError(
                f"block {self.name!r} has no area-overhead factor for target {target} "
                f"(requires {self.required_top_layer})"
            ) from None


@dataclass(frozen=True)
class SocBlockResult:
    block: SocBlock
    overhead_factor: float
    constrained_area_cm2: float


@dataclass(frozen=True)
class SocReport:
    target_top: str
    retain_power_grid: bool
    blocks: tuple[SocBlockResult, ...]
    baseline_metrics: StackMetrics
    constrained_metrics: StackMetrics
    baseline_area_cm2: float
    constrained_area_cm2: float
    area_increase: float  # fractional, (constrained - baseline) / baseline
    baseline_chip: ChipPfas
    constrained_chip: ChipPfas
    pfas_layer_ratio: float | None
    chip_pfas_ratio: float | None
    baseline_carbon: CarbonResult | None = None
    constrained_carbon: CarbonResult | None = None


def compose_soc(
    blocks: Sequence[SocBlock],
    chip_stack: StackSpec,
    target_top: str,
    retain_power_grid: bool = True,
    design: DesignParams | None = None,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
    carbon_params: CarbonParams | None = None,
    ci_band: tuple[float, float] | None = None,
) -> SocReport:
    """Constrain every block of an SoC to route at or below ``target_top``.

    Masks pattern the whole die, so the chip uses a single stack capped at
    the highest layer any block still needs after the constraint; blocks
    forced below their required top pay their tabulated area-overhead
    factor. Chip areas come from the blocks; ``design`` supplies the yield
    (its area, if any, is ignored here).
    """
    if not blocks:
        raise DomainError("compose_soc requires at least one block")
    validate_stack(chip_stack, catalog)
    target_index = _resolve_targets(chip_stack, [target_top])[target_top]
    yield_fraction = design.yield_fraction if design is not None else 1.0

    block_results = []
    chip_top_index = 0
    # Areas add left to right: from Python 3.12 on, sum() rounds float sums
    # differently, and reports must not depend on the interpreter.
    baseline_area = constrained_area = 0.0
    for block in blocks:
        factor = block.overhead_factor(target_top)
        constrained = block.baseline_area_cm2 * factor
        block_results.append(
            SocBlockResult(
                block=block,
                overhead_factor=factor,
                constrained_area_cm2=constrained,
            )
        )
        chip_top_index = max(
            chip_top_index, min(beol_index(block.required_top_layer), target_index)
        )
        baseline_area += block.baseline_area_cm2
        constrained_area += constrained

    for side, area in (("baseline", baseline_area), ("constrained", constrained_area)):
        if not math.isfinite(area):
            raise DomainError(f"{side} SoC area overflows: the sum of the {len(blocks)} "
                              f"{side} block areas is {area}")
    rows = layer_table(chip_stack, catalog, weights)
    baseline_metrics = metrics_from_rows(chip_stack.technology_node, rows)
    kept = _capped_rows(rows, _cap_levels(rows, retain_power_grid), chip_top_index)
    constrained_metrics = metrics_from_rows(chip_stack.technology_node, kept)
    baseline_design = DesignParams(baseline_area, yield_fraction)
    constrained_design = DesignParams(constrained_area, yield_fraction)
    baseline_chip = chip_pfas(baseline_metrics, baseline_design)
    constrained_chip = chip_pfas(constrained_metrics, constrained_design)
    return SocReport(
        target_top=target_top,
        retain_power_grid=retain_power_grid,
        blocks=tuple(block_results),
        baseline_metrics=baseline_metrics,
        constrained_metrics=constrained_metrics,
        baseline_area_cm2=baseline_area,
        constrained_area_cm2=constrained_area,
        area_increase=(constrained_area - baseline_area) / baseline_area,
        baseline_chip=baseline_chip,
        constrained_chip=constrained_chip,
        pfas_layer_ratio=_ratio(
            baseline_metrics.total_pfas_layers, constrained_metrics.total_pfas_layers
        ),
        chip_pfas_ratio=_ratio(baseline_chip.value, constrained_chip.value),
        baseline_carbon=estimate_carbon(baseline_metrics, baseline_design, carbon_params, ci_band),
        constrained_carbon=estimate_carbon(
            constrained_metrics, constrained_design, carbon_params, ci_band
        ),
    )


@dataclass(frozen=True)
class TrendSeries:
    """Ordered (node label, value) pairs, optionally normalized to a node."""

    points: tuple[tuple[str, float], ...]
    reference: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "points", tuple((str(n), float(v)) for n, v in self.points)
        )
        labels = [n for n, _ in self.points]
        if len(labels) != len(set(labels)):
            raise DomainError("trend series has duplicate node labels")
        for node, value in self.points:
            if not math.isfinite(value):
                raise DomainError(f"trend value for {node!r} must be finite, got {value}")

    def values(self) -> dict[str, float]:
        return dict(self.points)


def normalize_trend(series: TrendSeries, reference: str) -> TrendSeries:
    """Divide every value by the reference node's value.

    The reference node maps to exactly 1.0, which also makes the operation
    idempotent for a fixed reference.
    """
    values = series.values()
    if reference not in values:
        raise TrendReferenceError(
            f"reference node {reference!r} not in series; nodes: "
            + ", ".join(values)
        )
    ref_value = values[reference]
    if ref_value == 0:
        raise TrendReferenceError(f"reference node {reference!r} has value 0")
    points = []
    for node, value in series.points:
        normalized = 1.0 if node == reference else value / ref_value
        if not math.isfinite(normalized):
            raise DomainError(f"trend value for {node!r} normalized to reference {reference!r} "
                              f"overflows: {value} / {ref_value} is {normalized}")
        points.append((node, normalized))
    return TrendSeries(points=tuple(points), reference=reference)
