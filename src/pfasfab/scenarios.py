"""Trade-off analyses over validated stacks.

Four scenario operations: two-stack comparison, routing-layer reduction
sweeps with optional power-grid retention, SoC composition under per-block
area overheads, and normalization of cross-node series to a reference node.
Each evaluation is a pure computation over immutable inputs, so scenarios
can run in parallel.
"""

from __future__ import annotations

import math
from typing import Sequence

from .carbon import CarbonParams, estimate_carbon
from .catalog import DEFAULT_CATALOG, DEFAULT_WEIGHTS, EnergyWeights, ProcessCatalog
from .engine import DesignParams, chip_pfas, metrics_from_rows, stack_metrics
from .errors import DomainError, DuplicateTargetError, MissingOverheadError, TrendReferenceError
from .errors import UnknownTargetError
from .stack import LayerRow, Region, StackSpec, beol_index, layer_table, validate_stack
from .value import Value, finite, set_field


def _ratio(a: float, b: float) -> float | None:
    return a / b if b != 0 else None


class ComparisonResult(Value):
    """Stack-vs-stack ratios; ``a`` is conventionally the costlier baseline.
    ``percent_reduction`` is (pfas_a - pfas_b) / pfas_a, as a fraction."""

    __slots__ = ("metrics_a", "metrics_b", "ratio_pfas", "ratio_litho_steps",
                 "ratio_total_steps", "ratio_energy", "pfas_ratio_by_region",
                 "percent_reduction")


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


class SweepPoint(Value):
    """One point of a sweep; ``metrics.per_layer`` names the layers it keeps."""

    __slots__ = ("top_routing_layer", "metrics", "chip", "carbon")
    _defaults = {"chip": None, "carbon": None}


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
        return SweepPoint(label, metrics, chip, carbon)

    top = stack.top_routing_layer()
    points = [point(top, beol_index(top) if top is not None else None)]
    for target in sorted(resolved, key=resolved.get, reverse=True):
        points.append(point(target, resolved[target]))
    return points


class SocBlock(Value):
    """One SoC block: its area, the top layer its routing needs, and the
    measured area-overhead factors for constraining it below that layer
    (none by default)."""

    __slots__ = ("name", "baseline_area_cm2", "required_top_layer", "area_overhead")
    _defaults = {"area_overhead": None}

    def __post_init__(self):
        if self.area_overhead is None:
            set_field(self, "area_overhead", {})
        name = self.name
        failed = []
        if not (finite(self.baseline_area_cm2) and self.baseline_area_cm2 > 0):
            failed.append(("baseline_area_cm2", f"block {name!r}: baseline_area_cm2 must "
                           f"be finite and > 0, got {self.baseline_area_cm2}"))
        if beol_index(self.required_top_layer) is None:
            failed.append(("required_top_layer", f"block {name!r}: required_top_layer must "
                           f"be a BEOL label M<k>, got {self.required_top_layer!r}"))
        for target, factor in self.area_overhead.items():
            if beol_index(target) is None:
                failed.append((f"area_overhead.{target}", f"block {name!r}: area_overhead "
                               f"keys must be BEOL labels M<k>, got {target!r}"))
            elif not (finite(factor) and factor >= 1):
                failed.append((f"area_overhead.{target}", f"block {name!r}: overhead factor "
                               f"for {target} must be finite and >= 1, got {factor}"))
        DomainError.check(failed)

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


class SocBlockResult(Value):
    __slots__ = ("block", "overhead_factor", "constrained_area_cm2")


class SocReport(Value):
    """An SoC before and after its constraint; ``area_increase`` is
    fractional, (constrained - baseline) / baseline."""

    __slots__ = ("target_top", "retain_power_grid", "blocks", "baseline_metrics",
                 "constrained_metrics", "baseline_area_cm2", "constrained_area_cm2",
                 "area_increase", "baseline_chip", "constrained_chip", "pfas_layer_ratio",
                 "chip_pfas_ratio", "baseline_carbon", "constrained_carbon")
    _defaults = {"baseline_carbon": None, "constrained_carbon": None}


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


class TrendSeries(Value):
    """Ordered (node label, value) pairs, optionally normalized to a node."""

    __slots__ = ("points", "reference")
    _defaults = {"reference": None}

    def __post_init__(self):
        points = [(str(n), v) for n, v in self.points]
        labels = [n for n, _ in points]
        if len(labels) != len(set(labels)):
            raise DomainError("trend series has duplicate node labels")
        for node, value in points:
            if not finite(value):
                raise DomainError(f"trend value for {node!r} must be finite, got {value}")
        set_field(self, "points", tuple([(n, float(v)) for n, v in points]))

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
