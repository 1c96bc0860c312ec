"""Trade-off analyses over stacks, each validated where its table is built.

Four scenario operations: two-stack comparison, routing-layer reduction
sweeps with optional power-grid retention, SoC composition under per-block
area overheads, and normalization of cross-node series to a reference node.
Each evaluation is a pure computation over immutable inputs, so scenarios
can run in parallel.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from .carbon import CarbonParams, estimate_carbon
from .catalog import DEFAULT_CATALOG, DEFAULT_WEIGHTS, EnergyWeights, ProcessCatalog
from .engine import DesignParams, chip_pfas, metrics_from_rows, metrics_from_totals, stack_metrics
from .errors import DomainError, DuplicateTargetError, MissingOverheadError, TrendReferenceError
from .errors import UnknownTargetError, check_type
from .stack import COUNTS_END, Region, StackSpec, beol_index, layer_table
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
    check_type(isinstance(a, StackSpec), "a", "a StackSpec", a)
    check_type(isinstance(b, StackSpec), "b", "a StackSpec", b)
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


def _capper(node: str, rows: Sequence[tuple], retain_power_grid: bool):
    """``capped(top_index)``: the StackMetrics of the ``layer_table`` rows
    kept when BEOL routing is capped at ``top_index`` (None keeps none).

    A cap keeps every FEOL and MOL row, each routing row whose BEOL index is
    at most the cap, and power-grid rows only with retention. Routing
    indices rise in stack order (the ``beol-order`` rule), so that is the
    prefix before the first routing row above the cap, read from running
    totals, plus the retained power-grid rows after it, added one by one.
    Both add in stack order, so every float is the layer-by-layer sum's.
    """
    per_layer, energies, totals = [], [0.0], [(0,) * COUNTS_END]
    routing_at, routing_index, grid_at, grid = [], [], [], []
    for row in rows:
        spec, metrics, counts = row
        if spec.region is Region.BEOL:
            if not spec.is_power_grid:
                routing_at.append(len(per_layer))
                routing_index.append(beol_index(spec.name))
            elif retain_power_grid:
                grid_at.append(len(per_layer))
                grid.append(row)
            else:
                continue
        per_layer.append(metrics)
        energies.append(energies[-1] + metrics.litho_energy)
        totals.append(tuple([a + b for a, b in zip(totals[-1], counts)]))
    routing_at.append(len(per_layer))  # a cap at or above every routing layer keeps all

    def capped(top_index: int | None):
        end = routing_at[bisect_right(routing_index, top_index or 0)]
        energy, counts, layers = energies[end], totals[end], per_layer[:end]
        for _, metrics, row_counts in grid[bisect_left(grid_at, end):]:
            energy += metrics.litho_energy
            counts = tuple([a + b for a, b in zip(counts, row_counts)])
            layers.append(metrics)
        return metrics_from_totals(node, energy, counts, tuple(layers))

    return capped


def _check_design(design):
    """Before the stack is validated, as its type is; targets come after."""
    check_type(design is None or isinstance(design, DesignParams), "design",
               "a DesignParams or None", design)


def _resolve_targets(stack: StackSpec, targets: Sequence[str]) -> dict[str, int]:
    """BEOL index of each target label, which must name a routing BEOL layer
    once: a cap counts routing layers only, so a power-grid layer is no target."""
    beol = [l for l in stack.layers if l.region is Region.BEOL]
    routing = {l.name: beol_index(l.name) for l in beol if not l.is_power_grid}
    resolved = {}
    for target in targets:
        if target not in routing:
            if any(l.name == target for l in beol):
                raise UnknownTargetError(
                    f"target {target!r} is a power-grid layer of {stack.technology_node}, "
                    f"not a routing layer; routing layers: {', '.join(routing)}"
                )
            raise UnknownTargetError(
                f"target {target!r} is not a BEOL layer of {stack.technology_node}; "
                f"BEOL layers: {', '.join([l.name for l in beol])}"
            )
        if target in resolved:
            raise DuplicateTargetError(f"target {target!r} is given more than once")
        resolved[target] = routing[target]
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
    Each layer is derived once. Running totals over the rows give each
    point's totals in one lookup, plus one addition per retained power-grid
    layer above its cap, instead of a sum over every row it keeps.
    """
    check_type(isinstance(stack, StackSpec), "stack", "a StackSpec", stack)
    _check_design(design)
    rows = layer_table(stack, catalog, weights)
    check_type(isinstance(targets, (list, tuple)) and all([isinstance(t, str) for t in targets]),
               "targets", "a list or tuple of layer label strings", targets)
    resolved = _resolve_targets(stack, targets)
    capped = _capper(stack.technology_node, rows, retain_power_grid)

    def point(label: str | None, top_index: int | None) -> SweepPoint:
        metrics = capped(top_index)
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
    (its area, if any, is ignored here). The stack's layers are derived
    once: the baseline sums every row, and the constrained stack is read
    from running totals over the rows its cap can keep.
    """
    if not blocks:
        raise DomainError("compose_soc requires at least one block")
    check_type(isinstance(chip_stack, StackSpec), "chip_stack", "a StackSpec", chip_stack)
    _check_design(design)
    rows = layer_table(chip_stack, catalog, weights)
    check_type(isinstance(target_top, str), "target_top", "a layer label string", target_top)
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
    node = chip_stack.technology_node
    baseline_metrics = metrics_from_rows(node, rows)
    constrained_metrics = _capper(node, rows, retain_power_grid)(chip_top_index)
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
