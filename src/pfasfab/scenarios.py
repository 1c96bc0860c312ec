"""Trade-off analyses over stacks, each validated where its table is built.

Four scenario operations: two-stack comparison, routing-layer reduction
sweeps with optional power-grid retention, SoC composition under per-block
area overheads, and normalization of cross-node series to a reference node.
Each evaluation is a pure computation over immutable inputs, so scenarios
can run in parallel. They read no ``layer_table`` row layout: ``engine``
sums the rows, and ``engine.capper`` maps each routing layer to its index.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .carbon import CarbonParams, estimate_carbon
from .catalog import DEFAULT_CATALOG, DEFAULT_WEIGHTS, EnergyWeights, ProcessCatalog
from .engine import DesignParams, capper, chip_pfas, metrics_from_rows, stack_metrics
from .errors import DomainError, DuplicateTargetError, MissingOverheadError, TrendReferenceError
from .errors import UnknownTargetError, check_type
from .stack import Region, StackSpec, beol_index, layer_table
from .value import Value, finite, set_field, shown


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


def _check_model(retain_power_grid, design, carbon_params, ci_band):
    """Before the stack is validated, as its type is; targets come after.
    ``validate_ci_band`` checks the band's numbers."""
    check_type(isinstance(retain_power_grid, bool), "retain_power_grid", "a bool",
               retain_power_grid)
    check_type(design is None or isinstance(design, DesignParams), "design",
               "a DesignParams or None", design)
    check_type(carbon_params is None or isinstance(carbon_params, CarbonParams),
               "carbon_params", "a CarbonParams or None", carbon_params)
    check_type(ci_band is None or (isinstance(ci_band, (list, tuple)) and len(ci_band) == 2),
               "ci_band", "None or a two-item list or tuple", ci_band)


def _resolve_targets(stack: StackSpec, routing: dict, targets: Sequence[str]) -> dict[str, int]:
    """BEOL index of each target label, read from the capper's ``routing``
    map: a target must name a routing BEOL layer once, since a cap counts
    routing layers only, so a power-grid layer is no target."""
    resolved = {}
    for target in targets:
        if target not in routing:
            beol = [l.name for l in stack.layers if l.region is Region.BEOL]
            if target in beol:
                raise UnknownTargetError(
                    f"target {target!r} is a power-grid layer of {stack.technology_node}, "
                    f"not a routing layer; routing layers: {', '.join(routing) or 'none'}"
                )
            raise UnknownTargetError(
                f"target {target!r} is not a BEOL layer of {stack.technology_node}; "
                f"BEOL layers: {', '.join(beol) or 'none'}"
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
    Each layer is derived once. Integer running totals over the rows give
    each point's totals in a few lookups, instead of a sum over every row it
    keeps.
    """
    check_type(isinstance(stack, StackSpec), "stack", "a StackSpec", stack)
    _check_model(retain_power_grid, design, carbon_params, ci_band)
    rows = layer_table(stack, catalog, weights)
    check_type(isinstance(targets, (list, tuple)) and all([isinstance(t, str) for t in targets]),
               "targets", "a list or tuple of layer label strings", targets)
    capped, routing = capper(stack.technology_node, rows, retain_power_grid, weights)
    resolved = _resolve_targets(stack, routing, targets)

    def point(label: str | None, top_index: int | None) -> SweepPoint:
        metrics = capped(top_index)
        chip = chip_pfas(metrics, design) if design is not None else None
        carbon = estimate_carbon(metrics, design, carbon_params, ci_band)
        return SweepPoint(label, metrics, chip, carbon)

    top = next(reversed(routing), None)  # the baseline: the topmost routing layer
    points = [point(top, routing.get(top))]
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
        block = f"block {shown(self.name)}"
        failed = []
        if not isinstance(self.name, str):
            failed.append(("name", f"block name must be a string, got {shown(self.name)}"))
        if not (finite(self.baseline_area_cm2) and self.baseline_area_cm2 > 0):
            failed.append(("baseline_area_cm2", f"{block}: baseline_area_cm2 must "
                           f"be finite and > 0, got {shown(self.baseline_area_cm2)}"))
        if beol_index(self.required_top_layer) is None:
            failed.append(("required_top_layer", f"{block}: required_top_layer must "
                           f"be a BEOL label M<k>, got {shown(self.required_top_layer)}"))
        overhead = self.area_overhead
        if not isinstance(overhead, dict):
            failed.append(("area_overhead", f"{block}: area_overhead must be a dict of "
                           f"BEOL labels to factors, got {shown(overhead)}"))
            overhead = {}
        for target, factor in overhead.items():
            if beol_index(target) is None:
                field = f"area_overhead.{target}" if isinstance(target, str) else "area_overhead"
                failed.append((field, f"{block}: area_overhead keys must be BEOL labels M<k>, "
                               f"got {shown(target)}"))
            elif not (finite(factor) and factor >= 1):
                failed.append((f"area_overhead.{target}", f"{block}: overhead factor "
                               f"for {target} must be finite and >= 1, got {shown(factor)}"))
        DomainError.check(failed)

    def overhead_factor(self, target: str) -> float:
        target_index = beol_index(target)
        if target_index is None:
            raise DomainError(f"target must be a BEOL label M<k>, got {shown(target)}")
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
    check_type(isinstance(blocks, (list, tuple)) and len(blocks) > 0
               and all([isinstance(block, SocBlock) for block in blocks]),
               "blocks", "a non-empty list or tuple of SocBlock", blocks)
    check_type(isinstance(chip_stack, StackSpec), "chip_stack", "a StackSpec", chip_stack)
    _check_model(retain_power_grid, design, carbon_params, ci_band)
    rows = layer_table(chip_stack, catalog, weights)
    check_type(isinstance(target_top, str), "target_top", "a layer label string", target_top)
    capped, routing = capper(chip_stack.technology_node, rows, retain_power_grid, weights)
    target_index = _resolve_targets(chip_stack, routing, [target_top])[target_top]
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
    baseline_metrics = metrics_from_rows(node, rows, weights)
    constrained_metrics = capped(chip_top_index)
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
    """Ordered (node label, value) pairs, optionally normalized to a node: a
    ``reference`` names a node whose value is 1.0."""

    __slots__ = ("points", "reference")
    _defaults = {"reference": None}

    def __post_init__(self):
        try:
            points = [(str(n), v) for n, v in self.points]
        except (TypeError, ValueError):  # not iterable, or an entry that is not a pair
            points = None
        check_type(points is not None, "points", "an iterable of (node label, value) pairs",
                   self.points)
        check_type(self.reference is None or isinstance(self.reference, str), "reference",
                   "None or a string", self.reference)
        labels = [n for n, _ in points]
        if len(labels) != len(set(labels)):
            raise DomainError("trend series has duplicate node labels")
        for node, value in points:
            if not finite(value):
                raise DomainError(f"trend value for {node!r} must be finite, got {shown(value)}")
        if self.reference is not None and dict(points).get(self.reference) != 1.0:
            raise DomainError(f"trend series reference {shown(self.reference)} must be a node "
                              "whose value is 1.0")
        set_field(self, "points", tuple([(n, float(v)) for n, v in points]))

    def values(self) -> dict[str, float]:
        return dict(self.points)


def normalize_trend(series: TrendSeries, reference: str) -> TrendSeries:
    """Divide every value by the reference node's value.

    The reference node maps to exactly 1.0, which also makes the operation
    idempotent for a fixed reference.
    """
    check_type(isinstance(series, TrendSeries), "series", "a TrendSeries", series)
    check_type(isinstance(reference, str), "reference", "a string", reference)
    values = series.values()
    if reference not in values:
        raise TrendReferenceError(
            f"reference node {shown(reference)} not in series; nodes: "
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
