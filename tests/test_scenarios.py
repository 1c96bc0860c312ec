import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfasfab import (
    DEFAULT_CATALOG,
    CarbonParams,
    DesignParams,
    DomainError,
    DuplicateTargetError,
    EnergyWeights,
    ExposureClass,
    LayerMetrics,
    LayerSpec,
    MissingOverheadError,
    Region,
    SocBlock,
    StackMetrics,
    StackSpec,
    StepCounts,
    TrendReferenceError,
    TrendSeries,
    UnknownTargetError,
    asap7_preset,
    beol_index,
    compare_stacks,
    compose_soc,
    n7_fixture,
    normalize_trend,
    stack_metrics,
    sweep_beol,
)
from pfasfab.stack import TAG_POWER_GRID, TAG_ROUTING


# ---------------------------------------------------------------------------
# compare_stacks


def test_compare_duv_vs_euv(asap7, n7_duv):
    result = compare_stacks(n7_duv, asap7)
    assert math.isclose(result.percent_reduction, 7 / 36, rel_tol=1e-12)
    assert 0.16 <= result.percent_reduction <= 0.20
    assert math.isclose(result.ratio_pfas, 36 / 29, rel_tol=1e-12)


def test_compare_identity(asap7):
    result = compare_stacks(asap7, asap7)
    assert result.ratio_pfas == 1.0
    assert result.ratio_energy == 1.0
    assert result.ratio_litho_steps == 1.0
    assert result.ratio_total_steps == 1.0
    assert result.percent_reduction == 0.0
    assert all(r == 1.0 for r in result.pfas_ratio_by_region.values())


def test_compare_zero_region_reported_absent(asap7):
    partial = StackSpec(asap7.technology_node, asap7.layers[:7])
    result = compare_stacks(asap7, partial)
    assert result.pfas_ratio_by_region[Region.BEOL] is None
    assert math.isclose(result.ratio_pfas, 29 / 7, rel_tol=1e-12)


@pytest.mark.parametrize("variant", ["euv", "duv"])
def test_compare_antisymmetry(asap7, variant):
    other = n7_fixture(variant)
    ab = compare_stacks(asap7, other)
    ba = compare_stacks(other, asap7)
    assert abs(ab.ratio_pfas * ba.ratio_pfas - 1.0) < 1e-12
    assert abs(ab.ratio_energy * ba.ratio_energy - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# sweep_beol


def test_sweep_routing_series(asap7):
    points = sweep_beol(asap7, ["M7", "M5", "M3"], retain_power_grid=False)
    labels = [p.top_routing_layer for p in points]
    assert labels == ["M7", "M7", "M5", "M3"]  # baseline first, then targets
    beol = [p.metrics.by_region[Region.BEOL] for p in points[1:]]
    assert beol == [18, 12, 6]
    assert beol[0] / beol[2] == 3.0
    assert beol[0] / beol[1] == 1.5
    assert beol[1] / beol[2] == 2.0


def test_sweep_with_retention_overall_ratio(asap7):
    points = sweep_beol(asap7, ["M3"], retain_power_grid=True)
    baseline, constrained = points
    assert baseline.metrics.total_pfas_layers == 29
    assert constrained.metrics.total_pfas_layers == 17
    ratio = baseline.metrics.total_pfas_layers / constrained.metrics.total_pfas_layers
    assert 1.65 <= ratio <= 1.75


def test_sweep_topmost_target_is_noop(asap7):
    points = sweep_beol(asap7, ["M7"], retain_power_grid=True)
    baseline, target = points
    assert target.metrics == stack_metrics(asap7)
    assert target.metrics == baseline.metrics


def test_sweep_targets_reported_descending(asap7):
    points = sweep_beol(asap7, ["M3", "M7", "M5"], retain_power_grid=False)
    assert [p.top_routing_layer for p in points[1:]] == ["M7", "M5", "M3"]


def test_sweep_unknown_target(asap7):
    with pytest.raises(UnknownTargetError):
        sweep_beol(asap7, ["M12"])
    with pytest.raises(UnknownTargetError):
        sweep_beol(asap7, ["Fin"])


def test_sweep_duplicate_target_rejected(asap7):
    with pytest.raises(DuplicateTargetError, match="'M3'"):
        sweep_beol(asap7, ["M3", "M3", "M5"])


def test_sweep_power_grid_dropped_without_retention(asap7):
    points = sweep_beol(asap7, ["M7"], retain_power_grid=False)
    names = [lm.name for lm in points[1].metrics.per_layer]
    assert "M8" not in names and "M9" not in names
    assert points[1].metrics.total_pfas_layers == 25


@given(top=st.sampled_from(["M1", "M2", "M3", "M4", "M5", "M6", "M7"]),
       retain=st.booleans())
def test_sweep_monotone_in_target(top, retain):
    asap7 = asap7_preset()
    targets = [f"M{k}" for k in range(1, 8)]
    points = sweep_beol(asap7, targets, retain_power_grid=retain)
    series = {p.top_routing_layer: p for p in points[1:]}
    below = series[top]
    above = series["M7"]
    assert below.metrics.total_pfas_layers <= above.metrics.total_pfas_layers
    assert below.metrics.total_litho_energy <= above.metrics.total_litho_energy
    assert below.metrics.total_steps.total() <= above.metrics.total_steps.total()
    for region in Region:
        assert below.metrics.by_region[region] <= above.metrics.by_region[region]


def test_sweep_retention_keeps_power_grid_contribution_constant(asap7):
    points = sweep_beol(asap7, ["M7", "M5", "M3", "M1"], retain_power_grid=True)
    contributions = []
    for point in points:
        pg = sum(
            lm.pfas_layers
            for lm in point.metrics.per_layer
            if asap7.layer(lm.name).is_power_grid
        )
        contributions.append(pg)
    assert len(set(contributions)) == 1
    assert contributions[0] == 4


def test_sweep_fills_chip_and_carbon_when_given(asap7):
    design = DesignParams(2.0, 0.8)
    params = CarbonParams(0.4, 0.05, 5.0, 0.3, 0.5)
    points = sweep_beol(
        asap7, ["M3"], retain_power_grid=True, design=design,
        carbon_params=params, ci_band=(0.02, 0.82),
    )
    target = points[1]
    assert target.chip.value == 17 * 2.0 / 0.8
    assert target.carbon.low_kg < target.carbon.embodied_kg < target.carbon.high_kg


# ---------------------------------------------------------------------------
# Sweep and SoC points equal a fresh layer-by-layer evaluation of their stack


def _truncate_beol(stack, top_index, retain_power_grid):
    """The capping rule: drop BEOL routing layers above ``top_index``; keep
    power-grid layers only when retention is on."""
    kept = []
    for layer in stack.layers:
        if layer.region is not Region.BEOL:
            kept.append(layer)
        elif layer.is_power_grid:
            if retain_power_grid:
                kept.append(layer)
        elif top_index is not None and beol_index(layer.name) <= top_index:
            kept.append(layer)
    return StackSpec(technology_node=stack.technology_node, layers=tuple(kept))


def _layer_by_layer(stack, weights):
    """Stack metrics accumulated one layer and one process at a time."""
    by_region = {region: 0 for region in Region}
    by_exposure = {exposure: 0 for exposure in ExposureClass}
    total_steps, energy, per_layer = StepCounts(), 0.0, []
    for layer in stack.layers:
        steps, masks, layer_energy = StepCounts(), 0, 0.0
        for pid in layer.process_ids():
            proc = DEFAULT_CATALOG.lookup(pid)
            steps = steps + proc.steps
            masks += proc.masks
            layer_energy += proc.masks * weights.per_mask(proc.exposure)
            by_exposure[proc.exposure] += proc.masks
        per_layer.append(LayerMetrics(layer.name, steps.litho, steps, masks, masks, layer_energy))
        by_region[layer.region] += masks
        total_steps = total_steps + steps
        energy += layer_energy
    return StackMetrics(
        stack.technology_node, sum(by_region.values()), by_region, by_exposure,
        total_steps, total_steps.litho, energy, tuple(per_layer),
    )


def _assert_fresh(metrics, stack, weights):
    # repr pins every float bit and every int/float type, not just equality
    assert repr(metrics) == repr(stack_metrics(stack, DEFAULT_CATALOG, weights))
    assert repr(metrics) == repr(_layer_by_layer(stack, weights))


_PROCESSES = st.sampled_from(DEFAULT_CATALOG.ids())
_NON_INTEGER = st.floats(min_value=0.1, max_value=40.0).filter(lambda w: w != int(w))


@st.composite
def _random_stacks(draw):
    """Valid stacks with power-grid layers anywhere in the BEOL."""
    layers = []
    for region, most in ((Region.FEOL, 3), (Region.MOL, 2)):
        for i in range(draw(st.integers(0, most))):
            metal = draw(st.none() | _PROCESSES)
            via = draw(_PROCESSES) if metal is None else draw(st.none() | _PROCESSES)
            layers.append(LayerSpec(f"{region.value}{i}", region, None, metal, via))
    for k in sorted(draw(st.sets(st.integers(1, 14), min_size=1, max_size=9))):
        tag = draw(st.sampled_from((TAG_ROUTING, TAG_POWER_GRID)))
        layers.append(LayerSpec(
            f"M{k}", Region.BEOL, None, draw(_PROCESSES), draw(st.none() | _PROCESSES),
            frozenset({tag}),
        ))
    return StackSpec("random", tuple(layers))


@given(stack=_random_stacks(), retain=st.booleans(), data=st.data(),
       weights=st.builds(EnergyWeights, _NON_INTEGER, _NON_INTEGER))
def test_sweep_points_equal_fresh_evaluation(stack, retain, data, weights):
    beol = [l.name for l in stack.beol_layers()]
    targets = data.draw(st.lists(st.sampled_from(beol), min_size=1, unique=True))
    points = sweep_beol(stack, targets, retain_power_grid=retain, weights=weights)
    assert len(points) == len(targets) + 1
    for point in points:
        top = point.top_routing_layer
        expected = _truncate_beol(stack, beol_index(top) if top else None, retain)
        assert [lm.name for lm in point.metrics.per_layer] == list(expected.names())
        _assert_fresh(point.metrics, expected, weights)


@given(stack=_random_stacks(), retain=st.booleans(), data=st.data(),
       weights=st.builds(EnergyWeights, _NON_INTEGER, _NON_INTEGER))
def test_soc_metrics_equal_fresh_evaluation(stack, retain, data, weights):
    beol = [l.name for l in stack.beol_layers()]
    target = data.draw(st.sampled_from(beol))
    required = data.draw(st.lists(st.sampled_from(beol), min_size=1, max_size=3))
    blocks = [SocBlock(f"b{i}", 0.25, top, {target: 1.5}) for i, top in enumerate(required)]
    report = compose_soc(blocks, stack, target, retain_power_grid=retain, weights=weights)
    chip_top = max(min(beol_index(top), beol_index(target)) for top in required)
    _assert_fresh(report.baseline_metrics, stack, weights)
    _assert_fresh(report.constrained_metrics, _truncate_beol(stack, chip_top, retain), weights)


# ---------------------------------------------------------------------------
# compose_soc


def _fixture_blocks():
    return [
        SocBlock("cortex_m0", 0.051, "M7", {"M4": 1.47}),
        SocBlock("systolic_array", 0.6, "M7", {"M4": 1.0}),
        SocBlock("sram", 0.349, "M4", {}),
    ]


def test_soc_fixture_area_increase(asap7):
    report = compose_soc(
        _fixture_blocks(), asap7, "M4", retain_power_grid=True,
        design=DesignParams(1.0, 0.875),
    )
    assert math.isclose(report.area_increase, 0.051 * 0.47, rel_tol=1e-12)
    assert 0.023 <= report.area_increase <= 0.025
    assert report.baseline_area_cm2 == 1.0
    # chip stack drops to M4 with the power grid retained
    assert report.constrained_metrics.total_pfas_layers == 20
    assert report.baseline_metrics.total_pfas_layers == 29


def test_soc_truncation_to_m5(asap7):
    blocks = [
        SocBlock("cortex_m0", 0.051, "M7", {"M5": 1.0}),
        SocBlock("systolic_array", 0.6, "M7", {"M5": 1.0}),
        SocBlock("sram", 0.349, "M4", {}),
    ]
    report = compose_soc(
        blocks, asap7, "M5", retain_power_grid=True, design=DesignParams(1.0, 1.0)
    )
    assert report.baseline_metrics.total_pfas_layers == 29
    assert report.constrained_metrics.total_pfas_layers == 23
    assert math.isclose(report.pfas_layer_ratio, 29 / 23, rel_tol=1e-12)
    assert report.area_increase == 0.0


def test_soc_all_blocks_within_target(asap7):
    blocks = [
        SocBlock("sram_a", 0.5, "M4", {}),
        SocBlock("sram_b", 0.5, "M3", {}),
    ]
    report = compose_soc(blocks, asap7, "M5", design=DesignParams(1.0, 1.0))
    assert report.area_increase == 0.0
    # chip truncates to the highest layer still required, M4
    assert report.constrained_metrics.total_pfas_layers == 20
    beol_names = [lm.name for lm in report.constrained_metrics.per_layer if lm.name.startswith("M")]
    assert beol_names == ["M1", "M2", "M3", "M4", "M8", "M9"]


def test_soc_degenerates_to_sweep(asap7):
    blocks = [
        SocBlock("a", 0.4, "M7", {"M3": 1.0}),
        SocBlock("b", 0.6, "M7", {"M3": 1.0}),
    ]
    report = compose_soc(blocks, asap7, "M3", retain_power_grid=True,
                         design=DesignParams(1.0, 1.0))
    sweep_point = sweep_beol(asap7, ["M3"], retain_power_grid=True)[1]
    assert report.constrained_metrics == sweep_point.metrics
    assert report.constrained_area_cm2 == report.baseline_area_cm2


def test_soc_missing_overhead(asap7):
    blocks = [SocBlock("cortex_m0", 0.051, "M7", {"M4": 1.47})]
    with pytest.raises(MissingOverheadError):
        compose_soc(blocks, asap7, "M3", design=DesignParams(1.0, 1.0))


def test_soc_unknown_target(asap7):
    with pytest.raises(UnknownTargetError):
        compose_soc(_fixture_blocks(), asap7, "M99", design=DesignParams(1.0, 1.0))


def test_soc_chip_ratio_accounts_for_area(asap7):
    report = compose_soc(
        _fixture_blocks(), asap7, "M4", retain_power_grid=True,
        design=DesignParams(1.0, 1.0),
    )
    expected_chip_ratio = (29 * 1.0) / (20 * report.constrained_area_cm2)
    assert math.isclose(report.chip_pfas_ratio, expected_chip_ratio, rel_tol=1e-12)


def test_soc_block_validation():
    with pytest.raises(DomainError):
        SocBlock("bad", -1.0, "M7", {})
    with pytest.raises(DomainError):
        SocBlock("bad", 1.0, "Fin", {})
    with pytest.raises(DomainError):
        SocBlock("bad", 1.0, "M7", {"M4": 0.5})
    with pytest.raises(DomainError):
        SocBlock("ok", 1.0, "M7", {}).overhead_factor("Fin")


def test_soc_requires_blocks(asap7):
    with pytest.raises(DomainError):
        compose_soc([], asap7, "M4", design=DesignParams(1.0, 1.0))


def test_soc_area_overflow_names_the_computed_area(asap7):
    blocks = [SocBlock("big", 1e308, "M7", {"M4": 2.0})]
    with pytest.raises(DomainError, match=r"constrained SoC area overflows: .* is inf"):
        compose_soc(blocks, asap7, "M4", design=DesignParams(1.0, 1.0))
    blocks = [SocBlock("a", 1e308, "M4"), SocBlock("b", 1e308, "M4")]
    with pytest.raises(DomainError, match="baseline SoC area overflows"):
        compose_soc(blocks, asap7, "M4")


def test_soc_carbon_paths(asap7):
    params = CarbonParams(0.4, 0.05, 5.0, 0.3, 0.5)
    plain = compose_soc(
        _fixture_blocks(), asap7, "M4", design=DesignParams(1.0, 1.0),
        carbon_params=params,
    )
    assert plain.baseline_carbon.low_kg is None
    assert plain.baseline_carbon.embodied_kg > plain.constrained_carbon.embodied_kg * 0.9
    banded = compose_soc(
        _fixture_blocks(), asap7, "M4", design=DesignParams(1.0, 1.0),
        carbon_params=params, ci_band=(0.02, 0.82),
    )
    assert banded.constrained_carbon.low_kg < banded.constrained_carbon.high_kg


# ---------------------------------------------------------------------------
# normalize_trend


def test_normalize_example():
    series = TrendSeries((("28nm", 20.0), ("7nm", 29.0)))
    normalized = normalize_trend(series, "28nm")
    assert normalized.values() == {"28nm": 1.0, "7nm": 1.45}
    assert normalized.reference == "28nm"


def test_normalize_single_point():
    normalized = normalize_trend(TrendSeries((("28nm", 17.0),)), "28nm")
    assert normalized.values() == {"28nm": 1.0}


def test_normalize_reference_errors():
    series = TrendSeries((("28nm", 20.0), ("7nm", 29.0)))
    with pytest.raises(TrendReferenceError):
        normalize_trend(series, "3nm")
    with pytest.raises(TrendReferenceError):
        normalize_trend(TrendSeries((("28nm", 0.0),)), "28nm")


def test_normalized_trend_overflow_names_node_and_reference():
    series = TrendSeries((("a", 1e-300), ("b", 1e300)))
    with pytest.raises(DomainError) as excinfo:
        normalize_trend(series, "a")
    message = str(excinfo.value)
    assert "'b'" in message and "reference 'a'" in message and "overflows" in message


def test_soc_block_reports_every_failing_field():
    with pytest.raises(DomainError) as excinfo:
        SocBlock("cpu", 0.0, "X7", {"M4": 0.5, "M3": 1.2})
    assert [field for field, _ in excinfo.value.fields] == [
        "baseline_area_cm2", "required_top_layer", "area_overhead.M4",
    ]


def test_trend_series_rejects_duplicates_and_non_finite():
    with pytest.raises(DomainError):
        TrendSeries((("7nm", 1.0), ("7nm", 2.0)))
    with pytest.raises(DomainError):
        TrendSeries((("7nm", float("nan")),))


@given(
    values=st.lists(
        st.floats(min_value=0.001, max_value=1000), min_size=1, max_size=8
    ),
    ref_index=st.integers(min_value=0, max_value=7),
)
def test_normalize_idempotent(values, ref_index):
    nodes = [f"n{i}" for i in range(len(values))]
    series = TrendSeries(tuple(zip(nodes, values)))
    reference = nodes[ref_index % len(values)]
    once = normalize_trend(series, reference)
    twice = normalize_trend(once, reference)
    assert once == twice
    assert once.values()[reference] == 1.0
