import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import pfasfab.stack
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
    StackValidationError,
    StepCounts,
    TrendReferenceError,
    TrendSeries,
    UnknownTargetError,
    asap7_preset,
    beol_index,
    compare_stacks,
    compose_soc,
    derive_layer_metrics,
    n7_fixture,
    normalize_trend,
    stack_metrics,
    stack_violations,
    step_totals,
    sweep_beol,
)
from conftest import NON_INTEGER_WEIGHTS, random_stacks
from pfasfab.stack import KNOWN_TAGS, TAG_POWER_GRID, TAG_ROUTING


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


_GRID_TARGET = ("target 'M8' is a power-grid layer of 7nm-ASAP7, not a routing layer; "
                "routing layers: M1, M2, M3, M4, M5, M6, M7")


_GRID_ONLY = StackSpec("grid", (LayerSpec("M1", Region.BEOL, None, "ArFi_LE", None,
                                         frozenset({TAG_POWER_GRID})),))


@pytest.mark.parametrize("stack, message", [
    (StackSpec("empty", ()), "target 'M1' is not a BEOL layer of empty; BEOL layers: none"),
    (_GRID_ONLY, "target 'M1' is a power-grid layer of grid, not a routing layer; "
                 "routing layers: none"),
], ids=["no-beol", "no-routing"])
def test_a_target_error_reads_none_for_an_empty_layer_list(stack, message):
    for call in (lambda: sweep_beol(stack, ["M1"]),
                 lambda: compose_soc([SocBlock("a", 0.5, "M1")], stack, "M1")):
        with pytest.raises(UnknownTargetError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_sweep_power_grid_target_rejected(asap7):
    # A cap counts routing layers only: an M8 point would end at M7.
    for retain in (False, True):
        with pytest.raises(UnknownTargetError) as excinfo:
            sweep_beol(asap7, ["M8"], retain_power_grid=retain)
        assert str(excinfo.value) == _GRID_TARGET


def test_soc_power_grid_target_rejected(asap7):
    # Not a MissingOverheadError about a target no block could be capped at.
    with pytest.raises(UnknownTargetError) as excinfo:
        compose_soc([SocBlock("a", 0.5, "M9", {})], asap7, "M8")
    assert str(excinfo.value) == _GRID_TARGET


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
# Compared stacks, sweep points and SoC stacks equal a fresh layer-by-layer
# evaluation of their stack


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
    """Stack metrics accumulated one layer and one process at a time; the
    total energy is weighted from the stack's own mask counts."""
    by_region = {region: 0 for region in Region}
    by_exposure = {exposure: 0 for exposure in ExposureClass}
    total_steps, per_layer = StepCounts(), []
    for layer in stack.layers:
        steps, masks, layer_energy = StepCounts(), 0, 0.0
        for pid in [p for p in (layer.metal_process, layer.via_process) if p is not None]:
            proc = DEFAULT_CATALOG.lookup(pid)
            steps = steps + proc.steps
            masks += proc.masks
            layer_energy += proc.masks * weights.per_mask(proc.exposure)
            by_exposure[proc.exposure] += proc.masks
        per_layer.append(LayerMetrics(layer.name, steps.litho, steps, masks, masks, layer_energy))
        by_region[layer.region] += masks
        total_steps = total_steps + steps
    # A stack's energy is its masks by exposure class times their weights.
    duv = by_exposure[ExposureClass.DUV_DRY] + by_exposure[ExposureClass.DUV_IMMERSION]
    energy = 0.0 + duv * weights.per_duv_mask + by_exposure[ExposureClass.EUV] * weights.per_euv_mask
    return StackMetrics(
        stack.technology_node, sum(by_region.values()), by_region, by_exposure,
        total_steps, total_steps.litho, energy, tuple(per_layer),
    )


def _assert_fresh(metrics, stack, weights):
    # repr pins every float bit and every int/float type, not just equality
    assert repr(metrics) == repr(stack_metrics(stack, DEFAULT_CATALOG, weights))
    assert repr(metrics) == repr(_layer_by_layer(stack, weights))


@pytest.mark.guard
@given(a=random_stacks(), b=random_stacks(), weights=NON_INTEGER_WEIGHTS)
def test_compared_metrics_equal_fresh_evaluation(a, b, weights):
    comparison = compare_stacks(a, b, weights=weights)
    _assert_fresh(comparison.metrics_a, a, weights)
    _assert_fresh(comparison.metrics_b, b, weights)


@pytest.mark.guard
@given(stack=random_stacks(), retain=st.booleans(), data=st.data(), weights=NON_INTEGER_WEIGHTS)
def test_sweep_points_equal_fresh_evaluation(stack, retain, data, weights):
    # a target is a routing layer
    routing = [l.name for l in stack.layers if l.region is Region.BEOL and not l.is_power_grid]
    assume(routing)
    targets = data.draw(st.lists(st.sampled_from(routing), min_size=1, unique=True))
    points = sweep_beol(stack, targets, retain_power_grid=retain, weights=weights)
    assert len(points) == len(targets) + 1
    for point in points:
        top = point.top_routing_layer
        expected = _truncate_beol(stack, beol_index(top) if top else None, retain)
        assert [lm.name for lm in point.metrics.per_layer] == [l.name for l in expected.layers]
        _assert_fresh(point.metrics, expected, weights)


@pytest.mark.guard
@given(stack=random_stacks(), retain=st.booleans(), data=st.data(), weights=NON_INTEGER_WEIGHTS)
def test_soc_metrics_equal_fresh_evaluation(stack, retain, data, weights):
    beol = [l.name for l in stack.layers if l.region is Region.BEOL]
    routing = [l.name for l in stack.layers if l.region is Region.BEOL and not l.is_power_grid]
    assume(routing)
    target = data.draw(st.sampled_from(routing))
    required = data.draw(st.lists(st.sampled_from(beol), min_size=1, max_size=3))
    blocks = [SocBlock(f"b{i}", 0.25, top, {target: 1.5}) for i, top in enumerate(required)]
    report = compose_soc(blocks, stack, target, retain_power_grid=retain, weights=weights)
    chip_top = max(min(beol_index(top), beol_index(target)) for top in required)
    _assert_fresh(report.baseline_metrics, stack, weights)
    _assert_fresh(report.constrained_metrics, _truncate_beol(stack, chip_top, retain), weights)


def _beol(k, tag, metal="EUV_LE", via=None):
    return LayerSpec(f"M{k}", Region.BEOL, None, metal, via, frozenset({tag}))


_FRONT = (LayerSpec("Fin", Region.FEOL, None, "ArFi_SAQP"),
          LayerSpec("V0", Region.MOL, None, None, "ArFi_LE2"))
_CAPPING_STACKS = {
    # power-grid layers between routing layers, and one at the top
    "grid-between": StackSpec("t", (*_FRONT, _beol(1, TAG_ROUTING), _beol(2, TAG_POWER_GRID),
                                    _beol(4, TAG_ROUTING, "ArFi_SADP", "ArFi_LE2"),
                                    _beol(5, TAG_POWER_GRID, "ArFi_LE"), _beol(7, TAG_ROUTING),
                                    _beol(9, TAG_POWER_GRID, "ArFi_LE3"))),
    # the lowest BEOL layers are power grid, so a cap at M1 or M2 is below
    # every routing layer
    "grid-below": StackSpec("t", (*_FRONT, _beol(1, TAG_POWER_GRID), _beol(2, TAG_POWER_GRID),
                                  _beol(3, TAG_ROUTING, "EUV_SA_LE2", "EUV_LE"))),
    "no-routing": StackSpec("t", (*_FRONT, _beol(1, TAG_POWER_GRID),
                                  _beol(3, TAG_POWER_GRID, "ArFi_LE2"))),
}


@pytest.mark.guard
@pytest.mark.parametrize("retain", [False, True], ids=["drop-grid", "keep-grid"])
@pytest.mark.parametrize("name", sorted(_CAPPING_STACKS))
def test_every_cap_equals_the_explicitly_capped_stack(name, retain):
    stack = _CAPPING_STACKS[name]
    weights = EnergyWeights(per_euv_mask=7.3, per_duv_mask=0.45)  # not integers
    beol = [l.name for l in stack.layers if l.region is Region.BEOL]
    routing = [l.name for l in stack.layers if l.region is Region.BEOL and not l.is_power_grid]
    points = sweep_beol(stack, routing, retain_power_grid=retain, weights=weights)
    for point in points:
        top = point.top_routing_layer
        capped = _truncate_beol(stack, beol_index(top) if top else None, retain)
        _assert_fresh(point.metrics, capped, weights)
    # An SoC target is a routing layer too; blocks that need less cap the
    # chip at every BEOL index, power-grid ones included.
    for target in routing:
        for required in beol:
            block = SocBlock("b", 0.5, required, {t: 1.25 for t in beol})
            report = compose_soc([block], stack, target, retain_power_grid=retain,
                                 weights=weights)
            _assert_fresh(report.baseline_metrics, stack, weights)
            cap = min(beol_index(required), beol_index(target))
            _assert_fresh(report.constrained_metrics, _truncate_beol(stack, cap, retain), weights)


@pytest.mark.guard
def test_cap_below_every_routing_layer_keeps_the_front_end_only():
    # Targets are routing layers, so an SoC whose blocks all need less than
    # the lowest one is what caps below every routing layer.
    stack = _CAPPING_STACKS["grid-below"]
    blocks = [SocBlock("b", 0.5, "M2")]
    report = compose_soc(blocks, stack, "M3", retain_power_grid=False)
    assert [lm.name for lm in report.constrained_metrics.per_layer] == ["Fin", "V0"]
    report = compose_soc(blocks, stack, "M3", retain_power_grid=True)
    assert [lm.name for lm in report.constrained_metrics.per_layer] == ["Fin", "V0", "M1", "M2"]


@pytest.mark.guard
def test_an_energy_overflow_at_the_top_point_names_the_stack():
    # One EUV mask of M1 is finite; the two routing masks together overflow.
    stack = StackSpec("big", (_FRONT[0], _beol(1, TAG_ROUTING), _beol(2, TAG_ROUTING)))
    weights = EnergyWeights(per_euv_mask=1e308, per_duv_mask=1.0)
    message = "total litho energy of big overflows to inf"
    capped = stack_metrics(_truncate_beol(stack, 1, False), weights=weights)
    assert math.isfinite(capped.total_litho_energy)
    for call in (lambda: stack_metrics(stack, weights=weights),
                 lambda: sweep_beol(stack, ["M1"], weights=weights),
                 lambda: compose_soc([SocBlock("b", 1.0, "M1")], stack, "M1", weights=weights)):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# Every function that derives figures from a stack validates it, once


@st.composite
def broken_stacks(draw):
    """A valid stack broken by one mutation."""
    stack = draw(random_stacks())
    layers = list(stack.layers)
    i = draw(st.integers(0, len(layers) - 1))
    b = draw(st.sampled_from([j for j, l in enumerate(layers) if l.region is Region.BEOL]))
    mutation = draw(st.sampled_from(
        ("duplicate", "feol-after-beol", "rename", "swap", "process", "pitch")
    ))
    if mutation == "duplicate":
        layers.insert(i, layers[i])
    elif mutation == "feol-after-beol":
        layers.append(LayerSpec("Late", Region.FEOL, metal_process="EUV_LE"))
    elif mutation == "rename":
        layers[b] = layers[b]._replace(name="X1")
    elif mutation == "swap":  # with a new top layer, above every drawn index
        layers.append(LayerSpec("M15", Region.BEOL, metal_process="EUV_LE"))
        layers[b], layers[-1] = layers[-1], layers[b]
    elif mutation == "process":
        layers[i] = layers[i]._replace(metal_process="ArFi_LE9")
    else:
        layers[i] = layers[i]._replace(pitch_nm=-1)
    return StackSpec(stack.technology_node, tuple(layers))


def _figure_calls(stack, other, target):
    """Each function that derives figures, called on ``stack`` (and on
    ``other`` where it takes two stacks), with the stacks it validates."""
    block = SocBlock("b", 1.0, "M1")
    return {
        "stack_metrics": (lambda: stack_metrics(stack), [stack]),
        "step_totals": (lambda: step_totals(stack), [stack]),
        "compare_stacks a": (lambda: compare_stacks(stack, other), [stack, other]),
        "compare_stacks b": (lambda: compare_stacks(other, stack), [other, stack]),
        "sweep_beol": (lambda: sweep_beol(stack, [target]), [stack]),
        "compose_soc": (lambda: compose_soc([block], stack, target), [stack]),
    }


@pytest.mark.guard
@given(stack=broken_stacks())
def test_every_figure_of_an_invalid_stack_raises_its_violations(stack):
    violations = tuple(stack_violations(stack))
    assert violations
    # M99 is no layer of the stack: the stack is checked before the target
    for name, (call, _) in _figure_calls(stack, asap7_preset(), "M99").items():
        with pytest.raises(StackValidationError) as excinfo:
            call()
        assert excinfo.value.violations == violations, name


_HUGE = st.sampled_from([10**400, -(10**400), 10**5000])
# Values of every type a field can be given by mistake; a list is unhashable.
_MIXED = (_HUGE | st.integers() | st.floats() | st.text(max_size=4)
          | st.lists(_HUGE | st.integers() | st.text(max_size=3), max_size=3) | st.none())


@st.composite
def mistyped_stacks(draw):
    """A valid stack with one layer's fields, at least one, drawn from _MIXED."""
    stack = draw(random_stacks())
    layers = list(stack.layers)
    i = draw(st.integers(0, len(layers) - 1))
    fields = draw(st.sets(st.sampled_from(LayerSpec.__slots__), min_size=1))
    layers[i] = layers[i]._replace(**{f: draw(_MIXED) for f in sorted(fields)})
    return StackSpec(stack.technology_node, tuple(layers))


@st.composite
def layer_lists_with_a_stranger(draw):
    """The layers of a valid stack with one entry, at any place, drawn from _MIXED."""
    layers = list(draw(random_stacks()).layers)
    layers.insert(draw(st.integers(0, len(layers))), draw(_MIXED))
    return layers


@pytest.mark.guard
@given(layers=_MIXED | layer_lists_with_a_stranger())
def test_layers_that_are_not_layer_specs_are_a_domain_error_naming_layers(layers):
    # No _MIXED value is a LayerSpec, so only an empty sequence holds none.
    if isinstance(layers, (str, list)) and len(layers) == 0:
        assert StackSpec("x", layers).layers == ()
        return
    with pytest.raises(DomainError) as info:
        StackSpec("x", layers)
    assert type(info.value) is DomainError
    assert [field for field, _ in info.value.fields] == ["layers"]


@pytest.mark.guard
@given(stack=mistyped_stacks())
def test_a_mistyped_layer_is_a_violation_of_every_figure(stack):
    violations = tuple(stack_violations(stack))
    assume(violations)  # a drawn value can happen to be valid, say a pitch of 1.5
    for name, (call, _) in _figure_calls(stack, asap7_preset(), "M99").items():
        with pytest.raises(StackValidationError) as excinfo:
            call()
        assert excinfo.value.violations == violations, name
        assert len(excinfo.value.details) == len(violations)
    # One layer is checked as a one-layer stack: by the rules of that layer
    # alone, which the whole stack breaks too.
    for layer in stack.layers:
        own = tuple(stack_violations(StackSpec("", (layer,))))
        assert all(v in violations for v in own)
        if own:
            with pytest.raises(StackValidationError) as excinfo:
                derive_layer_metrics(layer)
            assert excinfo.value.violations == own
        else:
            assert derive_layer_metrics(layer).name is layer.name


# Per field, values close to a valid one: valid, or breaking one rule.
_NEAR_VALID = {
    "name": ["M1", "M3", "M7", "M10", "M07", "Fin", "VIA0", "MOL0", "m2", ""],
    "region": [*Region, "BEOL", None],
    "pitch_nm": [None, 36, 0.5, 0, -1, math.inf, math.nan, 10**400, True],
    "metal_process": [None, "EUV_LE", "ArFi_LE2", "ArFi_LE9", "euv_le", 1],
    "via_process": [None, "EUV_LE", "ArFi_SAQP", "ArFi_LE9", ("EUV_LE",)],
    "tags": [frozenset(), frozenset({TAG_ROUTING}), KNOWN_TAGS, {TAG_POWER_GRID},
             [TAG_POWER_GRID], frozenset({"signal"}), None],
}


def _preset_mutations():
    """Every preset with one layer's field set to a value of _NEAR_VALID, one
    layer repeated or moved, or one layer given another layer's name."""
    for stack in (asap7_preset(), n7_fixture("duv")):
        layers = stack.layers
        for i, layer in enumerate(layers):
            for field, values in _NEAR_VALID.items():
                for value in values:
                    yield stack._replace(
                        layers=(*layers[:i], layer._replace(**{field: value}), *layers[i + 1:]))
            for j, other in enumerate(layers):
                rest = (*layers[:i], *layers[i + 1:])
                yield stack._replace(layers=(*layers[:j], layer, *layers[j:]))
                yield stack._replace(layers=(*rest[:j], layer, *rest[j:]))
                yield stack._replace(
                    layers=(*layers[:i], layer._replace(name=other.name), *layers[i + 1:]))


@pytest.mark.guard
@given(stack=mistyped_stacks() | broken_stacks())
def test_the_accept_pass_accepts_no_violation(stack):
    # stack_violations returns [] unexplained for a stack _accepts takes.
    if pfasfab.stack._accepts(stack, DEFAULT_CATALOG):
        assert pfasfab.stack._explain(stack, DEFAULT_CATALOG) == []


@pytest.mark.guard
def test_the_accept_pass_accepts_no_mutated_preset_with_a_violation():
    accepted = 0
    for stack in _preset_mutations():
        if pfasfab.stack._accepts(stack, DEFAULT_CATALOG):
            assert pfasfab.stack._explain(stack, DEFAULT_CATALOG) == [], stack
            accepted += 1
    assert accepted > 0  # the valid mutations (a new pitch, say) are accepted


@pytest.mark.guard
@given(stack=random_stacks())
def test_the_accept_pass_accepts_every_valid_stack(stack):
    # A valid stack of the common shape never takes the explaining pass.
    assert pfasfab.stack._explain(stack, DEFAULT_CATALOG) == []
    assert pfasfab.stack._accepts(stack, DEFAULT_CATALOG)


@pytest.mark.guard
def test_the_accept_pass_accepts_the_presets():
    for stack in (asap7_preset(), n7_fixture("duv")):
        assert pfasfab.stack._accepts(stack, DEFAULT_CATALOG)


def test_each_figure_call_validates_each_stack_once(monkeypatch, asap7, n7_duv):
    # Counted where validate_stack looks its rules up, so that a call through
    # a name imported from pfasfab.stack into another module counts too.
    validated = []
    violations = pfasfab.stack.stack_violations

    def counting(stack, catalog):
        validated.append(stack)
        return violations(stack, catalog)

    monkeypatch.setattr(pfasfab.stack, "stack_violations", counting)
    for name, (call, stacks) in _figure_calls(asap7, n7_duv, "M4").items():
        validated.clear()
        call()
        assert [id(s) for s in validated] == [id(s) for s in stacks], name


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
