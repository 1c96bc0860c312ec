import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfasfab import (
    DEFAULT_CATALOG,
    DEFAULT_WEIGHTS,
    DesignParams,
    DomainError,
    EnergyWeights,
    ExposureClass,
    LayerSpec,
    Region,
    SocBlock,
    StackSpec,
    StepCounts,
    asap7_preset,
    beol_index,
    chip_pfas,
    compose_soc,
    derive_layer_metrics,
    n7_fixture,
    stack_metrics,
    stack_violations,
    step_totals,
    sweep_beol,
)
from pfasfab.catalog import ProcessClass
from pfasfab.engine import capper, metrics_from_rows
from pfasfab.stack import layer_table

from conftest import NON_INTEGER_WEIGHTS, random_stacks

from table_data import (
    asap7_exposure_split,
    asap7_region_pfas,
    asap7_total_energy,
    asap7_total_litho_steps,
)


def test_asap7_aggregates(asap7):
    metrics = stack_metrics(asap7)
    expected_regions = asap7_region_pfas()
    assert metrics.by_region == {
        Region.FEOL: expected_regions["FEOL"],
        Region.MOL: expected_regions["MOL"],
        Region.BEOL: expected_regions["BEOL"],
    }
    assert metrics.by_region[Region.FEOL] == 4
    assert metrics.by_region[Region.MOL] == 3
    assert metrics.by_region[Region.BEOL] == 22
    assert metrics.total_pfas_layers == 29
    assert metrics.total_litho_steps == asap7_total_litho_steps() == 86
    assert metrics.total_litho_energy == asap7_total_energy() == 128.0


def test_asap7_exposure_split(asap7):
    metrics = stack_metrics(asap7)
    euv, duv = asap7_exposure_split()
    assert (metrics.euv_masks, metrics.duv_masks) == (euv, duv) == (11, 18)
    assert metrics.by_exposure[ExposureClass.EUV] == 11
    assert metrics.by_exposure[ExposureClass.DUV_IMMERSION] == 18
    assert metrics.by_exposure[ExposureClass.DUV_DRY] == 0
    # default weighting makes energy 10 per EUV mask plus 1 per DUV mask
    assert metrics.total_litho_energy == 10 * euv + 1 * duv


def test_feol_mol_only_subset(asap7):
    partial = StackSpec(asap7.technology_node, asap7.layers[:7])
    metrics = stack_metrics(partial)
    assert metrics.total_pfas_layers == 7
    assert metrics.by_region[Region.BEOL] == 0


def test_empty_stack_zeroes():
    empty = StackSpec("empty", ())
    assert step_totals(empty) == StepCounts()
    metrics = stack_metrics(empty)
    assert metrics.total_pfas_layers == 0
    assert metrics.total_litho_energy == 0.0


_PRESET_STACKS = st.sampled_from([asap7_preset(), n7_fixture("duv"), StackSpec("empty", ())])


@given(stack=random_stacks() | _PRESET_STACKS, retain=st.booleans())
def test_the_capper_maps_each_routing_layer_to_its_index_in_stack_order(stack, retain):
    want = {l.name: beol_index(l.name) for l in stack.layers
            if l.region is Region.BEOL and not l.is_power_grid}
    routing = capper(stack.technology_node, layer_table(stack), retain, DEFAULT_WEIGHTS)[1]
    assert list(routing.items()) == list(want.items())
    # The sweep's baseline is capped at the topmost routing layer.
    baseline = sweep_beol(stack, [], retain_power_grid=retain)[0]
    assert baseline.top_routing_layer == (list(want)[-1] if want else None)


def test_single_sadp_layer_step_totals():
    stack = StackSpec("one", (LayerSpec("Gate", Region.FEOL, metal_process="ArFi_SADP"),))
    totals = step_totals(stack)
    assert totals == StepCounts(3, 3, 1, 5, 5, 3)
    assert totals.total() == 20


def test_asap7_step_totals_match_per_layer_sum(asap7):
    expected = StepCounts()
    for layer in asap7.layers:
        expected = expected + derive_layer_metrics(layer).total_steps
    assert step_totals(asap7) == expected
    assert step_totals(asap7).litho == 86


def test_chip_pfas_examples(asap7):
    metrics = stack_metrics(asap7)
    assert chip_pfas(metrics, DesignParams(1.0, 1.0)).value == 29.0
    scaled = chip_pfas(metrics, DesignParams(1.0, 0.875))
    assert math.isclose(scaled.value, 29 / 0.875, rel_tol=1e-9)
    assert chip_pfas(metrics, DesignParams(2.0, 0.5)).value == 116.0
    assert scaled.stack == "7nm-ASAP7"
    assert scaled.area_cm2 == 1.0
    assert scaled.yield_fraction == 0.875


@pytest.mark.parametrize(
    "area, fab_yield",
    [(1.0, 0.0), (1.0, 1.2), (1.0, -0.5), (0.0, 1.0), (-2.0, 0.9), (float("nan"), 0.9)],
)
def test_design_params_domain_guard(area, fab_yield):
    with pytest.raises(DomainError):
        DesignParams(area_cm2=area, yield_fraction=fab_yield)


def test_design_params_report_every_failing_field():
    with pytest.raises(DomainError) as excinfo:
        DesignParams(area_cm2=-1.0, yield_fraction=2.0)
    fields = excinfo.value.fields
    assert [field for field, _ in fields] == ["area_cm2", "yield_fraction"]
    assert str(excinfo.value) == "; ".join(message for _, message in fields)


def test_chip_pfas_overflow_is_a_domain_error():
    metrics = stack_metrics(asap7_preset())
    with pytest.raises(DomainError, match="chip PFAS overflows"):
        chip_pfas(metrics, DesignParams(area_cm2=1e300, yield_fraction=1e-300))


@given(
    area=st.floats(min_value=0.01, max_value=100),
    fab_yield=st.floats(min_value=0.01, max_value=1.0),
    factor=st.floats(min_value=0.1, max_value=10),
)
def test_chip_pfas_linear_in_area(area, fab_yield, factor):
    metrics = stack_metrics(asap7_preset())
    base = chip_pfas(metrics, DesignParams(area, fab_yield)).value
    scaled = chip_pfas(metrics, DesignParams(area * factor, fab_yield)).value
    assert math.isclose(scaled, base * factor, rel_tol=1e-9)


@given(
    area=st.floats(min_value=0.01, max_value=100),
    fab_yield=st.floats(min_value=0.02, max_value=1.0),
)
def test_chip_pfas_inverse_in_yield(area, fab_yield):
    metrics = stack_metrics(asap7_preset())
    base = chip_pfas(metrics, DesignParams(area, fab_yield)).value
    halved = chip_pfas(metrics, DesignParams(area, fab_yield / 2)).value
    assert math.isclose(halved, 2 * base, rel_tol=1e-9)


_LAYER_INDICES = st.lists(
    st.integers(min_value=0, max_value=15), min_size=0, max_size=16, unique=True
)


def _sub_stack(indices):
    preset = asap7_preset()
    return StackSpec("sub", tuple(preset.layers[i] for i in sorted(indices)))


@given(indices=_LAYER_INDICES, extra=st.integers(min_value=0, max_value=15))
def test_additivity_of_appended_layer(indices, extra):
    preset = asap7_preset()
    # Only layers below the appended one, so that the stack stays valid: a
    # repeated or out-of-order layer makes its figures raise, as
    # tests/test_scenarios.py checks.
    base = _sub_stack([i for i in indices if i < extra])
    layer = preset.layers[extra]
    appended = StackSpec("sub", base.layers + (layer,))
    assert not stack_violations(appended)
    before = stack_metrics(base)
    after = stack_metrics(appended)
    delta = derive_layer_metrics(layer)
    assert after.total_pfas_layers == before.total_pfas_layers + delta.pfas_layers
    assert after.total_litho_steps == before.total_litho_steps + delta.litho_steps
    assert after.total_litho_energy == before.total_litho_energy + delta.litho_energy
    assert after.total_steps == before.total_steps + delta.total_steps
    assert after.per_layer == before.per_layer + (delta,)


@given(indices=_LAYER_INDICES)
def test_removing_layers_never_increases_aggregates(indices):
    full = stack_metrics(asap7_preset())
    sub = stack_metrics(_sub_stack(indices))
    assert sub.total_pfas_layers <= full.total_pfas_layers
    assert sub.total_litho_steps <= full.total_litho_steps
    assert sub.total_litho_energy <= full.total_litho_energy
    assert sub.total_steps.total() <= full.total_steps.total()
    for region in Region:
        assert sub.by_region[region] <= full.by_region[region]


def test_euv_substitution_reduces_pfas():
    # one EUV exposure replaces a quadruple litho-etch pass outright
    le4 = LayerSpec("M1", Region.BEOL, metal_process="ArFi_LE4")
    euv = LayerSpec("M1", Region.BEOL, metal_process="EUV_LE")
    assert derive_layer_metrics(euv).pfas_layers < derive_layer_metrics(le4).pfas_layers


def test_duv_fixture_energy_is_all_duv():
    metrics = stack_metrics(n7_fixture("duv"))
    assert metrics.euv_masks == 0
    assert metrics.duv_masks == 36
    assert metrics.total_litho_energy == 36.0


# ---------------------------------------------------------------------------
# A stack's litho energy is its masks by exposure class times their weights


def _every_metrics(stack, retain, weights):
    """The StackMetrics of the stack, of each point of a sweep over all its
    routing layers, and of both sides of an SoC capped at its lowest one."""
    metrics = [stack_metrics(stack, weights=weights)]
    routing = [l.name for l in stack.layers if l.region is Region.BEOL and not l.is_power_grid]
    if routing:
        points = sweep_beol(stack, routing, retain_power_grid=retain, weights=weights)
        metrics += [point.metrics for point in points]
        block = SocBlock("b", 0.5, routing[-1], {routing[0]: 1.5})
        report = compose_soc([block], stack, routing[0], retain_power_grid=retain, weights=weights)
        metrics += [report.baseline_metrics, report.constrained_metrics]
    return metrics


@pytest.mark.guard
@given(stack=random_stacks() | _PRESET_STACKS, retain=st.booleans(), weights=NON_INTEGER_WEIGHTS)
def test_every_total_energy_is_the_weighted_sum_of_its_own_masks(stack, retain, weights):
    for metrics in _every_metrics(stack, retain, weights):
        masks = metrics.by_exposure
        duv = masks[ExposureClass.DUV_DRY] + masks[ExposureClass.DUV_IMMERSION]
        want = 0.0 + duv * weights.per_duv_mask + masks[ExposureClass.EUV] * weights.per_euv_mask
        assert repr(metrics.total_litho_energy) == repr(want)


@pytest.mark.guard
@given(stack=random_stacks() | _PRESET_STACKS, weights=NON_INTEGER_WEIGHTS, data=st.data())
def test_totals_do_not_depend_on_row_order(stack, weights, data):
    rows = layer_table(stack, DEFAULT_CATALOG, weights)
    shuffled = data.draw(st.permutations(rows))
    metrics = metrics_from_rows(stack.technology_node, rows, weights)
    reordered = metrics_from_rows(stack.technology_node, shuffled, weights)
    # Every figure but the per-layer list, which follows the rows.
    assert repr(reordered._replace(per_layer=())) == repr(metrics._replace(per_layer=()))
    assert reordered.per_layer == tuple([row[1] for row in shuffled])


@pytest.mark.guard
@given(stack=random_stacks() | _PRESET_STACKS, retain=st.booleans(),
       euv=st.integers(1, 40), duv=st.integers(1, 40))
def test_integer_weights_give_the_float_totals_of_the_same_float_weights(stack, retain, euv, duv):
    as_ints = _every_metrics(stack, retain, EnergyWeights(euv, duv))
    as_floats = _every_metrics(stack, retain, EnergyWeights(float(euv), float(duv)))
    assert [repr(m) for m in as_ints] == [repr(m) for m in as_floats]
    assert all([type(m.total_litho_energy) is float for m in as_ints])


def test_integer_weights_give_a_float_energy(asap7):
    assert repr(stack_metrics(asap7, weights=EnergyWeights(10, 1)).total_litho_energy) == "128.0"


# Processes of 10**308 masks: one converts to a float, two do not.
_HUGE_CATALOG = (DEFAULT_CATALOG
                 .register(ProcessClass("BIG", StepCounts(1, 1, 1, 1, 1, 1), 10**308,
                                        ExposureClass.EUV))
                 .register(ProcessClass("BIG_DUV", StepCounts(1, 1, 1, 1, 1, 1), 10**308,
                                        ExposureClass.DUV_IMMERSION)))


def _huge_stack(m2_process):
    return StackSpec("x", tuple([LayerSpec(f"M{k}", Region.BEOL, None, process, None,
                                           frozenset({"routing"}))
                                 for k, process in ((1, "BIG"), (2, m2_process))]))


def test_a_mask_total_beyond_float_range_is_a_litho_energy_domain_error():
    stack = _huge_stack("BIG")  # 2 x 10**308 EUV masks
    for weights in (DEFAULT_WEIGHTS, EnergyWeights(1e-300, 1e-300)):
        for call in (lambda: stack_metrics(stack, _HUGE_CATALOG, weights),
                     lambda: sweep_beol(stack, ["M1"], catalog=_HUGE_CATALOG, weights=weights),
                     lambda: compose_soc([SocBlock("b", 1.0, "M2")], stack, "M2",
                                         catalog=_HUGE_CATALOG, weights=weights)):
            with pytest.raises(DomainError, match="^total litho energy of x overflows to inf$"):
                call()


def test_a_pfas_total_beyond_float_range_is_a_chip_pfas_domain_error():
    # 10**308 masks of each exposure class: each weighted sum is finite, and
    # so is the energy, but the PFAS layer total is not a float.
    stack = _huge_stack("BIG_DUV")
    weights = EnergyWeights(1e-300, 1e-300)
    design = DesignParams(1.0, 1.0)
    metrics = stack_metrics(stack, _HUGE_CATALOG, weights)
    assert metrics.total_litho_energy == 2e8
    for call in (lambda: chip_pfas(metrics, design),
                 lambda: sweep_beol(stack, ["M1"], catalog=_HUGE_CATALOG, weights=weights,
                                    design=design),
                 lambda: compose_soc([SocBlock("b", 1.0, "M2")], stack, "M2",
                                     catalog=_HUGE_CATALOG, weights=weights)):
        with pytest.raises(DomainError, match="^chip PFAS overflows: "):
            call()
