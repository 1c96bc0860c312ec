"""The library's sweep, compare and SoC figures against the benchmark's
independent reference model (``perfbench/reference.py``), on drawn stacks,
weights, designs, carbon parameters, targets and blocks.

The reference imports nothing from pfasfab; ``perfbench/check.py`` reads the
same figure keys off the library's result objects. Both are loaded by path.
"""

import importlib.util
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfasfab import CarbonParams, DesignParams, SocBlock, compare_stacks, compose_soc, sweep_beol

from conftest import NON_INTEGER_WEIGHTS, REPO_ROOT, random_stacks


def _load(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# check.py imports the reference as the top-level module ``reference``.
reference = _load("reference")
check = _load("check")

pytestmark = pytest.mark.guard

_AMOUNT = st.floats(min_value=0.0, max_value=100.0)
_DESIGNS = st.builds(DesignParams, st.floats(min_value=0.01, max_value=10.0),
                     st.floats(min_value=0.05, max_value=1.0))
_CARBON = st.builds(CarbonParams, _AMOUNT, _AMOUNT, _AMOUNT, _AMOUNT, _AMOUNT)
_BANDS = st.none() | st.lists(_AMOUNT, min_size=2, max_size=2).map(sorted).map(tuple)


def _layers(stack):
    """The reference's ``(node, layers)`` of a library stack."""
    return stack.technology_node, tuple(
        (l.name, l.region.value, l.pitch_nm, l.metal_process, l.via_process, tuple(sorted(l.tags)))
        for l in stack.layers
    )


def _weights(weights):
    return weights.per_euv_mask, weights.per_duv_mask


def _params(params):
    return None if params is None else dict(zip(reference.CARBON_KEYS, params._astuple()))


def _design(design):
    return None if design is None else (design.area_cm2, design.yield_fraction)


def _assert_agree(want, got):
    assert check.mismatches(want, got, check.REL_TOL["object"], want) == []


@given(stack=random_stacks(), retain=st.booleans(), weights=NON_INTEGER_WEIGHTS,
       design=st.none() | _DESIGNS, params=st.none() | _CARBON, band=_BANDS, data=st.data())
def test_sweep_matches_reference(stack, retain, weights, design, params, band, data):
    beol = [l.name for l in stack.beol_layers()]
    targets = data.draw(st.lists(st.sampled_from(beol), min_size=1, unique=True))
    points = sweep_beol(stack, targets, retain, weights=weights, design=design,
                        carbon_params=params, ci_band=band)
    want = reference.sweep(*_layers(stack), targets, retain, _design(design),
                           _weights(weights), _params(params), band)
    _assert_agree(want, check.sweep_object_figures(points))


@given(a=random_stacks(), b=random_stacks(), weights=NON_INTEGER_WEIGHTS)
def test_compare_matches_reference(a, b, weights):
    comparison = compare_stacks(a, b, weights=weights)
    want = reference.compare(_layers(a), _layers(b), _weights(weights))
    _assert_agree(want, check.compare_object_figures(comparison))


@given(stack=random_stacks(), retain=st.booleans(), weights=NON_INTEGER_WEIGHTS,
       design=st.none() | _DESIGNS, params=st.none() | _CARBON, band=_BANDS, data=st.data())
def test_soc_matches_reference(stack, retain, weights, design, params, band, data):
    target = data.draw(st.sampled_from([l.name for l in stack.beol_layers()]))
    blocks = data.draw(st.lists(st.builds(
        lambda area, top, factor: (area, f"M{top}", {target: factor}),
        st.floats(min_value=0.01, max_value=10.0), st.integers(1, 14),
        st.floats(min_value=1.0, max_value=3.0),
    ), min_size=1, max_size=4))
    blocks = [(f"b{i}", *block) for i, block in enumerate(blocks)]
    report = compose_soc([SocBlock(*block) for block in blocks], stack, target, retain,
                         design=design, weights=weights, carbon_params=params, ci_band=band)
    want = reference.soc(blocks, *_layers(stack), target, retain,
                         None if design is None else design.yield_fraction, _weights(weights),
                         _params(params), band)
    _assert_agree(want, check.soc_object_figures(report))
