"""Round trips through the config schema tables: a domain value written by
``to_dict`` (or ``stack_to_dict``) parses back to an equal value."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pfasfab import (
    DEFAULT_CATALOG,
    CarbonParams,
    DesignParams,
    EnergyWeights,
    LayerSpec,
    Region,
    SocBlock,
    StackSpec,
    load_stack_document,
    parse_config,
)
from pfasfab.config import stack_to_dict, to_dict
from pfasfab.stack import KNOWN_TAGS

from conftest import run_main

_PROCESSES = st.sampled_from(DEFAULT_CATALOG.ids())
_POSITIVE = st.floats(min_value=1e-6, max_value=1e12)
_LABEL = st.integers(1, 14).map(lambda k: f"M{k}")


@st.composite
def _stacks(draw):
    """Valid stacks: any names, pitches, processes and tags the rules allow."""
    layers = []
    for region in (Region.FEOL, Region.MOL):
        for name in draw(st.lists(st.text(min_size=1, max_size=4), max_size=3, unique=True)):
            metal = draw(st.none() | _PROCESSES)
            via = draw(_PROCESSES) if metal is None else draw(st.none() | _PROCESSES)
            layers.append(LayerSpec(
                f"{region.value}:{name}", region, draw(st.none() | _POSITIVE), metal, via,
                draw(st.frozensets(st.sampled_from(sorted(KNOWN_TAGS)))),
            ))
    for k in sorted(draw(st.sets(st.integers(1, 14), max_size=8))):
        layers.append(LayerSpec(
            f"M{k}", Region.BEOL, draw(st.none() | _POSITIVE), draw(_PROCESSES),
            draw(st.none() | _PROCESSES), draw(st.frozensets(st.sampled_from(sorted(KNOWN_TAGS)))),
        ))
    return StackSpec(draw(st.text(max_size=6)), tuple(layers))


_DESIGNS = st.builds(DesignParams, _POSITIVE, st.floats(min_value=1e-6, max_value=1.0))
_WEIGHTS = st.builds(EnergyWeights, _POSITIVE, _POSITIVE)
_NONNEGATIVE = st.floats(min_value=0.0, max_value=1e6)
_CARBON = st.builds(CarbonParams, *[_NONNEGATIVE] * 5)
_BLOCKS = st.lists(
    st.builds(
        SocBlock,
        st.text(max_size=5),
        _POSITIVE,
        _LABEL,
        st.dictionaries(_LABEL, st.floats(min_value=1.0, max_value=10.0), max_size=4),
    ),
    min_size=1,
    max_size=4,
)


@given(stack=_stacks())
def test_stack_document_round_trips(stack):
    assert load_stack_document(json.dumps(stack_to_dict(stack))) == (stack, ())


@given(design=_DESIGNS, weights=_WEIGHTS, carbon=_CARBON, blocks=_BLOCKS)
def test_sections_round_trip(design, weights, carbon, blocks):
    document = {
        "design": to_dict(design),
        "fab": {"energy_weights": to_dict(weights), "carbon": to_dict(carbon)},
        "soc": {"blocks": [to_dict(block) for block in blocks], "target_top": "M1"},
    }
    parsed = parse_config(json.dumps(document), strict=True)
    assert parsed.design == design
    assert parsed.weights == weights
    assert parsed.carbon == carbon
    assert parsed.soc["blocks"] == tuple(blocks)


# tmp_path is shared by the examples; each one rewrites the stack file.
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stack=_stacks())
def test_report_stack_echo_loads_back(tmp_path, stack):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(stack_to_dict(stack)), encoding="utf-8")
    proc = run_main("analyze", "--stack", str(path), "--area", "1", "--yield", "1",
                    "--format", "json")
    assert proc.returncode == 0, proc.stderr
    echoed = json.loads(proc.stdout)["inputs"]["stack"]
    assert load_stack_document(json.dumps(echoed), strict=True) == (stack, ())
