"""The contract of the immutable value types: equality and hashing over the
fields, the ``Type(field=value, ...)`` repr, read-only fields, round trips
through copy, deepcopy and pickle, construction by keyword and by position
with defaults, the constructor signatures, and the fields named by
constructor errors."""

import copy
import inspect
import itertools
import json
import math
import pickle
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfasfab import (
    CarbonParams,
    CarbonResult,
    ChipPfas,
    ComparisonResult,
    ConfigDocument,
    DesignParams,
    DomainError,
    EnergyWeights,
    ExposureClass,
    InvalidProcessError,
    LayerMetrics,
    LayerSpec,
    ProcessClass,
    Region,
    SocBlock,
    SocReport,
    StackMetrics,
    StackSpec,
    StepCounts,
    SweepPoint,
    TrendSeries,
    Violation,
    asap7_preset,
    chip_pfas,
    compare_stacks,
    compose_soc,
    derive_layer_metrics,
    n7_fixture,
    parse_config,
    stack_metrics,
    sweep_beol,
)
from pfasfab.scenarios import SocBlockResult
from pfasfab.value import Value

from conftest import GOLDEN, MIXED

DESIGN = DesignParams(1.0, 0.8)
PARAMS = CarbonParams(0.4, 0.05, 5.0, 0.3, 0.5)
BLOCKS = (
    SocBlock("cpu", 1.0, "M7", {"M5": 1.25, "M4": 1.5}),
    SocBlock("gpu", 2.0, "M5"),
)


def _soc_report() -> SocReport:
    return compose_soc(BLOCKS, asap7_preset(), "M5", design=DESIGN,
                       carbon_params=PARAMS, ci_band=(0.1, 0.5))


def _samples() -> dict:
    """One instance of each value type, keyed by the type."""
    asap7 = asap7_preset()
    metrics = stack_metrics(asap7)
    soc = _soc_report()
    series = TrendSeries((("7nm", 2.0), ("5nm", 1.0)), "7nm")
    return {
        StepCounts: StepCounts(1, 2, 3, 4, 5, 6),
        EnergyWeights: EnergyWeights(5.0, 2.0),
        ProcessClass: ProcessClass("X", StepCounts(1, 2, 3, 4, 5, 6), 2, ExposureClass.EUV),
        StackSpec: asap7,
        LayerSpec: asap7.layer("M4"),
        Violation: Violation("M1", "bad-pitch", "pitch_nm must be > 0, got -1"),
        LayerMetrics: derive_layer_metrics(asap7.layer("M4")),
        DesignParams: DESIGN,
        StackMetrics: metrics,
        ChipPfas: chip_pfas(metrics, DESIGN),
        CarbonParams: PARAMS,
        CarbonResult: CarbonResult(1.5, 0.5, 2.5),
        ComparisonResult: compare_stacks(n7_fixture("duv"), asap7),
        SweepPoint: sweep_beol(asap7, ["M5"], design=DESIGN, carbon_params=PARAMS)[1],
        SocBlock: BLOCKS[0],
        SocBlockResult: soc.blocks[0],
        SocReport: soc,
        TrendSeries: series,
        ConfigDocument: ConfigDocument(stack=asap7, design=DESIGN, carbon=PARAMS,
                                       ci_band=(0.1, 0.5), warnings=("colour: unknown",)),
    }


# Each type's fields, in constructor order.
FIELDS = {
    StepCounts: ("dry_etch", "litho", "metallization", "metrology", "wet_etch", "deposition"),
    EnergyWeights: ("per_euv_mask", "per_duv_mask"),
    ProcessClass: ("id", "steps", "masks", "exposure"),
    LayerSpec: ("name", "region", "pitch_nm", "metal_process", "via_process", "tags"),
    StackSpec: ("technology_node", "layers"),
    Violation: ("layer", "rule", "message"),
    LayerMetrics: ("name", "litho_steps", "total_steps", "masks", "pfas_layers", "litho_energy"),
    DesignParams: ("area_cm2", "yield_fraction"),
    StackMetrics: ("technology_node", "total_pfas_layers", "by_region", "by_exposure",
                   "total_steps", "total_litho_steps", "total_litho_energy", "per_layer"),
    ChipPfas: ("value", "stack", "area_cm2", "yield_fraction"),
    CarbonParams: ("carbon_intensity", "energy_per_unit_litho", "energy_per_area_base",
                   "gas_per_area", "material_per_area"),
    CarbonResult: ("embodied_kg", "low_kg", "high_kg"),
    ComparisonResult: ("metrics_a", "metrics_b", "ratio_pfas", "ratio_litho_steps",
                       "ratio_total_steps", "ratio_energy", "pfas_ratio_by_region",
                       "percent_reduction"),
    SweepPoint: ("top_routing_layer", "metrics", "chip", "carbon"),
    SocBlock: ("name", "baseline_area_cm2", "required_top_layer", "area_overhead"),
    SocBlockResult: ("block", "overhead_factor", "constrained_area_cm2"),
    SocReport: ("target_top", "retain_power_grid", "blocks", "baseline_metrics",
                "constrained_metrics", "baseline_area_cm2", "constrained_area_cm2",
                "area_increase", "baseline_chip", "constrained_chip", "pfas_layer_ratio",
                "chip_pfas_ratio", "baseline_carbon", "constrained_carbon"),
    TrendSeries: ("points", "reference"),
    ConfigDocument: ("stack", "design", "weights", "carbon", "ci_band", "compare", "sweep",
                     "soc", "trend", "warnings"),
}

# Types that hold a dict, directly or in a field, and so have no hash.
UNHASHABLE = {StackMetrics, ComparisonResult, SweepPoint, SocBlock, SocBlockResult, SocReport}

SAMPLES = _samples()
TYPES = list(FIELDS)


def _values(value) -> list:
    return [getattr(value, name) for name in FIELDS[type(value)]]


@pytest.fixture(params=TYPES, ids=[t.__name__ for t in TYPES])
def sample(request):
    return SAMPLES[request.param]


def test_every_type_has_a_sample():
    assert set(SAMPLES) == set(FIELDS)


def test_equal_by_fields(sample):
    cls = type(sample)
    again = cls(*_values(sample))
    assert again == sample and not again != sample
    assert again is not sample


def test_types_never_equal_each_other():
    for a, b in itertools.permutations(SAMPLES.values(), 2):
        assert a != b
    for value in SAMPLES.values():
        assert value != tuple(_values(value))


def test_field_change_breaks_equality():
    assert StepCounts(1, 2, 3, 4, 5, 6) != StepCounts(1, 2, 3, 4, 5, 7)
    assert CarbonResult(1.0) != CarbonResult(1.0, 0.5, 2.0)
    assert DesignParams(1.0, 0.8) != DesignParams(1.0, 0.9)


def test_hash_over_the_fields(sample):
    cls = type(sample)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(sample)
        return
    assert hash(sample) == hash(cls(*_values(sample))) == hash(tuple(_values(sample)))
    assert {sample, cls(*_values(sample))} == {sample}


def test_repr_names_each_field(sample):
    fields = ", ".join(f"{name}={value!r}" for name, value in
                       zip(FIELDS[type(sample)], _values(sample)))
    assert repr(sample) == f"{type(sample).__qualname__}({fields})"


def test_exact_reprs():
    """The reprs of the asap7 stack, its metrics and an SoC report, as the
    dataclass types wrote them."""
    asap7 = asap7_preset()
    lines = (GOLDEN / "values_repr.txt").read_text(encoding="utf-8").splitlines()
    assert lines == [repr(asap7), repr(stack_metrics(asap7)), repr(_soc_report())]


def test_fields_are_read_only(sample):
    for name in FIELDS[type(sample)]:
        before = getattr(sample, name)
        with pytest.raises(AttributeError):
            setattr(sample, name, None)
        with pytest.raises(AttributeError):
            delattr(sample, name)
        assert getattr(sample, name) is before
    with pytest.raises(AttributeError):
        sample.not_a_field = 1


@pytest.mark.parametrize("round_trip", [
    copy.copy,
    copy.deepcopy,
    lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_round_trips(sample, round_trip):
    again = round_trip(sample)
    assert type(again) is type(sample)
    assert again == sample
    assert repr(again) == repr(sample)


def test_parsed_document_round_trips():
    """A parsed document, blocks without overhead factors included."""
    document = {"stack": "asap7", "soc": {"target_top": "M4", "blocks": [
        {"name": "a", "area_cm2": 1, "required_top": "M3"},
        {"name": "b", "area_cm2": 2, "required_top": "M5", "area_overhead": {"M4": 1.5}},
    ]}}
    parsed = parse_config(json.dumps(document))
    for again in (copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))):
        assert again == parsed
    # A scenario section is a plain dict, so the document holding it has no hash.
    assert type(parsed.soc) is dict
    with pytest.raises(TypeError):
        hash(parsed)


def test_construct_by_keyword(sample):
    cls = type(sample)
    assert cls(**dict(zip(FIELDS[cls], _values(sample)))) == sample


def test_defaults():
    assert StepCounts() == StepCounts(0, 0, 0, 0, 0, 0)
    assert StepCounts(1, 2)._astuple() == (1, 2, 0, 0, 0, 0)
    assert EnergyWeights() == EnergyWeights(10.0, 1.0)
    assert EnergyWeights(per_duv_mask=2.0) == EnergyWeights(10.0, 2.0)
    assert CarbonResult(1.0) == CarbonResult(1.0, None, None)
    asap7 = asap7_preset()
    metrics = stack_metrics(asap7)
    assert SweepPoint("M5", metrics) == SweepPoint("M5", metrics, None, None)
    assert SocBlock("a", 1.0, "M3").area_overhead == {}
    assert SocBlock("a", 1.0, "M3").area_overhead is not SocBlock("a", 1.0, "M3").area_overhead
    assert TrendSeries((("7nm", 1.0),)).reference is None
    soc = _soc_report()
    bare = SocReport(*[getattr(soc, name) for name in FIELDS[SocReport][:-2]])
    assert (bare.baseline_carbon, bare.constrained_carbon) == (None, None)
    doc = ConfigDocument()
    assert doc.weights == EnergyWeights()
    assert doc.warnings == ()
    assert all(getattr(doc, name) is None for name in FIELDS[ConfigDocument]
               if name not in ("weights", "warnings"))


# Each type's constructor defaults; the fields not named here are required.
DEFAULTS = {
    StepCounts: dict.fromkeys(FIELDS[StepCounts], 0),
    EnergyWeights: {"per_euv_mask": 10.0, "per_duv_mask": 1.0},
    LayerSpec: {"pitch_nm": None, "metal_process": None, "via_process": None,
                "tags": frozenset()},
    CarbonResult: {"low_kg": None, "high_kg": None},
    SweepPoint: {"chip": None, "carbon": None},
    SocBlock: {"area_overhead": None},
    SocReport: {"baseline_carbon": None, "constrained_carbon": None},
    TrendSeries: {"reference": None},
    ConfigDocument: {**dict.fromkeys(FIELDS[ConfigDocument]), "weights": EnergyWeights(),
                     "warnings": ()},
}


def test_signature(sample):
    """Each constructor takes the fields in order, by position or keyword,
    with the defaults above."""
    cls = type(sample)
    parameters = inspect.signature(cls).parameters.values()
    assert [p.name for p in parameters] == list(FIELDS[cls])
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})


def test_layer_spec_defaults():
    layer = LayerSpec("V1", Region.BEOL, via_process="EUV_LE")
    assert layer == LayerSpec("V1", Region.BEOL, None, None, "EUV_LE", frozenset())
    assert (layer.metal_process, layer.via_process) == (None, "EUV_LE")
    assert not layer.is_power_grid


def test_defaults_must_name_the_trailing_fields():
    with pytest.raises(TypeError, match=r"\.Bad\._defaults must name its trailing fields"):
        class Bad(Value):
            __slots__ = ("a", "b")
            _defaults = {"a": 1}


def test_post_init_runs_after_the_fields_are_set():
    class Checked(Value):
        __slots__ = ("a", "b")
        _defaults = {"b": 2}

        def __post_init__(self):
            if self.a > self.b:
                raise ValueError("a > b")

    assert Checked(1) == Checked(a=1, b=2)
    with pytest.raises(ValueError):
        Checked(3)


def test_replace_returns_an_equal_new_value(sample):
    again = sample._replace()
    assert type(again) is type(sample)
    assert again == sample and again is not sample


def test_replace_changes_only_the_named_fields():
    layer = asap7_preset().layer("M4")
    variant = layer._replace(metal_process="ArFi_SAQP", pitch_nm=40)
    assert variant == LayerSpec("M4", Region.BEOL, 40, "ArFi_SAQP", "ArFi_LE2",
                                frozenset({"routing"}))
    assert layer.metal_process == "ArFi_SADP" and layer.pitch_nm == 48


def test_replace_runs_the_checks_again():
    assert _fields_of(DomainError, lambda: PARAMS._replace(gas_per_area=-1)) == (
        ("gas_per_area", "gas_per_area must be finite and >= 0, got -1"),
    )
    assert _fields_of(DomainError, lambda: DESIGN._replace(yield_fraction=0)) == (
        ("yield_fraction", "yield must be within (0, 1] (the 0 - 1 range with zero "
                           "excluded), got 0"),
    )
    asap7 = asap7_preset()
    assert asap7._replace(layers=list(asap7.layers[:3])).layers == asap7.layers[:3]


def test_replace_rejects_an_unknown_field():
    with pytest.raises(TypeError, match="colour"):
        PARAMS._replace(colour=1)
    with pytest.raises(TypeError, match="colour"):
        asap7_preset().layer("M4")._replace(colour=1)
    # Each unknown field is named, and no known one.
    with pytest.raises(TypeError) as info:
        asap7_preset().layer("M4")._replace(pitch_nm=40, colour=1, shade=2)
    assert str(info.value) == "LayerSpec._replace() got unknown field(s): 'colour', 'shade'"


def test_constructors_normalize_sequences():
    asap7 = asap7_preset()
    assert StackSpec("x", list(asap7.layers)).layers == asap7.layers
    assert isinstance(StackSpec("x", list(asap7.layers)).layers, tuple)
    series = TrendSeries([["7nm", 2], ["5nm", 1]])
    assert series.points == (("7nm", 2.0), ("5nm", 1.0))
    assert isinstance(series.points[0][1], float)


def _fields_of(error_type, make):
    with pytest.raises(error_type) as info:
        make()
    return info.value.fields


def test_constructor_error_fields():
    assert _fields_of(DomainError, lambda: DesignParams(0.0, 1.5)) == (
        ("area_cm2", "area_cm2 must be finite and > 0, got 0.0"),
        ("yield_fraction", "yield must be within (0, 1] (the 0 - 1 range with zero "
                           "excluded), got 1.5"),
    )
    assert _fields_of(InvalidProcessError, lambda: EnergyWeights(0.0, math.inf)) == (
        ("per_euv_mask", "energy weight per_euv_mask must be finite and > 0, got 0.0"),
        ("per_duv_mask", "energy weight per_duv_mask must be finite and > 0, got inf"),
    )
    assert _fields_of(DomainError, lambda: SocBlock("b", -1.0, "X1", {"M3": 0.5})) == (
        ("baseline_area_cm2", "block 'b': baseline_area_cm2 must be finite and > 0, got -1.0"),
        ("required_top_layer", "block 'b': required_top_layer must be a BEOL label M<k>, "
                               "got 'X1'"),
        ("area_overhead.M3", "block 'b': overhead factor for M3 must be finite and >= 1, "
                             "got 0.5"),
    )
    assert _fields_of(DomainError, lambda: CarbonParams(-0.1, 1.0, math.inf, 0.0, 0.0)) == (
        ("carbon_intensity", "carbon_intensity must be finite and >= 0, got -0.1"),
        ("energy_per_area_base", "energy_per_area_base must be finite and >= 0, got inf"),
    )
    assert _fields_of(DomainError, lambda: SocBlock("b", 1.0, "M5", {"m4": 1.5, "M3": 2})) == (
        ("area_overhead.m4", "block 'b': area_overhead keys must be BEOL labels M<k>, "
                             "got 'm4'"),
    )
    assert _fields_of(DomainError, lambda: SocBlock("b", 1.0, "M3", {"M2": 10**400})) == (
        ("area_overhead.M2", "block 'b': overhead factor for M2 must be finite and >= 1, "
                             "got an integer beyond floating-point range"),
    )
    assert _fields_of(InvalidProcessError, lambda: StepCounts(litho=-1, deposition="2")) == (
        ("litho", "step count litho must be >= 0, got -1"),
        ("deposition", "step count deposition must be a number, got '2'"),
    )
    assert _fields_of(DomainError, lambda: TrendSeries((("a", 1.0), ("a", 2.0)))) == ()
    assert _fields_of(DomainError, lambda: TrendSeries((("a", math.nan),))) == ()


# A valid value of each input type, whose fields the guard below replaces.
INPUTS = (
    LayerSpec("M1", Region.BEOL, 36, "EUV_LE", "EUV_LE", frozenset({"routing"})),
    StepCounts(1, 3, 1, 3, 3, 0),
    ProcessClass("X", StepCounts(1, 3, 1, 3, 3, 0), 1, ExposureClass.EUV),
    EnergyWeights(10.0, 1.0),
    DesignParams(1.0, 0.875),
    CarbonParams(0.5, 1.0, 1.0, 0.1, 0.1),
    SocBlock("a", 0.5, "M7", {"M4": 1.2}),
    TrendSeries((("7nm", 1.0), ("5nm", 2.0)), "7nm"),
    asap7_preset(),
)


@pytest.mark.guard
@pytest.mark.parametrize("valid", INPUTS, ids=lambda value: type(value).__name__)
@given(data=st.data())
def test_an_input_with_mistyped_fields_is_built_or_names_them(valid, data):
    # Any other exception, from a check or from printing a value in its
    # message, fails here.
    fields = data.draw(st.sets(st.sampled_from(type(valid).__slots__), min_size=1))
    changes = {field: data.draw(MIXED) for field in sorted(fields)}
    try:
        valid._replace(**changes)
    except DomainError as exc:
        named = [re.split(r"[.\[]", field, maxsplit=1)[0] for field, _ in exc.fields]
        assert set(named) <= fields, (exc.fields, changes)


def test_constructor_error_messages():
    with pytest.raises(InvalidProcessError, match=r"^step count wet_etch must be >= 0, got -2$"):
        StepCounts(wet_etch=-2)
    with pytest.raises(DomainError, match=r"^trend series has duplicate node labels$"):
        TrendSeries((("a", 1.0), ("a", 2.0)))
    with pytest.raises(DomainError, match=r"^trend value for 'a' must be finite, got nan$"):
        TrendSeries((("a", math.nan),))
