"""The one rule every numeric input passes: it must be a finite number within
float range. An int beyond that range is rejected at its field, as ``inf``
and ``NaN`` are, with a DomainError instead of an OverflowError later on."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfasfab import (
    CarbonParams,
    DesignParams,
    DomainError,
    EnergyWeights,
    ExposureClass,
    InvalidProcessError,
    LayerSpec,
    Region,
    SocBlock,
    StackSpec,
    StackValidationError,
    StepCounts,
    TrendSeries,
    Violation,
    DEFAULT_CATALOG,
    DEFAULT_WEIGHTS,
    asap7_preset,
    carbon_band,
    chip_pfas,
    compare_stacks,
    compose_soc,
    derive_layer_metrics,
    embodied_carbon,
    estimate_carbon,
    normalize_trend,
    stack_metrics,
    stack_violations,
    sweep_beol,
    validate_ci_band,
    validate_stack,
)
from pfasfab.catalog import ProcessClass
from pfasfab.stack import layer_table

CARBON_FIELDS = ("carbon_intensity", "energy_per_unit_litho", "energy_per_area_base",
                 "gas_per_area", "material_per_area")


def _carbon(name, x):
    return CarbonParams(**{**dict.fromkeys(CARBON_FIELDS, 0.0), name: x})


# A stack that breaks a stack rule: M1 names a process the catalog lacks.
BAD_STACK = StackSpec("t", [LayerSpec("M1", Region.BEOL, None, "ArFi_LE9")])


# (input, build with the bad value x, error type, the field the error names
# or None where the error reports no fields, a fragment of its message)
CHECKED = [
    ("DesignParams.area_cm2", lambda x: DesignParams(x, 1.0), DomainError, "area_cm2",
     "area_cm2 must be finite and > 0"),
    ("DesignParams.yield_fraction", lambda x: DesignParams(1.0, x), DomainError,
     "yield_fraction", "yield must be within (0, 1]"),
    *[(f"CarbonParams.{name}", lambda x, name=name: _carbon(name, x), DomainError, name,
       f"{name} must be finite and >= 0") for name in CARBON_FIELDS],
    ("EnergyWeights.per_euv_mask", lambda x: EnergyWeights(x, 1.0), InvalidProcessError,
     "per_euv_mask", "per_euv_mask must be finite and > 0"),
    ("EnergyWeights.per_duv_mask", lambda x: EnergyWeights(10.0, x), InvalidProcessError,
     "per_duv_mask", "per_duv_mask must be finite and > 0"),
    ("SocBlock.baseline_area_cm2", lambda x: SocBlock("a", x, "M3"), DomainError,
     "baseline_area_cm2", "baseline_area_cm2 must be finite and > 0"),
    ("SocBlock.area_overhead", lambda x: SocBlock("a", 1.0, "M3", {"M2": x}), DomainError,
     "area_overhead.M2", "overhead factor for M2 must be finite and >= 1"),
    ("TrendSeries value", lambda x: TrendSeries((("a", x),)), DomainError, None,
     "trend value for 'a' must be finite"),
    ("ProcessClass.masks", lambda x: ProcessClass("X", StepCounts(), x, ExposureClass.EUV),
     InvalidProcessError, None, "masks must be >= 1"),
    ("ProcessClass.steps", lambda x: ProcessClass("X", StepCounts(litho=x), 1, ExposureClass.EUV),
     InvalidProcessError, "steps.litho", "step count litho must be finite"),
    ("validate_ci_band low", lambda x: validate_ci_band(x, 1.0), DomainError, "low",
     "band bound low must be finite and >= 0"),
    ("validate_ci_band high", lambda x: validate_ci_band(0.0, x), DomainError, "high",
     "band bound high must be finite and >= 0"),
    ("LayerSpec.pitch_nm", lambda x: LayerSpec("M1", Region.BEOL, x, "EUV_LE"), DomainError,
     "pitch_nm", "pitch_nm must be finite and > 0"),
]


# 10**5000 has more digits than int's string conversion allows: its message
# must still print.
@pytest.mark.parametrize("value", [10**400, math.inf, math.nan, 10**5000],
                         ids=["huge_int", "inf", "nan", "huge_digits"])
@pytest.mark.parametrize("build, error, field, message", [c[1:] for c in CHECKED],
                         ids=[c[0] for c in CHECKED])
def test_non_finite_input_is_a_domain_error_at_its_field(build, error, field, message, value):
    with pytest.raises(error) as info:
        build(value)
    assert isinstance(info.value, DomainError)
    assert message in str(info.value)
    assert [f for f, _ in info.value.fields] == ([field] if field else [])


@pytest.mark.parametrize("masks, steps, field, got", [
    (1.5, {}, "masks", "masks must be an integer, got 1.5"),
    (2.0, {}, "masks", "masks must be an integer, got 2.0"),
    (True, {}, "masks", "masks must be an integer, got True"),
    (1, {"litho": 1.5}, "steps.litho", "step count litho must be an integer, got 1.5"),
    (1, {"deposition": False}, "steps.deposition",
     "step count deposition must be an integer, got False"),
], ids=["masks-fraction", "masks-float", "masks-bool", "steps-fraction", "steps-bool"])
def test_process_counts_are_integers(masks, steps, field, got):
    # Counts: a stack cannot hold a fraction of a PFAS layer or a step.
    with pytest.raises(InvalidProcessError) as info:
        ProcessClass("X", StepCounts(**steps), masks, ExposureClass.EUV)
    assert str(info.value) == f"process 'X': {got}"
    assert [f for f, _ in info.value.fields] == [field]


@pytest.mark.parametrize("build, field", [
    (lambda: DesignParams(1.0, None), "yield_fraction"),
    (lambda: DesignParams(1.0, "0.5"), "yield_fraction"),
    (lambda: DesignParams("1.0", 0.5), "area_cm2"),
    (lambda: SocBlock("a", 1.0, "M3", [1, 2]), "area_overhead"),
    (lambda: TrendSeries(points=5), "points"),
    (lambda: TrendSeries(points=(("7nm",),)), "points"),
    (lambda: StackSpec("x", None), "layers"),
    (lambda: StackSpec("x", ["M1"]), "layers"),
    (lambda: SocBlock(5, 1.0, "M3"), "name"),
], ids=["yield-None", "yield-str", "area-str", "overhead-list", "points-int", "points-single",
        "layers-None", "layers-str-entry", "block-name-int"])
def test_a_malformed_constructor_argument_is_a_domain_error_naming_its_field(build, field):
    with pytest.raises(DomainError) as info:
        build()
    assert type(info.value) is DomainError
    assert [f for f, _ in info.value.fields] == [field]


@pytest.mark.parametrize("build, field, message", [
    (lambda: StepCounts(litho="x"), "litho", "step count litho must be a number, got 'x'"),
    (lambda: StepCounts(litho=None), "litho", "step count litho must be a number, got None"),
    (lambda: ProcessClass("X", "s", 1, ExposureClass.EUV), "steps",
     "process 'X': steps must be a StepCounts, got 's'"),
    (lambda: ProcessClass("X", StepCounts(), 1, "EUV"), "exposure",
     "process 'X': exposure must be an ExposureClass, got 'EUV'"),
    (lambda: ProcessClass(["X"], StepCounts(), 1, ExposureClass.EUV), "id",
     "process ['X']: id must be a string, got ['X']"),
], ids=["steps-str", "steps-None", "process-steps-str", "process-exposure-str", "process-id-list"])
def test_a_malformed_process_field_is_an_invalid_process_error_naming_it(build, field, message):
    with pytest.raises(InvalidProcessError) as info:
        build()
    assert info.value.fields == ((field, message),)


def test_huge_ints_that_used_to_overflow_raise_domain_errors():
    asap7 = asap7_preset()
    metrics = stack_metrics(asap7)
    with pytest.raises(DomainError):
        chip_pfas(metrics, DesignParams(10**400, 1.0))
    with pytest.raises(DomainError):
        embodied_carbon(metrics, DesignParams(1.0, 1.0), CarbonParams(10**400, 0, 0, 0, 0))
    with pytest.raises(DomainError):
        compose_soc([SocBlock("a", 10**400, "M3")], asap7, "M3")


def test_stack_violations_are_reported_at_layers():
    violation = Violation("M1", "unknown-process", "process 'ArFi_LE9' not in catalog "
                          f"({', '.join(DEFAULT_CATALOG.ids())})")
    error = StackValidationError([violation])
    assert isinstance(error, DomainError)
    assert error.fields == (("layers", str(violation)),)
    with pytest.raises(StackValidationError) as info:
        validate_stack(BAD_STACK)
    assert info.value.violations == (violation,)



# Each junk value of a target argument, by id; "M3" is junk as ``targets``
# (a bare string is not read letter by letter) and ["M3"] as ``target_top``.
JUNK = {"none": None, "str": "M3", "list": ["M3"], "int": 3, "nested-list": [["M3"]],
        "mixed-list": ["M3", 3]}
WANTED = {"targets": "a list or tuple of layer label strings",
          "target_top": "a layer label string"}


def _target_call(field, value, stack):
    if field == "targets":
        return lambda: sweep_beol(stack, value)
    return lambda: compose_soc([SocBlock("a", 0.5, "M3")], stack, value)


@pytest.mark.parametrize("field, junk", [
    *[("targets", junk) for junk in ("none", "str", "int", "nested-list", "mixed-list")],
    *[("target_top", junk) for junk in ("none", "list", "int", "nested-list", "mixed-list")],
])
def test_wrong_typed_target_is_a_domain_error_naming_it(field, junk):
    value = JUNK[junk]
    with pytest.raises(DomainError) as info:
        _target_call(field, value, asap7_preset())()
    assert type(info.value) is DomainError
    assert info.value.fields == ((field, f"{field} must be {WANTED[field]}, got {value!r}"),)


@pytest.mark.parametrize("field", ["targets", "target_top"])
def test_stack_errors_come_before_a_wrong_typed_target(field):
    with pytest.raises(StackValidationError):
        _target_call(field, None, BAD_STACK)()


# A wrong-typed stack or design argument, by the parameter it is passed as.
WRONG_TYPED = {
    "stack_metrics.stack": ("stack", "a StackSpec", "asap7", stack_metrics),
    "compare_stacks.a": ("a", "a StackSpec", None,
                         lambda x: compare_stacks(x, asap7_preset())),
    "compare_stacks.b": ("b", "a StackSpec", None,
                         lambda x: compare_stacks(asap7_preset(), x)),
    "sweep_beol.stack": ("stack", "a StackSpec", ["M5"],
                         lambda x: sweep_beol(x, ["M5"])),
    "sweep_beol.design": ("design", "a DesignParams or None", 1.0,
                          lambda x: sweep_beol(asap7_preset(), ["M5"], design=x)),
    "compose_soc.chip_stack": ("chip_stack", "a StackSpec", asap7_preset().layers,
                               lambda x: compose_soc([SocBlock("a", 0.5, "M3")], x, "M3")),
    "compose_soc.design": ("design", "a DesignParams or None", 1.0,
                           lambda x: compose_soc([SocBlock("a", 0.5, "M3")], asap7_preset(),
                                                 "M3", design=x)),
}


@pytest.mark.parametrize("case", WRONG_TYPED)
def test_wrong_typed_stack_or_design_is_a_domain_error_naming_it(case):
    field, wanted, value, call = WRONG_TYPED[case]
    with pytest.raises(DomainError) as info:
        call(value)
    assert type(info.value) is DomainError
    assert info.value.fields == ((field, f"{field} must be {wanted}, got {value!r}"),)


def test_a_wrong_typed_design_comes_before_stack_errors():
    for call in (lambda: sweep_beol(BAD_STACK, ["M1"], design=1.0),
                 lambda: compose_soc([SocBlock("a", 0.5, "M1")], BAD_STACK, "M1", design=1.0)):
        with pytest.raises(DomainError) as info:
            call()
        assert [field for field, _ in info.value.fields] == ["design"]


@pytest.mark.parametrize("field, call", [
    ("carbon_params", lambda bad: sweep_beol(bad, ["M1"], carbon_params=1.0)),
    ("ci_band", lambda bad: sweep_beol(bad, ["M1"], ci_band=(1.0,))),
    ("blocks", lambda bad: compose_soc(["a"], bad, "M1")),
    ("carbon_params", lambda bad: compose_soc([SocBlock("a", 0.5, "M1")], bad, "M1",
                                              carbon_params=1.0)),
    ("ci_band", lambda bad: compose_soc([SocBlock("a", 0.5, "M1")], bad, "M1", ci_band=1.0)),
    ("retain_power_grid", lambda bad: sweep_beol(bad, ["M1"], retain_power_grid="no")),
    ("retain_power_grid", lambda bad: compose_soc([SocBlock("a", 0.5, "M1")], bad, "M1",
                                                  retain_power_grid=1)),
], ids=["sweep-carbon_params", "sweep-ci_band", "soc-blocks", "soc-carbon_params",
        "soc-ci_band", "sweep-retain_power_grid", "soc-retain_power_grid"])
def test_wrong_typed_carbon_or_blocks_come_before_stack_errors(field, call):
    with pytest.raises(DomainError) as info:
        call(BAD_STACK)
    assert [f for f, _ in info.value.fields] == [field]


_ASAP7 = asap7_preset()
_METRICS = stack_metrics(_ASAP7)
_DESIGN = DesignParams(1.0, 0.875)
_PROFILE = CarbonParams(0.5, 1.0, 1.0, 0.1, 0.1)
_BLOCKS = [SocBlock("a", 0.5, "M3")]

# Each parameter checked once per call: (call with the bad value x, a value of
# another library type, whether None is allowed, what its message wants).
PARAMETERS = {
    "stack_violations.stack": (stack_violations, _ASAP7.layers[0], False, "a StackSpec"),
    "stack_violations.catalog": (lambda x: stack_violations(_ASAP7, x), DEFAULT_WEIGHTS,
                                 False, "a ProcessCatalog"),
    "layer_table.weights": (lambda x: layer_table(_ASAP7, DEFAULT_CATALOG, x), DEFAULT_CATALOG,
                            False, "an EnergyWeights"),
    "derive_layer_metrics.layer": (derive_layer_metrics, _ASAP7, False, "a LayerSpec"),
    "chip_pfas.metrics": (lambda x: chip_pfas(x, _DESIGN), _DESIGN, False, "a StackMetrics"),
    "chip_pfas.design": (lambda x: chip_pfas(_METRICS, x), _METRICS, False, "a DesignParams"),
    "embodied_carbon.params": (lambda x: embodied_carbon(_METRICS, _DESIGN, x), _DESIGN, False,
                               "a CarbonParams"),
    "carbon_band.params": (lambda x: carbon_band(_METRICS, _DESIGN, x, 0.1, 0.5), _DESIGN,
                           False, "a CarbonParams"),
    "estimate_carbon.params": (lambda x: estimate_carbon(_METRICS, _DESIGN, x), _DESIGN, True,
                               "a CarbonParams or None"),
    "normalize_trend.series": (lambda x: normalize_trend(x, "7nm"), {"7nm": 1.0}, False,
                               "a TrendSeries"),
    "sweep_beol.carbon_params": (lambda x: sweep_beol(_ASAP7, ["M3"], design=_DESIGN,
                                                      carbon_params=x),
                                 _DESIGN, True, "a CarbonParams or None"),
    "sweep_beol.ci_band": (lambda x: sweep_beol(_ASAP7, ["M3"], design=_DESIGN,
                                                carbon_params=_PROFILE, ci_band=x),
                           {"low": 0.1, "high": 0.5}, True, "None or a two-item list or tuple"),
    "compose_soc.blocks": (lambda x: compose_soc(x, _ASAP7, "M3"), _BLOCKS[0], False,
                           "a non-empty list or tuple of SocBlock"),
    "compose_soc.carbon_params": (lambda x: compose_soc(_BLOCKS, _ASAP7, "M3", design=_DESIGN,
                                                        carbon_params=x),
                                  _DESIGN, True, "a CarbonParams or None"),
    "compose_soc.ci_band": (lambda x: compose_soc(_BLOCKS, _ASAP7, "M3", design=_DESIGN,
                                                  carbon_params=_PROFILE, ci_band=x),
                            (0.1,), True, "None or a two-item list or tuple"),
    "sweep_beol.retain_power_grid": (lambda x: sweep_beol(_ASAP7, ["M3"], retain_power_grid=x),
                                     _DESIGN, False, "a bool"),
    "compose_soc.retain_power_grid": (lambda x: compose_soc(_BLOCKS, _ASAP7, "M3",
                                                            retain_power_grid=x),
                                      _DESIGN, False, "a bool"),
}
# No list is a valid value of any of them but a two-item band, so the lists
# drawn here never have two items.
_JUNK = (st.text(max_size=4) | st.lists(st.integers(), max_size=4).filter(lambda v: len(v) != 2)
         | st.integers() | st.floats())


@pytest.mark.guard
@pytest.mark.parametrize("case", PARAMETERS)
@given(data=st.data())
def test_a_wrong_typed_argument_is_a_domain_error_naming_its_parameter(case, data):
    call, other_type, none_allowed, wanted = PARAMETERS[case]
    junk = _JUNK | st.just(other_type)
    value = data.draw(junk if none_allowed else junk | st.none())
    field = case.split(".")[1]
    with pytest.raises(DomainError) as info:
        call(value)
    assert type(info.value) is DomainError
    assert info.value.fields == ((field, f"{field} must be {wanted}, got {value!r}"),)
