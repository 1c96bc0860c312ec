"""Design-time model of PFAS-containing lithography layers, fabrication
steps, relative litho energy, and embodied carbon for IC metal stacks.

``import pfasfab`` loads no submodule: each public name below is imported
from its module the first time it is read (PEP 562), so a caller pays only
for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys([
        "BUILTIN_PROCESSES", "DEFAULT_CATALOG", "DEFAULT_WEIGHTS", "EnergyWeights",
        "ExposureClass", "ProcessCatalog", "ProcessClass", "StepCounts", "lookup_process",
    ], "catalog"),
    **dict.fromkeys([
        "PRESETS", "LayerMetrics", "LayerSpec", "Region", "StackSpec", "Violation",
        "asap7_preset", "beol_index", "derive_layer_metrics", "n7_fixture", "stack_violations",
        "validate_stack",
    ], "stack"),
    **dict.fromkeys([
        "ChipPfas", "DesignParams", "StackMetrics", "chip_pfas", "stack_metrics",
        "step_totals",
    ], "engine"),
    **dict.fromkeys([
        "CarbonParams", "CarbonResult", "carbon_band", "embodied_carbon", "estimate_carbon",
        "validate_ci_band",
    ], "carbon"),
    **dict.fromkeys([
        "ComparisonResult", "SocBlock", "SocReport", "SweepPoint", "TrendSeries",
        "compare_stacks", "compose_soc", "normalize_trend", "sweep_beol",
    ], "scenarios"),
    **dict.fromkeys([
        "ConfigDocument", "load_stack_document", "parse_carbon_profile",
        "parse_config", "stack_to_dict",
    ], "config"),
    **dict.fromkeys([
        "ConfigError", "DomainError", "DuplicateTargetError", "InvalidProcessError",
        "MissingOverheadError", "PfasfabError", "ProcessCollisionError",
        "StackValidationError", "TrendReferenceError", "UnknownProcessError",
        "UnknownTargetError",
    ], "errors"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # An unknown name must raise AttributeError: ``from pfasfab import cli``
    # relies on it to fall back to importing the submodule.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
