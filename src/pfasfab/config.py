"""Config document parsing and stack (de)serialization.

Documents are JSON objects. Recognized top-level sections:

  schema_version  optional, must equal "1" when present
  stack           preset name, {"preset": <name>}, or an inline stack document
  design          {"area_cm2": > 0, "yield": in (0, 1]}
  fab             {"energy_weights": {"per_euv_mask", "per_duv_mask"},
                   "carbon": <five CarbonParams fields>,
                   "ci_band": {"low", "high"}}
  compare         {"stack_a": <stack ref>, "stack_b": <stack ref>}
  sweep           {"targets": [<M-labels>], "retain_power_grid": bool,
                   "beol_only": bool}
  soc             {"blocks": [{"name", "area_cm2", "required_top",
                   "area_overhead": {<M-label>: factor}}],
                   "target_top": <M-label>, "retain_power_grid": bool}
  trend           {"series": [[<node>, <value>], ...], "reference": <node>}

An inline stack document is {"schema_version"?, "technology_node",
"layers": [{"name", "region", "pitch_nm"?, "metal_process"?,
"via_process"?, "tags"?}]}. Exactly one stack source (preset or inline
layers) may be given per analysis.

The parser checks shape only; range rules are those of the domain types,
whose DomainError fields are reported at their config paths. Unknown keys
are rejected in strict mode and collected as warnings otherwise. All
violations are reported together with field paths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .carbon import CarbonParams, validate_ci_band
from .catalog import DEFAULT_CATALOG, EnergyWeights
from .engine import DesignParams
from .errors import ConfigError, DomainError
from .scenarios import SocBlock, TrendSeries
from .stack import (
    KNOWN_TAGS,
    LayerSpec,
    Region,
    StackSpec,
    asap7_preset,
    n7_fixture,
    stack_violations,
)

SCHEMA_VERSION = "1"

PRESETS = {
    "asap7": asap7_preset,
    "n7_euv": lambda: n7_fixture("euv"),
    "n7_duv": lambda: n7_fixture("duv"),
}


@dataclass(frozen=True)
class CompareSection:
    stack_a: StackSpec
    stack_b: StackSpec


@dataclass(frozen=True)
class SweepSection:
    targets: tuple[str, ...]
    retain_power_grid: bool = False
    beol_only: bool = False


@dataclass(frozen=True)
class SocSection:
    blocks: tuple[SocBlock, ...]
    target_top: str
    retain_power_grid: bool = True


@dataclass(frozen=True)
class TrendSection:
    series: TrendSeries
    reference: str | None = None


@dataclass(frozen=True)
class ConfigDocument:
    stack: StackSpec | None = None
    design: DesignParams | None = None
    weights: EnergyWeights = EnergyWeights()
    carbon: CarbonParams | None = None
    ci_band: tuple[float, float] | None = None
    compare: CompareSection | None = None
    sweep: SweepSection | None = None
    soc: SocSection | None = None
    trend: TrendSection | None = None
    warnings: tuple[str, ...] = ()


# Domain field name -> config key, where the two differ.
_CONFIG_KEYS = {
    "yield_fraction": "yield",
    "baseline_area_cm2": "area_cm2",
    "required_top_layer": "required_top",
}


_KINDS = {"number": (int, float), "string": str}


def _finite(value) -> bool:
    """True for a finite number; an int too large for a float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class _Collector:
    """Accumulates (path, message) errors and unknown-key warnings."""

    def __init__(self, strict: bool):
        self.strict = strict
        self.errors: list[tuple[str, str]] = []
        self.warnings: list[str] = []

    def error(self, path: str, message: str):
        self.errors.append((path, message))

    def check_keys(self, obj: dict, known: set[str], path: str):
        for key in obj:
            if key not in known:
                note = f"unknown key {key!r} (known: {', '.join(sorted(known))})"
                if self.strict:
                    self.error(f"{path}.{key}" if path else key, note)
                else:
                    self.warnings.append(f"{path + '.' if path else ''}{key}: {note}")

    def section(self, obj, known: set[str], path: str, what: str = "") -> bool:
        """Whether ``obj`` is an object; its unknown keys are then checked."""
        if not isinstance(obj, dict):
            self.error(path, f"{what}must be an object, got {obj!r}")
            return False
        self.check_keys(obj, known, path)
        return True

    def value(self, obj: dict, key: str, path: str, kind: str, required=False, nullable=False):
        """``obj[key]`` if it is a ``kind``: "number" (finite, fits a float)
        or "string"; else None with the error recorded. An absent key, or a
        null one when ``nullable``, gives None, an error when ``required``."""
        value = obj.get(key)
        if key not in obj or (nullable and value is None):
            if required:
                self.error(f"{path}.{key}", "required field is missing")
            return None
        if isinstance(value, bool) or not isinstance(value, _KINDS[kind]):
            or_null = " or null" if nullable else ""
            self.error(f"{path}.{key}", f"must be a {kind}{or_null}, got {value!r}")
            return None
        if kind == "number" and not _finite(value):
            self.error(f"{path}.{key}", "must be a finite number within floating-point range")
            return None
        return value

    def numbers(self, obj: dict, keys, path: str) -> dict | None:
        """The required numbers ``keys`` of ``obj`` as floats; None if any is bad."""
        values = {key: self.value(obj, key, path, "number", required=True) for key in keys}
        if None in values.values():
            return None
        return {key: float(value) for key, value in values.items()}

    def build(self, cls, path: str, **fields):
        """``cls(**fields)``, or None with each failing field of its DomainError
        reported at ``<path>.<config key>`` (at ``path`` when it names none)."""
        try:
            return cls(**fields)
        except DomainError as exc:
            for field, message in exc.fields or ((None, str(exc)),):
                self.error(f"{path}.{_CONFIG_KEYS.get(field, field)}" if field else path, message)
            return None

    def version(self, obj: dict, path: str):
        version = obj.get("schema_version")
        if version is not None and str(version) != SCHEMA_VERSION:
            self.error(path, f"unsupported version {version!r}; expected {SCHEMA_VERSION}")

    def boolean(self, obj: dict, key: str, path: str, default: bool):
        if key not in obj:
            return default
        value = obj[key]
        if not isinstance(value, bool):
            self.error(f"{path}.{key}", f"must be a boolean, got {value!r}")
            return default
        return value


def stack_to_dict(stack: StackSpec) -> dict:
    """Serialize a stack to the config document schema."""
    return {
        "schema_version": SCHEMA_VERSION,
        "technology_node": stack.technology_node,
        "layers": [
            {
                "name": layer.name,
                "region": layer.region.value,
                "pitch_nm": layer.pitch_nm,
                "metal_process": layer.metal_process,
                "via_process": layer.via_process,
                "tags": sorted(layer.tags),
            }
            for layer in stack.layers
        ],
    }


_LAYER_KEYS = {"name", "region", "pitch_nm", "metal_process", "via_process", "tags"}
_STACK_KEYS = {"schema_version", "technology_node", "layers"}


def _parse_layer(obj, path: str, col: _Collector) -> LayerSpec | None:
    if not col.section(obj, _LAYER_KEYS, path, "layer "):
        return None
    name = col.value(obj, "name", path, "string", required=True)
    region_name = col.value(obj, "region", path, "string", required=True)
    region = None
    if region_name is not None:
        try:
            region = Region(region_name)
        except ValueError:
            col.error(
                f"{path}.region",
                f"must be one of {', '.join(r.value for r in Region)}, got {region_name!r}",
            )
    pitch = col.value(obj, "pitch_nm", path, "number", nullable=True)
    processes = {
        key: col.value(obj, key, path, "string", nullable=True)
        for key in ("metal_process", "via_process")
    }
    tags = obj.get("tags", [])
    if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
        col.error(f"{path}.tags", f"must be a list of strings, got {tags!r}")
        tags = []
    for tag in tags:
        if tag not in KNOWN_TAGS:
            col.error(
                f"{path}.tags",
                f"unknown tag {tag!r} (known: {', '.join(sorted(KNOWN_TAGS))})",
            )
    if name is None or region is None:
        return None
    return LayerSpec(
        name=name,
        region=region,
        pitch_nm=pitch,
        metal_process=processes["metal_process"],
        via_process=processes["via_process"],
        tags=frozenset(t for t in tags if t in KNOWN_TAGS),
    )


def stack_from_dict(obj: dict, path: str, col: _Collector) -> StackSpec | None:
    if not col.section(obj, _STACK_KEYS, path, "stack document "):
        return None
    col.version(obj, f"{path}.schema_version")
    node = col.value(obj, "technology_node", path, "string", required=True)
    raw_layers = obj.get("layers")
    if not isinstance(raw_layers, list):
        col.error(f"{path}.layers", "required field must be a list of layers")
        return None
    layers = []
    for i, raw in enumerate(raw_layers):
        layer = _parse_layer(raw, f"{path}.layers[{i}]", col)
        if layer is not None:
            layers.append(layer)
    if node is None or len(layers) != len(raw_layers):
        return None
    stack = StackSpec(technology_node=node, layers=tuple(layers))
    for violation in stack_violations(stack, DEFAULT_CATALOG):
        col.error(f"{path}.layers", str(violation))
    return stack


def _parse_stack_ref(value, path: str, col: _Collector) -> StackSpec | None:
    if isinstance(value, str):
        if value not in PRESETS:
            col.error(path, f"unknown preset {value!r}; presets: {', '.join(PRESETS)}")
            return None
        return PRESETS[value]()
    if isinstance(value, dict):
        if "preset" in value and "layers" in value:
            col.error(path, "exactly one stack source allowed: preset or inline layers")
            return None
        if "preset" in value:
            col.check_keys(value, {"preset"}, path)
            return _parse_stack_ref(value["preset"], f"{path}.preset", col)
        if "layers" in value:
            return stack_from_dict(value, path, col)
        col.error(path, "stack object needs either a 'preset' or inline 'layers'")
        return None
    col.error(path, f"stack must be a preset name or an object, got {value!r}")
    return None


def _parse_design(obj, path: str, col: _Collector) -> DesignParams | None:
    if not col.section(obj, {"area_cm2", "yield"}, path):
        return None
    values = col.numbers(obj, ("area_cm2", "yield"), path)
    if values is None:
        return None
    return col.build(
        DesignParams, path, area_cm2=values["area_cm2"], yield_fraction=values["yield"]
    )


_CARBON_KEYS = (
    "carbon_intensity",
    "energy_per_unit_litho",
    "energy_per_area_base",
    "gas_per_area",
    "material_per_area",
)


def _parse_carbon(obj, path: str, col: _Collector) -> CarbonParams | None:
    if not col.section(obj, set(_CARBON_KEYS), path):
        return None
    values = col.numbers(obj, _CARBON_KEYS, path)
    return None if values is None else col.build(CarbonParams, path, **values)


def _parse_ci_band(obj, path: str, col: _Collector) -> tuple[float, float] | None:
    if not col.section(obj, {"low", "high"}, path):
        return None
    values = col.numbers(obj, ("low", "high"), path)
    return None if values is None else col.build(validate_ci_band, path, **values)


def _parse_fab(obj, path: str, col: _Collector):
    weights, carbon, ci_band = EnergyWeights(), None, None
    if not col.section(obj, {"energy_weights", "carbon", "ci_band"}, path):
        return weights, carbon, ci_band
    w, wpath = obj.get("energy_weights"), f"{path}.energy_weights"
    if "energy_weights" in obj and col.section(w, {"per_euv_mask", "per_duv_mask"}, wpath):
        values = col.numbers(w, ("per_euv_mask", "per_duv_mask"), wpath)
        if values is not None:
            weights = col.build(EnergyWeights, wpath, **values) or weights
    if "carbon" in obj:
        carbon = _parse_carbon(obj["carbon"], f"{path}.carbon", col)
    if "ci_band" in obj:
        ci_band = _parse_ci_band(obj["ci_band"], f"{path}.ci_band", col)
    return weights, carbon, ci_band


def _parse_compare(obj, path: str, col: _Collector) -> CompareSection | None:
    if not col.section(obj, {"stack_a", "stack_b"}, path):
        return None
    if "stack_a" not in obj or "stack_b" not in obj:
        col.error(path, "compare needs both stack_a and stack_b")
        return None
    a = _parse_stack_ref(obj["stack_a"], f"{path}.stack_a", col)
    b = _parse_stack_ref(obj["stack_b"], f"{path}.stack_b", col)
    if a is None or b is None:
        return None
    return CompareSection(stack_a=a, stack_b=b)


def _parse_sweep(obj, path: str, col: _Collector) -> SweepSection | None:
    if not col.section(obj, {"targets", "retain_power_grid", "beol_only"}, path):
        return None
    targets = obj.get("targets")
    if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets) or not targets:
        col.error(f"{path}.targets", "required field must be a non-empty list of layer labels")
        return None
    return SweepSection(
        targets=tuple(targets),
        retain_power_grid=col.boolean(obj, "retain_power_grid", path, default=False),
        beol_only=col.boolean(obj, "beol_only", path, default=False),
    )


def _parse_soc(obj, path: str, col: _Collector) -> SocSection | None:
    if not col.section(obj, {"blocks", "target_top", "retain_power_grid"}, path):
        return None
    target = col.value(obj, "target_top", path, "string", required=True)
    raw_blocks = obj.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        col.error(f"{path}.blocks", "required field must be a non-empty list of blocks")
        return None
    blocks = []
    for i, raw in enumerate(raw_blocks):
        bpath = f"{path}.blocks[{i}]"
        if not col.section(
            raw, {"name", "area_cm2", "required_top", "area_overhead"}, bpath, "block "
        ):
            continue
        name = col.value(raw, "name", bpath, "string", required=True)
        area = col.value(raw, "area_cm2", bpath, "number", required=True)
        required_top = col.value(raw, "required_top", bpath, "string", required=True)
        overhead = raw.get("area_overhead", {})
        if not isinstance(overhead, dict):
            col.error(f"{bpath}.area_overhead", f"must be an object, got {overhead!r}")
            overhead = {}
        factors = col.numbers(overhead, overhead, f"{bpath}.area_overhead")
        if None in (name, area, required_top, factors):
            continue
        block = col.build(
            SocBlock,
            bpath,
            name=name,
            baseline_area_cm2=float(area),
            required_top_layer=required_top,
            area_overhead=factors,
        )
        if block is not None:
            blocks.append(block)
    if target is None or len(blocks) != len(raw_blocks):
        return None
    return SocSection(
        blocks=tuple(blocks),
        target_top=target,
        retain_power_grid=col.boolean(obj, "retain_power_grid", path, default=True),
    )


def _parse_trend(obj, path: str, col: _Collector) -> TrendSection | None:
    if not col.section(obj, {"series", "reference"}, path):
        return None
    raw = obj.get("series")
    if not isinstance(raw, list) or not raw:
        col.error(f"{path}.series", "required field must be a non-empty list of [node, value] pairs")
        return None
    points = []
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not isinstance(pair[0], str)
            or isinstance(pair[1], bool)
            or not isinstance(pair[1], (int, float))
            or not _finite(pair[1])
        ):
            col.error(f"{path}.series[{i}]", f"must be a [node, finite number] pair, got {pair!r}")
        else:
            points.append((pair[0], float(pair[1])))
    if len(points) != len(raw):
        return None
    series = col.build(TrendSeries, f"{path}.series", points=tuple(points))
    if series is None:
        return None
    return TrendSection(series=series, reference=col.value(obj, "reference", path, "string"))


_TOP_KEYS = {"schema_version", "stack", "design", "fab", "compare", "sweep", "soc", "trend"}


def parse_config_dict(raw, strict: bool = False) -> ConfigDocument:
    col = _Collector(strict)
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", f"config must be a JSON object, got {raw!r}")])
    col.check_keys(raw, _TOP_KEYS, "")
    col.version(raw, "schema_version")

    stack = _parse_stack_ref(raw["stack"], "stack", col) if "stack" in raw else None
    design = _parse_design(raw["design"], "design", col) if "design" in raw else None
    weights, carbon, ci_band = (
        _parse_fab(raw["fab"], "fab", col) if "fab" in raw else (EnergyWeights(), None, None)
    )
    compare = _parse_compare(raw["compare"], "compare", col) if "compare" in raw else None
    sweep = _parse_sweep(raw["sweep"], "sweep", col) if "sweep" in raw else None
    soc = _parse_soc(raw["soc"], "soc", col) if "soc" in raw else None
    trend = _parse_trend(raw["trend"], "trend", col) if "trend" in raw else None

    if col.errors:
        raise ConfigError(col.errors)
    return ConfigDocument(
        stack=stack,
        design=design,
        weights=weights,
        carbon=carbon,
        ci_band=ci_band,
        compare=compare,
        sweep=sweep,
        soc=soc,
        trend=trend,
        warnings=tuple(col.warnings),
    )


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [(f"line {exc.lineno}, column {exc.colno}", f"invalid JSON: {exc.msg}")]
        ) from None
    except ValueError as exc:  # an integer literal longer than int-to-str conversion allows
        raise ConfigError([("<document>", f"invalid JSON: {exc}")]) from None


def parse_config(text: str, strict: bool = False) -> ConfigDocument:
    """Parse and validate a JSON config document.

    Raises ConfigError carrying every violation with its location; in
    lenient mode unknown keys surface as warnings on the returned document.
    """
    return parse_config_dict(_load_json(text), strict=strict)


def parse_carbon_profile(text: str, strict: bool = False):
    """Parse a standalone carbon profile file: CarbonParams fields plus an
    optional ci_band. Returns (params, ci_band, warnings)."""
    raw = _load_json(text)
    col = _Collector(strict)
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "carbon profile must be a JSON object")])
    col.check_keys(raw, set(_CARBON_KEYS) | {"ci_band"}, "")
    params = _parse_carbon({k: raw[k] for k in _CARBON_KEYS if k in raw}, "carbon", col)
    ci_band = _parse_ci_band(raw["ci_band"], "ci_band", col) if "ci_band" in raw else None
    if col.errors:
        raise ConfigError(col.errors)
    return params, ci_band, tuple(col.warnings)


def load_stack_document(text: str, strict: bool = False) -> StackSpec:
    """Parse a standalone stack document or {"preset": name} reference."""
    raw = _load_json(text)
    col = _Collector(strict)
    stack = _parse_stack_ref(raw, "stack", col)
    if col.errors:
        raise ConfigError(col.errors)
    assert stack is not None
    return stack
