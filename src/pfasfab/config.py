"""Config document parsing and stack (de)serialization.

Documents are JSON objects. Each section is described once, as a
``_Section`` table of ``_Field``s below: a field names its config key, the
kind of JSON value it takes, its default (or that it is required) and the
domain field it fills when that is named differently. ``_DOCUMENT`` lists
the top-level sections; ``_STACK`` is an inline stack, which is also the
stack document that ``--stack`` reads and every report echoes. A stack
reference is a preset name, ``{"preset": <name>}`` or an inline stack;
exactly one stack source may be given.

One walker, ``_Section.parse``, reads every section from its table, and
``_Section.dump`` writes a domain value back in the same shape. The parser
checks shape only; range rules are those of the domain types, whose
DomainError fields are reported at their config paths. Unknown keys are
rejected in strict mode and collected as warnings otherwise. All violations
are reported together with field paths. A required field that fails its
check fails its object; an optional one falls back to its default.
"""

from __future__ import annotations

import json

from .carbon import CarbonParams, validate_ci_band
from .catalog import DEFAULT_WEIGHTS, EnergyWeights
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
    validate_stack,
)
from .value import SCHEMA_VERSION, Value, finite

PRESETS = {
    "asap7": asap7_preset,
    "n7_euv": lambda: n7_fixture("euv"),
    "n7_duv": lambda: n7_fixture("duv"),
}


class CompareSection(Value):
    __slots__ = ("stack_a", "stack_b")


class SweepSection(Value):
    __slots__ = ("targets", "retain_power_grid", "beol_only")
    _defaults = {"retain_power_grid": False, "beol_only": False}


class SocSection(Value):
    __slots__ = ("blocks", "target_top", "retain_power_grid")
    _defaults = {"retain_power_grid": True}


class TrendSection(Value):
    __slots__ = ("series", "reference")
    _defaults = {"reference": None}


class ConfigDocument(Value):
    __slots__ = ("stack", "design", "weights", "carbon", "ci_band", "compare", "sweep",
                 "soc", "trend", "warnings")
    _defaults = {**dict.fromkeys(__slots__), "weights": DEFAULT_WEIGHTS, "warnings": ()}


_BAD = object()  # a value that failed its check; the error is already recorded
_REQUIRED = object()  # the default of a field that has none


def _at(path: str, key: str) -> str:
    """The location of ``key`` in the object at ``path`` ("" for the top level)."""
    return f"{path}.{key}" if path else key


class _Collector:
    """Accumulates (path, message) errors, with the document's own at
    ``<document>``, and unknown-key warnings."""

    def __init__(self, strict: bool):
        self.strict = strict
        self.errors: list[tuple[str, str]] = []
        self.warnings: list[str] = []

    def error(self, path: str, message: str):
        self.errors.append((path or "<document>", message))

    def check_keys(self, obj: dict, section: _Section, path: str):
        for key in obj:
            if key not in section.keys:
                note = f"unknown key {key!r} (known: {section.known})"
                if self.strict:
                    self.error(_at(path, key), note)
                else:
                    self.warnings.append(f"{_at(path, key)}: {note}")

    def built(self, path: str, to_key: dict, make, /, *args, **kwargs):
        """``make(*args, **kwargs)``, or _BAD with each failing field of its
        DomainError reported at ``<path>.<config key>`` (at ``path`` when it
        names none)."""
        try:
            return make(*args, **kwargs)
        except DomainError as exc:
            for field, message in exc.fields or ((None, str(exc)),):
                self.error(_at(path, to_key.get(field, field)) if field else path, message)
            return _BAD

    def done(self, result):
        """``result``, or ConfigError with every recorded error."""
        if self.errors:
            raise ConfigError(self.errors)
        return result


class _Kind:
    """The JSON value a field takes. ``parse(value, path, col)`` gives the
    domain value, or _BAD with the error recorded at ``path``; ``dump``
    writes a domain value back; ``missing`` is the error for an absent
    required field."""

    missing = "required field is missing"

    def __init__(self, parse, dump=None, missing=None):
        self.parse = parse
        if dump is not None:
            self.dump = dump
        if missing is not None:
            self.missing = missing

    @staticmethod
    def dump(value):
        return value


class _Field:
    """A config key, its kind, its default (``_REQUIRED`` for none) and the
    domain field it fills: by default the key itself, and none for ""."""

    __slots__ = ("key", "kind", "default", "attr")

    def __init__(self, key: str, kind: _Kind, default=_REQUIRED, attr: str | None = None):
        self.key, self.kind, self.default = key, kind, default
        self.attr = key if attr is None else attr


class _Section(_Kind):
    """A JSON object read through its fields into ``make(**fields)``."""

    def __init__(self, make, fields: list[_Field], what: str = ""):
        self.make, self.fields, self.what = make, fields, what
        self.keys = frozenset(f.key for f in fields)
        self.known = ", ".join(sorted(self.keys))
        self.to_key = {f.attr: f.key for f in fields if f.attr != f.key}
        # The fields unpacked for the walker, and for dump (whose None writes
        # the value as it is).
        self._in = [(f.key, f.kind.parse, f.default, f.attr, f.kind.missing) for f in fields]
        self._out = [(f.key, f.attr, None if f.kind.dump is _Kind.dump else f.kind.dump)
                     for f in fields]

    def values(self, obj, path: str, col: _Collector):
        """The checked fields of ``obj`` by domain name, or _BAD."""
        if not isinstance(obj, dict):
            col.error(path, f"{self.what}must be an object, got {obj!r}")
            return _BAD
        col.check_keys(obj, self, path)
        values, failed = {}, False
        for key, parse, default, attr, missing in self._in:
            if key in obj:
                value = parse(obj[key], _at(path, key), col)
                if value is _BAD:
                    failed = failed or default is _REQUIRED
                    value = default
            else:
                value = default
                if value is _REQUIRED:
                    col.error(_at(path, key), missing)
                    failed = True
            if attr:
                values[attr] = value
        return _BAD if failed else values

    def parse(self, obj, path: str, col: _Collector):
        values = self.values(obj, path, col)
        return _BAD if values is _BAD else col.built(path, self.to_key, self.make, **values)

    def dump(self, value) -> dict:
        out = {}
        for key, attr, dump in self._out:
            item = getattr(value, attr) if attr else None
            out[key] = item if dump is None else dump(item)
        return out


class _List(_Kind):
    """A JSON list of ``item``s, read into ``make(items)``; ``message`` is
    the error for a missing or non-list value (or an empty one when
    ``nonempty``)."""

    def __init__(self, item: _Kind, message: str, make=tuple, nonempty=False):
        self.item, self.missing, self.make, self.nonempty = item, message, make, nonempty

    def parse(self, value, path: str, col: _Collector):
        if not isinstance(value, list) or (self.nonempty and not value):
            col.error(path, self.missing)
            return _BAD
        items, failed = [], False
        for i, raw in enumerate(value):
            item = self.item.parse(raw, f"{path}[{i}]", col)
            failed = failed or item is _BAD
            items.append(item)
        return _BAD if failed else col.built(path, {}, self.make, items)

    def dump(self, value) -> list:
        return [self.item.dump(item) for item in value]


def _scalar(name: str, types, convert=None, nullable=False) -> _Kind:
    """A JSON string, boolean or number (finite, fitting a float), or null
    when ``nullable``; ``convert`` is applied to the value."""
    expected = f"must be a {name}{' or null' if nullable else ''}, got "

    def parse(value, path, col):
        if value is None and nullable:
            return None
        if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
            col.error(path, f"{expected}{value!r}")
            return _BAD
        if name == "number" and not finite(value):
            col.error(path, "must be a finite number within floating-point range")
            return _BAD
        return value if convert is None else convert(value)

    return _Kind(parse)


_string = _scalar("string", str)
_number = _scalar("number", (int, float), convert=float)
_boolean = _scalar("boolean", bool)
_string_or_null = _scalar("string", str, nullable=True)
_number_or_null = _scalar("number", (int, float), nullable=True)


def _numbers(make, *keys: str) -> _Section:
    """A section of required numbers, one per key."""
    return _Section(make, [_Field(key, _number) for key in keys])


def _parse_version(value, path, col):
    if value is not None and str(value) != SCHEMA_VERSION:
        col.error(path, f"unsupported version {value!r}; expected {SCHEMA_VERSION}")
        return _BAD
    return value


def _parse_region(value, path, col):
    name = _string.parse(value, path, col)
    if name is _BAD:
        return _BAD
    try:
        return Region(name)
    except ValueError:
        col.error(path, f"must be one of {', '.join(r.value for r in Region)}, got {name!r}")
        return _BAD


def _parse_tags(value, path, col):
    """The known tags of a list of strings; each unknown one is an error."""
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        col.error(path, f"must be a list of strings, got {value!r}")
        return _BAD
    for tag in value:
        if tag not in KNOWN_TAGS:
            col.error(path, f"unknown tag {tag!r} (known: {', '.join(sorted(KNOWN_TAGS))})")
    return frozenset([t for t in value if t in KNOWN_TAGS])


_LABELS_MESSAGE = "required field must be a non-empty list of layer labels"


def _parse_labels(value, path, col):
    if not isinstance(value, list) or not value or not all(isinstance(t, str) for t in value):
        col.error(path, _LABELS_MESSAGE)
        return _BAD
    return tuple(value)


def _parse_factors(value, path, col):
    """An object of ``<M-label>: number`` area-overhead factors."""
    if not isinstance(value, dict):
        col.error(path, f"must be an object, got {value!r}")
        return _BAD
    factors = {key: _number.parse(factor, f"{path}.{key}", col) for key, factor in value.items()}
    return _BAD if any(f is _BAD for f in factors.values()) else factors


def _parse_pair(value, path, col):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], str)
        or isinstance(value[1], bool)
        or not isinstance(value[1], (int, float))
        or not finite(value[1])
    ):
        col.error(path, f"must be a [node, finite number] pair, got {value!r}")
        return _BAD
    return (value[0], float(value[1]))


def _parse_preset(value, path, col):
    if isinstance(value, str) and value in PRESETS:
        return PRESETS[value]()
    if isinstance(value, str):
        col.error(path, f"unknown preset {value!r}; presets: {', '.join(PRESETS)}")
    else:  # the value of a {"preset": ...} reference
        got = "an object" if isinstance(value, dict) else repr(value)
        col.error(path, f"must be a preset name ({', '.join(PRESETS)}), got {got}")
    return _BAD


def _parse_stack_ref(value, path, col):
    """A preset name, a ``{"preset": <name>}`` object or an inline stack."""
    if isinstance(value, str):
        return _parse_preset(value, path, col)
    if not isinstance(value, dict):
        col.error(path, f"stack must be a preset name or an object, got {value!r}")
        return _BAD
    sources = [key for key in ("preset", "layers") if key in value]
    if len(sources) == 1:
        return (_PRESET_REF if sources == ["preset"] else _STACK).parse(value, path, col)
    col.error(path, "exactly one stack source allowed: preset or inline layers" if sources
              else "stack object needs either a 'preset' or inline 'layers'")
    return _BAD


_version = _Kind(_parse_version, dump=lambda _: SCHEMA_VERSION)

_LAYER = _Section(LayerSpec, [
    _Field("name", _string),
    _Field("region", _Kind(_parse_region, dump=lambda region: region.value)),
    _Field("pitch_nm", _number_or_null, None),
    _Field("metal_process", _string_or_null, None),
    _Field("via_process", _string_or_null, None),
    _Field("tags", _Kind(_parse_tags, dump=sorted), frozenset()),
], what="layer ")

# Each stack violation is reported at ``<path>.layers``.
_STACK = _Section(lambda **fields: validate_stack(StackSpec(**fields)), [
    _Field("schema_version", _version, None, attr=""),
    _Field("technology_node", _string),
    _Field("layers", _List(_LAYER, "required field must be a list of layers")),
])

_stack_ref = _Kind(_parse_stack_ref, dump=_STACK.dump)
_PRESET_REF = _Section(lambda preset: preset, [_Field("preset", _Kind(_parse_preset))])

_DESIGN = _Section(DesignParams, [
    _Field("area_cm2", _number),
    _Field("yield", _number, attr="yield_fraction"),
])

_WEIGHTS = _numbers(EnergyWeights, "per_euv_mask", "per_duv_mask")
_CARBON = _numbers(CarbonParams, "carbon_intensity", "energy_per_unit_litho",
                   "energy_per_area_base", "gas_per_area", "material_per_area")
_CI_BAND = _Field("ci_band", _numbers(validate_ci_band, "low", "high"), None)

# Fills the weights, carbon and ci_band fields of ConfigDocument.
_FAB = _Section(dict, [
    _Field("energy_weights", _WEIGHTS, DEFAULT_WEIGHTS, attr="weights"),
    _Field("carbon", _CARBON, None),
    _CI_BAND,
])

# A carbon profile file: the carbon fields and ci_band at its top level,
# read into (CarbonParams, ci_band).
_PROFILE = _Section(lambda ci_band, **carbon: (CarbonParams(**carbon), ci_band),
                    [*_CARBON.fields, _CI_BAND])

_COMPARE = _Section(CompareSection, [
    _Field("stack_a", _stack_ref),
    _Field("stack_b", _stack_ref),
])

_SWEEP = _Section(SweepSection, [
    _Field("targets", _Kind(_parse_labels, dump=list, missing=_LABELS_MESSAGE)),
    _Field("retain_power_grid", _boolean, False),
    _Field("beol_only", _boolean, False),
])

_BLOCK = _Section(SocBlock, [
    _Field("name", _string),
    _Field("area_cm2", _number, attr="baseline_area_cm2"),
    _Field("required_top", _string, attr="required_top_layer"),
    _Field("area_overhead", _Kind(_parse_factors, dump=lambda f: dict(sorted(f.items()))),
           None),
], what="block ")

_SOC = _Section(SocSection, [
    _Field("target_top", _string),
    _Field("blocks", _List(_BLOCK, "required field must be a non-empty list of blocks",
                           nonempty=True)),
    _Field("retain_power_grid", _boolean, True),
])

_TREND = _Section(TrendSection, [
    _Field("series", _List(
        _Kind(_parse_pair),
        "required field must be a non-empty list of [node, value] pairs",
        make=TrendSeries,
        nonempty=True,
    )),
    _Field("reference", _string, None),
])

# The top-level sections; parse_config_dict builds the ConfigDocument.
_DOCUMENT = _Section(None, [
    _Field("schema_version", _version, None, attr=""),
    _Field("stack", _stack_ref, None),
    _Field("design", _DESIGN, None),
    _Field("fab", _FAB, None),
    _Field("compare", _COMPARE, None),
    _Field("sweep", _SWEEP, None),
    _Field("soc", _SOC, None),
    _Field("trend", _TREND, None),
])

# The config section that writes each echoed domain type.
_ECHOED = {
    StackSpec: _STACK,
    DesignParams: _DESIGN,
    EnergyWeights: _WEIGHTS,
    CarbonParams: _CARBON,
    SocBlock: _BLOCK,
}


def to_dict(value) -> dict | None:
    """A stack, design, energy weights, carbon parameters or SoC block as its
    config section writes it; None stays None."""
    return None if value is None else _ECHOED[type(value)].dump(value)


def stack_to_dict(stack: StackSpec) -> dict:
    """Serialize a stack to the config document schema."""
    return _STACK.dump(stack)


def parse_config_dict(raw, strict: bool = False) -> ConfigDocument:
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", f"config must be a JSON object, got {raw!r}")])
    col = _Collector(strict)
    sections = col.done(_DOCUMENT.values(raw, "", col))
    fab = sections.pop("fab") or {}
    return ConfigDocument(**sections, **fab, warnings=tuple(col.warnings))


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
    if not isinstance(raw, dict):
        raise ConfigError([("<document>", "carbon profile must be a JSON object")])
    col = _Collector(strict)
    params, ci_band = col.done(_PROFILE.parse(raw, "", col))
    return params, ci_band, tuple(col.warnings)


def load_stack_document(
    text: str, strict: bool = False, warnings: list | None = None
) -> StackSpec:
    """Parse a standalone stack document or {"preset": name} reference,
    reporting its keys at their paths from the top of the document. In
    lenient mode its unknown-key warnings are appended to ``warnings`` when
    that list is given."""
    raw = _load_json(text)
    col = _Collector(strict)
    stack = _stack_ref.parse(raw, "", col)
    if col.errors and isinstance(raw, dict) and "stack" in raw:
        col.error("<document>", "a config document with a stack section; pass it with --config")
    stack = col.done(stack)
    if warnings is not None:
        warnings.extend(col.warnings)
    return stack
