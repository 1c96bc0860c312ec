"""Layer and stack schema for fabricated metal stacks, plus built-in stacks.

A stack lists fabricated layers bottom-up through the transistor front end
(FEOL), the local-interconnect middle (MOL), and the metal routing back end
(BEOL). Each layer names the patterning process used for its lines and,
where applicable, for its vias; per-layer mask counts, step counts, and
relative litho energy all derive from the process catalog, so pitch is
descriptive metadata only.
"""

from __future__ import annotations

from enum import Enum

from .catalog import (
    DEFAULT_CATALOG,
    DEFAULT_WEIGHTS,
    EnergyWeights,
    ExposureClass,
    STEP_FIELDS,
    ProcessCatalog,
)
from .errors import DomainError, StackValidationError, check_type
from .value import Value, finite, set_field, shown

TAG_ROUTING = "routing"
TAG_POWER_GRID = "power_grid"
KNOWN_TAGS = frozenset({TAG_ROUTING, TAG_POWER_GRID})


class Region(Enum):
    FEOL = "FEOL"
    MOL = "MOL"
    BEOL = "BEOL"

    def __init__(self, value):
        self.rank = len(type(self).__members__)  # 0, 1, 2 in stack order

    # Identity hash, as for ExposureClass: members key every by_region dict.
    __hash__ = object.__hash__


def beol_index(name: str) -> int | None:
    """Metal index k for a BEOL layer named M<k>, k ASCII digits without a
    leading zero, else None (also for a name that is not a string, or when
    k has more digits than ``int`` converts). ``M1`` to ``M99`` are read
    from a constant table; any other name is parsed."""
    if name.__class__ is str:
        index = _BEOL_INDEX.get(name)
        if index is not None:
            return index
    if not (isinstance(name, str) and name[:1] == "M"):
        return None
    digits = name[1:]
    if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
        return None
    try:
        return int(digits)
    except ValueError:
        return None


# The M<k> rule for the common labels, as constant data: no call adds to it.
_BEOL_INDEX = {f"M{k}": k for k in range(1, 100)}


class LayerSpec(Value):
    """One fabricated layer; via-only layers leave metal_process unset.

    Each field's own type and range is checked here, once: a name string, a
    Region, no pitch or a finite one > 0, each process None or an id string,
    and a set of known tags, stored frozen. The stack rules check the rest:
    what takes two fields, another layer or the catalog.
    """

    __slots__ = ("name", "region", "pitch_nm", "metal_process", "via_process", "tags")
    _defaults = {"pitch_nm": None, "metal_process": None, "via_process": None,
                 "tags": frozenset()}

    def __post_init__(self):
        failed = []
        if not isinstance(self.name, str):
            failed.append(("name", f"layer name must be a string, not {type(self.name).__name__}"))
        if not isinstance(self.region, Region):
            failed.append(("region", "region must be a Region (FEOL, MOL or BEOL), "
                                     f"got {shown(self.region)}"))
        pitch = self.pitch_nm
        if pitch is not None and not (finite(pitch) and pitch > 0):
            failed.append(("pitch_nm", f"pitch_nm must be finite and > 0, got {shown(pitch)}"))
        for field, process in (("metal_process", self.metal_process),
                               ("via_process", self.via_process)):
            if process is not None and not isinstance(process, str):
                failed.append((field, f"{field} must be a process id string or None, "
                                      f"got {shown(process)}"))
        tags = self.tags
        if not (isinstance(tags, (frozenset, set)) and tags <= KNOWN_TAGS):
            failed.append(("tags", f"tags must be a set of {', '.join(sorted(KNOWN_TAGS))}, "
                                   f"got {shown(tags)}"))
        DomainError.check(failed)
        if tags.__class__ is not frozenset:
            set_field(self, "tags", frozenset(tags))

    @property
    def is_power_grid(self) -> bool:
        return TAG_POWER_GRID in self.tags


class StackSpec(Value):
    """Ordered full stack: FEOL first, then MOL, then BEOL bottom-up."""

    __slots__ = ("technology_node", "layers")

    def __post_init__(self):
        # Checked here, once, so that the stack rules can read every layer's fields.
        try:
            layers = tuple(self.layers)
        except TypeError:  # not iterable
            layers = None
        if layers is None or not all([isinstance(layer, LayerSpec) for layer in layers]):
            DomainError.check([("layers", "layers must be an iterable of LayerSpec, "
                                          f"got {shown(self.layers)}")])
        set_field(self, "layers", layers)

    def layer(self, name: str) -> LayerSpec:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(name)


class Violation(Value):
    __slots__ = ("layer", "rule", "message")

    def __str__(self) -> str:
        return f"layer {self.layer!r}: [{self.rule}] {self.message}"


class LayerMetrics(Value):
    """Derived counts for one layer, summed over its metal and via processes."""

    __slots__ = ("name", "litho_steps", "total_steps", "masks", "pfas_layers", "litho_energy")


def _accepts(stack: StackSpec, catalog: ProcessCatalog) -> bool:
    """True only when the stack breaks no rule of ``stack_violations``.

    One pass over the layers that builds no violation and no message; the
    one thing it builds is the set of FEOL and MOL names (BEOL names are
    distinct already when their indices rise). It is sound: it never accepts
    a stack that ``_explain`` faults. ``LayerSpec`` has checked each field's
    own type and range, so only the rules between fields, layers and the
    catalog are left.
    """
    ids = catalog.ids()
    beol = Region.BEOL
    front = set()  # names of the FEOL and MOL layers, which precede the BEOL
    top = 0  # BEOL index of the last BEOL layer; every index is >= 1
    rank = 0
    for layer in stack.layers:
        name = layer.name
        region = layer.region
        if region.rank < rank:
            return False
        rank = region.rank
        metal = layer.metal_process
        via = layer.via_process
        if metal is None:
            if via is None:
                return False
        elif metal not in ids:
            return False
        if via is not None and via not in ids:
            return False
        if region is beol:
            index = _BEOL_INDEX.get(name) or beol_index(name)
            if index is None or index <= top or name in front:
                return False
            top = index
        elif name in front:
            return False
        else:
            front.add(name)
    return True


def stack_violations(stack: StackSpec, catalog: ProcessCatalog = DEFAULT_CATALOG) -> list[Violation]:
    """Collect every invariant violation in the stack, empty when valid.

    A valid stack is accepted by one pass that builds no violation and
    formats no message (``_accepts``); only a stack that pass does not
    accept is walked again, rule by rule, to explain what is wrong.
    """
    check_type(isinstance(stack, StackSpec), "stack", "a StackSpec", stack)
    check_type(isinstance(catalog, ProcessCatalog), "catalog", "a ProcessCatalog", catalog)
    return [] if _accepts(stack, catalog) else _explain(stack, catalog)


def _explain(stack: StackSpec, catalog: ProcessCatalog) -> list[Violation]:
    """Every violation of the stack, in layer order and, per layer, in rule order."""
    violations: list[Violation] = []
    seen: set[str] = set()
    max_rank = 0
    prev_beol_index: int | None = None

    for layer in stack.layers:
        if layer.name in seen:
            violations.append(
                Violation(layer.name, "duplicate-name", "layer name appears more than once")
            )
        else:
            seen.add(layer.name)

        if layer.region.rank < max_rank:
            violations.append(
                Violation(
                    layer.name,
                    "region-order",
                    f"{layer.region.value} layer appears after a later region",
                )
            )
        else:
            max_rank = layer.region.rank

        metal, via = layer.metal_process, layer.via_process
        if metal is None and via is None:
            violations.append(
                Violation(layer.name, "missing-process", "neither metal_process nor via_process is set")
            )
        for pid in (metal, via):
            if pid is not None and pid not in catalog:
                violations.append(
                    Violation(
                        layer.name,
                        "unknown-process",
                        f"process {pid!r} not in catalog ({', '.join(catalog.ids())})",
                    )
                )

        if layer.region is Region.BEOL:
            idx = beol_index(layer.name)
            if idx is None:
                violations.append(
                    Violation(layer.name, "beol-name", "BEOL layers must be named M<k> with k >= 1")
                )
            else:
                if prev_beol_index is not None and idx <= prev_beol_index:
                    violations.append(
                        Violation(
                            layer.name,
                            "beol-order",
                            f"BEOL index {idx} does not exceed previous index {prev_beol_index}",
                        )
                    )
                prev_beol_index = idx

    return violations


def validate_stack(stack: StackSpec, catalog: ProcessCatalog = DEFAULT_CATALOG) -> StackSpec:
    """Return the stack unchanged if valid, else raise with all violations."""
    violations = stack_violations(stack, catalog)
    if violations:
        raise StackValidationError(violations)
    return stack


# A row's ``counts`` holds the layer's integer figures as one vector, so that
# stack totals are column sums: steps by category (StepCounts field order),
# then masks by Region, then masks by ExposureClass, each in declaration
# order. Where each group ends:
STEPS_END = len(STEP_FIELDS)
REGIONS_END = STEPS_END + len(Region)
COUNTS_END = REGIONS_END + len(ExposureClass)


def layer_table(
    stack: StackSpec,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
) -> tuple[tuple, ...]:
    """The stack's rows, bottom-up, each a plain ``(layer, metrics, counts)``
    tuple. Every figure is summed from this table, so an invalid stack raises
    StackValidationError here.

    One loop derives every row: it looks up each process of a layer once,
    and weights each mask by ``EnergyWeights.per_mask`` of its exposure
    class, read once per call. The PFAS-containing-layer count of a layer
    equals its total mask count. A one-process layer's ``total_steps`` is
    that process's own (immutable) StepCounts.
    """
    check_type(isinstance(weights, EnergyWeights), "weights", "an EnergyWeights", weights)
    validate_stack(stack, catalog)
    lookup = catalog.lookup
    per_mask = tuple([weights.per_mask(exposure) for exposure in ExposureClass])
    rows = []
    for layer in stack.layers:
        metal, via = layer.metal_process, layer.via_process
        # A valid layer names a metal process, a via process or both.
        proc = lookup(via if metal is None else metal)
        steps, masks, slot = proc.steps, proc.masks, proc.exposure.slot
        energy = masks * per_mask[slot]
        by_exposure = [0, 0, 0]  # by ExposureClass.slot
        by_exposure[slot] = masks
        if metal is not None and via is not None:
            proc = lookup(via)
            steps = steps + proc.steps
            masks += proc.masks
            slot = proc.exposure.slot
            energy += proc.masks * per_mask[slot]
            by_exposure[slot] += proc.masks
        by_region = [0, 0, 0]  # by Region.rank
        by_region[layer.region.rank] = masks
        rows.append((
            layer,
            LayerMetrics(layer.name, steps.litho, steps, masks, masks, energy),
            (steps.dry_etch, steps.litho, steps.metallization, steps.metrology,
             steps.wet_etch, steps.deposition, *by_region, *by_exposure),
        ))
    return tuple(rows)


def derive_layer_metrics(
    layer: LayerSpec,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
) -> LayerMetrics:
    """Masks, steps, and relative litho energy for one layer, from the
    ``layer_table`` row of a stack holding only that layer; a layer that
    breaks a rule raises StackValidationError with its violations."""
    check_type(isinstance(layer, LayerSpec), "layer", "a LayerSpec", layer)
    return layer_table(StackSpec("", (layer,)), catalog, weights)[0][1]


def _feol(name, pitch, metal):
    return LayerSpec(name, Region.FEOL, pitch_nm=pitch, metal_process=metal)


def _mol(name, pitch, metal=None, via=None):
    return LayerSpec(name, Region.MOL, pitch_nm=pitch, metal_process=metal, via_process=via)


def _beol(name, pitch, metal, via, tag):
    return LayerSpec(
        name, Region.BEOL, pitch_nm=pitch, metal_process=metal, via_process=via,
        tags=frozenset({tag}),
    )


def asap7_preset() -> StackSpec:
    """Sixteen-layer 7 nm stack modeled on the academic ASAP7 PDK.

    SAQP fins and SADP gates with EUV single exposure elsewhere in the
    front end and local interconnect; M1-M3 pattern metal and vias with
    EUV, M4-M7 pair SADP metals with immersion LE-2 vias, and M8-M9 are
    relaxed-pitch single-exposure power-grid metals. FEOL doping masks are
    not modeled; add extra FEOL layers to account for them if needed.
    """
    return StackSpec(
        technology_node="7nm-ASAP7",
        layers=(
            _feol("Fin", 27, "ArFi_SAQP"),
            _feol("Active", 108, "EUV_LE"),
            _feol("Gate", 54, "ArFi_SADP"),
            _feol("SDT", 54, "EUV_LE"),
            _mol("LISD", 54, metal="EUV_LE"),
            _mol("LIG", 54, metal="EUV_LE"),
            _mol("VIA0", 25, via="EUV_LE"),
            _beol("M1", 36, "EUV_LE", "EUV_LE", TAG_ROUTING),
            _beol("M2", 36, "EUV_LE", "EUV_LE", TAG_ROUTING),
            _beol("M3", 36, "EUV_LE", "EUV_LE", TAG_ROUTING),
            _beol("M4", 48, "ArFi_SADP", "ArFi_LE2", TAG_ROUTING),
            _beol("M5", 48, "ArFi_SADP", "ArFi_LE2", TAG_ROUTING),
            _beol("M6", 64, "ArFi_SADP", "ArFi_LE2", TAG_ROUTING),
            _beol("M7", 64, "ArFi_SADP", "ArFi_LE2", TAG_ROUTING),
            _beol("M8", 80, "ArFi_LE", "ArFi_LE", TAG_POWER_GRID),
            _beol("M9", 80, "ArFi_LE", "ArFi_LE", TAG_POWER_GRID),
        ),
    )


# Immersion-DUV substitutions applied to the EUV layers of the 7 nm stack:
# the ``_replace`` keywords of each layer that changes.
_N7_DUV_SUBSTITUTIONS = {
    "Active": {"metal_process": "ArFi_LE2"},
    "SDT": {"metal_process": "ArFi_LE2"},
    "LISD": {"metal_process": "ArFi_LE2"},
    "LIG": {"metal_process": "ArFi_LE"},
    "VIA0": {"via_process": "ArFi_LE2"},
    "M1": {"metal_process": "ArFi_SADP", "via_process": "ArFi_LE2"},
    "M2": {"metal_process": "ArFi_SADP", "via_process": "ArFi_LE2"},
    "M3": {"metal_process": "ArFi_SADP", "via_process": "ArFi_LE2"},
}


def n7_fixture(variant: str) -> StackSpec:
    """7 nm comparison stacks: ``euv`` is the ASAP7 preset, ``duv`` swaps
    every EUV exposure for an immersion multi-patterning equivalent.

    The DUV composition is a documented reconstruction for EUV-vs-DUV
    comparisons at the same metal stack, not a published foundry flow.
    """
    if variant == "euv":
        return asap7_preset()
    if variant != "duv":
        raise ValueError(f"variant must be 'euv' or 'duv', got {variant!r}")
    return StackSpec("7nm-DUV", tuple([
        layer._replace(**_N7_DUV_SUBSTITUTIONS[layer.name])
        if layer.name in _N7_DUV_SUBSTITUTIONS else layer
        for layer in asap7_preset().layers
    ]))
