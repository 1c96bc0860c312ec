"""Layer and stack schema for fabricated metal stacks, plus built-in stacks.

A stack lists fabricated layers bottom-up through the transistor front end
(FEOL), the local-interconnect middle (MOL), and the metal routing back end
(BEOL). Each layer names the patterning process used for its lines and,
where applicable, for its vias; per-layer mask counts, step counts, and
relative litho energy all derive from the process catalog, so pitch is
descriptive metadata only.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Sequence

from .catalog import (
    DEFAULT_CATALOG,
    DEFAULT_WEIGHTS,
    EnergyWeights,
    ExposureClass,
    STEP_FIELDS,
    ProcessCatalog,
    StepCounts,
    mask_energy,
)
from .errors import StackValidationError
from .value import Value, finite, set_field

TAG_ROUTING = "routing"
TAG_POWER_GRID = "power_grid"
KNOWN_TAGS = frozenset({TAG_ROUTING, TAG_POWER_GRID})


class Region(Enum):
    FEOL = "FEOL"
    MOL = "MOL"
    BEOL = "BEOL"

    def __init__(self, value):
        self.rank = len(type(self).__members__)  # 0, 1, 2 in stack order


_BEOL_NAME = re.compile(r"M([1-9][0-9]*)\Z")


def beol_index(name: str) -> int | None:
    """Metal index k for a BEOL layer named M<k>, else None (also when k has
    more digits than ``int`` converts)."""
    m = _BEOL_NAME.fullmatch(name)
    try:
        return int(m.group(1)) if m else None
    except ValueError:
        return None


class LayerSpec(Value):
    """One fabricated layer; via-only layers leave metal_process unset."""

    __slots__ = ("name", "region", "pitch_nm", "metal_process", "via_process", "tags")
    _defaults = {"pitch_nm": None, "metal_process": None, "via_process": None,
                 "tags": frozenset()}

    def process_ids(self) -> tuple[str, ...]:
        return tuple([p for p in (self.metal_process, self.via_process) if p is not None])

    @property
    def is_power_grid(self) -> bool:
        return TAG_POWER_GRID in self.tags


class StackSpec(Value):
    """Ordered full stack: FEOL first, then MOL, then BEOL bottom-up."""

    __slots__ = ("technology_node", "layers")

    def __post_init__(self):
        set_field(self, "layers", tuple(self.layers))

    def names(self) -> tuple[str, ...]:
        return tuple(layer.name for layer in self.layers)

    def layer(self, name: str) -> LayerSpec:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(name)

    def beol_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.region is Region.BEOL)

    def routing_beol_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.beol_layers() if not l.is_power_grid)

    def top_routing_layer(self) -> str | None:
        routing = self.routing_beol_layers()
        return routing[-1].name if routing else None


class Violation(Value):
    __slots__ = ("layer", "rule", "message")

    def __str__(self) -> str:
        return f"layer {self.layer!r}: [{self.rule}] {self.message}"


class LayerMetrics(Value):
    """Derived counts for one layer, summed over its metal and via processes."""

    __slots__ = ("name", "litho_steps", "total_steps", "masks", "pfas_layers", "litho_energy")


def stack_violations(stack: StackSpec, catalog: ProcessCatalog = DEFAULT_CATALOG) -> list[Violation]:
    """Collect every invariant violation in the stack, empty when valid."""
    violations: list[Violation] = []
    seen: set[str] = set()
    max_rank = 0
    prev_beol_index: int | None = None

    for layer in stack.layers:
        if layer.name in seen:
            violations.append(
                Violation(layer.name, "duplicate-name", "layer name appears more than once")
            )
        seen.add(layer.name)

        if layer.region.rank < max_rank:
            violations.append(
                Violation(
                    layer.name,
                    "region-order",
                    f"{layer.region.value} layer appears after a later region",
                )
            )
        max_rank = max(max_rank, layer.region.rank)

        process_ids = layer.process_ids()
        if not process_ids:
            violations.append(
                Violation(layer.name, "missing-process", "neither metal_process nor via_process is set")
            )
        for pid in process_ids:
            if pid not in catalog:
                violations.append(
                    Violation(
                        layer.name,
                        "unknown-process",
                        f"process {pid!r} not in catalog ({', '.join(catalog.ids())})",
                    )
                )

        pitch = layer.pitch_nm
        if pitch is not None and not (finite(pitch) and pitch > 0):
            violations.append(
                Violation(layer.name, "bad-pitch", f"pitch_nm must be finite and > 0, got {pitch}")
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


class LayerRow(NamedTuple):
    """One layer of a stack's per-layer table. ``counts`` holds the layer's
    integer figures as one vector, so that stack totals are column sums:
    steps by category (StepCounts field order), then masks by Region, then
    masks by ExposureClass (each in declaration order)."""

    spec: LayerSpec
    metrics: LayerMetrics
    counts: tuple[int, ...]


_REGIONS = tuple(Region)
_EXPOSURES = tuple(ExposureClass)
# Where each group of LayerRow.counts ends.
_STEPS_END = len(STEP_FIELDS)
_REGIONS_END = _STEPS_END + len(_REGIONS)


def layer_row(
    layer: LayerSpec,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
) -> LayerRow:
    """Look up each process of the layer once and derive its figures.

    The PFAS-containing-layer count of a layer equals its total mask count:
    an absent metal or via process contributes nothing.
    """
    processes = [catalog.lookup(pid) for pid in layer.process_ids()]
    steps = StepCounts(*[sum(c) for c in zip(*[p.steps.as_tuple() for p in processes])])
    masks = 0
    energy = 0.0
    by_region = [0] * len(_REGIONS)
    by_exposure = [0] * len(_EXPOSURES)
    for proc in processes:
        masks += proc.masks
        energy += mask_energy(proc, weights)
        by_exposure[_EXPOSURES.index(proc.exposure)] += proc.masks
    by_region[layer.region.rank] = masks
    metrics = LayerMetrics(layer.name, steps.litho, steps, masks, masks, energy)
    counts = (*steps.as_tuple(), *by_region, *by_exposure)
    return LayerRow(layer, metrics, counts)


def row_totals(rows: Sequence[LayerRow]) -> tuple[StepCounts, dict, dict]:
    """Column sums of the rows' counts: total steps, masks by region, and
    masks by exposure class."""
    columns = [sum(column) for column in zip(*[row.counts for row in rows])]
    columns = columns or [0] * (_REGIONS_END + len(_EXPOSURES))
    return (
        StepCounts(*columns[:_STEPS_END]),
        dict(zip(_REGIONS, columns[_STEPS_END:_REGIONS_END])),
        dict(zip(_EXPOSURES, columns[_REGIONS_END:])),
    )


def layer_table(
    stack: StackSpec,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
) -> tuple[LayerRow, ...]:
    """The stack's rows, bottom-up, each layer derived once."""
    return tuple([layer_row(layer, catalog, weights) for layer in stack.layers])


def derive_layer_metrics(
    layer: LayerSpec,
    catalog: ProcessCatalog = DEFAULT_CATALOG,
    weights: EnergyWeights = DEFAULT_WEIGHTS,
) -> LayerMetrics:
    """Masks, steps, and relative litho energy for one layer."""
    return layer_row(layer, catalog, weights).metrics


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


# Immersion-DUV substitutions applied to the EUV layers of the 7 nm stack.
# Values are (metal_process, via_process); None leaves the slot unchanged.
_N7_DUV_SUBSTITUTIONS = {
    "Active": ("ArFi_LE2", None),
    "SDT": ("ArFi_LE2", None),
    "LISD": ("ArFi_LE2", None),
    "LIG": ("ArFi_LE", None),
    "VIA0": (None, "ArFi_LE2"),
    "M1": ("ArFi_SADP", "ArFi_LE2"),
    "M2": ("ArFi_SADP", "ArFi_LE2"),
    "M3": ("ArFi_SADP", "ArFi_LE2"),
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
    layers = []
    for layer in asap7_preset().layers:
        sub = _N7_DUV_SUBSTITUTIONS.get(layer.name)
        if sub is not None:
            metal, via = sub
            layers.append(
                layer._replace(
                    metal_process=metal if metal is not None else layer.metal_process,
                    via_process=via if via is not None else layer.via_process,
                )
            )
        else:
            layers.append(layer)
    return StackSpec(technology_node="7nm-DUV", layers=tuple(layers))
