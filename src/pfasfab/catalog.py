"""Catalog of patterning process classes.

Each process class records how many fabrication steps of each category a
single patterned line requires, how many masks (exposure passes) it
consumes, and whether those exposures are EUV or DUV. Mask count doubles as
the PFAS-containing-layer count of the process, since every exposure pass
applies a fresh coat of PFAS-bearing resist chemistry, and the exposure
class drives the relative lithography energy weighting.

The nine built-in processes cover the common single- and multi-patterning
flows (dry/immersion ArF litho-etch up to LE-4, spacer-based SADP/SAQP, and
EUV single/self-aligned double exposure). User-defined processes can be
registered into a catalog instance without touching the built-ins.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from enum import Enum

from .errors import InvalidProcessError, ProcessCollisionError, UnknownProcessError, check_type
from .value import Value, finite, set_field, shown


class ExposureClass(Enum):
    """Exposure tool family used by a patterning process."""

    DUV_DRY = "DUV_DRY"  # 193 nm ArF, dry
    DUV_IMMERSION = "DUV_IMMERSION"  # 193 nm ArF, water immersion
    EUV = "EUV"  # 13.5 nm

    def __init__(self, value):
        self.slot = len(type(self).__members__)  # 0, 1, 2 in declaration order
        self.is_euv = value == "EUV"

    # Members are singletons compared by identity; Enum's own __hash__ hashes
    # the member name in Python on every dict key.
    __hash__ = object.__hash__


# The step categories, in StepCounts field order.
STEP_FIELDS = ("dry_etch", "litho", "metallization", "metrology", "wet_etch", "deposition")


class StepCounts(Value):
    """Fabrication step counts by category for one patterned line."""

    __slots__ = STEP_FIELDS
    _defaults = dict.fromkeys(STEP_FIELDS, 0)

    def __post_init__(self):
        # A method of its own, so that perfbench's tracer can count the
        # StepCounts built per operation by wrapping it. One chained test of
        # all six fields; the loop runs only to name each field that failed.
        try:
            if not (self.dry_etch < 0 or self.litho < 0 or self.metallization < 0
                    or self.metrology < 0 or self.wet_etch < 0 or self.deposition < 0):
                return
        except TypeError:  # a field that cannot be compared with 0
            pass
        failed = []
        for name, value in zip(STEP_FIELDS, self._astuple()):
            try:
                if value < 0:
                    failed.append((name, f"step count {name} must be >= 0, got {shown(value)}"))
            except TypeError:
                failed.append((name, f"step count {name} must be a number, got {shown(value)}"))
        InvalidProcessError.check(failed)

    def as_dict(self) -> dict[str, int]:
        return dict(zip(STEP_FIELDS, self._astuple()))

    def total(self) -> int:
        return sum(self._astuple())

    def __add__(self, other: "StepCounts") -> "StepCounts":
        return StepCounts(
            self.dry_etch + other.dry_etch,
            self.litho + other.litho,
            self.metallization + other.metallization,
            self.metrology + other.metrology,
            self.wet_etch + other.wet_etch,
            self.deposition + other.deposition,
        )


class _DataclassFields:
    """``__dataclass_fields__`` of a Value type: the fields of a dataclass with
    the type's name and slots, made on each read. ``dataclasses.replace``,
    ``fields``, ``asdict``, ``astuple`` and ``is_dataclass`` read it, so they
    work on the type's values, and only their callers import dataclasses."""

    def __get__(self, instance, owner):
        import dataclasses

        made = dataclasses.make_dataclass(owner.__name__, owner.__slots__)
        return {field.name: field for field in dataclasses.fields(made)}


class ProcessClass(Value):
    """A named patterning process: step counts, masks, exposure class."""

    __slots__ = ("id", "steps", "masks", "exposure")
    __dataclass_fields__ = _DataclassFields()

    def __post_init__(self):
        pid = shown(self.id)
        InvalidProcessError.check([
            (field, f"process {pid}: {field} must be {what}, got {shown(value)}")
            for field, value, kind, what in (
                ("id", self.id, str, "a string"),
                ("steps", self.steps, StepCounts, "a StepCounts"),
                ("exposure", self.exposure, ExposureClass, "an ExposureClass"))
            if not isinstance(value, kind)
        ])
        # StepCounts checks only ``< 0``, as it is built on the hot path; the
        # finite test runs here, once per process class.
        InvalidProcessError.check([
            (f"steps.{name}", f"process {pid}: step count {name} must be finite, "
                              f"got {shown(value)}")
            for name, value in zip(STEP_FIELDS, self.steps._astuple())
            if not finite(value)
        ])
        if not (finite(self.masks) and self.masks >= 1):
            raise InvalidProcessError(
                f"process {pid}: masks must be >= 1, got {shown(self.masks)}"
            )
        # Masks and steps are counts, so every total summed from them is exact.
        counts = [("masks", "masks", self.masks)] + [
            (f"steps.{name}", f"step count {name}", value)
            for name, value in zip(STEP_FIELDS, self.steps._astuple())
        ]
        InvalidProcessError.check([
            (field, f"process {pid}: {what} must be an integer, got {shown(value)}")
            for field, what, value in counts
            if not isinstance(value, int) or isinstance(value, bool)
        ])


class EnergyWeights(Value):
    """Relative lithography energy per mask, by exposure class.

    An EUV exposure tool draws roughly ten times the power of a DUV tool,
    so the defaults weight each EUV mask 10 and each DUV mask 1. Dry ArF
    carries the DUV weight; no separate figure is modeled for it.
    """

    __slots__ = ("per_euv_mask", "per_duv_mask")
    _defaults = {"per_euv_mask": 10.0, "per_duv_mask": 1.0}

    def __post_init__(self):
        InvalidProcessError.check([
            (name, f"energy weight {name} must be finite and > 0, got {shown(value)}")
            for name, value in zip(self.__slots__, self._astuple())
            if not (finite(value) and value > 0)
        ])
        # Floats, so that every energy computed from them is a float.
        set_field(self, "per_euv_mask", float(self.per_euv_mask))
        set_field(self, "per_duv_mask", float(self.per_duv_mask))

    def per_mask(self, exposure: ExposureClass) -> float:
        return self.per_euv_mask if exposure.is_euv else self.per_duv_mask


DEFAULT_WEIGHTS = EnergyWeights()


def _proc(pid, dry, litho, metal, metr, wet, dep, masks, exposure):
    return ProcessClass(pid, StepCounts(dry, litho, metal, metr, wet, dep), masks, exposure)


_DRY = ExposureClass.DUV_DRY
_IMM = ExposureClass.DUV_IMMERSION
_EUV = ExposureClass.EUV

# Columns: dry_etch, litho, metallization, metrology, wet_etch, deposition.
BUILTIN_PROCESSES = (
    _proc("ArF_LE", 1, 3, 1, 2, 3, 0, 1, _DRY),
    _proc("ArFi_LE", 1, 3, 1, 3, 3, 0, 1, _IMM),
    _proc("ArFi_LE2", 3, 6, 1, 7, 3, 1, 2, _IMM),
    _proc("ArFi_LE3", 4, 9, 1, 10, 3, 1, 3, _IMM),
    _proc("ArFi_LE4", 5, 12, 1, 13, 3, 1, 4, _IMM),
    _proc("ArFi_SADP", 3, 3, 1, 5, 5, 3, 1, _IMM),
    _proc("ArFi_SAQP", 3, 2, 1, 7, 7, 10, 1, _IMM),
    _proc("EUV_LE", 1, 3, 1, 3, 3, 0, 1, _EUV),
    _proc("EUV_SA_LE2", 5, 6, 1, 8, 7, 3, 2, _EUV),
)


class ProcessCatalog:
    """Immutable lookup table of process classes.

    ``register`` returns a new catalog extended with the given process;
    existing instances, including the shared default, are never mutated,
    so catalogs are safe to share across threads. Two processes with one
    id are a ProcessCollisionError, whether passed together or registered.
    """

    def __init__(self, processes: Iterable[ProcessClass] = BUILTIN_PROCESSES):
        try:
            items = tuple(processes)
        except TypeError:  # not iterable
            items = None
        check_type(items is not None and all([isinstance(p, ProcessClass) for p in items]),
                   "processes", "an iterable of ProcessClass", processes)
        self._processes = {}
        for p in items:
            if p.id in self._processes:
                raise ProcessCollisionError(f"process id {p.id!r} is already registered")
            self._processes[p.id] = p

    def ids(self) -> tuple[str, ...]:
        return tuple(self._processes)

    def lookup(self, process_id: str) -> ProcessClass:
        try:
            return self._processes[process_id]
        except KeyError:
            raise UnknownProcessError(process_id, self.ids()) from None

    def register(self, custom: ProcessClass) -> "ProcessCatalog":
        check_type(isinstance(custom, ProcessClass), "custom", "a ProcessClass", custom)
        return ProcessCatalog((*self._processes.values(), custom))

    def __contains__(self, process_id: str) -> bool:
        return process_id in self._processes

    def __iter__(self) -> Iterator[ProcessClass]:
        return iter(self._processes.values())

    def __len__(self) -> int:
        return len(self._processes)


DEFAULT_CATALOG = ProcessCatalog()


def lookup_process(process_id: str, catalog: ProcessCatalog = DEFAULT_CATALOG) -> ProcessClass:
    """Resolve a process id to its full record."""
    check_type(isinstance(catalog, ProcessCatalog), "catalog", "a ProcessCatalog", catalog)
    return catalog.lookup(process_id)
