import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfasfab import (
    BUILTIN_PROCESSES,
    DEFAULT_CATALOG,
    DEFAULT_WEIGHTS,
    EnergyWeights,
    ExposureClass,
    DomainError,
    InvalidProcessError,
    LayerSpec,
    ProcessCatalog,
    ProcessClass,
    ProcessCollisionError,
    Region,
    StepCounts,
    UnknownProcessError,
    derive_layer_metrics,
    lookup_process,
)

from table_data import PROCESS_ROWS


@pytest.mark.parametrize("pid", sorted(PROCESS_ROWS))
def test_builtin_rows_match_golden(pid):
    dry, litho, metal, metr, wet, dep, masks, exposure = PROCESS_ROWS[pid]
    proc = lookup_process(pid)
    assert proc.steps == StepCounts(dry, litho, metal, metr, wet, dep)
    assert proc.masks == masks
    assert proc.exposure == ExposureClass(exposure)


def test_builtin_catalog_is_complete():
    assert set(DEFAULT_CATALOG.ids()) == set(PROCESS_ROWS)
    assert len(DEFAULT_CATALOG) == 9


def test_spec_rows_spot_checks():
    le3 = lookup_process("ArFi_LE3")
    assert le3.steps == StepCounts(4, 9, 1, 10, 3, 1)
    assert le3.masks == 3
    assert le3.exposure is ExposureClass.DUV_IMMERSION

    sa_le2 = lookup_process("EUV_SA_LE2")
    assert sa_le2.steps == StepCounts(5, 6, 1, 8, 7, 3)
    assert sa_le2.masks == 2
    assert sa_le2.exposure is ExposureClass.EUV

    saqp = lookup_process("ArFi_SAQP")
    assert saqp.masks == 1
    assert saqp.steps.deposition == 10


def test_unknown_process_names_id_and_lists_known():
    with pytest.raises(UnknownProcessError) as excinfo:
        lookup_process("ArFi_LE9")
    message = str(excinfo.value)
    assert "ArFi_LE9" in message
    assert "ArFi_SADP" in message


def test_lookup_is_pure():
    first = lookup_process("ArFi_SADP")
    second = lookup_process("ArFi_SADP")
    assert first == second
    assert first is second


def test_register_extension_resolves():
    custom = ProcessClass(
        "ArFi_LE5", StepCounts(6, 15, 1, 16, 3, 1), 5, ExposureClass.DUV_IMMERSION
    )
    extended = DEFAULT_CATALOG.register(custom)
    assert extended.lookup("ArFi_LE5") == custom
    # built-ins stay reachable and the shared default is untouched
    assert extended.lookup("ArFi_LE") == lookup_process("ArFi_LE")
    assert "ArFi_LE5" not in DEFAULT_CATALOG


def test_register_collision_with_builtin():
    clash = ProcessClass("EUV_LE", StepCounts(litho=1), 1, ExposureClass.EUV)
    with pytest.raises(ProcessCollisionError):
        DEFAULT_CATALOG.register(clash)


def test_catalog_of_duplicate_ids_rejected():
    clash = ProcessClass("EUV_LE", StepCounts(litho=1), 1, ExposureClass.EUV)
    with pytest.raises(ProcessCollisionError, match="process id 'EUV_LE' is already registered"):
        ProcessCatalog((*BUILTIN_PROCESSES, clash))
    with pytest.raises(ProcessCollisionError, match="process id 'EUV_LE' is already registered"):
        DEFAULT_CATALOG.register(clash)


def test_a_process_answers_the_dataclasses_functions():
    p = lookup_process("EUV_LE")
    assert dataclasses.is_dataclass(p) and dataclasses.is_dataclass(ProcessClass)
    assert [f.name for f in dataclasses.fields(p)] == ["id", "steps", "masks", "exposure"]
    assert dataclasses.asdict(p) == {"id": p.id, "steps": p.steps, "masks": p.masks,
                                     "exposure": p.exposure}
    assert dataclasses.astuple(p) == (p.id, p.steps, p.masks, p.exposure)
    assert dataclasses.replace(p, masks=2) == ProcessClass(p.id, p.steps, 2, p.exposure)
    with pytest.raises(InvalidProcessError):
        dataclasses.replace(p, masks=0)
    assert not dataclasses.is_dataclass(StepCounts())


def test_register_invalid_masks():
    with pytest.raises(InvalidProcessError):
        ProcessClass("Bad", StepCounts(litho=1), 0, ExposureClass.EUV)


def test_negative_step_count_rejected():
    with pytest.raises(InvalidProcessError):
        StepCounts(dry_etch=-1)


def test_invalid_energy_weights_rejected():
    with pytest.raises(InvalidProcessError):
        EnergyWeights(per_euv_mask=0)
    with pytest.raises(InvalidProcessError):
        EnergyWeights(per_duv_mask=-1)


def test_invalid_energy_weights_name_each_field():
    with pytest.raises(DomainError) as excinfo:
        EnergyWeights(per_euv_mask=0.0, per_duv_mask=float("inf"))
    assert isinstance(excinfo.value, InvalidProcessError)
    assert [field for field, _ in excinfo.value.fields] == ["per_euv_mask", "per_duv_mask"]


def _mask_energy(proc, weights=DEFAULT_WEIGHTS, catalog=DEFAULT_CATALOG):
    """The litho energy the kernel derives for a layer patterned by ``proc`` alone."""
    layer = LayerSpec("M1", Region.BEOL, metal_process=proc.id)
    return derive_layer_metrics(layer, catalog, weights).litho_energy


def test_mask_energy_examples():
    assert _mask_energy(lookup_process("EUV_LE")) == 10.0
    assert _mask_energy(lookup_process("ArFi_LE2")) == 2.0
    weights = EnergyWeights(per_euv_mask=10, per_duv_mask=1)
    assert _mask_energy(lookup_process("ArFi_SADP"), weights) == 1.0


def test_mask_energy_rule_over_whole_catalog():
    # per-mask weighting: 10 per EUV mask, 1 per DUV mask with defaults
    for proc in BUILTIN_PROCESSES:
        expected = 10.0 * proc.masks if proc.exposure.is_euv else 1.0 * proc.masks
        assert _mask_energy(proc) == expected


def test_exposure_class_slots_and_euv_flag():
    assert [(e.slot, e.is_euv) for e in ExposureClass] == [(0, False), (1, False), (2, True)]
    assert [e.name for e in ExposureClass] == ["DUV_DRY", "DUV_IMMERSION", "EUV"]


@pytest.mark.parametrize("member", [*Region, *ExposureClass], ids=lambda m: m.name)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["copy", "deepcopy", "pickle"])
def test_enum_members_survive_copies_and_key_dicts(member, clone):
    same = clone(member)
    assert same is member
    assert hash(same) == hash(member)
    assert {member: 1}[same] == 1
    assert clone({member: 2}) == {member: 2}


def test_le_series_masks_monotone():
    masks = [lookup_process(pid).masks for pid in ("ArFi_LE", "ArFi_LE2", "ArFi_LE3", "ArFi_LE4")]
    assert masks == sorted(masks)
    assert masks == [1, 2, 3, 4]


@given(
    masks=st.integers(min_value=1, max_value=12),
    steps=st.lists(st.integers(min_value=0, max_value=30), min_size=6, max_size=6),
    euv=st.booleans(),
)
def test_register_roundtrip(masks, steps, euv):
    exposure = ExposureClass.EUV if euv else ExposureClass.DUV_IMMERSION
    custom = ProcessClass("Custom_X", StepCounts(*steps), masks, exposure)
    extended = DEFAULT_CATALOG.register(custom)
    found = extended.lookup("Custom_X")
    assert found == custom
    assert _mask_energy(found, catalog=extended) == masks * (10.0 if euv else 1.0)
