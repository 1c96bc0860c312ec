"""Independent reference model: plain-Python recomputation of every figure
the benchmark checks.

Nothing here imports pfasfab. The process rows and preset stacks are typed
in from the paper's tables, and every aggregate is recomputed from them, so
the program is never its own oracle.

A layer is a tuple ``(name, region, pitch_nm, metal, via, tags)`` where
``metal``/``via`` are process ids or None and ``tags`` is a tuple of
strings. Figures are flat dicts mapping a key (``"pfas"``,
``"L.M3.masks"``, ``"p2.carbon.low"``, ...) to a number, string or None;
``check.py`` extracts the same keys from the program's output.
"""

from __future__ import annotations

STEP_KEYS = ("dry_etch", "litho", "metallization", "metrology", "wet_etch", "deposition")
REGIONS = ("FEOL", "MOL", "BEOL")
EXPOSURES = ("DUV_DRY", "DUV_IMMERSION", "EUV")

# id -> (dry_etch, litho, metallization, metrology, wet_etch, deposition,
#        masks, exposure)
PROCESSES = {
    "ArF_LE": (1, 3, 1, 2, 3, 0, 1, "DUV_DRY"),
    "ArFi_LE": (1, 3, 1, 3, 3, 0, 1, "DUV_IMMERSION"),
    "ArFi_LE2": (3, 6, 1, 7, 3, 1, 2, "DUV_IMMERSION"),
    "ArFi_LE3": (4, 9, 1, 10, 3, 1, 3, "DUV_IMMERSION"),
    "ArFi_LE4": (5, 12, 1, 13, 3, 1, 4, "DUV_IMMERSION"),
    "ArFi_SADP": (3, 3, 1, 5, 5, 3, 1, "DUV_IMMERSION"),
    "ArFi_SAQP": (3, 2, 1, 7, 7, 10, 1, "DUV_IMMERSION"),
    "EUV_LE": (1, 3, 1, 3, 3, 0, 1, "EUV"),
    "EUV_SA_LE2": (5, 6, 1, 8, 7, 3, 2, "EUV"),
}

R, PG = ("routing",), ("power_grid",)
ASAP7 = (
    ("Fin", "FEOL", 27, "ArFi_SAQP", None, ()),
    ("Active", "FEOL", 108, "EUV_LE", None, ()),
    ("Gate", "FEOL", 54, "ArFi_SADP", None, ()),
    ("SDT", "FEOL", 54, "EUV_LE", None, ()),
    ("LISD", "MOL", 54, "EUV_LE", None, ()),
    ("LIG", "MOL", 54, "EUV_LE", None, ()),
    ("VIA0", "MOL", 25, None, "EUV_LE", ()),
    ("M1", "BEOL", 36, "EUV_LE", "EUV_LE", R),
    ("M2", "BEOL", 36, "EUV_LE", "EUV_LE", R),
    ("M3", "BEOL", 36, "EUV_LE", "EUV_LE", R),
    ("M4", "BEOL", 48, "ArFi_SADP", "ArFi_LE2", R),
    ("M5", "BEOL", 48, "ArFi_SADP", "ArFi_LE2", R),
    ("M6", "BEOL", 64, "ArFi_SADP", "ArFi_LE2", R),
    ("M7", "BEOL", 64, "ArFi_SADP", "ArFi_LE2", R),
    ("M8", "BEOL", 80, "ArFi_LE", "ArFi_LE", PG),
    ("M9", "BEOL", 80, "ArFi_LE", "ArFi_LE", PG),
)
# Immersion-DUV (metal, via) replacements of the EUV layers; None keeps the slot.
_DUV_SWAPS = {
    "Active": ("ArFi_LE2", None), "SDT": ("ArFi_LE2", None),
    "LISD": ("ArFi_LE2", None), "LIG": ("ArFi_LE", None),
    "VIA0": (None, "ArFi_LE2"), "M1": ("ArFi_SADP", "ArFi_LE2"),
    "M2": ("ArFi_SADP", "ArFi_LE2"), "M3": ("ArFi_SADP", "ArFi_LE2"),
}


def _duv(layer):
    name, region, pitch, metal, via, tags = layer
    new_metal, new_via = _DUV_SWAPS.get(name, (None, None))
    return (name, region, pitch, new_metal or metal, new_via or via, tags)


N7_DUV = tuple(_duv(layer) for layer in ASAP7)
PRESETS = {
    "asap7": ("7nm-ASAP7", ASAP7),
    "n7_euv": ("7nm-ASAP7", ASAP7),
    "n7_duv": ("7nm-DUV", N7_DUV),
}

DEFAULT_WEIGHTS = (10.0, 1.0)  # (per EUV mask, per DUV mask)
CARBON_KEYS = (
    "carbon_intensity", "energy_per_unit_litho", "energy_per_area_base",
    "gas_per_area", "material_per_area",
)


def metal_index(name):
    """k for a BEOL label M<k> (k >= 1, no leading zero), else None."""
    if len(name) > 1 and name[0] == "M" and name[1:].isdigit() and name[1] != "0":
        return int(name[1:])
    return None


def stack_figures(node, layers, weights=DEFAULT_WEIGHTS):
    """Masks, steps by category, litho energy and the region/exposure splits."""
    euv_w, duv_w = weights
    fig = {"node": node}
    by_region = dict.fromkeys(REGIONS, 0)
    by_exposure = dict.fromkeys(EXPOSURES, 0)
    steps = dict.fromkeys(STEP_KEYS, 0)
    energy = 0.0
    for name, region, _, metal, via, _ in layers:
        l_steps = dict.fromkeys(STEP_KEYS, 0)
        l_masks, l_energy = 0, 0.0
        for pid in (metal, via):
            if pid is None:
                continue
            *counts, masks, exposure = PROCESSES[pid]
            for key, count in zip(STEP_KEYS, counts):
                l_steps[key] += count
            l_masks += masks
            l_energy += masks * (euv_w if exposure == "EUV" else duv_w)
            by_exposure[exposure] += masks
        by_region[region] += l_masks
        for key in STEP_KEYS:
            steps[key] += l_steps[key]
        energy += l_energy
        fig[f"L.{name}.masks"] = l_masks
        fig[f"L.{name}.litho"] = l_steps["litho"]
        fig[f"L.{name}.energy"] = l_energy
        for key in STEP_KEYS:
            fig[f"L.{name}.{key}"] = l_steps[key]
    fig["pfas"] = sum(by_region.values())
    for region in REGIONS:
        fig[f"pfas.{region}"] = by_region[region]
    for exposure in EXPOSURES:
        fig[f"exp.{exposure}"] = by_exposure[exposure]
    fig["euv"] = by_exposure["EUV"]
    fig["duv"] = by_exposure["DUV_DRY"] + by_exposure["DUV_IMMERSION"]
    for key in STEP_KEYS:
        fig[f"steps.{key}"] = steps[key]
    fig["fab_steps"] = sum(steps.values())
    fig["litho_steps"] = steps["litho"]
    fig["energy"] = energy
    return fig


SUMMARY_KEYS = ("pfas", "pfas.FEOL", "pfas.MOL", "pfas.BEOL", "exp.DUV_DRY",
                "exp.DUV_IMMERSION", "exp.EUV", "euv", "duv", "fab_steps",
                "litho_steps", "energy") + tuple(f"steps.{k}" for k in STEP_KEYS)


def carbon(energy, area, yld, params, band=None):
    """Embodied kg CO2e per good die, nominal and optionally at a CI band.

    Returns (nominal, low, high); low/high are None without a band.
    """
    def at(ci):
        per_cm2 = (ci * (params["energy_per_unit_litho"] * energy
                         + params["energy_per_area_base"])
                   + params["gas_per_area"] + params["material_per_area"])
        return area / yld * per_cm2

    nominal = at(params["carbon_intensity"])
    if band is None:
        return nominal, None, None
    return nominal, at(band[0]), at(band[1])


def _put_carbon(fig, prefix, result):
    if result is None:
        fig[prefix] = fig[prefix + ".low"] = fig[prefix + ".high"] = None
    else:
        fig[prefix], fig[prefix + ".low"], fig[prefix + ".high"] = result


def truncate(layers, top, retain_power_grid):
    """Keep FEOL/MOL, routing metals up to M<top>, and the power grid if retained."""
    kept = []
    for layer in layers:
        name, region, *_, tags = layer
        if region != "BEOL":
            kept.append(layer)
        elif "power_grid" in tags:
            if retain_power_grid:
                kept.append(layer)
        elif top is not None and metal_index(name) <= top:
            kept.append(layer)
    return tuple(kept)


def top_routing(layers):
    routing = [l[0] for l in layers if l[1] == "BEOL" and "power_grid" not in l[5]]
    return routing[-1] if routing else None


def analyze(node, layers, design=None, weights=DEFAULT_WEIGHTS, params=None, band=None):
    fig = stack_figures(node, layers, weights)
    if design is not None:
        area, yld = design
        fig["chip"] = fig["pfas"] * area / yld
        _put_carbon(fig, "carbon",
                    carbon(fig["energy"], area, yld, params, band) if params else None)
    return fig


def sweep(node, layers, targets, retain_power_grid=False, design=None,
          weights=DEFAULT_WEIGHTS, params=None, band=None):
    """Baseline (own top routing layer) first, then targets high to low."""
    top = top_routing(layers)
    labels = [top] + sorted(set(targets), key=metal_index, reverse=True)
    fig = {"points": len(labels)}
    for i, label in enumerate(labels):
        variant = truncate(layers, metal_index(label) if label else None, retain_power_grid)
        pf = stack_figures(node, variant, weights)
        fig[f"p{i}.label"] = label
        for key in SUMMARY_KEYS:
            fig[f"p{i}.{key}"] = pf[key]
        fig[f"p{i}.chip"] = pf["pfas"] * design[0] / design[1] if design else None
        _put_carbon(fig, f"p{i}.carbon",
                    carbon(pf["energy"], *design, params, band)
                    if design and params else None)
    return fig


def _ratio(a, b):
    return a / b if b != 0 else None


def compare(a, b, weights=DEFAULT_WEIGHTS):
    """a, b are (node, layers)."""
    fa, fb = stack_figures(*a, weights), stack_figures(*b, weights)
    fig = {}
    for side, f in (("a", fa), ("b", fb)):
        fig[f"{side}.node"] = f["node"]
        for key in SUMMARY_KEYS:
            fig[f"{side}.{key}"] = f[key]
    for key in ("pfas", "litho_steps", "fab_steps", "energy") + tuple(f"pfas.{r}" for r in REGIONS):
        fig[f"ratio.{key}"] = _ratio(fa[key], fb[key])
    fig["reduction"] = (fa["pfas"] - fb["pfas"]) / fa["pfas"] if fa["pfas"] else None
    return fig


def soc(blocks, node, layers, target, retain_power_grid=True, yld=None,
        weights=DEFAULT_WEIGHTS, params=None, band=None):
    """blocks: (name, area_cm2, required_top, {label: factor}).

    Blocks needing a layer above the target pay their factor for the target;
    the chip keeps one stack capped at the highest layer any block still needs.
    """
    yld = 1.0 if yld is None else yld
    t = metal_index(target)
    fig = {}
    chip_top = 0
    base_area = cons_area = 0.0
    for name, area, required, overhead in blocks:
        need = metal_index(required)
        factor = 1.0 if t >= need else float(overhead[target])
        fig[f"blk.{name}.factor"] = factor
        fig[f"blk.{name}.area"] = area
        fig[f"blk.{name}.constrained"] = area * factor
        base_area += area
        cons_area += area * factor
        chip_top = max(chip_top, min(need, t))
    fb = stack_figures(node, layers, weights)
    fc = stack_figures(node, truncate(layers, chip_top, retain_power_grid), weights)
    fig["area.base"], fig["area.cons"] = base_area, cons_area
    fig["area_increase"] = (cons_area - base_area) / base_area
    for side, f, area in (("base", fb, base_area), ("cons", fc, cons_area)):
        fig[f"pfas.{side}"] = f["pfas"]
        fig[f"energy.{side}"] = f["energy"]
        fig[f"chip.{side}"] = f["pfas"] * area / yld
        _put_carbon(fig, f"carbon.{side}",
                    carbon(f["energy"], area, yld, params, band) if params else None)
    fig["ratio.pfas"] = _ratio(fb["pfas"], fc["pfas"])
    fig["ratio.chip"] = _ratio(fig["chip.base"], fig["chip.cons"])
    return fig


def trend(series, reference):
    ref = dict(series)[reference]
    fig = {}
    for node, value in series:
        fig[f"n.{node}.value"] = float(value)
        fig[f"n.{node}.norm"] = 1.0 if node == reference else value / ref
    return fig


def catalog():
    fig = {}
    for pid, (*counts, masks, exposure) in PROCESSES.items():
        fig[f"proc.{pid}.masks"] = masks
        fig[f"proc.{pid}.exposure"] = exposure
        for key, count in zip(STEP_KEYS, counts):
            fig[f"proc.{pid}.{key}"] = count
    return fig


# ---------------------------------------------------------------------------
# Config documents and CLI arguments -> expected figures


def stack_of(value):
    """(node, layers) for a preset name, {"preset": name} or an inline document."""
    if isinstance(value, str):
        return PRESETS[value]
    if "preset" in value:
        return PRESETS[value["preset"]]
    return value["technology_node"], tuple(
        (l["name"], l["region"], l.get("pitch_nm"), l.get("metal_process"),
         l.get("via_process"), tuple(l.get("tags", ())))
        for l in value["layers"]
    )


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def expected(command, argv, doc, carbon_profile=None):
    """Figures a valid CLI call must report.

    ``argv`` is the pfasfab argument list after the subcommand, ``doc`` the
    decoded --config document (or {}), ``carbon_profile`` the decoded
    --carbon-profile document (or None). Flags override config values, as
    the CLI documents.
    """
    if command == "export-catalog":
        return catalog()
    fab = doc.get("fab", {})
    w = fab.get("energy_weights")
    weights = (w["per_euv_mask"], w["per_duv_mask"]) if w else DEFAULT_WEIGHTS
    params = fab.get("carbon")
    band = fab.get("ci_band")
    if carbon_profile is not None:
        params = {k: carbon_profile[k] for k in CARBON_KEYS}
        band = carbon_profile.get("ci_band")
    band = (band["low"], band["high"]) if band else None
    design = doc.get("design")
    area = _option(argv, "--area")
    yld = _option(argv, "--yield")
    if area is not None or yld is not None or design is not None:
        area = float(area) if area is not None else design["area_cm2"]
        yld = float(yld) if yld is not None else design["yield"]
        design = (area, yld)
    ref = _option(argv, "--stack")
    node, layers = stack_of(ref) if ref is not None else (
        stack_of(doc["stack"]) if "stack" in doc else (None, None))

    if command == "analyze":
        return analyze(node, layers, design, weights, params, band)
    if command == "compare":
        positional = [a for a in argv if a in PRESETS]
        if len(positional) == 2:
            a, b = (PRESETS[p] for p in positional)
        else:
            a, b = stack_of(doc["compare"]["stack_a"]), stack_of(doc["compare"]["stack_b"])
        return compare(a, b, weights)
    if command == "sweep":
        section = doc.get("sweep", {})
        flag = _option(argv, "--targets")
        targets = [t.strip() for t in flag.split(",")] if flag else section["targets"]
        retain = section.get("retain_power_grid", False)
        if "--retain-power-grid" in argv:
            retain = True
        if "--no-retain-power-grid" in argv:
            retain = False
        return sweep(node, layers, targets, retain, design, weights, params, band)
    if command == "soc":
        section = doc["soc"]
        blocks = [(b["name"], b["area_cm2"], b["required_top"], b.get("area_overhead", {}))
                  for b in section["blocks"]]
        target = _option(argv, "--target") or section["target_top"]
        retain = section.get("retain_power_grid", True)
        if "--retain-power-grid" in argv:
            retain = True
        if "--no-retain-power-grid" in argv:
            retain = False
        return soc(blocks, node, layers, target, retain,
                   design[1] if design else None, weights, params, band)
    if command == "trend":
        section = doc["trend"]
        return trend([tuple(p) for p in section["series"]],
                     _option(argv, "--ref") or section["reference"])
    raise ValueError(f"unknown command {command!r}")
