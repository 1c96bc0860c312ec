"""Seeded input generators. The same seed always gives the same inputs.

Stacks are reference-model layer tuples (see ``reference.py``); each
workload converts them to what the program takes (library objects, JSON
documents or argv) outside the timed region. Mixes are stratified, so a
different seed changes the details of each input but not the share of
deep stacks, banded carbon, formats or malformed documents.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from collections import Counter

import reference

PROCESS_IDS = tuple(reference.PROCESSES)
COMMANDS = ("analyze", "compare", "sweep", "soc", "trend")
FORMATS = ("table", "csv", "json")
BEOL_DEPTHS = range(3, 21)
CARBON_PROFILE = {
    "carbon_intensity": 0.4, "energy_per_unit_litho": 0.05,
    "energy_per_area_base": 5.0, "gas_per_area": 0.3, "material_per_area": 0.5,
}
CI_BAND = (0.02, 0.82)


def shape(k, beol_depth):
    """Layer and item counts for the k-th input: every count cycles through
    its whole range, so the structural mix is the same for every seed."""
    return {"feol": 2 + k % 5, "mol": 1 + k % 3, "beol": beol_depth,
            "power_grid": min(k % 4, beol_depth - 1)}


def random_stack(rng, node, feol, mol, beol, power_grid):
    """``feol`` FEOL, ``mol`` MOL and ``beol`` BEOL layers, the top
    ``power_grid`` of them power grid; processes drawn from the catalog."""
    def pitch():
        return rng.choice((None, rng.randrange(20, 400), round(rng.uniform(20, 400), 1)))

    layers = [(f"F{i}", "FEOL", pitch(), rng.choice(PROCESS_IDS), None, ())
              for i in range(feol)]
    for i in range(mol):
        kind = rng.randrange(3)  # metal only, via only, both
        layers.append((f"LI{i}", "MOL", pitch(),
                       rng.choice(PROCESS_IDS) if kind != 1 else None,
                       rng.choice(PROCESS_IDS) if kind != 0 else None, ()))
    for k in range(1, beol + 1):
        tag = ("power_grid",) if k > beol - power_grid else ("routing",)
        layers.append((f"M{k}", "BEOL", pitch(), rng.choice(PROCESS_IDS),
                       rng.choice(PROCESS_IDS), tag))
    return node, tuple(layers)


def routing_labels(layers):
    return [l[0] for l in layers if l[1] == "BEOL" and "power_grid" not in l[5]]


def random_blocks(rng, labels, count):
    """SoC blocks whose overhead tables cover every label below their need."""
    blocks = []
    for i in range(count):
        need = rng.randrange(len(labels))
        overhead = {labels[j]: round(rng.uniform(1.0, 1.8), 3) for j in range(need)}
        blocks.append((f"blk{i}", round(rng.uniform(0.01, 0.8), 4), labels[need], overhead))
    return blocks


def random_design(rng):
    return round(rng.uniform(0.05, 2.0), 4), round(rng.uniform(0.5, 1.0), 4)


# ---------------------------------------------------------------------------
# explore_batch


def explore_stream(seed, per_depth=20):
    """Cases without end, one per op, never the same stack twice: a stack,
    a design, carbon with or without a band, a preset to compare against,
    SoC blocks and an SoC target.

    Cases come in blocks, shuffled within the block, in which every BEOL
    depth 3-20 appears ``per_depth`` times with the same spread of
    FEOL/MOL/power-grid counts and block counts; half the cases of each
    depth carry a carbon band.
    """
    rng = random.Random(seed)
    presets = tuple(reference.PRESETS)
    for b in itertools.count():
        block = []
        for depth in BEOL_DEPTHS:
            for j in range(per_depth):
                node, layers = random_stack(rng, f"gen-{b}-{depth}-{j}", **shape(j, depth))
                labels = routing_labels(layers)
                block.append({
                    "node": node,
                    "layers": layers,
                    "targets": labels,
                    "design": random_design(rng),
                    "band": CI_BAND if (j // 10) % 2 == 0 else None,
                    "preset": presets[j % 3],
                    "blocks": random_blocks(rng, labels, 2 + j % 4),
                    "soc_target": rng.choice(labels),
                })
        rng.shuffle(block)
        yield from block


def explore_props(case):
    """What the input mix records of one case; small, so a run can keep one
    for every op."""
    return {"key": hash((case["node"], case["layers"])),
            "beol": sum(1 for l in case["layers"] if l[1] == "BEOL"),
            "targets": len(case["targets"]), "blocks": len(case["blocks"]),
            "band": case["band"] is not None}


def explore_mix(props):
    n = len(props)
    return {
        "cases": n,
        "repeat_factor": n / len({p["key"] for p in props}),
        "beol_depth_hist": _hist(p["beol"] for p in props),
        "targets_per_sweep_hist": _hist(p["targets"] for p in props),
        "soc_blocks_hist": _hist(p["blocks"] for p in props),
        "carbon_band_share": sum(p["band"] for p in props) / n,
    }


def _hist(values):
    return {str(k): v for k, v in sorted(Counter(values).items())}


# ---------------------------------------------------------------------------
# cli_oneshot

SHIPPED = "configs/"
CARBON_FILE = SHIPPED + "carbon_profile_example.json"


def cli_argv(rng, command, fmt):
    """One pfasfab argument list over the presets and the shipped configs."""
    presets = tuple(reference.PRESETS)
    carbon = ["--carbon-profile", CARBON_FILE] if rng.random() < 0.5 else []
    if command == "analyze":
        area, yld = random_design(rng)
        args = rng.choice((
            ["--stack", rng.choice(presets), "--area", str(area), "--yield", str(yld)],
            ["--config", SHIPPED + "analyze_asap7.json"],
            ["--config", SHIPPED + "custom_stack_example.json"],
        )) + carbon
    elif command == "compare":
        args = rng.choice(([rng.choice(presets), rng.choice(presets)],
                           ["--config", SHIPPED + "compare_n7.json"]))
    elif command == "sweep":
        if rng.random() < 0.3:
            args = ["--config", SHIPPED + "sweep_asap7.json"]
        else:
            targets = rng.sample([f"M{k}" for k in range(1, 8)], rng.randint(1, 4))
            area, yld = random_design(rng)
            args = ["--stack", rng.choice(presets), "--targets", ",".join(targets),
                    "--area", str(area), "--yield", str(yld)] + carbon
            if rng.random() < 0.5:
                args.append("--retain-power-grid")
    elif command == "soc":
        args = ["--config", SHIPPED + "soc_trainer.json"] + carbon
        if rng.random() < 0.5:
            args += ["--stack", rng.choice(presets)]
        if rng.random() < 0.5:
            args += ["--target", rng.choice(("M4", "M7"))]
    elif command == "trend":
        args = ["--config", SHIPPED + "trend_nodes.json"]
        if rng.random() < 0.5:
            args += ["--ref", rng.choice(("28nm", "14nm", "7nm"))]
    else:
        args = []
    return [command] + args + ["--format", fmt]


def cli_rounds(seed, rounds):
    """``rounds`` shuffled rounds of every subcommand x format pair."""
    rng = random.Random(seed)
    combos = [(c, f) for c in COMMANDS + ("export-catalog",) for f in FORMATS]
    calls = []
    for _ in range(rounds):
        rng.shuffle(combos)
        calls.extend(cli_argv(rng, c, f) for c, f in combos)
    return calls


def cli_mix(calls):
    return {
        "calls": len(calls),
        "repeat_factor": len(calls) / len({tuple(a) for a in calls}),
        "command_format": _hist(f"{a[0]}/{a[-1]}" for a in calls),
        "uses_config_share": sum("--config" in a for a in calls) / len(calls),
        "carbon_profile_share": sum("--carbon-profile" in a for a in calls) / len(calls),
    }


# ---------------------------------------------------------------------------
# config_ingest

MUTATIONS = ("wrong_type", "missing_key", "unknown_process", "out_of_range",
             "unknown_key_strict", "bad_json", "nonfinite", "huge_int")
HUGE_INT = int("9" * 400)


def _inline(node, layers):
    doc_layers = []
    for name, region, pitch, metal, via, tags in layers:
        layer = {"name": name, "region": region}
        if pitch is not None:
            layer["pitch_nm"] = pitch
        if metal is not None:
            layer["metal_process"] = metal
        if via is not None:
            layer["via_process"] = via
        if tags:
            layer["tags"] = list(tags)
        doc_layers.append(layer)
    return {"schema_version": "1", "technology_node": node, "layers": doc_layers}


def _stack_value(rng, k, inline):
    if not inline:
        return tuple(reference.PRESETS)[k % 3]
    depth = BEOL_DEPTHS[(5 * k) % len(BEOL_DEPTHS)]
    return _inline(*random_stack(rng, f"doc-{k}", **shape(k, depth)))


def _fab(rng, band, k):
    fab = {}
    if k % 3 == 0:
        fab["energy_weights"] = {"per_euv_mask": rng.choice((10.0, 8.0, 12.5)),
                                 "per_duv_mask": rng.choice((1.0, 1.5))}
    fab["carbon"] = {k: round(v * rng.uniform(0.5, 1.5), 4) for k, v in CARBON_PROFILE.items()}
    if band:
        fab["ci_band"] = {"low": CI_BAND[0], "high": CI_BAND[1]}
    return fab


def valid_doc(rng, command, k, inline, band):
    """A valid config document for ``command``; ``k`` fixes its structure
    (stack depth and layer counts, targets, blocks, series length)."""
    doc = {"schema_version": "1"}
    if command == "compare":
        doc["compare"] = {"stack_a": _stack_value(rng, k, inline),
                          "stack_b": _stack_value(rng, k + 1, k % 2 == 0)}
        if k % 3 == 0:
            doc["fab"] = {"energy_weights": {"per_euv_mask": 12.0, "per_duv_mask": 1.0}}
        return doc
    if command == "trend":
        nodes = rng.sample(["180nm", "90nm", "65nm", "45nm", "28nm", "16nm", "14nm",
                            "10nm", "7nm", "5nm", "3nm"], 3 + k % 6)
        doc["trend"] = {"series": [[n, round(rng.uniform(5, 60), 2)] for n in nodes],
                        "reference": rng.choice(nodes)}
        return doc
    doc["stack"] = _stack_value(rng, k, inline)
    doc["design"] = dict(zip(("area_cm2", "yield"), random_design(rng)))
    if command != "soc" or k % 2 == 0:
        doc["fab"] = _fab(rng, band, k)
    labels = routing_labels(reference.stack_of(doc["stack"])[1])
    if command == "sweep":
        retain = k % 2 == 0
        doc["sweep"] = {"targets": rng.sample(labels, min(1 + k % 4, len(labels))),
                        "retain_power_grid": retain,
                        "beol_only": not retain and k % 4 == 1}
    elif command == "soc":
        doc["soc"] = {
            "blocks": [{"name": n, "area_cm2": a, "required_top": r, "area_overhead": o}
                       for n, a, r, o in random_blocks(rng, labels, 2 + k % 4)],
            "target_top": rng.choice(labels),
            "retain_power_grid": k % 3 != 0,
        }
    return doc


def path_str(parts):
    out = ""
    for part in parts:
        out += f"[{part}]" if isinstance(part, int) else (f".{part}" if out else part)
    return out


def _set(doc, parts, value):
    node = doc
    for part in parts[:-1]:
        node = node[part]
    node[parts[-1]] = value


def _layer_slot(rng, doc, key):
    """Path to ``key`` of a random layer of the document's inline stack."""
    layers = doc["stack"]["layers"]
    i = rng.randrange(len(layers))
    return ["stack", "layers", i, key]


# kind -> (commands whose documents it can target, needs an inline stack)
_TARGETS = {
    "wrong_type": (("analyze", "sweep", "soc", "trend"), False),
    "missing_key": (("analyze", "soc", "trend"), False),
    "unknown_process": (("analyze", "sweep", "soc"), True),
    "out_of_range": (("analyze", "sweep", "soc"), False),
    "unknown_key_strict": (("analyze", "sweep", "soc"), True),
    "bad_json": (COMMANDS, False),
    "nonfinite": (("analyze", "sweep", "soc"), True),
    "huge_int": (("analyze", "sweep", "soc"), False),
}


def mutate(rng, kind, command, doc):
    """Apply one mutation. Returns (text, strict, expected error location).

    The location is the path of the bad field, or ``line`` for a JSON
    syntax error; a correct rejection names it or a path that contains it.
    """
    strict = False
    if kind == "wrong_type":
        parts, value = {
            "analyze": (["design", "area_cm2"], "1.0"),
            "sweep": (["sweep", "retain_power_grid"], "yes"),
            "soc": (["soc", "blocks", 0, "area_cm2"], "0.5"),
            "trend": (["trend", "reference"], 7),
        }[command]
        _set(doc, parts, value)
    elif kind == "missing_key":
        parts = {"analyze": ["design", "yield"], "soc": ["soc", "target_top"],
                 "trend": ["trend", "series"]}[command]
        del doc[parts[0]][parts[1]]
    elif kind == "unknown_process":
        parts = _layer_slot(rng, doc, rng.choice(("metal_process", "via_process")))
        _set(doc, parts, "EUV_LE9")
    elif kind == "out_of_range":
        parts, value = rng.choice((
            (["design", "yield"], 1.5),
            (["design", "area_cm2"], -1.0),
            (["fab", "carbon", "gas_per_area"], -0.3),
        ))
        doc.setdefault("fab", _fab(rng, False, 1))
        _set(doc, parts, value)
    elif kind == "unknown_key_strict":
        parts = rng.choice((["design", "area_mm2"], _layer_slot(rng, doc, "colour")))
        _set(doc, parts, 1)
        strict = True
    elif kind == "nonfinite":
        parts = _layer_slot(rng, doc, "pitch_nm")
        _set(doc, parts, float("inf"))
    elif kind == "huge_int":
        parts = rng.choice((["design", "area_cm2"], ["fab", "carbon", "energy_per_area_base"]))
        doc.setdefault("fab", _fab(rng, False, 1))
        _set(doc, parts, HUGE_INT)
    text = json.dumps(doc, indent=2)
    if kind == "bad_json":
        cut = text.rindex("}")
        text = rng.choice((text[:cut], text[:cut] + ",}", text.replace('":', '"=', 1)))
        return text, strict, "line"
    return text, strict, path_str(parts)


def config_stream(seed):
    """Documents without end, in blocks of 40: 32 valid, and one of each of
    the eight mutation kinds, in seeded order within the block. Inline
    stacks are named after their document, so none repeats. The commands,
    formats, stack shapes and flags of a block depend on its index only.

    Returns dicts with the document text, the strict flag, the decoded
    valid document (None when malformed), the location a rejection must
    name, and the document's mix properties.
    """
    rng = random.Random(seed)
    for b in itertools.count():
        specs = [("valid", COMMANDS[i % 5], FORMATS[(i // 5 + b) % 3],
                  (i // 5 + b) % 5 < 3, (i // 5) % 2 == 0, (i // 15 + b) % 3 == 0)
                 for i in range(32)]
        for m, kind in enumerate(MUTATIONS):
            commands, inline = _TARGETS[kind]
            specs.append((kind, commands[(b + m) % len(commands)], FORMATS[(b + m) % 3],
                          inline or (b + m) % 5 < 3, m % 2 == 0, False))
        block = []
        for i, (kind, command, fmt, inline, band, strict) in enumerate(specs):
            doc = valid_doc(rng, command, 40 * b + i, inline, band)
            entry = {"kind": kind, "command": command, "format": fmt,
                     "band": band and "ci_band" in doc.get("fab", {}),
                     "inline": inline}
            if kind == "valid":
                entry.update(text=json.dumps(doc, indent=2), strict=strict, doc=doc, where=None)
            else:
                text, strict, where = mutate(rng, kind, command, copy.deepcopy(doc))
                entry.update(text=text, strict=strict, doc=None, where=where)
            block.append(entry)
        rng.shuffle(block)
        yield from block


def config_props(doc):
    """What the input mix records of one document."""
    props = {k: doc[k] for k in ("kind", "command", "format", "band", "inline", "strict")}
    props["key"] = hash(doc["text"])
    return props


def config_mix(props):
    n = len(props)

    def share(key):
        return {k: v / n for k, v in sorted(Counter(p[key] for p in props).items())}

    return {
        "docs": n,
        "repeat_factor": n / len({p["key"] for p in props}),
        "kind_share": share("kind"),
        "command_share": share("command"),
        "format_share": share("format"),
        "carbon_band_share": sum(p["band"] for p in props) / n,
        "inline_stack_share": sum(p["inline"] for p in props) / n,
        "strict_share": sum(p["strict"] for p in props) / n,
    }
