"""Read the figures back out of the program's output and compare them with
the reference model.

Each ``*_figures`` function returns a flat dict with the keys that
``reference.py`` produces. ``mismatches`` compares two such dicts;
``required`` names the keys an output must contain so that a report with
rows missing cannot pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

from reference import EXPOSURES, REGIONS, STEP_KEYS

REL_TOL = {"json": 1e-9, "csv": 1e-9, "table": 1e-5, "object": 1e-9}


class OutputError(Exception):
    """The output is not in the form its format promises."""


def _reject_constant(name):
    raise OutputError(f"JSON output holds the non-standard literal {name}")


def parse_json(text):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputError(f"output is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# JSON reports


def _summary(d, prefix=""):
    fig = {prefix + "pfas": d["total_pfas_layers"], prefix + "euv": d["euv_masks"],
           prefix + "duv": d["duv_masks"], prefix + "fab_steps": d["total_fab_steps"],
           prefix + "litho_steps": d["total_litho_steps"],
           prefix + "energy": d["total_litho_energy"]}
    for region in REGIONS:
        fig[f"{prefix}pfas.{region}"] = d["by_region"][region]
    for exposure in EXPOSURES:
        fig[f"{prefix}exp.{exposure}"] = d["by_exposure"][exposure]
    for key in STEP_KEYS:
        fig[f"{prefix}steps.{key}"] = d["total_steps"][key]
    return fig


def _carbon(fig, prefix, d):
    fig[prefix] = d and d["embodied_kg"]
    fig[prefix + ".low"] = d and d["low_kg"]
    fig[prefix + ".high"] = d and d["high_kg"]


def _json_figures(command, report):
    if command == "export-catalog":
        fig = {}
        for p in report["processes"]:
            fig[f"proc.{p['id']}.masks"] = p["masks"]
            fig[f"proc.{p['id']}.exposure"] = p["exposure"]
            for key in STEP_KEYS:
                fig[f"proc.{p['id']}.{key}"] = p["steps"][key]
        return fig
    r = report["result"]
    if command == "analyze":
        sm = r["stack_metrics"]
        fig = _summary(sm)
        fig["node"] = sm["technology_node"]
        for pl in sm["per_layer"]:
            name = pl["name"]
            fig[f"L.{name}.masks"] = pl["masks"]
            fig[f"L.{name}.litho"] = pl["litho_steps"]
            fig[f"L.{name}.energy"] = pl["litho_energy"]
            for key in STEP_KEYS:
                fig[f"L.{name}.{key}"] = pl["steps"][key]
        if r["chip_pfas"] is not None:
            fig["chip"] = r["chip_pfas"]["value"]
        _carbon(fig, "carbon", r["carbon"])
        return fig
    if command == "compare":
        fig = {**_summary(r["a"], "a."), **_summary(r["b"], "b.")}
        fig["a.node"], fig["b.node"] = r["a"]["technology_node"], r["b"]["technology_node"]
        for key, src in (("pfas", "ratio_pfas"), ("litho_steps", "ratio_litho_steps"),
                         ("fab_steps", "ratio_total_steps"), ("energy", "ratio_energy")):
            fig[f"ratio.{key}"] = r[src]
        for region in REGIONS:
            fig[f"ratio.pfas.{region}"] = r["pfas_ratio_by_region"][region]
        fig["reduction"] = r["percent_reduction"]
        return fig
    if command == "sweep":
        fig = {"points": len(r["points"])}
        for i, p in enumerate(r["points"]):
            fig[f"p{i}.label"] = p["top_routing_layer"]
            fig.update(_summary(p["metrics"], f"p{i}."))
            fig[f"p{i}.chip"] = p["chip_pfas"] and p["chip_pfas"]["value"]
            _carbon(fig, f"p{i}.carbon", p["carbon"])
        return fig
    if command == "soc":
        fig = {}
        for b in r["blocks"]:
            fig[f"blk.{b['name']}.factor"] = b["overhead_factor"]
            fig[f"blk.{b['name']}.area"] = b["baseline_area_cm2"]
            fig[f"blk.{b['name']}.constrained"] = b["constrained_area_cm2"]
        for side, src in (("base", "baseline"), ("cons", "constrained")):
            fig[f"area.{side}"] = r[src]["area_cm2"]
            fig[f"pfas.{side}"] = r[src]["metrics"]["total_pfas_layers"]
            fig[f"energy.{side}"] = r[src]["metrics"]["total_litho_energy"]
            fig[f"chip.{side}"] = r[src]["chip_pfas"]["value"]
            _carbon(fig, f"carbon.{side}", r[src]["carbon"])
        fig["area_increase"] = r["area_increase"]
        fig["ratio.pfas"] = r["pfas_layer_ratio"]
        fig["ratio.chip"] = r["chip_pfas_ratio"]
        return fig
    if command == "trend":
        fig = {}
        for p in r["points"]:
            fig[f"n.{p['node']}.value"] = p["value"]
            fig[f"n.{p['node']}.norm"] = p["normalized"]
        return fig
    raise ValueError(command)


# ---------------------------------------------------------------------------
# CSV reports


def _csv(text):
    return list(csv.reader(io.StringIO(text)))


# compare report row name -> figure key
_COMPARE_ROWS = {"pfas_layers": "pfas", "litho_steps": "litho_steps", "fab_steps": "fab_steps",
                 "litho_energy": "energy", **{f"pfas_{r}": f"pfas.{r}" for r in REGIONS}}


def _cell(value):
    return None if value == "" else value


def _csv_figures(command, text):
    if command == "soc":
        head, sep, tail = text.partition("metric,baseline,constrained\n")
        if not sep:
            raise OutputError("soc CSV lacks its summary table")
        rows, summary = _csv(head)[1:], {r[0]: r[1:] for r in _csv(tail)}
        fig = {}
        for name, _, area, factor, constrained in rows[:-1]:
            fig[f"blk.{name}.factor"] = factor
            fig[f"blk.{name}.area"] = area
            fig[f"blk.{name}.constrained"] = constrained
        fig["area.base"], fig["area.cons"] = rows[-1][2], rows[-1][4]
        for key, src in (("pfas", "pfas_layers"), ("chip", "chip_pfas")):
            fig[f"{key}.base"], fig[f"{key}.cons"] = summary[src]
        fig["area_increase"] = summary["area_increase"][1]
        fig["ratio.pfas"] = _cell(summary["pfas_layer_ratio"][1])
        fig["ratio.chip"] = _cell(summary["chip_pfas_ratio"][1])
        return fig
    header, *rows = _csv(text)
    rows = [dict(zip(header, (_cell(c) for c in row))) for row in rows]
    fig = {}
    if command == "export-catalog":
        for row in rows:
            fig[f"proc.{row['id']}.masks"] = row["masks"]
            fig[f"proc.{row['id']}.exposure"] = row["exposure"]
            for key in STEP_KEYS:
                fig[f"proc.{row['id']}.{key}"] = row[key]
    elif command == "analyze":
        *layers, total = rows
        for row in layers:
            name = row["name"]
            fig[f"L.{name}.masks"] = row["masks"]
            fig[f"L.{name}.litho"] = row["litho_steps"]
            fig[f"L.{name}.energy"] = row["litho_energy"]
            for key in STEP_KEYS:
                fig[f"L.{name}.{key}"] = row[key]
            if row["pfas_layers"] != row["masks"]:
                raise OutputError(f"layer {name}: pfas_layers differs from masks")
        for key in STEP_KEYS:
            fig[f"steps.{key}"] = total[key]
        fig["pfas"] = total["pfas_layers"]
        fig["litho_steps"] = total["litho_steps"]
        fig["energy"] = total["litho_energy"]
        if total["masks"] != total["pfas_layers"]:
            raise OutputError("TOTAL masks differs from TOTAL pfas_layers")
    elif command == "compare":
        for row in rows:
            if row["metric"] == "percent_reduction":
                fig["reduction"] = row["ratio_a_over_b"]
                continue
            key = _COMPARE_ROWS[row["metric"]]
            fig[f"a.{key}"], fig[f"b.{key}"] = row["a"], row["b"]
            fig[f"ratio.{key}"] = row["ratio_a_over_b"]
    elif command == "sweep":
        fig.update(_sweep_rows([list(r.values()) for r in rows]))
    elif command == "trend":
        for row in rows:
            fig[f"n.{row['node']}.value"] = row["value"]
            fig[f"n.{row['node']}.norm"] = row["normalized"]
    return fig


def _sweep_rows(rows):
    fig = {"points": len(rows)}
    keys = ("label", "pfas", "pfas.BEOL", "litho_steps", "energy", "chip",
            "carbon", "carbon.low", "carbon.high")
    for i, row in enumerate(rows):
        if len(row) != len(keys):
            raise OutputError(f"sweep row {i} has {len(row)} cells")
        for key, value in zip(keys, row):
            fig[f"p{i}.{key}"] = value
    return fig


# ---------------------------------------------------------------------------
# Human tables


def _table_rows(lines, start):
    """Whitespace-split body rows of the table whose header is lines[start];
    the table ends at the first line without one cell per column."""
    columns = len(lines[start + 1].split())
    rows = []
    for line in lines[start + 2:]:
        if len(line.split()) != columns:
            break
        rows.append([None if t == "-" else t for t in line.split()])
    return rows


def _find(lines, prefix):
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            return i
    raise OutputError(f"table output lacks a line starting {prefix!r}")


def _match(pattern, text):
    m = re.search(pattern, text, re.M)
    if m is None:
        raise OutputError(f"table output lacks {pattern!r}")
    return m.groups()


_NUM = r"(\S+)"
_BAND = rf"(?:  \(band {_NUM} to {_NUM}\))?"


def _table_figures(command, text):
    lines = text.split("\n")
    fig = {}
    if command == "export-catalog":
        for pid, exposure, masks, *counts in _table_rows(lines, _find(lines, "id ")):
            fig[f"proc.{pid}.masks"] = masks
            fig[f"proc.{pid}.exposure"] = exposure
            for key, count in zip(STEP_KEYS, counts):
                fig[f"proc.{pid}.{key}"] = count
    elif command == "analyze":
        *layers, total = _table_rows(lines, _find(lines, "Layer "))
        for name, *_, litho, energy, pfas in layers:
            fig[f"L.{name}.litho"], fig[f"L.{name}.energy"] = litho, energy
            fig[f"L.{name}.masks"] = pfas
        fig["litho_steps"], fig["energy"], fig["pfas"] = total[-3:]
        (fig["pfas.FEOL"], fig["pfas.MOL"], fig["pfas.BEOL"], total_pfas) = _match(
            r"^PFAS layers by region: FEOL (\d+), MOL (\d+), BEOL (\d+)  \(total (\d+)\)$", text)
        if total_pfas != fig["pfas"]:
            raise OutputError("region line total differs from the TOTAL row")
        fig["euv"], fig["duv"] = _match(r"^Masks by exposure: EUV (\d+), DUV (\d+)$", text)
        (fig["fab_steps"],) = _match(r"^Total fab steps: (\d+)$", text)
        (fig["chip"],) = _match(rf"^Chip PFAS proxy: {_NUM} ", text)
        if "Embodied carbon" in text:
            fig["carbon"], fig["carbon.low"], fig["carbon.high"] = _match(
                rf"^Embodied carbon: {_NUM} kg CO2e{_BAND}$", text)
        else:
            fig["carbon"] = fig["carbon.low"] = fig["carbon.high"] = None
    elif command == "compare":
        fig["a.node"], fig["b.node"] = _match(r"^Compare a=(\S+) vs b=(\S+)$", text)
        for metric, a, b, ratio in _table_rows(lines, _find(lines, "Metric ")):
            key = _COMPARE_ROWS[metric]
            fig[f"a.{key}"], fig[f"b.{key}"], fig[f"ratio.{key}"] = a, b, ratio
        (reduction,) = _match(r"^PFAS reduction \(a to b\): (\S+)", text)
        fig["reduction"] = None if reduction == "-" else reduction
    elif command == "sweep":
        fig.update(_sweep_rows(_table_rows(lines, _find(lines, "top_routing_layer "))))
    elif command == "soc":
        for name, _, area, factor, constrained in _table_rows(lines, _find(lines, "Block ")):
            fig[f"blk.{name}.factor"] = factor
            fig[f"blk.{name}.area"] = area
            fig[f"blk.{name}.constrained"] = constrained
        fig["area.base"], fig["area.cons"] = _match(r"^Total area: (\S+) -> (\S+) cm\^2", text)
        fig["pfas.base"], fig["pfas.cons"], fig["ratio.pfas"] = _match(
            r"^PFAS layers: (\S+) -> (\S+) \(ratio (\S+)\)$", text)
        fig["chip.base"], fig["chip.cons"], fig["ratio.chip"] = _match(
            r"^Chip PFAS proxy: (\S+) -> (\S+) \S+ \(ratio (\S+)\)$", text)
        for side, word in (("base", "baseline"), ("cons", "constrained")):
            if f"Embodied carbon ({word})" in text:
                (fig[f"carbon.{side}"], fig[f"carbon.{side}.low"],
                 fig[f"carbon.{side}.high"]) = _match(
                    rf"^Embodied carbon \({word}\): {_NUM} kg CO2e{_BAND}$", text)
            else:
                fig[f"carbon.{side}"] = None
        for key in ("ratio.pfas", "ratio.chip"):
            fig[key] = None if fig[key] == "-" else fig[key]
    elif command == "trend":
        for node, value, norm in _table_rows(lines, _find(lines, "Node ")):
            fig[f"n.{node}.value"], fig[f"n.{node}.norm"] = value, norm
    return fig


def figures(command, fmt, text):
    """Figures shown by one rendered report."""
    try:
        if fmt == "json":
            return _json_figures(command, parse_json(text))
        if fmt == "csv":
            return _csv_figures(command, text)
        return _table_figures(command, text)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise OutputError(f"cannot read {command} {fmt} output: {exc!r}") from None


# ---------------------------------------------------------------------------
# Library results (explore_batch)


def metrics_summary(m, prefix):
    fig = {prefix + "pfas": m.total_pfas_layers, prefix + "euv": m.euv_masks,
           prefix + "duv": m.duv_masks, prefix + "fab_steps": m.total_steps.total(),
           prefix + "litho_steps": m.total_steps.litho,
           prefix + "energy": m.total_litho_energy}
    for region, count in m.by_region.items():
        fig[f"{prefix}pfas.{region.value}"] = count
    for exposure, count in m.by_exposure.items():
        fig[f"{prefix}exp.{exposure.value}"] = count
    for key, count in m.total_steps.as_dict().items():
        fig[f"{prefix}steps.{key}"] = count
    return fig


def _carbon_obj(fig, prefix, c):
    fig[prefix] = c and c.embodied_kg
    fig[prefix + ".low"] = c and c.low_kg
    fig[prefix + ".high"] = c and c.high_kg


def sweep_object_figures(points):
    fig = {"points": len(points)}
    for i, p in enumerate(points):
        fig[f"p{i}.label"] = p.top_routing_layer
        fig.update(metrics_summary(p.metrics, f"p{i}."))
        fig[f"p{i}.chip"] = p.chip and p.chip.value
        _carbon_obj(fig, f"p{i}.carbon", p.carbon)
    return fig


def compare_object_figures(c):
    fig = {**metrics_summary(c.metrics_a, "a."), **metrics_summary(c.metrics_b, "b.")}
    fig["a.node"], fig["b.node"] = c.metrics_a.technology_node, c.metrics_b.technology_node
    fig["ratio.pfas"] = c.ratio_pfas
    fig["ratio.litho_steps"] = c.ratio_litho_steps
    fig["ratio.fab_steps"] = c.ratio_total_steps
    fig["ratio.energy"] = c.ratio_energy
    for region, ratio in c.pfas_ratio_by_region.items():
        fig[f"ratio.pfas.{region.value}"] = ratio
    fig["reduction"] = c.percent_reduction
    return fig


def soc_object_figures(s):
    fig = {}
    for r in s.blocks:
        fig[f"blk.{r.block.name}.factor"] = r.overhead_factor
        fig[f"blk.{r.block.name}.area"] = r.block.baseline_area_cm2
        fig[f"blk.{r.block.name}.constrained"] = r.constrained_area_cm2
    fig["area.base"], fig["area.cons"] = s.baseline_area_cm2, s.constrained_area_cm2
    fig["area_increase"] = s.area_increase
    fig["pfas.base"] = s.baseline_metrics.total_pfas_layers
    fig["pfas.cons"] = s.constrained_metrics.total_pfas_layers
    fig["energy.base"] = s.baseline_metrics.total_litho_energy
    fig["energy.cons"] = s.constrained_metrics.total_litho_energy
    fig["chip.base"], fig["chip.cons"] = s.baseline_chip.value, s.constrained_chip.value
    _carbon_obj(fig, "carbon.base", s.baseline_carbon)
    _carbon_obj(fig, "carbon.cons", s.constrained_carbon)
    fig["ratio.pfas"], fig["ratio.chip"] = s.pfas_layer_ratio, s.chip_pfas_ratio
    return fig


# ---------------------------------------------------------------------------
# Comparison


def required(command, expected):
    """Keys every format of ``command`` must show."""
    if command == "analyze":
        keys = {"pfas", "litho_steps", "energy"}
        keys.update(k for k in expected if k.startswith("L.") and k.endswith(".masks"))
        return keys
    if command == "compare":
        return {"a.pfas", "b.pfas", "ratio.pfas", "reduction", "a.energy", "b.energy"}
    if command == "sweep":
        return {f"p{i}.{k}" for i in range(expected["points"])
                for k in ("label", "pfas", "energy", "litho_steps")}
    if command == "soc":
        keys = {"pfas.base", "pfas.cons", "chip.base", "chip.cons", "area.base", "area.cons"}
        keys.update(k for k in expected if k.startswith("blk.") and k.endswith(".factor"))
        return keys
    if command == "trend":
        return {k for k in expected if k.endswith(".norm")}
    return {k for k in expected if k.endswith(".masks")}


def _same(want, got, rel):
    if want is None or got is None:
        return want is None and got is None
    if isinstance(want, str):
        return str(got) == want
    try:
        value = float(got)
    except (TypeError, ValueError):
        return False
    return math.isfinite(value) and math.isclose(value, want, rel_tol=rel, abs_tol=1e-12)


def mismatches(expected, got, rel, must_have=()):
    """Readable differences between two figure dicts; empty when they agree."""
    out = [f"{k}: missing" for k in sorted(set(must_have) - set(got))]
    for key, value in got.items():
        if key not in expected:
            out.append(f"{key}: not expected (got {value!r})")
        elif not _same(expected[key], value, rel):
            out.append(f"{key}: expected {expected[key]!r}, got {value!r}")
    return out


def check_report(command, fmt, text, expected):
    """Differences between a rendered report and the reference figures."""
    got = figures(command, fmt, text)
    return mismatches(expected, got, REL_TOL[fmt], required(command, expected))


def rejection_named(stderr, where):
    """True if an ``error: <location>: ...`` line names the bad field ``where``
    or a path that contains it (``line ...`` for JSON syntax errors)."""
    for line in stderr.splitlines():
        if not line.startswith("error: "):
            continue
        location = line[len("error: "):].split(": ", 1)[0]
        if where == "line":
            if location.startswith("line "):
                return True
        elif location and (where == location or where.startswith(location + ".")
                           or where.startswith(location + "[")):
            return True
    return False
