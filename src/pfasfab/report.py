"""Report assembly and rendering.

Reports are built as plain dicts with deterministic key order, then
rendered as JSON (machine, full precision), CSV (machine, per-layer rows
with a trailing totals row where applicable), or a human table (floats
shown to 6 significant digits). The same numbers back every format.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields

from . import __version__
from .carbon import CarbonResult
from .catalog import ExposureClass, ProcessCatalog, StepCounts
from .config import SCHEMA_VERSION, stack_to_dict
from .engine import ChipPfas, StackMetrics
from .scenarios import ComparisonResult, SocReport, SweepPoint, TrendSeries
from .stack import Region, StackSpec

PFAS_UNIT = "layer*cm^2"

# Human table headers for per-layer metrics.
_LAYER_HEADERS = ("Layer", "Region", "M_pitch", "Metal", "Via", "# Litho steps", "E_litho", "# PFAS_litho")

_STEP_KEYS = tuple(f.name for f in fields(StepCounts))


def metrics_to_dict(stack: StackSpec, metrics: StackMetrics) -> dict:
    summary = metrics_summary_dict(metrics)
    summary["per_layer"] = [
        {
            **layer,
            "litho_steps": lm.litho_steps,
            "litho_energy": lm.litho_energy,
            "masks": lm.masks,
            "pfas_layers": lm.pfas_layers,
            "steps": lm.total_steps.as_dict(),
        }
        for layer, lm in zip(stack_to_dict(stack)["layers"], metrics.per_layer)
    ]
    return summary


def metrics_summary_dict(metrics: StackMetrics) -> dict:
    return {
        "technology_node": metrics.technology_node,
        "total_pfas_layers": metrics.total_pfas_layers,
        "by_region": {r.value: metrics.by_region[r] for r in Region},
        "by_exposure": {e.value: metrics.by_exposure[e] for e in ExposureClass},
        "euv_masks": metrics.euv_masks,
        "duv_masks": metrics.duv_masks,
        "total_steps": metrics.total_steps.as_dict(),
        "total_fab_steps": metrics.total_steps.total(),
        "total_litho_steps": metrics.total_litho_steps,
        "total_litho_energy": metrics.total_litho_energy,
    }


def chip_to_dict(chip: ChipPfas | None) -> dict | None:
    if chip is None:
        return None
    return {
        "value": chip.value,
        "unit": PFAS_UNIT,
        "stack": chip.stack,
        "area_cm2": chip.area_cm2,
        "yield": chip.yield_fraction,
    }


def carbon_to_dict(result: CarbonResult | None) -> dict | None:
    if result is None:
        return None
    return {
        "embodied_kg": result.embodied_kg,
        "low_kg": result.low_kg,
        "high_kg": result.high_kg,
    }


def comparison_to_dict(cmp: ComparisonResult) -> dict:
    return {
        "a": metrics_summary_dict(cmp.metrics_a),
        "b": metrics_summary_dict(cmp.metrics_b),
        "ratio_pfas": cmp.ratio_pfas,
        "ratio_litho_steps": cmp.ratio_litho_steps,
        "ratio_total_steps": cmp.ratio_total_steps,
        "ratio_energy": cmp.ratio_energy,
        "pfas_ratio_by_region": {r.value: cmp.pfas_ratio_by_region[r] for r in Region},
        "percent_reduction": cmp.percent_reduction,
    }


def _figures_dict(metrics: StackMetrics, chip: ChipPfas | None, carbon: CarbonResult | None):
    """The figures of one stack variant: a sweep point or an SoC side."""
    return {
        "metrics": metrics_summary_dict(metrics),
        "chip_pfas": chip_to_dict(chip),
        "carbon": carbon_to_dict(carbon),
    }


def sweep_to_dict(points: list[SweepPoint], retain_power_grid: bool, beol_only: bool) -> dict:
    return {
        "retain_power_grid": retain_power_grid,
        "beol_only": beol_only,
        "points": [
            {"top_routing_layer": p.top_routing_layer, **_figures_dict(p.metrics, p.chip, p.carbon)}
            for p in points
        ],
    }


def soc_to_dict(report: SocReport) -> dict:
    return {
        "target_top": report.target_top,
        "retain_power_grid": report.retain_power_grid,
        "blocks": [
            {
                "name": r.block.name,
                "baseline_area_cm2": r.block.baseline_area_cm2,
                "required_top": r.block.required_top_layer,
                "overhead_factor": r.overhead_factor,
                "constrained_area_cm2": r.constrained_area_cm2,
            }
            for r in report.blocks
        ],
        "baseline": {
            "area_cm2": report.baseline_area_cm2,
            **_figures_dict(report.baseline_metrics, report.baseline_chip, report.baseline_carbon),
        },
        "constrained": {
            "area_cm2": report.constrained_area_cm2,
            **_figures_dict(
                report.constrained_metrics, report.constrained_chip, report.constrained_carbon
            ),
        },
        "area_increase": report.area_increase,
        "pfas_layer_ratio": report.pfas_layer_ratio,
        "chip_pfas_ratio": report.chip_pfas_ratio,
    }


def trend_to_dict(original: TrendSeries, normalized: TrendSeries) -> dict:
    values = dict(normalized.points)
    return {
        "reference": normalized.reference,
        "points": [
            {"node": node, "value": value, "normalized": values[node]}
            for node, value in original.points
        ],
    }


def catalog_to_dict(catalog: ProcessCatalog) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "kind": "process_catalog",
        "processes": [
            {
                "id": proc.id,
                "exposure": proc.exposure.value,
                "masks": proc.masks,
                "steps": proc.steps.as_dict(),
            }
            for proc in catalog
        ],
    }


def build_report(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "result": result,
    }


# ---------------------------------------------------------------------------
# Rendering


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _fmt_machine(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_human(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _table(headers, rows) -> str:
    cells = [tuple(_fmt_human(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def _csv_rows(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_fmt_machine(c) for c in row])
    return buf.getvalue()


_LAYER_KEYS = ("name", "region", "pitch_nm", "metal_process", "via_process")
_LAYER_FIGURES = ("litho_steps", "litho_energy", "pfas_layers")


def _layer_rows(metrics: dict, steps: bool):
    """One row per layer and a TOTAL row: the layer keys, then (when ``steps``)
    the step counts and masks, then the litho figures."""

    def counts(step_counts: dict, masks: int) -> list:
        return [step_counts[k] for k in _STEP_KEYS] + [masks] if steps else []

    rows = [
        [pl[k] for k in _LAYER_KEYS] + counts(pl["steps"], pl["masks"])
        + [pl[k] for k in _LAYER_FIGURES]
        for pl in metrics["per_layer"]
    ]
    total_masks = metrics["euv_masks"] + metrics["duv_masks"]
    rows.append(
        ["TOTAL", None, None, None, None] + counts(metrics["total_steps"], total_masks)
        + [metrics[f"total_{k}"] for k in _LAYER_FIGURES]
    )
    return rows


def _analyze_csv(report: dict) -> str:
    headers = (*_LAYER_KEYS, *_STEP_KEYS, "masks", *_LAYER_FIGURES)
    return _csv_rows(headers, _layer_rows(report["result"]["stack_metrics"], steps=True))


def _carbon_line(label: str, carbon: dict) -> str:
    line = f"{label}: {_fmt_human(carbon['embodied_kg'])} kg CO2e"
    if carbon["low_kg"] is not None:
        line += f"  (band {_fmt_human(carbon['low_kg'])} to {_fmt_human(carbon['high_kg'])})"
    return line


def _analyze_table(report: dict) -> str:
    result = report["result"]
    metrics = result["stack_metrics"]
    parts = [
        f"Stack {metrics['technology_node']}  ({len(metrics['per_layer'])} layers)",
        _table(_LAYER_HEADERS, _layer_rows(metrics, steps=False)),
        "",
        "PFAS layers by region: "
        + ", ".join(f"{r} {n}" for r, n in metrics["by_region"].items())
        + f"  (total {metrics['total_pfas_layers']})",
        f"Masks by exposure: EUV {metrics['euv_masks']}, DUV {metrics['duv_masks']}",
        f"Total fab steps: {metrics['total_fab_steps']}",
    ]
    chip = result.get("chip_pfas")
    if chip is not None:
        parts.append(
            f"Chip PFAS proxy: {_fmt_human(chip['value'])} {PFAS_UNIT}"
            f"  (area {_fmt_human(chip['area_cm2'])} cm^2, yield {_fmt_human(chip['yield'])})"
        )
    carbon = result.get("carbon")
    if carbon is not None:
        parts.append(_carbon_line("Embodied carbon", carbon))
    return "\n".join(parts) + "\n"


# (row label, summary key, ratio key); the per-region rows follow the first.
_COMPARE_ROWS = (
    ("pfas_layers", "total_pfas_layers", "ratio_pfas"),
    ("litho_steps", "total_litho_steps", "ratio_litho_steps"),
    ("fab_steps", "total_fab_steps", "ratio_total_steps"),
    ("litho_energy", "total_litho_energy", "ratio_energy"),
)


def _compare_rows(result: dict):
    a, b = result["a"], result["b"]
    rows = [(label, a[key], b[key], result[ratio]) for label, key, ratio in _COMPARE_ROWS]
    regions = [
        (f"pfas_{region}", a["by_region"][region], b["by_region"][region], ratio)
        for region, ratio in result["pfas_ratio_by_region"].items()
    ]
    return rows[:1] + regions + rows[1:]


def _compare_csv(report: dict) -> str:
    result = report["result"]
    rows = _compare_rows(result)
    rows.append(("percent_reduction", None, None, result["percent_reduction"]))
    return _csv_rows(("metric", "a", "b", "ratio_a_over_b"), rows)


def _compare_table(report: dict) -> str:
    result = report["result"]
    a, b = result["a"], result["b"]
    head = f"Compare a={a['technology_node']} vs b={b['technology_node']}"
    body = _table(("Metric", "A", "B", "A/B"), _compare_rows(result))
    reduction = result["percent_reduction"]
    tail = f"PFAS reduction (a to b): {_fmt_human(reduction)}"
    if reduction is not None:
        tail += f"  ({reduction * 100:.1f}%)"
    return "\n".join([head, body, tail]) + "\n"


def _sweep_rows(result: dict):
    rows = []
    for p in result["points"]:
        m, chip, carbon = p["metrics"], p["chip_pfas"], p["carbon"] or {}
        rows.append((
            p["top_routing_layer"], m["total_pfas_layers"], m["by_region"]["BEOL"],
            m["total_litho_steps"], m["total_litho_energy"], chip["value"] if chip else None,
            carbon.get("embodied_kg"), carbon.get("low_kg"), carbon.get("high_kg"),
        ))
    return rows


_SWEEP_HEADERS = (
    "top_routing_layer",
    "total_pfas_layers",
    "beol_pfas_layers",
    "litho_steps",
    "litho_energy",
    "chip_pfas",
    "embodied_kg",
    "embodied_low_kg",
    "embodied_high_kg",
)


def _sweep_csv(report: dict) -> str:
    return _csv_rows(_SWEEP_HEADERS, _sweep_rows(report["result"]))


def _sweep_table(report: dict) -> str:
    result = report["result"]
    mode = "power grid retained" if result["retain_power_grid"] else "power grid dropped"
    focus = " (routing BEOL focus)" if result["beol_only"] else ""
    head = f"BEOL reduction sweep, {mode}{focus}; first row is the baseline"
    return head + "\n" + _table(_SWEEP_HEADERS, _sweep_rows(result)) + "\n"


_SOC_BLOCK_KEYS = (
    "name", "required_top", "baseline_area_cm2", "overhead_factor", "constrained_area_cm2",
)


def _soc_block_rows(result: dict):
    return [tuple(r[k] for k in _SOC_BLOCK_KEYS) for r in result["blocks"]]


_SOC_SIDES = ("baseline", "constrained")


def _soc_csv(report: dict) -> str:
    result = report["result"]
    sides = [result[side] for side in _SOC_SIDES]
    rows = _soc_block_rows(result)
    rows.append(("TOTAL", result["target_top"], sides[0]["area_cm2"], None, sides[1]["area_cm2"]))
    summary = [
        ("pfas_layers", *[side["metrics"]["total_pfas_layers"] for side in sides]),
        ("chip_pfas", *[side["chip_pfas"]["value"] for side in sides]),
        ("area_cm2", *[side["area_cm2"] for side in sides]),
        *[(key, None, result[key]) for key in ("area_increase", "pfas_layer_ratio", "chip_pfas_ratio")],
    ]
    return (_csv_rows(("block", *_SOC_BLOCK_KEYS[1:]), rows)
            + _csv_rows(("metric", *_SOC_SIDES), summary))


def _soc_table(report: dict) -> str:
    result = report["result"]
    base, con = [result[side] for side in _SOC_SIDES]
    head = (
        f"SoC constrained to {result['target_top']} "
        f"({'power grid retained' if result['retain_power_grid'] else 'power grid dropped'})"
    )
    blocks = _table(
        ("Block", "Required", "Area cm^2", "Overhead", "Constrained cm^2"), _soc_block_rows(result)
    )
    summary = [
        f"Total area: {_fmt_human(base['area_cm2'])} -> {_fmt_human(con['area_cm2'])} cm^2 "
        f"({result['area_increase'] * 100:.2f}% increase)",
        f"PFAS layers: {base['metrics']['total_pfas_layers']} -> "
        f"{con['metrics']['total_pfas_layers']} (ratio {_fmt_human(result['pfas_layer_ratio'])})",
        f"Chip PFAS proxy: {_fmt_human(base['chip_pfas']['value'])} -> "
        f"{_fmt_human(con['chip_pfas']['value'])} {PFAS_UNIT} "
        f"(ratio {_fmt_human(result['chip_pfas_ratio'])})",
    ]
    for side in _SOC_SIDES:
        carbon = result[side]["carbon"]
        if carbon is not None:
            summary.append(_carbon_line(f"Embodied carbon ({side})", carbon))
    return "\n".join([head, blocks, ""] + summary) + "\n"


def _trend_rows(result: dict):
    return [(p["node"], p["value"], p["normalized"]) for p in result["points"]]


def _trend_csv(report: dict) -> str:
    return _csv_rows(("node", "value", "normalized"), _trend_rows(report["result"]))


def _trend_table(report: dict) -> str:
    result = report["result"]
    head = f"Trend normalized to {result['reference']}"
    return head + "\n" + _table(("Node", "Value", "Normalized"), _trend_rows(result)) + "\n"


def _catalog_rows(result: dict):
    return [
        (
            p["id"],
            p["exposure"],
            p["masks"],
            *[p["steps"][k] for k in _STEP_KEYS],
        )
        for p in result["processes"]
    ]


_CATALOG_HEADERS = ("id", "exposure", "masks", *_STEP_KEYS)


def _catalog_csv(report: dict) -> str:
    return _csv_rows(_CATALOG_HEADERS, _catalog_rows(report))


def _catalog_table(report: dict) -> str:
    return (
        "Patterning process catalog\n"
        + _table(_CATALOG_HEADERS, _catalog_rows(report))
        + "\n"
    )


# Command -> (CSV renderer, table renderer).
_RENDERERS = {
    "analyze": (_analyze_csv, _analyze_table),
    "compare": (_compare_csv, _compare_table),
    "sweep": (_sweep_csv, _sweep_table),
    "soc": (_soc_csv, _soc_table),
    "trend": (_trend_csv, _trend_table),
    "process_catalog": (_catalog_csv, _catalog_table),
}


def render(report: dict, fmt: str) -> str:
    """Render a report dict as json, csv, or a human table."""
    if fmt == "json":
        return render_json(report)
    command = report.get("command") or report.get("kind")
    if fmt == "csv":
        return _RENDERERS[command][0](report)
    if fmt == "table":
        return _RENDERERS[command][1](report)
    raise ValueError(f"unknown format {fmt!r}")
