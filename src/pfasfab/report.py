"""Report assembly and rendering.

Reports are built as plain dicts with deterministic key order, then
rendered as JSON (machine, full precision), CSV (machine, per-layer rows
with a trailing totals row where applicable), or a human table (floats
shown to 6 significant digits). The same numbers back every format: each
command has one view, its text lines and grids in output order, and the
CSV and table renderers both read it.
"""

from __future__ import annotations

import io
import json
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .catalog import STEP_FIELDS, ExposureClass, ProcessCatalog
from .stack import Region
from .value import SCHEMA_VERSION

if TYPE_CHECKING:
    from .carbon import CarbonResult
    from .engine import ChipPfas, StackMetrics
    from .scenarios import ComparisonResult, SocReport, SweepPoint, TrendSeries

PFAS_UNIT = "layer*cm^2"


def metrics_to_dict(layers: list[dict], metrics: StackMetrics) -> dict:
    """The summary of ``metrics`` with a row per layer: the layer as the
    stack echo writes it (``layers``, from ``stack_to_dict``), then its
    figures."""
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
        for layer, lm in zip(layers, metrics.per_layer)
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
    return {"embodied_kg": result.embodied_kg, "low_kg": result.low_kg, "high_kg": result.high_kg}


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
    cells = [[_fmt_human(c) for c in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(headers, *cells)]
    lines = [headers, ["-" * w for w in widths], *cells]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines)


class _Grid(NamedTuple):
    """A block of rows: ``columns`` pairs each CSV header with its table
    header, or None for a CSV-only column; ``csv_tail`` rows follow ``rows``
    in the CSV only."""

    columns: tuple
    rows: list
    csv_tail: tuple = ()


def _pick(columns, records) -> list:
    """Rows of ``records`` (dicts keyed by CSV header) in column order."""
    return [[record.get(key) for key, _ in columns] for record in records]


def _render_csv(view: list) -> str:
    """Every grid of a view, each with its CSV header row."""
    import csv  # here, so that a process that renders no CSV never loads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for part in view:
        if isinstance(part, _Grid):
            writer.writerow([key for key, _ in part.columns])
            for row in [*part.rows, *part.csv_tail]:
                writer.writerow([_fmt_machine(c) for c in row])
    return buf.getvalue()


def _render_table(view: list) -> str:
    """A view's text lines and the table columns of its grids."""
    lines = []
    for part in view:
        if isinstance(part, str):
            lines.append(part)
            continue
        shown = [i for i, (_, header) in enumerate(part.columns) if header is not None]
        if shown:
            headers = [part.columns[i][1] for i in shown]
            lines.append(_table(headers, [[row[i] for i in shown] for row in part.rows]))
    return "\n".join(lines) + "\n"


_LAYER_FIGURES = ("litho_steps", "litho_energy", "pfas_layers")
_ANALYZE_COLUMNS = (
    ("name", "Layer"), ("region", "Region"), ("pitch_nm", "M_pitch"),
    ("metal_process", "Metal"), ("via_process", "Via"),
    *((key, None) for key in STEP_FIELDS), ("masks", None),
    *zip(_LAYER_FIGURES, ("# Litho steps", "E_litho", "# PFAS_litho")),
)


def _carbon_line(label: str, carbon: dict) -> str:
    line = f"{label}: {_fmt_human(carbon['embodied_kg'])} kg CO2e"
    if carbon["low_kg"] is not None:
        line += f"  (band {_fmt_human(carbon['low_kg'])} to {_fmt_human(carbon['high_kg'])})"
    return line


def _analyze_view(report: dict) -> list:
    result = report["result"]
    metrics = result["stack_metrics"]
    total = {
        "name": "TOTAL",
        **metrics["total_steps"],
        "masks": metrics["euv_masks"] + metrics["duv_masks"],
        **{key: metrics[f"total_{key}"] for key in _LAYER_FIGURES},
    }
    records = [{**pl, **pl["steps"]} for pl in metrics["per_layer"]] + [total]
    view = [
        f"Stack {metrics['technology_node']}  ({len(metrics['per_layer'])} layers)",
        _Grid(_ANALYZE_COLUMNS, _pick(_ANALYZE_COLUMNS, records)),
        "",
        "PFAS layers by region: "
        + ", ".join(f"{r} {n}" for r, n in metrics["by_region"].items())
        + f"  (total {metrics['total_pfas_layers']})",
        f"Masks by exposure: EUV {metrics['euv_masks']}, DUV {metrics['duv_masks']}",
        f"Total fab steps: {metrics['total_fab_steps']}",
    ]
    chip = result.get("chip_pfas")
    if chip is not None:
        view.append(
            f"Chip PFAS proxy: {_fmt_human(chip['value'])} {PFAS_UNIT}"
            f"  (area {_fmt_human(chip['area_cm2'])} cm^2, yield {_fmt_human(chip['yield'])})"
        )
    carbon = result.get("carbon")
    if carbon is not None:
        view.append(_carbon_line("Embodied carbon", carbon))
    return view


# (row label, summary key, ratio key); the per-region rows follow the first.
_COMPARE_ROWS = (
    ("pfas_layers", "total_pfas_layers", "ratio_pfas"),
    ("litho_steps", "total_litho_steps", "ratio_litho_steps"),
    ("fab_steps", "total_fab_steps", "ratio_total_steps"),
    ("litho_energy", "total_litho_energy", "ratio_energy"),
)


def _compare_view(report: dict) -> list:
    result = report["result"]
    a, b = result["a"], result["b"]
    rows = [(label, a[key], b[key], result[ratio]) for label, key, ratio in _COMPARE_ROWS]
    regions = [
        (f"pfas_{region}", a["by_region"][region], b["by_region"][region], ratio)
        for region, ratio in result["pfas_ratio_by_region"].items()
    ]
    reduction = result["percent_reduction"]
    tail = f"PFAS reduction (a to b): {_fmt_human(reduction)}"
    if reduction is not None:
        tail += f"  ({reduction * 100:.1f}%)"
    return [
        f"Compare a={a['technology_node']} vs b={b['technology_node']}",
        _Grid(
            (("metric", "Metric"), ("a", "A"), ("b", "B"), ("ratio_a_over_b", "A/B")),
            rows[:1] + regions + rows[1:],
            csv_tail=(("percent_reduction", None, None, reduction),),
        ),
        tail,
    ]


def _power_grid(result: dict) -> str:
    return "power grid retained" if result["retain_power_grid"] else "power grid dropped"


_SWEEP_COLUMNS = tuple((key, key) for key in (
    "top_routing_layer", "total_pfas_layers", "beol_pfas_layers", "litho_steps",
    "litho_energy", "chip_pfas", "embodied_kg", "embodied_low_kg", "embodied_high_kg",
))


def _sweep_view(report: dict) -> list:
    result = report["result"]
    rows = []
    for p in result["points"]:
        m, chip, carbon = p["metrics"], p["chip_pfas"], p["carbon"] or {}
        rows.append((
            p["top_routing_layer"], m["total_pfas_layers"], m["by_region"]["BEOL"],
            m["total_litho_steps"], m["total_litho_energy"], chip["value"] if chip else None,
            carbon.get("embodied_kg"), carbon.get("low_kg"), carbon.get("high_kg"),
        ))
    focus = " (routing BEOL focus)" if result["beol_only"] else ""
    return [
        f"BEOL reduction sweep, {_power_grid(result)}{focus}; first row is the baseline",
        _Grid(_SWEEP_COLUMNS, rows),
    ]


_SOC_COLUMNS = (
    ("block", "Block"), ("required_top", "Required"), ("baseline_area_cm2", "Area cm^2"),
    ("overhead_factor", "Overhead"), ("constrained_area_cm2", "Constrained cm^2"),
)
_SOC_SIDES = ("baseline", "constrained")


def _soc_view(report: dict) -> list:
    result = report["result"]
    base, con = sides = [result[side] for side in _SOC_SIDES]
    blocks = _pick(_SOC_COLUMNS, [{"block": r["name"], **r} for r in result["blocks"]])
    summary = [
        ("pfas_layers", *[side["metrics"]["total_pfas_layers"] for side in sides]),
        ("chip_pfas", *[side["chip_pfas"]["value"] for side in sides]),
        ("area_cm2", base["area_cm2"], con["area_cm2"]),
        *[(key, None, result[key]) for key in ("area_increase", "pfas_layer_ratio", "chip_pfas_ratio")],
    ]
    view = [
        f"SoC constrained to {result['target_top']} ({_power_grid(result)})",
        _Grid(_SOC_COLUMNS, blocks, csv_tail=(
            ("TOTAL", result["target_top"], base["area_cm2"], None, con["area_cm2"]),
        )),
        _Grid((("metric", None), *((side, None) for side in _SOC_SIDES)), summary),
        "",
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
            view.append(_carbon_line(f"Embodied carbon ({side})", carbon))
    return view


_TREND_COLUMNS = (("node", "Node"), ("value", "Value"), ("normalized", "Normalized"))


def _trend_view(report: dict) -> list:
    result = report["result"]
    return [
        f"Trend normalized to {result['reference']}",
        _Grid(_TREND_COLUMNS, _pick(_TREND_COLUMNS, result["points"])),
    ]


_CATALOG_COLUMNS = tuple((key, key) for key in ("id", "exposure", "masks", *STEP_FIELDS))


def _catalog_view(report: dict) -> list:
    records = [{**p, **p["steps"]} for p in report["processes"]]
    return ["Patterning process catalog", _Grid(_CATALOG_COLUMNS, _pick(_CATALOG_COLUMNS, records))]


# Command (or document kind) -> its view: text lines and grids in output order.
_VIEWS = {
    "analyze": _analyze_view,
    "compare": _compare_view,
    "sweep": _sweep_view,
    "soc": _soc_view,
    "trend": _trend_view,
    "process_catalog": _catalog_view,
}


def render(report: dict, fmt: str) -> str:
    """Render a report dict as json, csv, or a human table."""
    if fmt == "json":
        return render_json(report)
    view = _VIEWS[report.get("command") or report.get("kind")]
    if fmt == "csv":
        return _render_csv(view(report))
    if fmt == "table":
        return _render_table(view(report))
    raise ValueError(f"unknown format {fmt!r}")
