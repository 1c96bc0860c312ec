"""Command-line surface: analyze, compare, sweep, soc, trend, export-catalog.

Exit codes: 0 success, 1 validation error, 2 usage error. Reports go to
stdout (or --out); errors and warnings go to stderr. Identical inputs and
flags produce byte-identical output.

``main(argv)`` may be called any number of times in one process. It builds
the argument parser on its first call and reuses it after, and returns the
exit code; a usage error (or ``--help``) raises ``SystemExit(2)`` (or
``SystemExit(0)``) as argparse does.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import report as rpt
from .catalog import DEFAULT_CATALOG
from .config import (
    PRESETS,
    ConfigDocument,
    load_stack_document,
    parse_carbon_profile,
    parse_config,
    stack_to_dict,
    to_dict,
)
from .engine import DesignParams, chip_pfas, stack_metrics
from .carbon import estimate_carbon
from .errors import PfasfabError
from .scenarios import compare_stacks, compose_soc, normalize_trend, sweep_beol
from .stack import StackSpec


class _CliError(PfasfabError):
    """Validation-level CLI failure; message goes to stderr, exit code 1."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"{path}: cannot read file ({exc.strerror})") from None


def _write_text(path: str, text: str):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"{path}: cannot write report ({exc.strerror})") from None


def _warn(path: str, warnings):
    for warning in warnings:
        print(f"warning: {path}: {warning}", file=sys.stderr)


def _load_config(args) -> ConfigDocument:
    if args.config is None:
        return ConfigDocument()
    doc = parse_config(_read_text(args.config), strict=args.strict)
    _warn(args.config, doc.warnings)
    return doc


def _resolve_stack(ref: str | None, fallback: StackSpec | None, args) -> StackSpec:
    if ref is None:
        if fallback is None:
            raise _CliError(
                "no stack given: pass --stack <preset|path> or a config with a "
                f"stack section (presets: {', '.join(PRESETS)})"
            )
        return fallback
    if ref in PRESETS:
        return PRESETS[ref]()
    if Path(ref).exists():
        warnings = []
        stack = load_stack_document(_read_text(ref), strict=args.strict, warnings=warnings)
        _warn(ref, warnings)
        return stack
    raise _CliError(
        f"stack {ref!r} is neither a preset ({', '.join(PRESETS)}) nor an existing file"
    )


def _resolve_design(args, cfg: ConfigDocument, required=True) -> DesignParams | None:
    area, yield_fraction = args.area, args.yield_fraction
    if cfg.design is not None:
        area = cfg.design.area_cm2 if area is None else area
        yield_fraction = cfg.design.yield_fraction if yield_fraction is None else yield_fraction
    if area is None and yield_fraction is None:
        if not required:
            return None
        raise _CliError(
            "design parameters missing: pass --area and --yield or a config "
            "with a design section"
        )
    if area is None or yield_fraction is None:
        missing = "--area" if area is None else "--yield"
        raise _CliError(f"design parameter missing: pass {missing} too, or a config "
                        "with a design section")
    return DesignParams(area_cm2=float(area), yield_fraction=float(yield_fraction))


def _resolve_carbon(args, cfg: ConfigDocument):
    if args.carbon_profile is not None:
        params, ci_band, warnings = parse_carbon_profile(
            _read_text(args.carbon_profile), strict=args.strict
        )
        _warn(args.carbon_profile, warnings)
        return params, ci_band
    return cfg.carbon, cfg.ci_band


def _model_echo(design, weights, carbon, ci_band) -> dict:
    """The design, energy-weight and carbon inputs, as every report echoes them."""
    return {
        "design": to_dict(design),
        "energy_weights": to_dict(weights),
        "carbon": to_dict(carbon),
        "ci_band": list(ci_band) if ci_band is not None else None,
    }


def _cmd_analyze(args) -> dict:
    cfg = _load_config(args)
    stack = _resolve_stack(args.stack, cfg.stack, args)
    design = _resolve_design(args, cfg)
    carbon_params, ci_band = _resolve_carbon(args, cfg)
    metrics = stack_metrics(stack, DEFAULT_CATALOG, cfg.weights)
    chip = chip_pfas(metrics, design)
    carbon = estimate_carbon(metrics, design, carbon_params, ci_band)
    stack_echo = stack_to_dict(stack)
    inputs = {
        "stack": stack_echo,
        **_model_echo(design, cfg.weights, carbon_params, ci_band),
    }
    result = {
        "stack_metrics": rpt.metrics_to_dict(stack_echo["layers"], metrics),
        "chip_pfas": rpt.chip_to_dict(chip),
        "carbon": rpt.carbon_to_dict(carbon),
    }
    return rpt.build_report("analyze", inputs, result)


def _cmd_compare(args) -> dict:
    cfg = _load_config(args)
    section = cfg.compare
    if args.stack_a is not None or args.stack_b is not None:
        if args.stack_a is None or args.stack_b is None:
            raise _CliError("compare needs both stacks: pass two positional stack refs")
        a = _resolve_stack(args.stack_a, None, args)
        b = _resolve_stack(args.stack_b, None, args)
    elif section is not None:
        a, b = section.stack_a, section.stack_b
    else:
        raise _CliError(
            "compare needs two stacks: pass them as arguments or in the config's "
            "compare section"
        )
    comparison = compare_stacks(a, b, DEFAULT_CATALOG, cfg.weights)
    inputs = {
        "stack_a": stack_to_dict(a),
        "stack_b": stack_to_dict(b),
        "energy_weights": to_dict(cfg.weights),
    }
    return rpt.build_report("compare", inputs, rpt.comparison_to_dict(comparison))


def _cmd_sweep(args) -> dict:
    cfg = _load_config(args)
    section = cfg.sweep
    stack = _resolve_stack(args.stack, cfg.stack, args)
    targets = [t.strip() for t in args.targets.split(",")] if args.targets else None
    if targets is None and section is not None:
        targets = list(section.targets)
    if not targets:
        raise _CliError("sweep needs --targets M7,M5,... or a config sweep section")
    retain = args.retain_power_grid
    beol_only = args.beol_only
    if retain is None:
        retain = section.retain_power_grid if section is not None else False
    if not beol_only and section is not None:
        beol_only = section.beol_only
    if beol_only and retain:
        beol_from = "--beol-only" if args.beol_only else "sweep.beol_only"
        retain_from = "--retain-power-grid" if args.retain_power_grid else "sweep.retain_power_grid"
        raise _CliError(f"{beol_from} excludes {retain_from}")
    design = _resolve_design(args, cfg, required=False)
    carbon_params, ci_band = _resolve_carbon(args, cfg)
    points = sweep_beol(
        stack,
        targets,
        retain_power_grid=retain,
        weights=cfg.weights,
        design=design,
        carbon_params=carbon_params,
        ci_band=ci_band,
    )
    inputs = {
        "stack": stack_to_dict(stack),
        "targets": list(targets),
        "retain_power_grid": retain,
        "beol_only": beol_only,
        **_model_echo(design, cfg.weights, carbon_params, ci_band),
    }
    return rpt.build_report("sweep", inputs, rpt.sweep_to_dict(points, retain, beol_only))


def _cmd_soc(args) -> dict:
    cfg = _load_config(args)
    section = cfg.soc
    if section is None:
        raise _CliError("soc needs a config with an soc section (blocks and target_top)")
    stack = _resolve_stack(args.stack, cfg.stack, args)
    target = args.target or section.target_top
    retain = args.retain_power_grid
    if retain is None:
        retain = section.retain_power_grid
    design = cfg.design
    if args.yield_fraction is not None:  # compose_soc reads only the yield
        design = DesignParams(1.0 if design is None else design.area_cm2, args.yield_fraction)
    carbon_params, ci_band = _resolve_carbon(args, cfg)
    soc = compose_soc(
        section.blocks,
        stack,
        target,
        retain_power_grid=retain,
        design=design,
        weights=cfg.weights,
        carbon_params=carbon_params,
        ci_band=ci_band,
    )
    if cfg.design is None and design is not None:  # echo the area the chip figures use
        design = DesignParams(soc.baseline_area_cm2, design.yield_fraction)
    inputs = {
        "stack": stack_to_dict(stack),
        "blocks": [to_dict(block) for block in section.blocks],
        "target_top": target,
        "retain_power_grid": retain,
        **_model_echo(design, cfg.weights, carbon_params, ci_band),
    }
    return rpt.build_report("soc", inputs, rpt.soc_to_dict(soc))


def _cmd_trend(args) -> dict:
    cfg = _load_config(args)
    section = cfg.trend
    if section is None:
        raise _CliError("trend needs a config with a trend section (series and reference)")
    reference = args.ref or section.reference
    if reference is None:
        raise _CliError("trend needs a reference node: pass --ref or set it in the config")
    normalized = normalize_trend(section.series, reference)
    inputs = {
        "series": [[node, value] for node, value in section.series.points],
        "reference": reference,
    }
    return rpt.build_report("trend", inputs, rpt.trend_to_dict(section.series, normalized))


def _cmd_export_catalog(args) -> dict:
    return rpt.catalog_to_dict(DEFAULT_CATALOG)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "soc": _cmd_soc,
    "trend": _cmd_trend,
    "export-catalog": _cmd_export_catalog,
}


def _add_common(parser, with_stack=True):
    if with_stack:
        parser.add_argument("--stack", help="stack preset name or path to a stack JSON file")
    parser.add_argument("--config", help="path to a JSON config document")
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table", help="output format"
    )
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument(
        "--strict", action="store_true", help="reject unknown config keys instead of warning"
    )


def _add_design(parser, with_area=True):
    if with_area:
        parser.add_argument("--area", type=float, help="die area in cm^2")
    parser.add_argument(
        "--yield", dest="yield_fraction", type=float, help="fab yield in (0, 1]"
    )


def _add_carbon(parser):
    parser.add_argument(
        "--carbon-profile",
        help="path to a carbon parameter profile JSON (five factors plus optional ci_band)",
    )


# Built on the first main() call, not at import, and then reused: the parser
# holds no per-call state (parse_args returns a fresh Namespace, and argparse
# makes a new formatter, sized to the terminal, for each usage or help print).
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfasfab",
        description=(
            "Model PFAS-containing litho layers, fab steps, relative litho energy, "
            "and embodied carbon for an IC metal stack, and run trade-off scenarios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-layer and total metrics for one stack")
    _add_common(p)
    _add_design(p)
    _add_carbon(p)

    p = sub.add_parser("compare", help="ratios between two stacks (a vs b)")
    p.add_argument("stack_a", nargs="?", help="first stack: preset name or path")
    p.add_argument("stack_b", nargs="?", help="second stack: preset name or path")
    _add_common(p, with_stack=False)

    p = sub.add_parser("sweep", help="cap the routing BEOL at each target layer")
    _add_common(p)
    _add_design(p)
    _add_carbon(p)
    p.add_argument("--targets", help="comma-separated BEOL layer labels, e.g. M7,M5,M3")
    p.add_argument(
        "--retain-power-grid",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="keep power-grid-tagged layers in every variant (default: off for sweep)",
    )
    p.add_argument(
        "--beol-only",
        action="store_true",
        help="label the table '(routing BEOL focus)' and echo beol_only in the JSON; "
        "the figures are the default sweep's, with the power grid dropped "
        "(not combinable with --retain-power-grid)",
    )

    p = sub.add_parser("soc", help="constrain SoC blocks to a target routing layer")
    _add_common(p)
    _add_design(p, with_area=False)
    _add_carbon(p)
    p.add_argument("--target", help="target top routing layer (overrides config)")
    p.add_argument(
        "--retain-power-grid",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="keep power-grid-tagged layers (default: on for soc)",
    )

    p = sub.add_parser("trend", help="normalize a per-node series to a reference node")
    _add_common(p, with_stack=False)
    p.add_argument("--ref", help="reference node label (overrides config)")

    p = sub.add_parser("export-catalog", help="emit the built-in process catalog")
    p.add_argument(
        "--format", choices=("table", "csv", "json"), default="json", help="output format"
    )
    p.add_argument("--out", help="write the catalog to this path instead of stdout")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = rpt.render(_COMMANDS[args.command](args), args.format)
        if args.out:
            _write_text(args.out, text)
        else:
            sys.stdout.write(text)
    except PfasfabError as exc:
        for detail in exc.details or (exc,):
            print(f"error: {detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
