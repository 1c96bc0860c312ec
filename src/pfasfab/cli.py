"""Command-line surface: analyze, compare, sweep, soc, trend, export-catalog.

Each subcommand is declared by its one row in ``_TABLE``: its help line, its
arguments in ``--help`` order and the function that computes its report from
the parsed arguments and the config document. A flag that is given wins over
the config's section, which wins over the default (``_pick``).

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
from .config import PRESETS, ConfigDocument, load_stack_document, parse_carbon_profile
from .config import parse_config, stack_to_dict, to_dict
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
            raise _CliError("no stack given: pass --stack <preset|path> or a config with a "
                            f"stack section (presets: {', '.join(PRESETS)})")
        return fallback
    if ref in PRESETS:
        return PRESETS[ref]()
    if Path(ref).exists():
        warnings = []
        stack = load_stack_document(_read_text(ref), strict=args.strict, warnings=warnings)
        _warn(ref, warnings)
        return stack
    raise _CliError(f"stack {ref!r} is neither a preset ({', '.join(PRESETS)}) nor an "
                    "existing file")


def _pick(flag, section, key: str, default=None):
    """A flag that is given wins, even when empty; else the config section's
    ``key``; else the default."""
    if flag is not None:
        return flag
    return default if section is None else getattr(section, key)


def _resolve_design(args, cfg: ConfigDocument, required=True) -> DesignParams | None:
    area = _pick(args.area, cfg.design, "area_cm2")
    yield_fraction = _pick(args.yield_fraction, cfg.design, "yield_fraction")
    if area is None and yield_fraction is None:
        if not required:
            return None
        raise _CliError("design parameters missing: pass --area and --yield or a config "
                        "with a design section")
    if area is None or yield_fraction is None:
        missing = "--area" if area is None else "--yield"
        raise _CliError(f"design parameter missing: pass {missing} too, or a config "
                        "with a design section")
    return DesignParams(area_cm2=float(area), yield_fraction=float(yield_fraction))


def _model(args, cfg: ConfigDocument, design) -> tuple[dict, dict]:
    """The keywords of a scenario call (weights, design, carbon parameters and
    band, from --carbon-profile if given) and their echo in a report's inputs."""
    if args.carbon_profile is not None:
        text = _read_text(args.carbon_profile)
        params, ci_band, warnings = parse_carbon_profile(text, strict=args.strict)
        _warn(args.carbon_profile, warnings)
    else:
        params, ci_band = cfg.carbon, cfg.ci_band
    model = {"weights": cfg.weights, "design": design, "carbon_params": params, "ci_band": ci_band}
    echo = {
        "design": to_dict(design),
        "energy_weights": to_dict(cfg.weights),
        "carbon": to_dict(params),
        "ci_band": list(ci_band) if ci_band is not None else None,
    }
    return model, echo


def _analyze(args, cfg: ConfigDocument):
    stack = _resolve_stack(args.stack, cfg.stack, args)
    design = _resolve_design(args, cfg)
    model, echo = _model(args, cfg, design)
    metrics = stack_metrics(stack, DEFAULT_CATALOG, cfg.weights)
    chip = chip_pfas(metrics, design)
    carbon = estimate_carbon(metrics, design, model["carbon_params"], model["ci_band"])
    stack_echo = stack_to_dict(stack)
    return {"stack": stack_echo, **echo}, {
        "stack_metrics": rpt.metrics_to_dict(stack_echo["layers"], metrics),
        "chip_pfas": rpt.chip_to_dict(chip),
        "carbon": rpt.carbon_to_dict(carbon),
    }


def _compare(args, cfg: ConfigDocument):
    refs = (args.stack_a, args.stack_b)
    if None not in refs:
        a, b = (_resolve_stack(ref, None, args) for ref in refs)
    elif refs != (None, None):
        raise _CliError("compare needs both stacks: pass two positional stack refs")
    elif cfg.compare is None:
        raise _CliError("compare needs two stacks: pass them as arguments or in the "
                        "config's compare section")
    else:
        a, b = cfg.compare.stack_a, cfg.compare.stack_b
    comparison = compare_stacks(a, b, DEFAULT_CATALOG, cfg.weights)
    inputs = {
        "stack_a": stack_to_dict(a),
        "stack_b": stack_to_dict(b),
        "energy_weights": to_dict(cfg.weights),
    }
    return inputs, rpt.comparison_to_dict(comparison)


def _sweep(args, cfg: ConfigDocument):
    section = cfg.sweep
    stack = _resolve_stack(args.stack, cfg.stack, args)
    targets = _pick(args.targets, section, "targets")
    if not targets:
        raise _CliError("sweep needs --targets M7,M5,... or a config sweep section")
    retain = _pick(args.retain_power_grid, section, "retain_power_grid", False)
    beol_only = _pick(args.beol_only, section, "beol_only", False)
    if beol_only and retain:
        beol_from = "--beol-only" if args.beol_only else "sweep.beol_only"
        retain_from = "--retain-power-grid" if args.retain_power_grid else "sweep.retain_power_grid"
        raise _CliError(f"{beol_from} excludes {retain_from}")
    design = _resolve_design(args, cfg, required=False)
    model, echo = _model(args, cfg, design)
    points = sweep_beol(stack, targets, retain_power_grid=retain, **model)
    inputs = {
        "stack": stack_to_dict(stack),
        "targets": list(targets),
        "retain_power_grid": retain,
        "beol_only": beol_only,
        **echo,
    }
    return inputs, rpt.sweep_to_dict(points, retain, beol_only)


def _soc(args, cfg: ConfigDocument):
    section = cfg.soc
    if section is None:
        raise _CliError("soc needs a config with an soc section (blocks and target_top)")
    stack = _resolve_stack(args.stack, cfg.stack, args)
    target = _pick(args.target, section, "target_top")
    retain = _pick(args.retain_power_grid, section, "retain_power_grid")
    yield_fraction = _pick(args.yield_fraction, cfg.design, "yield_fraction")
    design = None
    if yield_fraction is not None:  # compose_soc reads only the yield
        design = DesignParams(1.0 if cfg.design is None else cfg.design.area_cm2, yield_fraction)
    model, echo = _model(args, cfg, design)
    soc = compose_soc(section.blocks, stack, target, retain_power_grid=retain, **model)
    if cfg.design is None and design is not None:  # echo the area the chip figures use
        echo["design"] = to_dict(DesignParams(soc.baseline_area_cm2, yield_fraction))
    inputs = {
        "stack": stack_to_dict(stack),
        "blocks": [to_dict(block) for block in section.blocks],
        "target_top": target,
        "retain_power_grid": retain,
        **echo,
    }
    return inputs, rpt.soc_to_dict(soc)


def _trend(args, cfg: ConfigDocument):
    section = cfg.trend
    if section is None:
        raise _CliError("trend needs a config with a trend section (series and reference)")
    reference = _pick(args.ref, section, "reference")
    if reference is None:
        raise _CliError("trend needs a reference node: pass --ref or set it in the config")
    normalized = normalize_trend(section.series, reference)
    inputs = {
        "series": [[node, value] for node, value in section.series.points],
        "reference": reference,
    }
    return inputs, rpt.trend_to_dict(section.series, normalized)


def _arg(name: str, help_text: str, **options):
    """An argument as ``(name, add_argument options)``."""
    return name, {"help": help_text, **options}


_FORMATS = ("table", "csv", "json")
_STACK = _arg("--stack", "stack preset name or path to a stack JSON file")
_IO = (
    _arg("--config", "path to a JSON config document"),
    _arg("--format", "output format", choices=_FORMATS, default="table"),
    _arg("--out", "write the report to this path instead of stdout"),
    _arg("--strict", "reject unknown config keys instead of warning", action="store_true"),
)
_AREA = _arg("--area", "die area in cm^2", type=float)
_YIELD = _arg("--yield", "fab yield in (0, 1]", dest="yield_fraction", type=float)
_CARBON = _arg("--carbon-profile",
               "path to a carbon parameter profile JSON (five factors plus optional ci_band)")

# One row per subcommand: help line, arguments in --help order and the function
# that returns the report's (inputs, result); export-catalog reads no config.
_TABLE = {
    "analyze": ("per-layer and total metrics for one stack",
                (_STACK, *_IO, _AREA, _YIELD, _CARBON), _analyze),
    "compare": ("ratios between two stacks (a vs b)", (
        _arg("stack_a", "first stack: preset name or path", nargs="?"),
        _arg("stack_b", "second stack: preset name or path", nargs="?"),
        *_IO,
    ), _compare),
    "sweep": ("cap the routing BEOL at each target layer", (
        _STACK, *_IO, _AREA, _YIELD, _CARBON,
        _arg("--targets", "comma-separated BEOL layer labels, e.g. M7,M5,M3",
             type=lambda text: [label.strip() for label in text.split(",")]),
        _arg("--retain-power-grid", "keep power-grid-tagged layers in every variant "
             "(default: off for sweep)", action=argparse.BooleanOptionalAction, default=None),
        _arg("--beol-only", "label the table '(routing BEOL focus)' and echo beol_only in the "
             "JSON; the figures are the default sweep's, with the power grid dropped "
             "(not combinable with --retain-power-grid)", action="store_true", default=None),
    ), _sweep),
    "soc": ("constrain SoC blocks to a target routing layer", (
        _STACK, *_IO, _YIELD, _CARBON,
        _arg("--target", "target top routing layer (overrides config)"),
        _arg("--retain-power-grid", "keep power-grid-tagged layers (default: on for soc)",
             action=argparse.BooleanOptionalAction, default=None),
    ), _soc),
    "trend": ("normalize a per-node series to a reference node",
              (*_IO, _arg("--ref", "reference node label (overrides config)")), _trend),
    "export-catalog": ("emit the built-in process catalog", (
        _arg("--format", "output format", choices=_FORMATS, default="json"),
        _arg("--out", "write the catalog to this path instead of stdout"),
    ), None),
}


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
    for name, (help_line, arguments, _) in _TABLE.items():
        command = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            command.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    build = _TABLE[args.command][2]
    try:
        if build is None:
            report = rpt.catalog_to_dict(DEFAULT_CATALOG)
        else:
            report = rpt.build_report(args.command, *build(args, _load_config(args)))
        text = rpt.render(report, args.format)
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
