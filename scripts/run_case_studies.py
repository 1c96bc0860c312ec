#!/usr/bin/env python3
"""Run the bundled trade-off case studies and write plot-ready outputs.

Covers four analyses over the built-in 7 nm stacks:
  1. EUV vs immersion-DUV patterning of the same metal stack
  2. routing-BEOL reduction sweep (M7 / M5 / M3), with and without
     power-grid retention
  3. SoC composition: constraining a trainer SoC's blocks to M4 under
     per-block area overheads
  4. cross-node trend normalization of user-style series values

Outputs land in --outdir as JSON plus a CSV per sweep. The inputs are read
from configs/: the illustrative carbon profile in carbon_profile_example.json,
and the design and SoC blocks in soc_trainer.json.
"""

import argparse
import json
from pathlib import Path

from pfasfab import (
    Region,
    TrendSeries,
    asap7_preset,
    compare_stacks,
    compose_soc,
    n7_fixture,
    normalize_trend,
    parse_carbon_profile,
    parse_config,
    stack_metrics,
    sweep_beol,
)
from pfasfab.report import (
    comparison_to_dict,
    render,
    soc_to_dict,
    sweep_to_dict,
    trend_to_dict,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_config(name: str) -> str:
    return (CONFIGS / name).read_text(encoding="utf-8")


def save(outdir: Path, name: str, payload: dict):
    path = outdir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"  wrote {path}")


def case_euv_vs_duv(outdir: Path):
    print("case 1: EUV vs immersion DUV at the same 7 nm metal stack")
    result = compare_stacks(n7_fixture("duv"), n7_fixture("euv"))
    reduction = result.percent_reduction
    print(f"  PFAS layers {result.metrics_a.total_pfas_layers} -> "
          f"{result.metrics_b.total_pfas_layers} "
          f"({reduction * 100:.1f}% fewer with EUV)")
    print(f"  relative litho energy {result.metrics_a.total_litho_energy:.0f} -> "
          f"{result.metrics_b.total_litho_energy:.0f} (EUV costs more exposure energy)")
    save(outdir, "case1_euv_vs_duv", comparison_to_dict(result))


def case_beol_sweep(outdir: Path, model: dict):
    print("case 2: routing-BEOL reduction sweep on the 7 nm stack")
    stack = asap7_preset()
    targets = ["M7", "M5", "M3"]
    routing = sweep_beol(stack, targets, retain_power_grid=False, **model)
    series = {p.top_routing_layer: p.metrics.by_region[Region.BEOL] for p in routing[1:]}
    print("  routing-BEOL PFAS layers:",
          ", ".join(f"{t}={series[t]}" for t in targets))
    retained = sweep_beol(stack, targets, retain_power_grid=True, **model)
    base = retained[0].metrics.total_pfas_layers
    m3 = [p for p in retained if p.top_routing_layer == "M3"][0]
    print(f"  overall with power grid retained: {base} -> "
          f"{m3.metrics.total_pfas_layers} "
          f"({base / m3.metrics.total_pfas_layers:.2f}x fewer PFAS layers)")
    save(outdir, "case2_sweep_routing", sweep_to_dict(routing, False, True))
    save(outdir, "case2_sweep_retained", sweep_to_dict(retained, True, False))
    report = {"command": "sweep", "result": sweep_to_dict(retained, True, False)}
    (outdir / "case2_sweep_retained.csv").write_text(render(report, "csv"), encoding="utf-8")
    print(f"  wrote {outdir / 'case2_sweep_retained.csv'}")


def case_soc(outdir: Path, trainer, model: dict):
    print("case 3: trainer SoC constrained to M4 with per-block area overheads")
    soc = trainer.soc
    report = compose_soc(soc.blocks, trainer.stack, soc.target_top,
                         retain_power_grid=soc.retain_power_grid, **model)
    print(f"  total area {report.baseline_area_cm2:.3f} -> "
          f"{report.constrained_area_cm2:.5f} cm^2 "
          f"({report.area_increase * 100:.2f}% increase)")
    print(f"  PFAS layers {report.baseline_metrics.total_pfas_layers} -> "
          f"{report.constrained_metrics.total_pfas_layers} "
          f"(layer ratio {report.pfas_layer_ratio:.2f}, "
          f"chip ratio {report.chip_pfas_ratio:.2f})")
    print(f"  embodied carbon {report.baseline_carbon.embodied_kg:.2f} -> "
          f"{report.constrained_carbon.embodied_kg:.2f} kg CO2e (nearly flat)")
    save(outdir, "case3_soc", soc_to_dict(report))


def case_trend(outdir: Path):
    print("case 4: cross-node series normalized to 28nm")
    asap7_total = stack_metrics(asap7_preset()).total_pfas_layers
    series = TrendSeries((("28nm", 20.0), ("14nm", 24.0), ("7nm", float(asap7_total))))
    normalized = normalize_trend(series, "28nm")
    for node, value in normalized.points:
        print(f"  {node}: {value:.2f}")
    save(outdir, "case4_trend", trend_to_dict(series, normalized))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out", help="output directory (default: out)")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    carbon_params, ci_band, _ = parse_carbon_profile(read_config("carbon_profile_example.json"))
    trainer = parse_config(read_config("soc_trainer.json"))
    # The design, carbon parameters and band that cases 2 and 3 evaluate.
    model = {"design": trainer.design, "carbon_params": carbon_params, "ci_band": ci_band}
    case_euv_vs_duv(outdir)
    case_beol_sweep(outdir, model)
    case_soc(outdir, trainer, model)
    case_trend(outdir)


if __name__ == "__main__":
    main()
