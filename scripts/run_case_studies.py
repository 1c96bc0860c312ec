#!/usr/bin/env python3
"""Run the bundled trade-off case studies and write plot-ready outputs.

Covers four analyses over the built-in 7 nm stacks:
  1. EUV vs immersion-DUV patterning of the same metal stack
  2. routing-BEOL reduction sweep (M7 / M5 / M3), with and without
     power-grid retention
  3. SoC composition: constraining a trainer SoC's blocks to M4 under
     per-block area overheads
  4. cross-node trend normalization of user-style series values

Each output is the report of one ``pfasfab`` command on the shipped configs/,
run in-process through ``pfasfab.cli.main``; the summary lines are read back
from its JSON report. A JSON output is the full report (``schema_version``,
``tool_version``, ``command``, ``inputs``, ``result``); plot its ``result``.
"""

import argparse
import json
from pathlib import Path

from pfasfab import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CARBON = ("--carbon-profile", str(CONFIGS / "carbon_profile_example.json"))
RETAINED = ("sweep", "--stack", "asap7", "--targets", "M7,M5,M3", "--retain-power-grid",
            "--area", "1", "--yield", "0.875", *CARBON)


def config(name: str) -> tuple:
    return "--config", str(CONFIGS / name)


def run(outdir: Path, name: str, *argv: str):
    """Run ``pfasfab <argv>`` with its report written to ``outdir/name``, in
    the format of the name's suffix; returns a JSON report's ``result``."""
    path = outdir / name
    code = cli.main([*argv, "--format", path.suffix[1:], "--out", str(path)])
    if code != 0:
        raise SystemExit(code)
    print(f"  wrote {path}")
    if path.suffix == ".json":
        return json.loads(path.read_text(encoding="utf-8"))["result"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out", help="output directory (default: out)")
    outdir = Path(parser.parse_args().outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print("case 1: EUV vs immersion DUV at the same 7 nm metal stack")
    r = run(outdir, "case1_euv_vs_duv.json", "compare", *config("compare_n7.json"))
    a, b = r["a"], r["b"]
    print(f"  PFAS layers {a['total_pfas_layers']} -> {b['total_pfas_layers']} "
          f"({r['percent_reduction'] * 100:.1f}% fewer with EUV)")
    print(f"  relative litho energy {a['total_litho_energy']:.0f} -> "
          f"{b['total_litho_energy']:.0f} (EUV costs more exposure energy)")

    print("case 2: routing-BEOL reduction sweep on the 7 nm stack")
    points = run(outdir, "case2_sweep_routing.json", "sweep", *config("sweep_asap7.json"))["points"]
    print("  routing-BEOL PFAS layers:", ", ".join(
        f"{p['top_routing_layer']}={p['metrics']['by_region']['BEOL']}" for p in points[1:]))
    base, *_, m3 = [p["metrics"]["total_pfas_layers"]
                    for p in run(outdir, "case2_sweep_retained.json", *RETAINED)["points"]]
    run(outdir, "case2_sweep_retained.csv", *RETAINED)
    print(f"  overall with power grid retained: {base} -> {m3} "
          f"({base / m3:.2f}x fewer PFAS layers)")

    print("case 3: trainer SoC constrained to M4 with per-block area overheads")
    r = run(outdir, "case3_soc.json", "soc", *config("soc_trainer.json"), *CARBON)
    baseline, constrained = r["baseline"], r["constrained"]
    print(f"  total area {baseline['area_cm2']:.3f} -> {constrained['area_cm2']:.5f} cm^2 "
          f"({r['area_increase'] * 100:.2f}% increase)")
    print(f"  PFAS layers {baseline['metrics']['total_pfas_layers']} -> "
          f"{constrained['metrics']['total_pfas_layers']} "
          f"(layer ratio {r['pfas_layer_ratio']:.2f}, chip ratio {r['chip_pfas_ratio']:.2f})")
    print(f"  embodied carbon {baseline['carbon']['embodied_kg']:.2f} -> "
          f"{constrained['carbon']['embodied_kg']:.2f} kg CO2e (nearly flat)")

    print("case 4: cross-node series normalized to 28nm")
    for point in run(outdir, "case4_trend.json", "trend", *config("trend_nodes.json"))["points"]:
        print(f"  {point['node']}: {point['normalized']:.2f}")


if __name__ == "__main__":
    main()
