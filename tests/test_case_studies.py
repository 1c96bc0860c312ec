import contextlib
import importlib.util
import io
import json
import sys

import pytest

from pfasfab import DesignParams, asap7_preset, parse_carbon_profile, sweep_beol
from pfasfab.report import sweep_to_dict

from conftest import CONFIGS, GOLDEN, REPO_ROOT

_OUTPUTS = (
    "case1_euv_vs_duv.json",
    "case2_sweep_routing.json",
    "case2_sweep_retained.json",
    "case2_sweep_retained.csv",
    "case3_soc.json",
    "case4_trend.json",
)
# Each JSON output that is the report of a pinned CLI run.
_GOLDENS = {
    "case1_euv_vs_duv.json": "compare_n7.json",
    "case2_sweep_routing.json": "sweep_config.json",
    "case3_soc.json": "soc_trainer_carbon.json",
    "case4_trend.json": "trend_nodes.json",
}
# Every line the script prints but its "wrote <path>" lines, in order.
_SUMMARY = """\
case 1: EUV vs immersion DUV at the same 7 nm metal stack
  PFAS layers 36 -> 29 (19.4% fewer with EUV)
  relative litho energy 36 -> 128 (EUV costs more exposure energy)
case 2: routing-BEOL reduction sweep on the 7 nm stack
  routing-BEOL PFAS layers: M7=18, M5=12, M3=6
  overall with power grid retained: 29 -> 17 (1.71x fewer PFAS layers)
case 3: trainer SoC constrained to M4 with per-block area overheads
  total area 1.000 -> 1.02397 cm^2 (2.40% increase)
  PFAS layers 29 -> 20 (layer ratio 1.45, chip ratio 1.42)
  embodied carbon 6.13 -> 6.06 kg CO2e (nearly flat)
case 4: cross-node series normalized to 28nm
  28nm: 1.00
  14nm: 1.20
  7nm: 1.45
"""


@pytest.fixture(scope="module")
def run_script(tmp_path_factory):
    """The output directory and stdout of one run of the script."""
    outdir = tmp_path_factory.mktemp("case_studies")
    path = REPO_ROOT / "scripts" / "run_case_studies.py"
    spec = importlib.util.spec_from_file_location("run_case_studies", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(sys, "argv", [str(path), "--outdir", str(outdir)])
        module.main()
    return outdir, stdout.getvalue()


def test_case_studies_script_writes_its_outputs(run_script):
    outdir, stdout = run_script
    assert sorted(p.name for p in outdir.iterdir()) == sorted(_OUTPUTS)
    assert "routing-BEOL PFAS layers: M7=18, M5=12, M3=6" in stdout
    summary = [line for line in stdout.splitlines() if not line.startswith("  wrote ")]
    assert summary == _SUMMARY.splitlines()


@pytest.mark.parametrize("name", sorted(_GOLDENS))
def test_case_study_report_matches_cli_golden(run_script, name):
    outdir, _ = run_script
    assert (outdir / name).read_bytes() == (GOLDEN / "cli" / _GOLDENS[name]).read_bytes()


def test_retained_sweep_matches_library(run_script):
    outdir, _ = run_script
    params, band, _ = parse_carbon_profile(
        (CONFIGS / "carbon_profile_example.json").read_text(encoding="utf-8"))
    points = sweep_beol(asap7_preset(), ["M7", "M5", "M3"], retain_power_grid=True,
                        design=DesignParams(1.0, 0.875), carbon_params=params, ci_band=band)
    report = json.loads((outdir / "case2_sweep_retained.json").read_text(encoding="utf-8"))
    assert report["command"] == "sweep"
    assert report["result"] == sweep_to_dict(points, True, False)
