import importlib.util
import sys

from conftest import REPO_ROOT

_OUTPUTS = (
    "case1_euv_vs_duv.json",
    "case2_sweep_routing.json",
    "case2_sweep_retained.json",
    "case2_sweep_retained.csv",
    "case3_soc.json",
    "case4_trend.json",
)


def test_case_studies_script_writes_its_outputs(tmp_path, monkeypatch, capsys):
    path = REPO_ROOT / "scripts" / "run_case_studies.py"
    spec = importlib.util.spec_from_file_location("run_case_studies", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path), "--outdir", str(tmp_path)])
    module.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_OUTPUTS)
    assert "routing-BEOL PFAS layers: M7=18, M5=12, M3=6" in capsys.readouterr().out
