import csv
import io
import json

import pytest

from pfasfab import PRESETS, LayerSpec, cli, parse_config
from pfasfab.report import render_json

from conftest import CONFIGS, GOLDEN, REPO_ROOT, run_cli, run_main


def _json_report(*args):
    proc = run_main(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_analyze_json_totals():
    report = _json_report("analyze", "--stack", "asap7", "--area", "1", "--yield", "1", "--format", "json")
    result = report["result"]
    assert result["stack_metrics"]["total_pfas_layers"] == 29
    assert result["stack_metrics"]["by_region"] == {"FEOL": 4, "MOL": 3, "BEOL": 22}
    assert result["stack_metrics"]["total_litho_energy"] == 128.0
    assert result["chip_pfas"]["value"] == 29.0
    assert report["command"] == "analyze"
    assert report["schema_version"] == "1"


def test_analyze_csv_matches_json_numbers():
    args = ("analyze", "--stack", "asap7", "--area", "1", "--yield", "0.875")
    report = _json_report(*args, "--format", "json")
    proc = run_main(*args, "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    per_layer = {pl["name"]: pl for pl in report["result"]["stack_metrics"]["per_layer"]}
    for row in rows[:-1]:
        expected = per_layer[row["name"]]
        assert int(row["pfas_layers"]) == expected["pfas_layers"]
        assert float(row["litho_energy"]) == expected["litho_energy"]
        assert int(row["litho_steps"]) == expected["litho_steps"]
    totals = rows[-1]
    assert totals["name"] == "TOTAL"
    assert int(totals["pfas_layers"]) == 29
    assert float(totals["litho_energy"]) == 128.0
    assert int(totals["litho_steps"]) == 86


def test_analyze_table_has_reference_columns():
    proc = run_main("analyze", "--stack", "asap7", "--area", "1", "--yield", "1")
    assert proc.returncode == 0
    assert "# Litho steps" in proc.stdout
    assert "E_litho" in proc.stdout
    assert "# PFAS_litho" in proc.stdout


def test_stack_roundtrip_through_report(tmp_path):
    report = _json_report("analyze", "--stack", "asap7", "--area", "1", "--yield", "1", "--format", "json")
    stack_doc = report["inputs"]["stack"]
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(stack_doc), encoding="utf-8")
    again = _json_report("analyze", "--stack", str(path), "--area", "1", "--yield", "1", "--format", "json")
    assert again["result"]["stack_metrics"] == report["result"]["stack_metrics"]


def test_compare_positional_stacks():
    report = _json_report("compare", "n7_duv", "n7_euv", "--format", "json")
    reduction = report["result"]["percent_reduction"]
    assert 0.16 <= reduction <= 0.20


def test_a_named_preset_builds_no_layer(monkeypatch):
    # Each preset is one value, built when pfasfab.stack is imported: a config
    # or a command line that names one takes that value and builds no layer.
    built = []
    check = LayerSpec.__post_init__

    def counted(layer):
        built.append(layer.name)
        check(layer)

    monkeypatch.setattr(LayerSpec, "__post_init__", counted)
    doc = parse_config(json.dumps({"compare": {"stack_a": "n7_duv", "stack_b": "n7_euv"}}))
    report = _json_report("compare", "n7_duv", "n7_euv", "--format", "json")
    assert built == []
    assert doc.compare["stack_a"] is PRESETS["n7_duv"]
    assert doc.compare["stack_b"] is PRESETS["n7_euv"]
    assert report["result"]["a"]["total_pfas_layers"] == 36


def test_compare_from_config():
    report = _json_report("compare", "--config", str(CONFIGS / "compare_n7.json"), "--format", "json")
    assert report["result"]["a"]["total_pfas_layers"] == 36
    assert report["result"]["b"]["total_pfas_layers"] == 29


def test_sweep_beol_only_series():
    proc = run_main(
        "sweep", "--stack", "asap7", "--targets", "M7,M5,M3", "--beol-only", "--format", "csv"
    )
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    series = [int(r["beol_pfas_layers"]) for r in rows[1:]]  # skip baseline row
    assert series == [18, 12, 6]


def test_sweep_retention_from_flags():
    report = _json_report(
        "sweep", "--stack", "asap7", "--targets", "M3", "--retain-power-grid",
        "--format", "json",
    )
    points = report["result"]["points"]
    assert points[0]["metrics"]["total_pfas_layers"] == 29
    assert points[1]["metrics"]["total_pfas_layers"] == 17


def test_sweep_conflicting_flags():
    proc = run_main("sweep", "--stack", "asap7", "--targets", "M3", "--retain-power-grid", "--beol-only")
    assert proc.returncode == 1
    assert "beol-only" in proc.stderr


@pytest.mark.parametrize("sweep, flags, message", [
    ({"beol_only": True, "retain_power_grid": True}, (),
     "sweep.beol_only excludes sweep.retain_power_grid"),
    ({"beol_only": True}, ("--retain-power-grid",), "sweep.beol_only excludes --retain-power-grid"),
    ({"retain_power_grid": True}, ("--beol-only",), "--beol-only excludes sweep.retain_power_grid"),
], ids=["config", "config-beol-flag-retain", "flag-beol-config-retain"])
def test_sweep_conflict_from_config_names_its_location(tmp_path, sweep, flags, message):
    path = tmp_path / "config.json"
    document = {"stack": "asap7", "sweep": {"targets": ["M5"], **sweep}}
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_main("sweep", "--config", str(path), *flags)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_stack_file_holding_a_config_document_hints_config(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    stack_file = "configs/custom_stack_example.json"
    proc = run_main("analyze", "--stack", stack_file, "--area", "1", "--yield", "1")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: {stack_file}: <document>: stack object needs either a 'preset' or inline "
        "'layers'",
        f"error: {stack_file}: <document>: a config document with a stack section; pass it "
        "with --config",
    ]
    assert run_main("analyze", "--config", stack_file, "--area", "1", "--yield", "1").returncode == 0


def test_stack_file_preset_reference_takes_only_a_preset_name(tmp_path):
    path = tmp_path / "stack.json"
    inline = json.loads((CONFIGS / "custom_stack_example.json").read_text())["stack"]
    path.write_text(json.dumps({"preset": inline}))
    proc = run_main("analyze", "--stack", str(path), "--area", "1", "--yield", "1")
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {path}: preset: must be a preset name (asap7, n7_euv, "
                           "n7_duv), got an object\n")


def test_soc_report():
    report = _json_report("soc", "--config", str(CONFIGS / "soc_trainer.json"), "--format", "json")
    result = report["result"]
    assert result["target_top"] == "M4"
    assert 0.023 <= result["area_increase"] <= 0.025
    assert result["baseline"]["metrics"]["total_pfas_layers"] == 29
    assert result["constrained"]["metrics"]["total_pfas_layers"] == 20


def test_trend_ref_override():
    report = _json_report(
        "trend", "--config", str(CONFIGS / "trend_nodes.json"), "--ref", "7nm", "--format", "json"
    )
    points = {p["node"]: p["normalized"] for p in report["result"]["points"]}
    assert points["7nm"] == 1.0
    assert points["28nm"] == 20 / 29


_ANALYZE = ("analyze", "--stack", "asap7", "--area", "1", "--yield", "1")
_NO_STACK = "error: stack '' is neither a preset (asap7, n7_euv, n7_duv) nor an existing file\n"


@pytest.mark.parametrize("args, message", [
    (("trend", "--config", str(CONFIGS / "trend_nodes.json"), "--ref", ""),
     "error: reference node '' not in series; nodes: 28nm, 14nm, 7nm\n"),
    (("soc", "--config", str(CONFIGS / "soc_trainer.json"), "--target", ""),
     "error: target '' is not a BEOL layer of '7nm-ASAP7'; BEOL layers: "
     "M1, M2, M3, M4, M5, M6, M7, M8, M9\n"),
    (("sweep", "--config", str(CONFIGS / "sweep_asap7.json"), "--targets", ""),
     "error: target '' is not a BEOL layer of '7nm-ASAP7'; BEOL layers: "
     "M1, M2, M3, M4, M5, M6, M7, M8, M9\n"),
    (("analyze", "--stack", "", "--area", "1", "--yield", "1"), _NO_STACK),
    (("compare", "", "asap7"), _NO_STACK),
    (("analyze", "--config", ""), "error: --config: empty path, expected a file name\n"),
    ((*_ANALYZE, "--carbon-profile", ""),
     "error: --carbon-profile: empty path, expected a file name\n"),
    ((*_ANALYZE, "--out", ""), "error: --out: empty path, expected a file name\n"),
], ids=["trend-ref", "soc-target", "sweep-targets", "stack", "compare-stack", "config",
        "carbon-profile", "out"])
def test_given_empty_flag_wins_over_config(args, message):
    # A flag that is given overrides the config's section even when empty.
    # An empty path, which would name the current directory, is refused by
    # name before the file system is asked; --out "" is no request for stdout.
    proc = run_main(*args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)


def test_carbon_profile_flag():
    report = _json_report(
        "analyze", "--stack", "asap7", "--area", "1", "--yield", "1",
        "--carbon-profile", str(CONFIGS / "carbon_profile_example.json"),
        "--format", "json",
    )
    carbon = report["result"]["carbon"]
    assert carbon["low_kg"] < carbon["embodied_kg"] < carbon["high_kg"]


def test_sweep_csv_matches_json_numbers():
    args = (
        "sweep", "--config", str(CONFIGS / "sweep_asap7.json"),
    )
    report = _json_report(*args, "--format", "json")
    proc = run_main(*args, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    for row, point in zip(rows, report["result"]["points"]):
        assert int(row["total_pfas_layers"]) == point["metrics"]["total_pfas_layers"]
        assert int(row["beol_pfas_layers"]) == point["metrics"]["by_region"]["BEOL"]
        assert float(row["litho_energy"]) == point["metrics"]["total_litho_energy"]
        assert float(row["chip_pfas"]) == point["chip_pfas"]["value"]
        assert float(row["embodied_kg"]) == point["carbon"]["embodied_kg"]


def test_soc_csv_matches_json_numbers():
    args = ("soc", "--config", str(CONFIGS / "soc_trainer.json"))
    report = _json_report(*args, "--format", "json")
    proc = run_main(*args, "--format", "csv")
    lines = proc.stdout.split("metric,baseline,constrained\n")
    summary = {r["metric"]: r for r in csv.DictReader(
        io.StringIO("metric,baseline,constrained\n" + lines[1]))}
    result = report["result"]
    assert float(summary["area_increase"]["constrained"]) == result["area_increase"]
    assert float(summary["chip_pfas"]["baseline"]) == result["baseline"]["chip_pfas"]["value"]
    assert float(summary["pfas_layer_ratio"]["constrained"]) == result["pfas_layer_ratio"]


def test_trend_csv_matches_json_numbers():
    args = ("trend", "--config", str(CONFIGS / "trend_nodes.json"))
    report = _json_report(*args, "--format", "json")
    proc = run_main(*args, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    by_node = {p["node"]: p for p in report["result"]["points"]}
    for row in rows:
        assert float(row["normalized"]) == by_node[row["node"]]["normalized"]


def test_compare_csv_matches_json_numbers():
    args = ("compare", "n7_duv", "n7_euv")
    report = _json_report(*args, "--format", "json")
    proc = run_main(*args, "--format", "csv")
    rows = {r["metric"]: r for r in csv.DictReader(io.StringIO(proc.stdout))}
    assert float(rows["pfas_layers"]["ratio_a_over_b"]) == report["result"]["ratio_pfas"]
    assert float(rows["percent_reduction"]["ratio_a_over_b"]) == report["result"]["percent_reduction"]


def test_export_catalog_matches_golden(tmp_path):
    out = tmp_path / "catalog.json"
    proc = run_main("export-catalog", "--out", str(out))
    assert proc.returncode == 0
    assert out.read_bytes() == (GOLDEN / "catalog_export.json").read_bytes()


def test_export_catalog_csv_has_nine_rows():
    proc = run_main("export-catalog", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 9
    assert rows[0]["id"] == "ArF_LE"


@pytest.mark.parametrize(
    "args, needle",
    [
        (("analyze", "--stack", "asap9", "--area", "1", "--yield", "1"), "asap9"),
        (("analyze", "--stack", "asap7", "--area", "1", "--yield", "1.2"), "yield"),
        (("analyze", "--stack", "asap7"), "design"),
        (("analyze", "--stack", "asap7", "--config", "missing.json"), "missing.json"),
        (("sweep", "--stack", "asap7", "--targets", "M12"), "M12"),
        (("trend",), "trend"),
        (("sweep", "--stack", "asap7", "--targets", "M" + "9" * 5000), "not a BEOL layer"),
    ],
)
def test_error_paths_exit_one_with_location(args, needle):
    proc = run_main(*args)
    assert proc.returncode == 1
    assert needle in proc.stderr
    assert proc.stdout == ""


def test_sweep_duplicate_targets_exit_one():
    proc = run_main("sweep", "--stack", "asap7", "--targets", "M3,M3,M5")
    assert proc.returncode == 1
    assert proc.stderr == "error: target 'M3' is given more than once\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("sweep", "--stack", "asap7", "--targets", "M5,M8"),
    ("soc", "--config", str(CONFIGS / "soc_trainer.json"), "--target", "M8"),
], ids=["sweep", "soc"])
def test_power_grid_target_exits_one_naming_the_routing_layers(args):
    proc = run_main(*args)
    assert proc.returncode == 1
    assert proc.stderr == ("error: target 'M8' is a power-grid layer of '7nm-ASAP7', not a "
                           "routing layer; routing layers: M1, M2, M3, M4, M5, M6, M7\n")
    assert proc.stdout == ""


def test_empty_stack_target_error_reads_none():
    proc = run_main("sweep", "--stack", str(REPO_ROOT / "tests/data/empty_stack.json"),
                    "--targets", "M1")
    assert proc.returncode == 1
    assert proc.stderr == "error: target 'M1' is not a BEOL layer of 'empty'; BEOL layers: none\n"
    assert proc.stdout == ""


def test_a_stack_file_that_is_not_json_is_named(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[", encoding="utf-8")
    proc = run_main("compare", "asap7", str(path))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {path}: line 1, column 2: invalid JSON: Expecting value\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("args, prefix", [
    (("analyze", "--config", "{path}"), "error: <document>: "),
    (("compare", "{path}", "asap7"), "error: {path}: <document>: "),
    (("analyze", "--stack", "asap7", "--area", "1", "--yield", "1", "--carbon-profile",
      "{path}"), "error: {path}: <document>: "),
], ids=["config", "stack", "carbon-profile"])
def test_a_document_nested_too_deeply_exits_one_naming_it(tmp_path, args, prefix):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    proc = run_main(*(arg.format(path=path) for arg in args))
    assert proc.returncode == 1
    assert proc.stderr == prefix.format(path=path) + "invalid JSON: nested too deeply\n"
    assert proc.stdout == ""


def test_carbon_profile_errors_name_the_file(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    profile = "configs/soc_trainer.json"  # a config document, not a profile
    proc = run_main("analyze", "--stack", "asap7", "--area", "1", "--yield", "1",
                    "--carbon-profile", profile)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 5
    assert lines[0] == f"error: {profile}: carbon_intensity: required field is missing"
    assert all(line.startswith(f"error: {profile}: ") for line in lines)


def test_huge_config_number_exits_one_naming_field(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        '{"stack": "asap7", "design": {"area_cm2": %s, "yield": 1}}' % ("9" * 400),
        encoding="utf-8",
    )
    proc = run_main("analyze", "--config", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: design.area_cm2: ")
    assert "Traceback" not in proc.stderr


def test_usage_error_exits_two():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    proc = run_cli("analyze", "--format", "yaml")
    assert proc.returncode == 2


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_repeated_main_calls_match_fresh_processes(monkeypatch):
    # One parser serves every call: a usage error leaves nothing behind,
    # each subcommand keeps its own defaults (export-catalog's --format is
    # json), and usage text is wrapped to the width at each call. Built anew
    # here, so that the first call naming a subcommand adds its arguments
    # whatever ran before; adding them twice would raise.
    cli._build_parser.cache_clear()
    analyze = ("analyze", "--stack", "asap7", "--area", "1", "--yield", "0.875", "--format", "json")
    usage = ("sweep", "--format", "xml")
    every = [
        analyze,
        ("compare", "n7_duv", "n7_euv", "--format", "csv"),
        ("sweep", "--config", str(CONFIGS / "sweep_asap7.json"), "--format", "json"),
        ("soc", "--config", str(CONFIGS / "soc_trainer.json"), "--format", "table"),
        ("trend", "--config", str(CONFIGS / "trend_nodes.json"), "--format", "csv"),
        ("export-catalog",),
    ]
    for columns, argv in [("80", usage), ("80", analyze), ("80", ("export-catalog",)),
                          ("80", analyze), ("50", usage), *[("80", argv) for argv in every * 2],
                          ("80", ("soc", "--help")), ("50", usage)]:
        monkeypatch.setenv("COLUMNS", columns)
        got, want = run_main(*argv), run_cli(*argv)
        assert (got.returncode, got.stdout, got.stderr) == (
            want.returncode, want.stdout, want.stderr)
    assert got.returncode == 2


def test_unwritable_out_path_exits_one():
    proc = run_main("export-catalog", "--out", "/nonexistent_dir/x.json")
    assert proc.returncode == 1
    assert "cannot write report" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_invalid_yield_flag_cites_range():
    proc = run_main("analyze", "--stack", "asap7", "--area", "1", "--yield", "0")
    assert proc.returncode == 1
    assert "(0, 1]" in proc.stderr


def test_strict_mode_rejects_unknown_config_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        '{"stack": "asap7", "design": {"area_cm2": 1, "yield": 1}, "extra": true}',
        encoding="utf-8",
    )
    lenient = run_main("analyze", "--config", str(path), "--format", "json")
    assert lenient.returncode == 0
    assert "warning" in lenient.stderr
    strict = run_main("analyze", "--config", str(path), "--strict", "--format", "json")
    assert strict.returncode == 1
    assert "extra" in strict.stderr


def test_stack_file_unknown_keys_warn_or_fail_in_strict_mode(tmp_path):
    path = tmp_path / "stack.json"
    path.write_text('{"preset": "asap7", "colour": 1}', encoding="utf-8")
    known = "(known: preset)"
    lenient = run_main("compare", str(path), "asap7", "--format", "json")
    assert lenient.returncode == 0
    assert lenient.stderr == f"warning: {path}: colour: unknown key 'colour' {known}\n"
    assert json.loads(lenient.stdout)["result"]["ratio_pfas"] == 1.0
    strict = run_main("compare", str(path), "asap7", "--strict")
    assert strict.returncode == 1
    assert strict.stdout == ""
    assert strict.stderr == f"error: {path}: colour: unknown key 'colour' {known}\n"


def test_carbon_profile_unknown_keys_warn_naming_the_file(tmp_path):
    profile = json.loads((CONFIGS / "carbon_profile_example.json").read_text(encoding="utf-8"))
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({**profile, "colour": 1}), encoding="utf-8")
    args = ("analyze", "--stack", "asap7", "--area", "1", "--yield", "1", "--carbon-profile",
            str(path))
    lenient = run_main(*args)
    assert lenient.returncode == 0
    assert lenient.stderr.startswith(f"warning: {path}: colour: unknown key 'colour' (known: ")
    assert lenient.stderr.count("\n") == 1
    strict = run_main(*args, "--strict")
    assert strict.returncode == 1
    assert strict.stderr.startswith(f"error: {path}: colour: unknown key 'colour' (known: ")


def test_stack_file_errors_are_located_from_its_top_level(tmp_path):
    path = tmp_path / "stack.json"
    layer = {"name": "M1", "region": "BEOL", "metal_process": "EUV_LE", "pitch_nm": "x"}
    path.write_text(json.dumps({"technology_node": "t", "colour": 1, "layers": [layer]}),
                    encoding="utf-8")
    proc = run_main("compare", str(path), "asap7", "--strict")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: {path}: colour: unknown key 'colour' (known: layers, schema_version, "
        "technology_node)",
        f"error: {path}: layers[0].pitch_nm: must be a number or null, got 'x'",
    ]
    path.write_text("[]", encoding="utf-8")
    proc = run_main("compare", str(path), "asap7")
    assert proc.stderr == (f"error: {path}: <document>: stack must be a preset name or an "
                           "object, got []\n")


def test_invalid_stack_file_reports_violations(tmp_path):
    path = tmp_path / "stack.json"
    path.write_text(
        json.dumps(
            {
                "technology_node": "t",
                "layers": [{"name": "M1", "region": "BEOL", "metal_process": "ArFi_LE9"}],
            }
        ),
        encoding="utf-8",
    )
    proc = run_main("analyze", "--stack", str(path), "--area", "1", "--yield", "1")
    assert proc.returncode == 1
    assert "M1" in proc.stderr
    assert "unknown-process" in proc.stderr


def test_flag_and_config_print_the_same_range_message(tmp_path):
    flag = run_main("analyze", "--stack", "asap7", "--area", "1", "--yield", "0")
    path = tmp_path / "config.json"
    path.write_text('{"stack": "asap7", "design": {"area_cm2": 1, "yield": 0}}', encoding="utf-8")
    config = run_main("analyze", "--config", str(path))
    assert flag.returncode == config.returncode == 1
    assert flag.stderr.startswith("error: yield must be within (0, 1]")
    assert config.stderr == "error: design.yield: " + flag.stderr[len("error: "):]


def test_overflowing_chip_value_exits_one():
    proc = run_main(
        "analyze", "--stack", "asap7", "--area", "1e300", "--yield", "1e-300", "--format", "json"
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: chip PFAS overflows")


_OVERFLOWING = {
    "stack": "asap7",
    "design": {"area_cm2": 1, "yield": 0.5},
    "fab": {
        "carbon": {
            "carbon_intensity": 0.4,
            "energy_per_unit_litho": 0.05,
            "energy_per_area_base": 5.0,
            "gas_per_area": 1e308,
            "material_per_area": 0.5,
        }
    },
    "sweep": {"targets": ["M5"]},
    "soc": {
        "blocks": [
            {"name": "cpu", "area_cm2": 1, "required_top": "M7", "area_overhead": {"M4": 1.5}}
        ],
        "target_top": "M4",
    },
}


@pytest.mark.parametrize("command", ["analyze", "sweep", "soc"])
@pytest.mark.parametrize(
    "fab, needle",
    [
        ({}, "embodied carbon overflows"),
        ({"energy_weights": {"per_euv_mask": 1e308, "per_duv_mask": 1}}, "litho energy"),
    ],
    ids=["gas", "weights"],
)
def test_overflowing_figures_exit_one(tmp_path, command, fab, needle):
    document = {**_OVERFLOWING, "fab": {**_OVERFLOWING["fab"], **fab}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_main(command, "--config", str(path), "--format", "json")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert needle in proc.stderr


def test_json_renderer_refuses_non_finite_numbers():
    with pytest.raises(ValueError):
        render_json({"value": float("inf")})


_GOLDEN_RUNS = {
    "analyze_asap7": ("analyze", "--stack", "asap7", "--area", "1", "--yield", "0.875",
                      "--carbon-profile", "configs/carbon_profile_example.json"),
    "compare_n7": ("compare", "n7_duv", "n7_euv"),
    "sweep_config": ("sweep", "--config", "configs/sweep_asap7.json"),
    "sweep_m3_retain": ("sweep", "--stack", "asap7", "--targets", "M3", "--retain-power-grid"),
    "soc_trainer": ("soc", "--config", "configs/soc_trainer.json"),
    "soc_trainer_carbon": ("soc", "--config", "configs/soc_trainer.json",
                           "--carbon-profile", "configs/carbon_profile_example.json"),
    "trend_nodes": ("trend", "--config", "configs/trend_nodes.json"),
    "export_catalog": ("export-catalog",),
    "compare_empty_asap7": ("compare", "tests/data/empty_stack.json", "asap7"),
    "compare_asap7_empty": ("compare", "asap7", "tests/data/empty_stack.json"),
}
_GOLDEN_SUFFIX = {"table": "txt", "csv": "csv", "json": "json"}
# The catalog's JSON is pinned by test_export_catalog_matches_golden.
_GOLDEN_CASES = [
    (name, fmt)
    for name in sorted(_GOLDEN_RUNS)
    for fmt in sorted(_GOLDEN_SUFFIX)
    if (name, fmt) != ("export_catalog", "json")
]


@pytest.mark.parametrize("name, fmt", _GOLDEN_CASES, ids=[f"{n}-{f}" for n, f in _GOLDEN_CASES])
def test_report_bytes_match_golden(monkeypatch, name, fmt):
    monkeypatch.chdir(REPO_ROOT)
    proc = run_main(*_GOLDEN_RUNS[name], "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (GOLDEN / "cli" / f"{name}.{_GOLDEN_SUFFIX[fmt]}").read_text()


def test_huge_layer_label_exits_one_without_traceback(tmp_path):
    path = tmp_path / "config.json"
    layer = {"name": "M" + "9" * 5000, "region": "BEOL", "metal_process": "EUV_LE"}
    document = {"stack": {"technology_node": "t", "layers": [layer]},
                "design": {"area_cm2": 1, "yield": 1}}
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_main("analyze", "--config", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: stack.layers: layer 'M999")
    assert "[beol-name]" in proc.stderr
    assert "Traceback" not in proc.stderr


_BIG_BLOCK = {"name": "big", "area_cm2": 1e308, "required_top": "M7", "area_overhead": {"M4": 2}}


@pytest.mark.parametrize("flags", [(), ("--yield", "0.5")], ids=["config", "yield-flag"])
@pytest.mark.parametrize(
    "blocks, side", [([_BIG_BLOCK], "constrained"), ([_BIG_BLOCK, _BIG_BLOCK], "baseline")]
)
def test_soc_area_overflow_names_the_computed_area(tmp_path, blocks, side, flags):
    path = tmp_path / "config.json"
    document = {"stack": "asap7", "soc": {"blocks": blocks, "target_top": "M4"}}
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_main("soc", "--config", str(path), *flags)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {side} SoC area overflows: ")
    assert "area_cm2" not in proc.stderr


def _soc_config_without_design(tmp_path):
    document = json.loads((CONFIGS / "soc_trainer.json").read_text(encoding="utf-8"))
    del document["design"]
    path = tmp_path / "soc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def test_soc_yield_flag_applies_without_a_design_section(tmp_path):
    path = _soc_config_without_design(tmp_path)
    report = _json_report("soc", "--config", str(path), "--yield", "0.5", "--format", "json")
    assert report["result"]["baseline"]["chip_pfas"]["value"] == 58.0
    assert report["inputs"]["design"] == {"area_cm2": 1.0, "yield": 0.5}
    rows = list(csv.reader(io.StringIO(
        run_main("soc", "--config", str(path), "--yield", "0.5", "--format", "csv").stdout
    )))
    assert ["chip_pfas", "58.0", "40.9588"] in rows


def test_soc_echoes_the_design_area_its_figures_use(tmp_path):
    # The chip figures use the blocks' summed area, whatever design.area_cm2 says.
    document = json.loads((CONFIGS / "soc_trainer.json").read_text(encoding="utf-8"))
    document["design"]["area_cm2"] = 5.0
    path = tmp_path / "soc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    report = _json_report("soc", "--config", str(path), "--format", "json")
    expected = _json_report("soc", "--config", str(CONFIGS / "soc_trainer.json"),
                            "--format", "json")
    assert report["inputs"]["design"] == {"area_cm2": 1.0, "yield": 0.875}
    assert report == expected


def test_soc_takes_no_area_flag():
    proc = run_main("soc", "--config", str(CONFIGS / "soc_trainer.json"), "--area", "3")
    assert proc.returncode == 2
    assert "unrecognized arguments: --area" in proc.stderr


@pytest.mark.parametrize("given, missing", [("--area", "--yield"), ("--yield", "--area")])
def test_sweep_lone_design_flag_exits_one_naming_the_other(tmp_path, given, missing):
    document = json.loads((CONFIGS / "sweep_asap7.json").read_text(encoding="utf-8"))
    del document["design"]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_main("sweep", "--config", str(path), given, "0.5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: design parameter missing: pass {missing} too, or a config with a design section\n"
    )
