"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They check that inputs repeat for a seed, that the reference model agrees
with the hand-entered golden tables in tests/table_data.py, that a wrong
number or an exception in the program lands in the failed-op count, that
only the listed failure of a known defect is left out of the result line's
failed count, and that the benchmark's result line never mixes with the
program's output.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TABLE_DATA = workloads.ROOT / "tests" / "table_data.py"


def first(stream, n):
    return list(itertools.islice(stream, n))


class GeneratorDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(first(inputs.explore_stream(7), 800), first(inputs.explore_stream(7), 800))
        self.assertEqual(first(inputs.config_stream(7), 80), first(inputs.config_stream(7), 80))
        self.assertEqual(inputs.cli_rounds(7, 3), inputs.cli_rounds(7, 3))

    def test_other_seed_other_inputs_same_mix(self):
        a, b = first(inputs.explore_stream(7), 360), first(inputs.explore_stream(8), 360)
        self.assertNotEqual(a, b)
        mix_a = inputs.explore_mix([inputs.explore_props(c) for c in a])
        mix_b = inputs.explore_mix([inputs.explore_props(c) for c in b])
        self.assertEqual(mix_a["beol_depth_hist"], mix_b["beol_depth_hist"])
        da, db = first(inputs.config_stream(7), 80), first(inputs.config_stream(8), 80)
        self.assertNotEqual([d["text"] for d in da], [d["text"] for d in db])
        self.assertEqual(inputs.config_mix([inputs.config_props(d) for d in da])["kind_share"],
                         inputs.config_mix([inputs.config_props(d) for d in db])["kind_share"])

    def test_stacks_never_repeat(self):
        cases = first(inputs.explore_stream(5), 3 * 360)
        self.assertEqual(inputs.explore_mix([inputs.explore_props(c) for c in cases])
                         ["repeat_factor"], 1.0)
        docs = first(inputs.config_stream(5), 400)
        inline = [d["text"] for d in docs if d["inline"] and d["command"] != "trend"]
        self.assertEqual(len(set(inline)), len(inline))

    def test_every_mutation_kind_in_every_block(self):
        docs = first(inputs.config_stream(3), 80)
        for block in (docs[:40], docs[40:]):
            kinds = [d["kind"] for d in block]
            self.assertEqual(kinds.count("valid"), 32)
            self.assertEqual(sorted(k for k in kinds if k != "valid"), sorted(inputs.MUTATIONS))


@unittest.skipUnless(TABLE_DATA.is_file(), "tests/table_data.py is not in this checkout")
class ReferenceVsGolden(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(TABLE_DATA.parent))
        import table_data

        cls.td = table_data

    def test_process_rows(self):
        self.assertEqual(reference.PROCESSES, self.td.PROCESS_ROWS)

    def test_asap7_layers(self):
        fig = reference.stack_figures(*reference.PRESETS["asap7"])
        self.assertEqual(len(reference.ASAP7), len(self.td.ASAP7_ROWS))
        for layer, row in zip(reference.ASAP7, self.td.ASAP7_ROWS):
            name, region, pitch, metal, via, litho, energy, pfas = row
            self.assertEqual(layer[:5], (name, region, pitch, metal, via))
            self.assertEqual(fig[f"L.{name}.litho"], litho)
            self.assertEqual(fig[f"L.{name}.energy"], energy)
            self.assertEqual(fig[f"L.{name}.masks"], pfas)

    def test_asap7_totals(self):
        fig = reference.stack_figures(*reference.PRESETS["asap7"])
        self.assertEqual((fig["pfas"], fig["fab_steps"], fig["energy"]), (29, 379, 128.0))
        self.assertEqual({r: fig[f"pfas.{r}"] for r in reference.REGIONS},
                         self.td.asap7_region_pfas())
        self.assertEqual(fig["litho_steps"], self.td.asap7_total_litho_steps())
        self.assertEqual(fig["energy"], self.td.asap7_total_energy())
        self.assertEqual((fig["euv"], fig["duv"]), self.td.asap7_exposure_split())

    def test_n7_duv(self):
        fig = reference.stack_figures(*reference.PRESETS["n7_duv"])
        self.assertEqual((fig["pfas"], fig["fab_steps"], fig["energy"]), (36, 476, 36.0))
        for name, _, _, metal, via, _ in reference.N7_DUV:
            want_metal, want_via, masks = self.td.N7_DUV_ROWS[name]
            self.assertEqual((metal, via), (want_metal, want_via))
            self.assertEqual(fig[f"L.{name}.masks"], masks)

    def test_routing_sweep_series(self):
        fig = reference.sweep(*reference.PRESETS["asap7"], ["M7", "M5", "M3"])
        self.assertEqual([fig[f"p{i}.pfas.BEOL"] for i in range(4)], [18, 18, 12, 6])


class Checks(unittest.TestCase):
    def test_rejection_must_name_the_field(self):
        err = "error: stack.layers: layer 'M3': [unknown-process] x\n"
        self.assertTrue(check.rejection_named(err, "stack.layers[9].metal_process"))
        self.assertFalse(check.rejection_named(err, "design.yield"))
        self.assertTrue(check.rejection_named("error: line 3, column 1: invalid JSON\n", "line"))
        self.assertFalse(check.rejection_named("error: stack 'x' is neither\n", "stack.layers[0]"))

    def test_json_output_rejects_nonstandard_literals(self):
        with self.assertRaises(check.OutputError):
            check.parse_json('{"pitch_nm": Infinity}')

    def test_import_log_parsing(self):
        log = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | site",
            "import time:       300 |        300 |     dataclasses",
            "import time:      2000 |       2300 |   pfasfab.catalog",
            "import time:      1000 |       3300 | pfasfab",
            "import time:        50 |         50 |   argparse",
            "import time:       500 |       3850 | pfasfab.cli",
        ])
        m = tracing.import_metrics(log)
        self.assertEqual(m["import.total_ms"], 7.15)
        self.assertEqual(m["import.stdlib_ms"], 0.35)
        self.assertEqual(m["import.catalog_self_ms"], 2.0)
        self.assertEqual(m["import.cli_self_ms"], 0.5)


class KnownDefects(unittest.TestCase):
    def test_only_the_listed_failure_of_a_listed_mutation_is_known(self):
        f = workloads.Failures(attempted=4)
        f.record("accepted_malformed", "", "nonfinite")  # listed
        f.record("traceback", "", "nonfinite")  # listed mutation, other failure
        f.record("accepted_malformed", "", "wrong_type")  # unlisted mutation
        self.assertEqual(f.known, {"nonfinite": 1})
        self.assertEqual((f.failed, f.unexpected), (3, 2))


class PeakRss(unittest.TestCase):
    def test_probe_does_not_inherit_the_parent_peak(self):
        ballast = bytearray(96 << 20)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        mb = workloads.probe_rss_mb("cli_oneshot", "export-catalog", "--format", "json")
        self.assertGreater(mb, 5)
        self.assertLess(mb, 64)


class InjectedFaults(unittest.TestCase):
    """A wrong number and an exception in the program both count as failed ops."""

    def setUp(self):
        self.pf = workloads.load_pfasfab()
        catalog = self.pf.DEFAULT_CATALOG._processes
        self.euv = catalog["EUV_LE"]
        self.soc = (self.pf.compose_soc, self.pf.cli.compose_soc)

        calls = []
        original = self.pf.compose_soc

        def broken(*args, **kwargs):
            calls.append(1)
            if len(calls) % 2:
                raise RuntimeError("injected")
            return original(*args, **kwargs)

        catalog["EUV_LE"] = dataclasses.replace(self.euv, masks=2)
        self.pf.compose_soc = self.pf.cli.compose_soc = broken

    def tearDown(self):
        self.pf.DEFAULT_CATALOG._processes["EUV_LE"] = self.euv
        self.pf.compose_soc, self.pf.cli.compose_soc = self.soc

    def assert_counted(self, result):
        f = result.failures
        self.assertGreater(f.by_kind.get("wrong_numbers", 0), 0)
        self.assertGreater(f.by_kind.get("exception", 0), 0)
        self.assertLessEqual(f.failed, f.attempted)

    def test_explore_batch(self):
        self.assert_counted(workloads.explore_batch(1, 0.2, 0))

    def test_config_ingest(self):
        self.assert_counted(workloads.config_ingest(1, 0.2, 0))


class ResultLine(unittest.TestCase):
    def run_bench(self, *args, cwd=workloads.ROOT):
        return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                              cwd=cwd, capture_output=True, text=True, timeout=170)

    def assert_only_result(self, proc, keys):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        self.assertEqual(len(lines), 1, proc.stdout[:500])
        line = json.loads(lines[0])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), set(keys))
        return line

    def test_in_process_reports_stay_off_stdout(self):
        import run

        proc = self.run_bench("--workload", "config_ingest", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
        line = self.assert_only_result(proc, run.END_TO_END)
        self.assertTrue(line["correct"])
        # The two known input-handling defects fail one document in 20; they
        # show in correct_op_frac, not in the result line's failed count.
        self.assertEqual(line["failed"], 0)
        self.assertLess(line["metrics"]["correct_op_frac"]["value"], 0.97)

    def test_traced_runs_in_a_clean_checkout(self):
        """A checkout without the work directory; cli_oneshot's traced
        children write their spans to files, never to stdout."""
        import run

        with tempfile.TemporaryDirectory() as tmp:
            for part in ("src", "configs", "perfbench"):
                shutil.copytree(workloads.ROOT / part, Path(tmp) / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            for workload in ("cli_oneshot", "explore_batch"):
                with self.subTest(workload=workload):
                    shutil.rmtree(Path(tmp) / ".perfbench", ignore_errors=True)
                    proc = self.run_bench("--workload", workload, "--seed", "1",
                                          "--seconds", "1", "--trace", "1", cwd=tmp)
                    line = self.assert_only_result(proc, run.PER_LAYER)
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp)
            proc = self.run_bench("--workload", "explore_batch", "--seed", "1",
                                  "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_benchmark_json_matches_run_py(self):
        import run

        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
