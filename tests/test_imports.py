"""Which modules an import loads, read from ``sys.modules`` of a fresh
interpreter, and the public names the package exports. Nothing here is
timed."""

import importlib
import importlib.util
import os
import subprocess
import sys

import pfasfab

from conftest import GOLDEN, REPO_ROOT


def _loaded(statement: str, *flags: str) -> set[str]:
    """The names in ``sys.modules`` after ``statement`` (an import) in a
    fresh interpreter started with ``flags``, with ``src`` on its path."""
    code = f"import sys; {statement}; print(*sys.modules, sep='\\n')"
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          cwd=REPO_ROOT, check=True, env={**os.environ, "PYTHONPATH": path})
    return set(proc.stdout.split())


def _pfasfab(modules: set[str]) -> set[str]:
    return {name for name in modules if name == "pfasfab" or name.startswith("pfasfab.")}


def test_package_import_loads_no_submodule():
    loaded = _loaded("import pfasfab")
    assert _pfasfab(loaded) == {"pfasfab"}
    assert "dataclasses" not in loaded


def test_presets_load_no_parser_or_scenario_module():
    loaded = _loaded("from pfasfab import PRESETS")
    assert {"pfasfab.config", "pfasfab.scenarios"}.isdisjoint(loaded)


def test_report_loads_no_model_or_config_module():
    assert _pfasfab(_loaded("import pfasfab.report")) == {
        "pfasfab", "pfasfab.report", "pfasfab.catalog", "pfasfab.stack", "pfasfab.value",
        "pfasfab.errors",
    }


def test_cli_loads_no_module_only_some_calls_use():
    # dataclasses (and inspect, which it imports) load only for a caller of
    # the dataclasses functions on a process; csv only to render CSV.
    assert {"dataclasses", "inspect", "csv"}.isdisjoint(_loaded("import pfasfab.cli"))


def test_cli_loads_no_typing():
    # Without site (-S): a .pth hook of an installed package may import typing
    # into every process that runs site.
    assert "typing" not in _loaded("import pfasfab.cli", "-S")


def test_cli_loads_every_traced_layer():
    # perfbench's Tracer.install imports pfasfab.cli and then wraps the
    # functions of every layer in SPANS, which it finds in sys.modules; so
    # cli must import them all until the tracer imports each layer itself.
    spec = importlib.util.spec_from_file_location("tracing", REPO_ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert {f"pfasfab.{layer}" for layer in tracing.SPANS} <= _loaded("import pfasfab.cli")


def test_public_names_resolve_and_are_pinned():
    # Each name resolves in the module its _EXPORTS entry names, so a removal
    # that forgets its entry fails here, not when the name is first read.
    for name in pfasfab.__all__:
        module = importlib.import_module(f"pfasfab.{pfasfab._EXPORTS[name]}")
        assert getattr(pfasfab, name) is getattr(module, name), name
    # Any addition or removal shows as a diff of the golden list.
    golden = (GOLDEN / "public_names.txt").read_text(encoding="utf-8").splitlines()
    assert sorted(pfasfab.__all__) == golden
