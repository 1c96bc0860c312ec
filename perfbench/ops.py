"""The ops of the two in-process workloads, without their checks.

The timed loop (``workloads.py``) and the memory probe (``rss_probe.py``)
both run them. This module imports the input generator and nothing of the
benchmark's checking; ``pf`` is the imported ``pfasfab`` package.
"""

from __future__ import annotations

import contextlib
import io

import inputs


def explore(pf, seed):
    """``(op, stream)`` of explore_batch. ``op(args)`` evaluates one stack
    through the library API; the stream yields ``(args, case)`` pairs and
    builds the library objects, outside the timed region."""
    presets = {"asap7": pf.asap7_preset(), "n7_euv": pf.n7_fixture("euv"),
               "n7_duv": pf.n7_fixture("duv")}
    carbon = pf.CarbonParams(**inputs.CARBON_PROFILE)

    def prepare(c):
        stack = pf.StackSpec(c["node"], tuple(
            pf.LayerSpec(name, pf.Region(region), pitch, metal, via, frozenset(tags))
            for name, region, pitch, metal, via, tags in c["layers"]))
        blocks = [pf.SocBlock(*b) for b in c["blocks"]]
        return (stack, c["targets"], pf.DesignParams(*c["design"]), c["band"],
                presets[c["preset"]], blocks, c["soc_target"])

    def op(args):
        stack, targets, design, band, preset, blocks, soc_target = args
        pf.validate_stack(stack)
        points = pf.sweep_beol(stack, targets, design=design, carbon_params=carbon, ci_band=band)
        comparison = pf.compare_stacks(stack, preset)
        soc = pf.compose_soc(blocks, stack, soc_target, design=design,
                             carbon_params=carbon, ci_band=band)
        return points, comparison, soc

    return op, ((prepare(c), c) for c in inputs.explore_stream(seed))


def ingest(pf, seed, docs_dir):
    """``(op, stream)`` of config_ingest. ``op(argv)`` runs ``cli.main`` with
    captured streams and returns its exit code, stdout and stderr. The
    stream writes each document to ``docs_dir``, removes the one before,
    and yields ``(argv, doc)`` pairs."""
    def op(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pf.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def stream():
        previous = None
        for i, d in enumerate(inputs.config_stream(seed)):
            path = docs_dir / f"doc-{i}.json"
            path.write_text(d["text"], encoding="utf-8")
            if previous is not None:
                previous.unlink()
            previous = path
            argv = [d["command"], "--config", str(path), "--format", d["format"]]
            if d["strict"]:
                argv.append("--strict")
            yield argv, d

    return op, stream()
