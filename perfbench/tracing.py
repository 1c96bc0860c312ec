"""Spans around the calls into each pfasfab module, recorded from outside.

``Tracer.install`` wraps the public functions listed in ``SPANS`` and
rebinds each wrapper in every ``pfasfab`` module namespace that holds the
original, so calls between modules are seen too. Hot, tiny calls listed in
``COUNTS`` are only counted. Spans stay in memory as
``(name, start_ns, end_ns, parent, op, error)`` tuples until ``dump``.

``layer_metrics`` turns spans and counts into the per-layer metrics; a
span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import sys
import time

SPANS = {
    "cli": ("main",),
    "config": ("parse_config", "parse_config_dict", "parse_carbon_profile",
               "load_stack_document", "stack_to_dict"),
    "stack": ("validate_stack", "stack_violations", "derive_layer_metrics",
              "asap7_preset", "n7_fixture"),
    "engine": ("stack_metrics", "chip_pfas", "step_totals"),
    "carbon": ("embodied_carbon", "carbon_band"),
    "scenarios": ("sweep_beol", "compare_stacks", "compose_soc", "normalize_trend"),
    "report": ("metrics_to_dict", "metrics_summary_dict", "chip_to_dict", "carbon_to_dict",
               "comparison_to_dict", "sweep_to_dict", "soc_to_dict", "trend_to_dict",
               "catalog_to_dict", "build_report", "render"),
}
TO_DICT = frozenset(f"report.{n}" for n in SPANS["report"] if n != "render")
LAYERS = ("cli", "config", "stack", "catalog", "engine", "carbon", "scenarios", "report")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {"catalog.lookup": 0, "catalog.stepcounts": 0,
                       "stack.slots_derived": 0, "report.bytes": 0}
        self.op = 0
        self._open = []
        self._undo = []

    # -- wrapping ----------------------------------------------------------

    def _span(self, name, fn):
        """Wrap ``fn`` in a span named ``name``, or ``name(*args)`` if callable."""
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            index = len(spans)
            spans.append(None)
            open_.append(index)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                open_.pop()
                span_name = name(*args, **kwargs) if callable(name) else name
                spans[index] = (span_name, start, end, parent, self.op, error)
        return wrapper

    def _render(self, fn):
        """``report.render`` spans are named by format and count output bytes."""
        counts = self.counts
        spanned = self._span(lambda report, fmt: f"report.render_{fmt}", fn)

        @functools.wraps(fn)
        def wrapper(report, fmt):
            text = spanned(report, fmt)
            counts["report.bytes"] += len(text.encode("utf-8"))
            return text
        return wrapper

    def _stack_metrics(self, wrapped):
        """Counts the (layer, process) slots each stack_metrics call derives."""
        counts = self.counts

        @functools.wraps(wrapped)
        def wrapper(stack, *args, **kwargs):
            counts["stack.slots_derived"] += sum(
                (l.metal_process is not None) + (l.via_process is not None) for l in stack.layers)
            return wrapped(stack, *args, **kwargs)
        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every listed function; call after pfasfab is imported."""
        import pfasfab.catalog
        import pfasfab.cli  # noqa: F401  (so its namespace is rebound too)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pfasfab" or n.startswith("pfasfab."))]
        for layer, names in SPANS.items():
            home = sys.modules[f"pfasfab.{layer}"]
            for name in names:
                original = getattr(home, name)
                if name == "render":
                    wrapper = self._render(original)
                else:
                    wrapper = self._span(f"{layer}.{name}", original)
                    if name == "stack_metrics":
                        wrapper = self._stack_metrics(wrapper)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))
        cls = pfasfab.catalog.ProcessCatalog
        self._patch(cls, "lookup", self._count("catalog.lookup", cls.lookup))
        cls = pfasfab.catalog.StepCounts
        self._patch(cls, "__post_init__", self._count("catalog.stepcounts", cls.__post_init__))
        return self

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON array per line, then the counts."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"counts": self.counts}) + "\n")

    @staticmethod
    def load(path):
        tracer = Tracer()
        with open(path, encoding="utf-8") as src:
            for line in src:
                item = json.loads(line)
                if isinstance(item, dict):
                    tracer.counts = item["counts"]
                else:
                    tracer.spans.append(tuple(item))
        return tracer


def merge(tracers):
    """One tracer holding the spans and counts of several, op ids kept."""
    merged = Tracer()
    for tracer in tracers:
        offset = len(merged.spans)
        merged.spans.extend((n, s, e, p + offset if p >= 0 else -1, op, err)
                            for n, s, e, p, op, err in tracer.spans)
        for key, value in tracer.counts.items():
            merged.counts[key] += value
    return merged


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, ops):
    """Per-layer metrics from one traced phase of ``ops`` ops."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns = dict.fromkeys(LAYERS, 0)
    calls, durations = {}, {}
    to_dict_ns = 0
    parse_ok, parse_rejected = [], []
    for i, (name, start, end, parent, _, error) in enumerate(spans):
        duration = end - start
        self_ns[name.split(".")[0]] += duration - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(duration)
        if name in TO_DICT and (parent < 0 or spans[parent][0] not in TO_DICT):
            to_dict_ns += duration
        if name == "config.parse_config":
            if error is None:
                parse_ok.append(duration)
            elif error == "ConfigError":
                parse_rejected.append(duration)

    def us(name):
        return _median(durations.get(name, ())) / 1e3

    def per_op(value):
        return value / ops

    counts = tracer.counts
    lookups = counts["catalog.lookup"]
    return {
        "cli.main_ms": us("cli.main") / 1e3,
        "config.parse_us": _median(parse_ok) / 1e3,
        "config.reject_us": _median(parse_rejected) / 1e3,
        "config.calls": per_op(calls.get("config.parse_config", 0)),
        "config.rejects": per_op(len(parse_rejected)),
        "stack.validate_us": us("stack.validate_stack"),
        "stack.validate_calls_per_op": per_op(calls.get("stack.validate_stack", 0)),
        "stack.derive_calls_per_op": per_op(calls.get("stack.derive_layer_metrics", 0)),
        "stack.self_us": per_op(self_ns["stack"]) / 1e3,
        "catalog.lookup_calls_per_op": per_op(lookups),
        "catalog.lookup_useful_ratio": counts["stack.slots_derived"] / lookups if lookups else 0.0,
        "catalog.stepcounts_built_per_op": per_op(counts["catalog.stepcounts"]),
        "engine.stack_metrics_calls_per_op": per_op(calls.get("engine.stack_metrics", 0)),
        "engine.self_us": per_op(self_ns["engine"]) / 1e3,
        "carbon.calls_per_op": per_op(calls.get("carbon.embodied_carbon", 0)
                                      + calls.get("carbon.carbon_band", 0)),
        "carbon.self_us": per_op(self_ns["carbon"]) / 1e3,
        "scenarios.sweep_beol_us": us("scenarios.sweep_beol"),
        "scenarios.compare_stacks_us": us("scenarios.compare_stacks"),
        "scenarios.compose_soc_us": us("scenarios.compose_soc"),
        "scenarios.normalize_trend_us": us("scenarios.normalize_trend"),
        "scenarios.self_us": per_op(self_ns["scenarios"]) / 1e3,
        "report.to_dict_us": per_op(to_dict_ns) / 1e3,
        "report.render_json_us": us("report.render_json"),
        "report.render_csv_us": us("report.render_csv"),
        "report.render_table_us": us("report.render_table"),
        "report.bytes_per_op": per_op(counts["report.bytes"]),
    }


# ---------------------------------------------------------------------------
# python -X importtime

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")
IMPORT_MODULES = ("cli", "config", "scenarios", "stack", "catalog", "engine", "carbon", "report")


def import_metrics(stderr):
    """Import cost of pfasfab from one ``-X importtime`` log, in ms.

    ``total`` sums the top-level pfasfab entries; ``stdlib`` sums the self
    time of the non-pfasfab modules first imported beneath them.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((int(m.group(1)), int(m.group(2)), len(m.group(3)) // 2, m.group(4)))
    out = {f"import.{name}_self_ms": 0.0 for name in IMPORT_MODULES}
    total = stdlib = 0
    pending = 0  # self time of nested non-pfasfab modules since the last top-level entry
    for self_us, cumulative_us, depth, name in entries:
        ours = name == "pfasfab" or name.startswith("pfasfab.")
        if ours and name.count(".") == 1 and f"import.{name[8:]}_self_ms" in out:
            out[f"import.{name[8:]}_self_ms"] = self_us / 1e3
        if depth == 0:
            if ours:
                total += cumulative_us
                stdlib += pending
            pending = 0
        elif not ours:
            pending += self_us
    out["import.total_ms"] = total / 1e3
    out["import.stdlib_ms"] = stdlib / 1e3
    return out
