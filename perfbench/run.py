"""pfasfab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds S]

The first form runs one workload from the root of a checkout and prints, as
the last line of stdout, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``failed`` counts
the failed ops other than the known defects listed in
``workloads.KNOWN_DEFECTS``; those count in ``correct_op_frac`` and in the
result file's ``failed_op_frac``. The full result (input mix, environment,
failure examples) goes to ``.perfbench/<workload>-seed<N>-trace<T>.json``.

The second form runs every workload untraced and prints one row per
workload with every end-to-end metric, its unit, and the failed-op share.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracing
import workloads

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_overhead_ms": "ms",
    "correct_op_frac": "ratio",
}
PER_LAYER = {
    "import.total_ms": "ms",
    **{f"import.{m}_self_ms": "ms" for m in tracing.IMPORT_MODULES},
    "import.stdlib_ms": "ms",
    "cli.main_ms": "ms",
    "cli.startup_ms": "ms",
    "config.parse_us": "us",
    "config.reject_us": "us",
    "config.calls": "count/op",
    "config.rejects": "count/op",
    "stack.validate_us": "us",
    "stack.validate_calls_per_op": "count/op",
    "stack.derive_calls_per_op": "count/op",
    "stack.self_us": "us",
    "catalog.lookup_calls_per_op": "count/op",
    "catalog.lookup_useful_ratio": "ratio",
    "catalog.stepcounts_built_per_op": "count/op",
    "engine.stack_metrics_calls_per_op": "count/op",
    "engine.self_us": "us",
    "carbon.calls_per_op": "count/op",
    "carbon.self_us": "us",
    "scenarios.sweep_beol_us": "us",
    "scenarios.compare_stacks_us": "us",
    "scenarios.compose_soc_us": "us",
    "scenarios.normalize_trend_us": "us",
    "scenarios.self_us": "us",
    "report.to_dict_us": "us",
    "report.render_json_us": "us",
    "report.render_csv_us": "us",
    "report.render_table_us": "us",
    "report.bytes_per_op": "B/op",
    "trace.overhead_frac": "ratio",
}


def run(workload, seed, seconds, trace):
    workloads.require_program()
    workloads.WORK.mkdir(exist_ok=True)
    result = workloads.WORKLOADS[workload](seed, seconds, trace)
    f = result.failures
    if not trace:
        result.metrics["correct_op_frac"] = 1 - f.failed / f.attempted
    units = PER_LAYER if trace else END_TO_END
    if set(result.metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(result.metrics) ^ set(units))}")
    line = {
        "correct": f.unexpected == 0,
        "attempted": f.attempted,
        "failed": f.unexpected,
        "metrics": {k: {"value": result.metrics[k], "unit": u} for k, u in units.items()},
    }
    full = dict(line, workload=workload, seed=seed, seconds=seconds, trace=trace,
                failed_op_frac=f.failed / f.attempted, failures_by_kind=f.by_kind,
                known_defects=f.known,
                failure_examples=f.examples, **result.details)
    path = workloads.WORK / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(full, indent=2) + "\n", encoding="utf-8")
    return line, full


def summary(seed, seconds):
    names = list(END_TO_END) + ["failed_op_frac", "samples"]
    units = [END_TO_END.get(n, "ratio" if n == "failed_op_frac" else "count") for n in names]
    print(f"{'workload':<14}" + "".join(f"{n + ' [' + u + ']':>24}" for n, u in zip(names, units)))
    for workload in workloads.WORKLOADS:
        line, full = run(workload, seed, seconds, 0)
        values = {k: v["value"] for k, v in line["metrics"].items()}
        values["failed_op_frac"] = full["failed_op_frac"]
        values["samples"] = full["latency"]["untraced"]["samples"]
        print(f"{workload:<14}" + "".join(f"{values[n]:>24.4f}" for n in names)
              + ("" if line["correct"] else "   OUTPUT CHECK FAILED"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload untraced and print one row each")
    args = parser.parse_args(argv)
    if not args.summary and args.workload is None:
        parser.error("--workload is required without --summary")
    try:
        if args.summary:
            summary(args.seed, args.seconds)
        else:
            line, _ = run(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(line))
    except workloads.SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
