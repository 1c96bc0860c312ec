"""The three workloads. Each is a closed loop with one client: the next op
starts only after the previous one has finished and been checked.

Every workload returns a ``Result``; ``run.py`` prints it. Op latencies are
timed with ``time.perf_counter_ns`` around the call alone; checking against
the reference model happens outside that interval.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import inputs
import ops
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PY = sys.executable

MIN_OPS = 100  # so that at least ten samples lie above p90
SETUP_SAMPLES = 32  # spread over the run
BARE_EVERY_SETUP = 4  # a bare interpreter before every fourth set-up sample
RSS_PROBE_OPS = 400
RSS_PROBE_CALLS = 18  # cli_oneshot: the first round, every subcommand x format
IMPORTTIME_SAMPLES = 5
BARE_EVERY = 5  # cli_oneshot times a bare interpreter after every fifth op
HARD_CAP_S = 150  # stop extending a run that has too few samples
TRACED_MAX_OPS = 300  # spans stay in memory; explore_batch makes ~600 per op


# Known defects of pfasfab's input handling: mutation kind -> the failure it
# causes. They are counted in ``failed_op_frac`` and in the ``correct_op_frac``
# metric, but not in the result line's ``failed``, which counts only failures
# nobody has listed here. A listed mutation that fails some other way counts
# there too. Remove an entry once pfasfab handles that mutation.
KNOWN_DEFECTS = {
    "nonfinite": "accepted_malformed",  # "pitch_nm": Infinity is accepted
    "huge_int": "exception",  # a 400-digit integer escapes as OverflowError
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (for example, no src/pfasfab)."""


@dataclass
class Failures:
    """Failed ops by kind, with a few messages kept for the result file."""

    attempted: int = 0
    by_kind: dict = field(default_factory=dict)
    known: dict = field(default_factory=dict)  # KNOWN_DEFECTS hits by mutation kind
    examples: list = field(default_factory=list)

    def record(self, kind, message, mutation=None):
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        if mutation is not None and KNOWN_DEFECTS.get(mutation) == kind:
            self.known[mutation] = self.known.get(mutation, 0) + 1
        if len(self.examples) < 10:
            self.examples.append(f"{kind}: {message}"[:500])

    @property
    def failed(self):
        return sum(self.by_kind.values())

    @property
    def unexpected(self):
        """Failed ops other than the known defects."""
        return self.failed - sum(self.known.values())


@dataclass
class Result:
    metrics: dict
    failures: Failures
    details: dict


# ---------------------------------------------------------------------------
# Shared helpers


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def require_program():
    if not (SRC / "pfasfab" / "__init__.py").is_file():
        raise SetupError(f"no pfasfab package under {SRC}")


def load_pfasfab(module="pfasfab.cli"):
    """Import ``module`` from this checkout's src/ and nowhere else; returns
    the pfasfab package."""
    require_program()
    sys.path.insert(0, str(SRC))
    importlib.import_module(module)
    import pfasfab

    if Path(pfasfab.__file__).resolve().parent != SRC / "pfasfab":
        raise SetupError(f"imported pfasfab from {pfasfab.__file__}, not from {SRC}")
    return pfasfab


def _spawn(argv):
    """Wall nanoseconds of one child process, and its stdout."""
    start = time.perf_counter_ns()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True)
    elapsed = time.perf_counter_ns() - start
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-400:]}")
    return elapsed, proc.stdout


class FreshInterpreters:
    """Fresh interpreters that start, import ``module`` and exit, with a bare
    ``python -c pass`` before every fourth. ``poll`` takes one when its turn
    comes, so the samples spread evenly over ``seconds`` of the run and a
    slow spell of the host moves only a few of them."""

    def __init__(self, module, seconds):
        self.code = (f"import time; t = time.perf_counter_ns(); import {module}; "
                     "print(time.perf_counter_ns() - t)")
        _spawn([PY, "-c", self.code])  # writes the bytecode cache once
        self.setup, self.imports, self.bare = [], [], []
        self.interval = seconds / SETUP_SAMPLES
        self.next_at = time.perf_counter()

    def take(self):
        if len(self.setup) % BARE_EVERY_SETUP == 0:
            self.bare.append(_spawn([PY, "-c", "pass"])[0])
        wall, out = _spawn([PY, "-c", self.code])
        self.setup.append(wall)
        self.imports.append(int(out))

    def poll(self):
        if len(self.setup) < SETUP_SAMPLES and time.perf_counter() >= self.next_at:
            self.take()
            self.next_at += self.interval

    def results(self):
        """In seconds: the median time to start, import and exit; the 90th
        percentile of the import alone, timed inside the child (it needs
        many samples to repeat, hence bare interpreters are fewer); and the
        median bare interpreter. Tops the samples up if the run was short."""
        while len(self.setup) < SETUP_SAMPLES:
            self.take()
        return (statistics.median(self.setup) / 1e9, p90(self.imports) / 1e9,
                statistics.median(self.bare) / 1e9)


def import_profile():
    """Per-module import metrics: medians over fresh ``-X importtime`` runs."""
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import pfasfab.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True)
        runs.append(tracing.import_metrics(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _p90_rank(n):
    return max(1, -(-9 * n // 10))  # nearest rank


def p90(values):
    return sorted(values)[_p90_rank(len(values)) - 1]


def latency_metrics(latencies_ns):
    n = len(latencies_ns)
    return {
        "op_p50_ms": statistics.median(latencies_ns) / 1e6,
        "op_p90_ms": p90(latencies_ns) / 1e6,
        "ops_per_s": n / (sum(latencies_ns) / 1e9),
        "samples": n,
        "samples_above_p90": n - _p90_rank(n),
    }


def probe_rss_mb(*args):
    """Peak RSS, in MB, of one ``rss_probe.py`` child run with ``args``."""
    proc = subprocess.run([PY, str(HERE / "rss_probe.py"), *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"rss_probe.py {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr[-400:]}")
    return int(proc.stderr.splitlines()[-1]) / 1024


def environment(bare_s):
    digest = hashlib.sha256()
    for path in sorted((SRC / "pfasfab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "bare_interpreter_ms": bare_s * 1e3,
    }


def _loop(op, items, seconds, min_ops, max_ops=None):
    """Run ``op`` over the ``items`` iterator for ``seconds``, extended until
    ``min_ops`` ops have run and cut at ``max_ops``; returns the op count."""
    deadline = time.perf_counter() + seconds
    cap = time.perf_counter() + max(seconds, HARD_CAP_S)
    items, count = iter(items), 0
    while True:
        now = time.perf_counter()
        if (now >= deadline and count >= min_ops) or now >= cap or count == max_ops:
            return count
        op(count, next(items))
        count += 1


def _phases(seconds, trace):
    """(seconds, traced) phases: one untraced phase, or an untraced and a
    traced half so the trace overhead is measured in the same run."""
    if not trace:
        return [(seconds, False)]
    return [(seconds / 2, False), (seconds / 2, True)]


def _end_to_end(stats, setup_s, rss_mb, overhead_ms):
    base = stats["untraced"]
    return {
        "op_p50_ms": base["op_p50_ms"],
        "op_p90_ms": base["op_p90_ms"],
        "ops_per_s": base["ops_per_s"],
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "cli_overhead_ms": overhead_ms,
    }


def _per_layer(workload, seed, stats, tracer, ops_traced, startup_ms=0.0):
    """Per-layer metrics of a traced run; the spans go to the work directory."""
    metrics = tracing.layer_metrics(tracer, max(ops_traced, 1))
    untraced, traced = stats["untraced"]["ops_per_s"], stats["traced"]["ops_per_s"]
    metrics["trace.overhead_frac"] = (untraced - traced) / untraced
    metrics["cli.startup_ms"] = startup_ms
    metrics.update(import_profile())
    tracer.dump(WORK / f"trace-{workload}-seed{seed}.jsonl")
    return metrics


def _in_process(stream, seconds, trace, failures, timed, verify, fresh):
    """Loop of the in-process workloads over ``(args, case)`` pairs.
    ``timed(args)`` is the op and the only code timed; ``verify(case,
    result, error)`` checks it afterwards, and the untraced phase then lets
    ``fresh`` take its set-up samples. Returns latency stats by phase, the
    tracer and the traced op count."""
    stats, tracer, traced_ops = {}, None, 0
    for phase_seconds, traced in _phases(seconds, trace):
        latencies = []
        if traced:
            tracer = tracing.Tracer().install()

        def op(i, item):
            args, case = item
            if traced:
                tracer.op = i
            failures.attempted += 1
            result = error = None
            start = time.perf_counter_ns()
            try:
                result = timed(args)
            except (Exception, SystemExit) as exc:  # a failed op is counted, the run goes on
                error = exc
            latencies.append(time.perf_counter_ns() - start)
            verify(case, result, error)
            if not traced:
                fresh.poll()

        try:
            count = _loop(op, stream, phase_seconds, 0 if trace else MIN_OPS,
                          TRACED_MAX_OPS if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_ops = count
        stats["traced" if traced else "untraced"] = latency_metrics(latencies)
    return stats, tracer, traced_ops


def _recording(stream, props, record):
    """``stream``, appending ``record(case)`` to ``props`` for each item."""
    for args, case in stream:
        props.append(record(case))
        yield args, case


# ---------------------------------------------------------------------------
# cli_oneshot


def cli_oneshot(seed, seconds, trace):
    """Sequential fresh ``python -m pfasfab`` processes over every subcommand
    and format, the presets and the shipped configs."""
    fresh = FreshInterpreters("pfasfab.cli", _phases(seconds, trace)[0][0])
    calls = inputs.cli_rounds(seed, rounds=60)
    configs = {}

    def expected_for(argv):
        def doc(flag):
            if flag not in argv:
                return None
            path = argv[argv.index(flag) + 1]
            if path not in configs:
                configs[path] = json.loads((ROOT / path).read_text(encoding="utf-8"))
            return configs[path]

        return reference.expected(argv[0], argv[1:], doc("--config") or {},
                                  doc("--carbon-profile"))

    failures = Failures()
    bare_ns, stats = [], {}
    tracer_parts, startup_ms = [], []
    span_file = WORK / f"child-spans-{os.getpid()}.jsonl"
    for phase_seconds, traced in _phases(seconds, trace):
        latencies, outputs = [], []

        def op(i, argv):
            if traced:
                cmd = [PY, str(HERE / "child.py"), str(span_file)] + argv
            else:
                cmd = [PY, "-m", "pfasfab"] + argv
            start = time.perf_counter_ns()
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True)
            latencies.append(time.perf_counter_ns() - start)
            outputs.append((argv, proc))
            if traced and span_file.exists():
                part = tracing.Tracer.load(span_file)
                part.spans = [(n, s, e, p, i, err) for n, s, e, p, _, err in part.spans]
                tracer_parts.append(part)
                main = [e - s for n, s, e, *_ in part.spans if n == "cli.main"]
                if main:
                    startup_ms.append((latencies[-1] - main[0]) / 1e6)
                span_file.unlink()
            if not traced:
                if i % BARE_EVERY == 0:
                    bare_ns.append(_spawn([PY, "-c", "pass"])[0])
                fresh.poll()

        _loop(op, itertools.cycle(calls), phase_seconds, 0 if trace else MIN_OPS)
        for argv, proc in outputs:
            failures.attempted += 1
            _check_cli(argv, proc.returncode, proc.stdout, proc.stderr, expected_for, failures)
        stats["traced" if traced else "untraced"] = latency_metrics(latencies)

    setup_s, _, bare_setup_s = fresh.results()
    bare_ms = statistics.median(bare_ns) / 1e6 if bare_ns else bare_setup_s * 1e3
    details = {"input_mix": inputs.cli_mix(calls[:stats["untraced"]["samples"]]),
               "environment": environment(bare_ms / 1e3), "latency": stats}
    # Above a bare interpreter at the 90th percentile: on a host whose speed
    # drifts, the share of fast ops moves the medians between runs far more
    # than it moves the slow tail.
    if trace:
        metrics = _per_layer("cli_oneshot", seed, stats, tracing.merge(tracer_parts),
                             len(tracer_parts), statistics.median(startup_ms) if startup_ms else 0.0)
    else:
        rss_mb = max(probe_rss_mb("cli_oneshot", *argv) for argv in calls[:RSS_PROBE_CALLS])
        metrics = _end_to_end(stats, setup_s, rss_mb,
                              stats["untraced"]["op_p90_ms"] - p90(bare_ns) / 1e6)
    return Result(metrics, failures, details)


def _check_cli(argv, returncode, stdout, stderr, expected_for, failures):
    """Record a failure if a CLI call on valid input did not report the
    reference figures."""
    command, fmt = argv[0], argv[-1]
    if "Traceback" in stderr:
        failures.record("traceback", f"{argv}: {stderr.strip().splitlines()[-1]}")
    elif returncode != 0:
        failures.record("exit", f"{argv}: exit {returncode}: {stderr.strip()}")
    else:
        try:
            diff = check.check_report(command, fmt, stdout, expected_for(argv))
        except check.OutputError as exc:
            failures.record("bad_output", f"{argv}: {exc}")
        else:
            if diff:
                failures.record("wrong_numbers", f"{argv}: {'; '.join(diff[:5])}")


# ---------------------------------------------------------------------------
# explore_batch


def explore_batch(seed, seconds, trace):
    """Scripted design-space exploration through the library API alone."""
    fresh = FreshInterpreters("pfasfab", _phases(seconds, trace)[0][0])
    pf = load_pfasfab("pfasfab")
    timed, stream = ops.explore(pf, seed)
    props = []
    failures = Failures()

    def verify(c, got, error):
        if error is not None:
            failures.record("exception", repr(error))
            return
        wants = (
            reference.sweep(c["node"], c["layers"], c["targets"], False, c["design"],
                            params=inputs.CARBON_PROFILE, band=c["band"]),
            reference.compare((c["node"], c["layers"]), reference.PRESETS[c["preset"]]),
            reference.soc(c["blocks"], c["node"], c["layers"], c["soc_target"], True,
                          c["design"][1], params=inputs.CARBON_PROFILE, band=c["band"]),
        )
        haves = (check.sweep_object_figures(got[0]), check.compare_object_figures(got[1]),
                 check.soc_object_figures(got[2]))
        diff = []
        for want, have in zip(wants, haves):
            diff += check.mismatches(want, have, check.REL_TOL["object"], want)
        if diff:
            failures.record("wrong_numbers", "; ".join(diff[:5]))

    stats, tracer, traced_ops = _in_process(_recording(stream, props, inputs.explore_props),
                                            seconds, trace, failures, timed, verify, fresh)
    setup_s, import_s, bare_s = fresh.results()
    details = {"input_mix": inputs.explore_mix(props), "environment": environment(bare_s),
               "latency": stats}
    if trace:
        metrics = _per_layer("explore_batch", seed, stats, tracer, traced_ops)
    else:
        rss_mb = probe_rss_mb("explore_batch", str(seed), str(RSS_PROBE_OPS), "-")
        metrics = _end_to_end(stats, setup_s, rss_mb, import_s * 1e3)
    return Result(metrics, failures, details)


# ---------------------------------------------------------------------------
# config_ingest


def config_ingest(seed, seconds, trace):
    """In-process ``cli.main(argv)`` over seeded config documents, a fifth
    of them malformed."""
    fresh = FreshInterpreters("pfasfab.cli", _phases(seconds, trace)[0][0])
    pf = load_pfasfab("pfasfab.cli")
    docs_dir = WORK / f"ingest-{os.getpid()}"
    docs_dir.mkdir(parents=True)
    timed, stream = ops.ingest(pf, seed, docs_dir)
    props = []
    failures = Failures()

    def with_expected():
        for argv, d in _recording(stream, props, inputs.config_props):
            want = None if d["doc"] is None else reference.expected(d["command"], argv[1:], d["doc"])
            yield argv, (argv, d, want)

    def verify(case, result, error):
        code, stdout, stderr = result or (None, "", "")
        _check_ingest(*case, code, error, stdout, stderr, failures)

    try:
        stats, tracer, traced_ops = _in_process(with_expected(), seconds, trace, failures,
                                                timed, verify, fresh)
        setup_s, import_s, bare_s = fresh.results()
        rss_mb = None if trace else probe_rss_mb("config_ingest", str(seed), str(RSS_PROBE_OPS),
                                             str(docs_dir))
    finally:
        shutil.rmtree(docs_dir, ignore_errors=True)
    details = {"input_mix": inputs.config_mix(props), "environment": environment(bare_s),
               "latency": stats}
    if trace:
        metrics = _per_layer("config_ingest", seed, stats, tracer, traced_ops)
    else:
        metrics = _end_to_end(stats, setup_s, rss_mb, import_s * 1e3)
    return Result(metrics, failures, details)


def _check_ingest(argv, doc, want, code, raised, stdout, stderr, failures):
    """A valid document must render the reference figures and exit 0; a
    malformed one must exit 1, print no report and name the bad field."""
    valid = want is not None
    mutation = doc["kind"]
    label = f"{doc['kind']} {argv[0]} {argv[-2] if doc['strict'] else argv[-1]}"
    if raised is not None:
        failures.record("exception", f"{label}: {raised!r}", mutation)
    elif "Traceback" in stderr:
        failures.record("traceback", f"{label}: {stderr.strip()[-300:]}", mutation)
    elif valid:
        if code != 0:
            failures.record("exit", f"{label}: exit {code}: {stderr.strip()}")
            return
        try:
            diff = check.check_report(argv[0], argv[4], stdout, want)
        except check.OutputError as exc:
            failures.record("bad_output", f"{label}: {exc}")
            return
        if diff:
            failures.record("wrong_numbers", f"{label}: {'; '.join(diff[:5])}")
    elif code == 0:
        failures.record("accepted_malformed", f"{label}: exit 0 ({doc['where']})", mutation)
    elif code != 1 or stdout:
        failures.record("exit", f"{label}: exit {code}, {len(stdout)} bytes on stdout",
                        mutation)
    elif not check.rejection_named(stderr, doc["where"]):
        failures.record("unnamed_field", f"{label}: {doc['where']} not in {stderr.strip()!r}",
                        mutation)


WORKLOADS = {
    "cli_oneshot": cli_oneshot,
    "explore_batch": explore_batch,
    "config_ingest": config_ingest,
}
