"""Peak RSS of one process running pfasfab.

    python rss_probe.py cli_oneshot ARG...
    python rss_probe.py explore_batch|config_ingest SEED OPS DOCS_DIR

The first form runs ``python -m pfasfab ARG...``, as one CLI call does. The
second imports what the workload's ops import (``pfasfab`` for
explore_batch, ``pfasfab.cli`` for config_ingest) and runs the first OPS
ops of the inputs for SEED without checking them; of the benchmark's own
code only ``ops.py``, ``inputs.py`` and ``reference.py`` are loaded.

Both print the peak in KiB as the last line of stderr. It is ``VmHWM`` from
/proc/self/status: ``ru_maxrss`` would not do, since on Linux a child's
starts from the peak of the process that spawned it.
"""

import runpy
import sys


def peak_kib():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_ops(workload, seed, count, docs_dir):
    import contextlib
    import itertools
    from pathlib import Path

    import ops

    if workload == "explore_batch":
        import pfasfab

        op, stream = ops.explore(pfasfab, seed)
    else:
        import pfasfab.cli

        op, stream = ops.ingest(sys.modules["pfasfab"], seed, Path(docs_dir))
    for args, _ in itertools.islice(stream, count):
        with contextlib.suppress(Exception, SystemExit):  # the timed run counts failures
            op(args)


if __name__ == "__main__":
    try:
        if sys.argv[1] == "cli_oneshot":
            sys.argv = ["pfasfab", *sys.argv[2:]]
            runpy.run_module("pfasfab", run_name="__main__", alter_sys=True)
        else:
            run_ops(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])
    finally:
        print(peak_kib(), file=sys.stderr)
