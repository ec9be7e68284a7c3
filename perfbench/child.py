"""One depthflow CLI run in a fresh process, timed from the inside.

Usage: ``python3 child.py RECORD MODE SUBCOMMAND --config PATH``.

Calls ``depthflow.cli.main`` with the given arguments, with
``run_experiment`` rebound to record monotonic clock readings at entry and
exit. ``MODE`` is ``run``; ``trace``, which installs the span tracer
first, so the recorded times include its overhead; or ``setup``, which
stops at entry to ``run_experiment`` and so measures only import, CLI
parsing and config loading. The readings, the peak resident set and, when
traced, the spans go to the JSON file ``RECORD``.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class SetupDone(Exception):
    """Raised at entry to run_experiment in setup mode."""


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import depthflow
    import depthflow.cli as cli
    import numpy as np

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    inner = cli.run_experiment
    clock = {}

    def timed(cfg):
        clock["enter"] = time.monotonic()
        if mode == "setup":
            raise SetupDone
        try:
            return inner(cfg)
        finally:
            clock["exit"] = time.monotonic()

    cli.run_experiment = timed
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    record = {
        "code": code,
        "enter": clock.get("enter"),
        "exit": clock.get("exit"),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "depthflow_file": depthflow.__file__,
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "spans": tracer.spans if tracer else None,
    }
    with open(record_path, "w") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
