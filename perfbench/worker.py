"""One benchmark process: set up a workload, run one pass, check it, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  The
set-up time is measured from the parent's clock reading taken just before
this process was started (``--t0``, CLOCK_MONOTONIC, which is system-wide on
Linux) to the first timed call, so it covers interpreter start-up, the
imports and input generation.  With ``--setup-only`` the process stops
there.  The result is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _guard_import(root):
    """Fail unless fracseg comes from the checkout under test."""
    import fracseg

    expected = os.path.realpath(os.path.join(root, "src", "fracseg"))
    actual = os.path.dirname(os.path.realpath(fracseg.__file__))
    if actual != expected:
        sys.exit(f"fracseg imported from {actual}, not from the checkout "
                 f"under test ({expected})")
    return actual


def _blas_libraries():
    """OpenBLAS builds mapped into this process: version and thread count."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            try:
                get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
                get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            except AttributeError:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            info.update(config=get_config().decode(), threads=get_threads())
            break
        out.append(info)
    return out


def environment(fracseg_path):
    import platform

    import numpy
    import scipy

    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas_libraries(), "fracseg_path": fracseg_path}


def run_tasks(tasks, log):
    """One pass: every task once.

    Returns (attempted, failed, worst ratio); the worst ratio is taken over
    the finite ratios, since a unit that raised or measured NaN has no
    error to report and is already counted as failed.
    """
    attempted = failed = 0
    worst = 0.0
    for task in tasks:
        attempted += task.n_units
        try:
            units = task.fn()
        except Exception:  # a unit failure must not abort the workload
            failed += task.n_units
            log.append({"task": task.name, "error": traceback.format_exc()})
            continue
        for i, checks in enumerate(units):
            finite = [r for _, r in checks if math.isfinite(r)]
            worst = max([worst] + finite)
            bad = [(label, r) for label, r in checks
                   if not (math.isfinite(r) and r <= 1.0)]
            failed += bool(bad)
            if bad:
                log.append({"task": task.name, "unit": i, "failed": bad})
    return attempted, failed, worst


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import jsonschema  # noqa: F401  (set-up, not the first load_config call)

    fracseg_path = _guard_import(args.root)
    import workloads

    os.makedirs(args.work_dir, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    tasks = workloads.WORKLOADS[args.workload](rng, args.work_dir)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import layers

        tracer = layers.install()
    log = []
    t = time.perf_counter()
    if tracer is not None:
        attempted, failed, worst = tracer.span("workload." + args.workload,
                                               run_tasks, tasks, log)
    else:
        attempted, failed, worst = run_tasks(tasks, log)
    wall_s = time.perf_counter() - t

    out = {"setup_s": setup_s, "wall_s": wall_s, "attempted": attempted,
           "failed": failed, "err_ratio": worst,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": environment(fracseg_path), "log": log}
    if args.workload == "sweep" and not failed:
        out["csv_outer_iters"] = workloads.sweep_outer_iters(args.work_dir)
    if tracer is not None:
        tracer.restore()
        out["layers"] = layers.metrics(tracer)
        if "csv_outer_iters" in out:
            # the traced count must match what `fracseg sweep` wrote
            out["trace_consistent"] = (out["csv_outer_iters"]
                                       == out["layers"]["system.outer_iters"])
        tracer.dump(os.path.join(args.work_dir, "spans.json"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
