"""fracseg benchmark: one workload, timed or traced, checked, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists): ``sweep``, ``extension``,
``analysis``.  Every pass of a workload runs in a fresh worker process that
imports fracseg from the checkout's ``src`` and refuses any other copy, so
every pass pays the same first-call costs.

``--trace 0`` starts passes while another one is expected to end within
``--seconds`` with time left for five set-up samples (at least one pass),
then starts set-up-only processes until ``--seconds`` is used (at least
five set-ups in all).  It reports the end-to-end metrics: ``wall_s``
(median seconds of one pass of the workload body), ``setup_s`` (median,
over every process of the run, of the seconds from process start to the
first timed call), ``peak_rss_mb`` (median worker peak) and ``err_ratio``
(worst error over its acceptance threshold; above 1 is a failure).
``--trace 1`` runs one untraced and one traced pass, whatever
``--seconds`` says, and reports the per-layer metrics of the traced one
plus the tracing overhead.  Any run is stopped after ``RUN_LIMIT_S``.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment record, the raw samples and any failed unit.  Outputs go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "extension", "analysis")
#: fewest set-up samples per run
SETUP_SAMPLES = 5
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0

LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "fill_nnz": "count",
               "outer_iters": "count", "output_bytes": "bytes",
               "per_outer_iter": "ratio", "bookkeeping_s": "s"}


def _worker(args, root, work_dir, deadline, trace=0, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--root", root, "--work-dir", work_dir, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=root,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.exit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or None


def _layer_unit(name):
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracseg", "__init__.py")):
        sys.exit("perfbench: run from a fracseg checkout (no src/fracseg here)")
    work_dir = os.path.join(root, ".perfbench_out",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        plain = _worker(args, root, work_dir, deadline)
        traced = _worker(args, root, work_dir, deadline, trace=1)
        runs = [plain, traced]
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in traced["layers"].items()}
        metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
        consistent = traced.get("trace_consistent", True)
    else:
        runs = []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            runs.append(_worker(args, root, work_dir, deadline))
            now = time.monotonic()
            # a set-up-only process takes about as long as a pass's set-up
            reserve = SETUP_SAMPLES * max(r["setup_s"] for r in runs)
            if (now - start) + (now - t) + reserve > args.seconds:
                break
        setups = [r["setup_s"] for r in runs]
        last = 0.0
        while (len(setups) < SETUP_SAMPLES
               or time.monotonic() - start + last <= args.seconds):
            t = time.monotonic()
            setups.append(_worker(args, root, work_dir, deadline,
                                  setup_only=True)["setup_s"])
            last = time.monotonic() - t
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in runs),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in runs),
                            "unit": "MB"},
            "err_ratio": {"value": max(r["err_ratio"] for r in runs),
                          "unit": "ratio"},
        }
        consistent = True

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "git_commit": _git_commit(root),
              "env": runs[-1]["env"], "fail_frac": failed / attempted,
              "wall_s": [r["wall_s"] for r in runs],
              "err_ratio": [r["err_ratio"] for r in runs],
              "csv_outer_iters": [r.get("csv_outer_iters") for r in runs],
              "log": [entry for r in runs for entry in r["log"]]}
    if not args.trace:
        record["setup_s_samples"] = setups
    os.makedirs(work_dir, exist_ok=True)
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
