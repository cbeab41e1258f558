"""The CLI contract on generated configs: solve and sweep, called in process
on small schema-valid configs, exit 0, 2 or 3, print at most one stderr line
and no traceback, name a known reason when they exit 3, write finite outputs
when they exit 0 and write the same sweep.csv twice."""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
from hypothesis import Verbosity, given, settings, strategies as st

import fracseg.cli as cli
from fracseg.grid import read_snapshot

#: every reason a solve or a sweep may give for exit 3, after the optional
#: "sweep failed at beta=...: " prefix; a failed outer step and the step cap
#: also name each component's c1 against mu, and each c2 when one is positive
_GROWTH = (r"; growth rates c1 = \[[^]]*\] against mu = min sigma = \S+"
           r"(; quadratic rates c2 = \[[^]]*\]: a source c2 u\^2 with c2 > 0 "
           r"can blow up)?")
EXIT_3_REASONS = (
    r"outer step \d+: fallback sweep diverged: its lagged data are not finite"
    + _GROWTH,
    r"outer step \d+: condensed trace solve failed its residual check" + _GROWTH,
    r"outer step \d+: condensed trace solve failed: S \+ m area is not "
    r"positive definite" + _GROWTH,
    r"outer step \d+: condensed trace solve failed" + _GROWTH,
    r"outer iteration cap \d+ exceeded \(last step \S+\)" + _GROWTH,
    r"linear solve failed its residual check",
    r"mode chains are not positive definite",
    r"trace Schur symbol is not positive",
)
_EXIT_3 = re.compile(r"numerical failure: (sweep failed at beta=\S+: )?("
                     + "|".join(EXIT_3_REASONS) + r")\n")

_HEIGHTS = st.floats(-6.0, 9.0).map(lambda e: 10.0 ** e)


@st.composite
def configs(draw):
    """A small config that the schema accepts: k = 1-3 components, every
    reaction kind with lam in +-1e3, constant or bump data of heights 1e-6 to
    1e9, d = 1 with nx <= 33 or d = 2 with nx <= 9."""
    k = draw(st.integers(1, 3))
    d = draw(st.sampled_from([1, 2]))
    reactions = [{"kind": draw(st.sampled_from(["zero", "linear", "logistic"])),
                  "lam": draw(st.floats(-1e3, 1e3))} for _ in range(k)]
    if draw(st.booleans()):
        data = {"kind": "constant", "values": [draw(_HEIGHTS) for _ in range(k)]}
    else:
        data = {"kind": "separated_bumps", "width": draw(st.floats(0.1, 2.0)),
                "height": draw(_HEIGHTS)}
    coupling = draw(st.floats(0.1, 10.0))
    beta = draw(st.floats(0.0, 1e2))
    return {
        "fractional": {"s": draw(st.floats(0.05, 0.95)), "N": d},
        "grid": {"d": d, "L": draw(st.floats(0.25, 8.0)),
                 "Y": draw(st.floats(0.25, 4.0)),
                 "nx": draw(st.integers(4, 33 if d == 1 else 9)),
                 "ny": draw(st.integers(4, 16))},
        "problem": {
            "k": k, "beta": beta,
            "betas": [beta * 10.0 ** i + i for i in range(draw(st.integers(1, 3)))],
            "coupling": [[0.0 if i == j else coupling for j in range(k)]
                         for i in range(k)],
            "reactions": reactions, "boundary_data": data},
        "output": {"formats": ["csv", "json", "binary"]},
    }


def _check_run(command, path, out):
    """cli.main on one command, checked against the contract; its exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, "--config", path, "--out", out, "--json"])
    stderr = stderr.getvalue()
    assert code in (0, 2, 3), (code, stderr)
    assert "Traceback" not in stderr and stderr.count("\n") <= 1, stderr
    if code == 3:
        assert _EXIT_3.fullmatch(stderr), stderr
    if code != 0:
        return code
    assert stderr == ""
    report = json.loads(stdout.getvalue())
    # the report writes a non-finite number as null
    assert report["passed"] and "null" not in json.dumps(report["meta"]), report
    if command == "solve":
        assert all(np.isfinite(f.values).all()
                   for f in read_snapshot(os.path.join(out, "fields.bin")))
    else:
        table = np.loadtxt(os.path.join(out, "sweep.csv"), delimiter=",",
                           skiprows=1, ndmin=2)
        assert np.isfinite(table).all()
    return code


# Quiet: on a failure, hypothesis' pytest plugin would otherwise turn the
# falsifying example into a patch through libcst, whose import warns, and the
# suite's warnings-as-errors end the whole session; the assertion names the
# config instead.
@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          verbosity=Verbosity.quiet)
@given(cfg=configs())
def test_solve_and_sweep_keep_the_cli_contract(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        try:
            _check_run("solve", path, os.path.join(tmp, "solve"))
            sweeps = []
            for name in ("a", "b"):
                out = os.path.join(tmp, name)
                if _check_run("sweep", path, out) != 0:
                    break
                with open(os.path.join(out, "sweep.csv"), "rb") as fh:
                    sweeps.append(fh.read())
            assert len(set(sweeps)) <= 1
        except AssertionError as exc:
            raise AssertionError(f"{exc}\nconfig: {json.dumps(cfg)}") from exc
