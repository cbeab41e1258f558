"""Command-line interface: configs, reports, outputs, exit codes."""

import csv
import json
import math
import os
import re

import numpy as np
import pytest

import fracseg.cli as cli
import fracseg.sphere as sphere_mod
import fracseg.system as system_mod
from fracseg.core import FracParams
from fracseg.diagnostics import acf_one_phase, trace_seminorm
from fracseg.errors import ConvergenceError
from fracseg.spectral import PeriodicGrid1D
from fracseg.grid import (Field, GridConfig, TraceSystem, atomic_write_bytes,
                          build_grid, read_snapshot, write_snapshot)


def write_config(tmp_path, payload, name="cfg.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh)
    return path


def tiny_config(**overrides):
    cfg = {
        "fractional": {"s": 0.5, "N": 1},
        "grid": {"d": 1, "L": 2.0, "Y": 1.0, "nx": 49, "ny": 16},
        "problem": {
            "k": 2,
            "beta": 100.0,
            "betas": [10.0, 100.0],
            "coupling": [[0.0, 1.0], [1.0, 0.0]],
            "reactions": [{"kind": "zero"}, {"kind": "zero"}],
            "boundary_data": {"kind": "separated_bumps",
                              "centers": [-1.0, 1.0], "width": 0.5},
            "holder_alpha": 0.05,
        },
        "output": {"directory": "out", "formats": ["csv", "json", "binary"]},
    }
    cfg.update(overrides)
    return cfg


def test_malformed_json_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "{ not json")
    assert cli.main(["solve", "--config", path]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path):
    cfg = tiny_config()
    cfg["mystery_section"] = {}
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path]) == 2


def test_out_of_range_s_rejected(tmp_path):
    cfg = tiny_config()
    cfg["fractional"]["s"] = 1.5
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path]) == 2


def test_missing_config_exits_2():
    assert cli.main(["solve"]) == 2


def test_solve_zero_data(tmp_path, capsys):
    cfg = tiny_config()
    cfg["problem"] = {"k": 1, "beta": 0.0,
                      "boundary_data": {"kind": "constant", "values": [0.0]}}
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "o1")
    assert cli.main(["solve", "--config", path, "--out", out]) == 0
    fields = read_snapshot(os.path.join(out, "fields.bin"))
    assert np.abs(fields[0].values).max() == 0.0


def test_fields_csv_format(tmp_path):
    # the node table: coordinates, then one column per component, each value
    # that of fields.bin to 12 significant digits
    path = write_config(tmp_path, tiny_config())
    out = os.path.join(tmp_path, "fc")
    assert cli.main(["solve", "--config", path, "--out", out]) == 0
    fields = read_snapshot(os.path.join(out, "fields.bin"))
    with open(os.path.join(out, "fields.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x1,y,v0,v1"
    assert len(lines) == 1 + fields[0].grid.n_nodes
    columns = list(zip(*[line.split(",") for line in lines[1:]]))
    for f, column in zip(fields, columns[2:]):
        assert list(column) == [format(v, ".12g") for v in f.values.ravel()]


def test_solve_and_diagnose_roundtrip(tmp_path):
    cfg = tiny_config()
    cfg["diagnostics"] = {"center": [0.0],
                          "radii": {"start": 0.2, "stop": 0.8, "num": 5,
                                    "spacing": "geom"},
                          "quantities": ["almgren"],
                          "tolerances": {"monotonicity": 0.5}}
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "o2")
    assert cli.main(["solve", "--config", path, "--out", out]) == 0
    snap = os.path.join(out, "fields.bin")
    assert cli.main(["diagnose", snap, "--config", path, "--out", out]) == 0
    with open(os.path.join(out, "diagnostics.csv")) as fh:
        header = fh.readline().strip()
    assert header == "r,value,quantity,center_x,tolerance,violation_flag"


def test_solve_d2_separated_bumps(tmp_path):
    cfg = tiny_config(fractional={"s": 0.5, "N": 2},
                      grid={"d": 2, "L": 2.0, "Y": 1.0, "nx": 13, "ny": 8})
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "d2")
    assert cli.main(["solve", "--config", path, "--out", out]) == 0
    fields = read_snapshot(os.path.join(out, "fields.bin"))
    assert fields[0].grid.d == 2 and fields[0].grid.params.N == 2
    with open(os.path.join(out, "fields.csv")) as fh:
        assert fh.readline() == "x1,x2,y,v0,v1\n"


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_dimension_mismatch_exits_2(tmp_path, capsys, command):
    cfg = tiny_config(grid={"d": 2, "L": 2.0, "Y": 1.0, "nx": 13, "ny": 8})
    cfg["problem"]["boundary_data"] = {"kind": "constant", "values": [1.0, 1.0]}
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", path,
                     "--out", os.path.join(tmp_path, "dm")]) == 2
    assert "trace dimension" in capsys.readouterr().err


@pytest.mark.parametrize("d, nx", [(1, 4100), (2, 67)])
def test_grid_above_trace_cap_exits_2(tmp_path, capsys, d, nx):
    cfg = tiny_config(fractional={"s": 0.5, "N": d},
                      grid={"d": d, "L": 2.0, "Y": 1.0, "nx": nx, "ny": 4})
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path,
                     "--out", os.path.join(tmp_path, "cap")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("configuration error:") and "free horizontal nodes" in err


def test_newton_hessian_above_its_cap_exits_2(tmp_path, capsys, monkeypatch):
    # k = 3 components of 3998 free trace values would factor a dense
    # 11994^2 Hessian (1.15 GB); the problem is refused before any grid
    # array exists
    def no_grid(*args):
        raise AssertionError("a grid was built above the cap")

    monkeypatch.setattr(system_mod, "build_grid", no_grid)
    cfg = tiny_config(grid={"d": 1, "L": 2.0, "Y": 1.0, "nx": 4000, "ny": 4})
    cfg["problem"].update(k=3, coupling=[[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                          reactions=[{"kind": "zero"}] * 3,
                          boundary_data={"kind": "separated_bumps",
                                         "centers": [-1.0, 0.0, 1.0],
                                         "width": 0.5})
    for command in ("solve", "sweep"):
        _exits_2_with_one_line(tmp_path, capsys, command, cfg, "Newton unknowns")


def _exits_2_with_one_line(tmp_path, capsys, command, cfg, words):
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", path,
                     "--out", os.path.join(tmp_path, "bad")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("configuration error:") and words in err


@pytest.mark.parametrize("command, section, key, value", [
    ("eigen", "fractional", "s", math.nan),
    ("solve", "problem", "beta", math.nan),
    ("solve", "problem", "beta", math.inf),
    ("solve", "grid", "L", math.inf),
    ("sweep", "problem", "betas", [10.0, -math.inf]),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, command, section,
                                          key, value):
    # json reads NaN and +-Infinity, and the schema's bounds let NaN through
    cfg = tiny_config()
    cfg[section][key] = value
    _exits_2_with_one_line(tmp_path, capsys, command, cfg, "non-finite")


def test_oracle_node_count_not_power_of_two_exits_2(tmp_path, capsys):
    # the schema admits any n in [16, 65536]; the periodic grid needs 2^k
    cfg = {"fractional": {"s": 0.5, "N": 1},
           "oracle": {"n": 100, "function": {"kind": "cos", "k": 1}}}
    _exits_2_with_one_line(tmp_path, capsys, "oracle", cfg, "power of two")


@pytest.mark.parametrize("L", [1e-200, 1e200])
def test_oracle_spacing_out_of_range_exits_2(tmp_path, capsys, L):
    # the schema admits any L > 0: at 1e200 dx ** 2 overflowed with a
    # traceback, at 1e-200 the quadrature gave NaN and failed the check (exit 1)
    cfg = {"fractional": {"s": 0.5, "N": 1},
           "oracle": {"n": 256, "L": L, "function": {"kind": "cos", "k": 1}}}
    _exits_2_with_one_line(tmp_path, capsys, "oracle", cfg, "spacing")


def test_ragged_coupling_exits_2(tmp_path, capsys):
    cfg = tiny_config()
    cfg["problem"]["coupling"] = [[0.0, 1.0], [1.0]]
    _exits_2_with_one_line(tmp_path, capsys, "solve", cfg, "coupling")


@pytest.mark.parametrize("boundary_data", [
    {"kind": "separated_bumps", "centers": [0.0]},
    {"kind": "constant", "values": [0.0, 0.5, 1.0]}], ids=["centers", "values"])
def test_boundary_spec_count_exits_2(tmp_path, capsys, boundary_data):
    # k = 2 needs one boundary spec per component
    cfg = tiny_config()
    cfg["problem"]["boundary_data"] = boundary_data
    _exits_2_with_one_line(tmp_path, capsys, "solve", cfg, "per component")


@pytest.mark.parametrize("reactions, words", [
    ([{"kind": "cubic"}, {"kind": "zero"}], "'cubic' is not one of"),
    ([{"kind": "logistic", "lam": 1001.0}, {"kind": "zero"}], "finite and moderate"),
    ([{"kind": "zero"}, {"kind": "linear", "lam": -2e3}], "finite and moderate"),
    ([{"kind": "zero"}], "per component")], ids=["cubic", "logistic", "linear", "count"])
def test_bad_reaction_exits_2(tmp_path, capsys, reactions, words):
    # the kind is the schema's to check; the coefficients, the problem's
    cfg = tiny_config()
    cfg["problem"]["reactions"] = reactions
    _exits_2_with_one_line(tmp_path, capsys, "solve", cfg, words)


@pytest.mark.parametrize("command", ["oracle", "nuacf"])
def test_space_dimension_above_two_exits_2(tmp_path, capsys, command):
    # no command runs at N = 3; oracle and nuacf used to ignore it
    cfg = {"fractional": {"s": 0.5, "N": 3},
           "oracle": {"n": 256, "function": {"kind": "cos", "k": 1}}}
    _exits_2_with_one_line(tmp_path, capsys, command, cfg, "maximum of 2")


def test_separated_bumps_default_centers(tmp_path):
    # with no centers, the k bumps sit at linspace(-1, 1, k)
    snapshots = []
    for name, centers in (("default", None), ("explicit", [-1.0, 0.0, 1.0])):
        cfg = tiny_config()
        cfg["problem"].update(k=3, coupling=[[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                              reactions=[{"kind": "zero"}] * 3,
                              boundary_data={"kind": "separated_bumps"})
        if centers is not None:
            cfg["problem"]["boundary_data"]["centers"] = centers
        out = os.path.join(tmp_path, name)
        path = write_config(tmp_path, cfg, f"{name}.json")
        assert cli.main(["solve", "--config", path, "--out", out]) == 0
        with open(os.path.join(out, "fields.bin"), "rb") as fh:
            snapshots.append(fh.read())
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("s, d, L, Y, ny, code", [
    *[pytest.param(0.5, d, L, 1.0, 8, code, id=f"{d}-{L:g}-{code}")
      for d, L, code in [
          *[(d, L, 2) for d in (1, 2)
            for L in (1e-155, 1e-153, 1e155, 1e200, 1e300)],
          (2, 1e154, 2),
          *[(d, L, 0) for d in (1, 2) for L in (1e-150, 1e150)]]],
    # s = 0.95, ny = 32: the vertical conductance face_w / dy overflows
    # inside the check at 1e-150; at 1e150 the grid passes and solves
    pytest.param(0.95, 1, 1e-150, 1e-150, 32, 2, id="s0.95-1-1e-150-2"),
    pytest.param(0.95, 1, 1e150, 1e150, 32, 0, id="s0.95-1-1e+150-0")])
def test_grid_scale_check_at_extreme_spacings(tmp_path, capsys, s, d, L, Y, ny,
                                              code):
    # the spacing check covers every product of grid scales the engine
    # forms, so no overflow surfaces later as a warning or an exit 3, and
    # none surfaces as a warning before the check rejects the grid
    cfg = tiny_config(fractional={"s": s, "N": d},
                      grid={"d": d, "L": L, "Y": Y, "nx": 13, "ny": ny})
    cfg["problem"]["boundary_data"] = {"kind": "constant", "values": [1.0, 1.0]}
    if code == 2:
        _exits_2_with_one_line(tmp_path, capsys, "solve", cfg, "spacing")
    else:
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", path,
                         "--out", os.path.join(tmp_path, "ok")]) == 0


def test_solve_reads_a_one_entry_betas(tmp_path):
    # with no beta, a single betas entry is the beta to solve at
    cfg = tiny_config()
    outs = []
    for name, problem in (("one", {"betas": [100.0]}), ("beta", {"beta": 100.0})):
        cfg["problem"] = {k: v for k, v in tiny_config()["problem"].items()
                          if k not in ("beta", "betas")} | problem
        outs.append(os.path.join(tmp_path, name))
        assert cli.main(["solve", "--config", write_config(tmp_path, cfg),
                         "--out", outs[-1]]) == 0
    raw = []
    for out in outs:
        with open(os.path.join(out, "fields.bin"), "rb") as fh:
            raw.append(fh.read())
    assert raw[0] == raw[1]


@pytest.mark.parametrize("command, drop, words", [
    ("solve", ("beta", "betas"), "solve needs problem.beta"),
    ("sweep", ("betas",), "sweep needs problem.betas")])
def test_missing_beta_exits_2(tmp_path, capsys, command, drop, words):
    cfg = tiny_config()
    for key in drop:
        del cfg["problem"][key]
    _exits_2_with_one_line(tmp_path, capsys, command, cfg, words)


def test_solve_writes_json_report(tmp_path, capsys):
    cfg = tiny_config(output={"formats": ["json"]})
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "sj")
    assert cli.main(["solve", "--config", path, "--out", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    target = os.path.join(out, "solve.json")
    assert report["files"] == [target]
    with open(target) as fh:
        assert json.load(fh) == report
    # the outer steps by kind, as sweep --json reports them per beta
    meta = report["meta"]
    steps = ("newton_steps", "damped_steps", "fallback_sweeps")
    assert set(meta) >= {"outer_iters", "sup_norms", "residual", *steps}
    assert all(isinstance(meta[kind], int) for kind in steps)
    assert sum(meta[kind] for kind in steps) == meta["outer_iters"]


def test_removed_flags_exit_2(capsys):
    for argv in (["solve", "--quick", "--config", "cfg.json"],
                 ["verify", "--out", "somewhere"]):
        assert cli.main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def _diagnose_setup(tmp_path, stop=0.8):
    cfg = tiny_config()
    cfg["diagnostics"] = {"center": [0.0],
                          "radii": {"start": 0.2, "stop": stop, "num": 5}}
    g = build_grid(GridConfig(**cfg["grid"]), FracParams(s=0.5, N=1))
    snap = os.path.join(tmp_path, "fields.bin")
    write_snapshot(snap, [Field(g, np.ones(g.shape))])
    return write_config(tmp_path, cfg), snap


def _diagnose(path, snap, tmp_path):
    return cli.main(["diagnose", snap, "--config", path,
                     "--out", os.path.join(tmp_path, "od")])


def test_diagnose_missing_snapshot_exits_2(tmp_path, capsys):
    path, _ = _diagnose_setup(tmp_path)
    assert _diagnose(path, os.path.join(tmp_path, "none.bin"), tmp_path) == 2
    assert "cannot read snapshot" in capsys.readouterr().err


def test_diagnose_garbage_snapshot_exits_2(tmp_path, capsys):
    path, snap = _diagnose_setup(tmp_path)
    with open(snap, "wb") as fh:
        fh.write(b"not a snapshot")
    assert _diagnose(path, snap, tmp_path) == 2
    assert "is not a field snapshot" in capsys.readouterr().err


def test_diagnose_truncated_snapshot_exits_2(tmp_path, capsys):
    path, snap = _diagnose_setup(tmp_path)
    with open(snap, "rb") as fh:
        raw = fh.read()
    with open(snap, "wb") as fh:
        fh.write(raw[:-8])
    assert _diagnose(path, snap, tmp_path) == 2
    err = capsys.readouterr().err
    assert "payload" in err and len(err.strip().splitlines()) == 1


def test_diagnose_snapshot_without_fields_exits_2(tmp_path, capsys):
    path, snap = _diagnose_setup(tmp_path)
    with open(snap, "rb") as fh:
        raw = fh.read()
    n = read_snapshot(snap)[0].values.size
    with open(snap, "wb") as fh:  # a whole header announcing 0 components
        fh.write(raw[:20] + (0).to_bytes(4, "little") + raw[24:-8 * n])
    assert _diagnose(path, snap, tmp_path) == 2
    err = capsys.readouterr().err
    assert "announces 0 fields" in err and len(err.strip().splitlines()) == 1


def test_diagnose_radius_beyond_grid_exits_2(tmp_path, capsys):
    path, snap = _diagnose_setup(tmp_path, stop=5.0)
    assert _diagnose(path, snap, tmp_path) == 2
    assert "exceeds grid bound" in capsys.readouterr().err


def test_diagnose_center_of_the_wrong_dimension_exits_2(tmp_path, capsys):
    path, snap = _diagnose_setup(tmp_path)
    with open(path) as fh:
        cfg = json.load(fh)
    cfg["diagnostics"]["center"] = [0.0, 0.0]  # the snapshot's grid has d = 1
    write_config(tmp_path, cfg)
    assert _diagnose(path, snap, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "center must have 1 trace coordinates" in err
    assert not os.path.exists(os.path.join(tmp_path, "od", "diagnostics.csv"))


def test_diagnose_d2_writes_both_center_coordinates(tmp_path):
    cfg = tiny_config(fractional={"s": 0.5, "N": 2},
                      grid={"d": 2, "L": 2.0, "Y": 1.0, "nx": 13, "ny": 8})
    cfg["diagnostics"] = {"center": [0.0, 0.3], "quantities": ["pohozaev"],
                          "radii": {"start": 0.2, "stop": 0.6, "num": 3}}
    g = build_grid(GridConfig(**cfg["grid"]), FracParams(s=0.5, N=2))
    x1, x2, y = np.meshgrid(g.x, g.x, g.y, indexing="ij")
    snap = os.path.join(tmp_path, "fields.bin")
    write_snapshot(snap, [Field(g, np.exp(-x1 ** 2 - (x2 - 0.3) ** 2 - y))])
    out = os.path.join(tmp_path, "od2")
    assert cli.main(["diagnose", snap, "--config", write_config(tmp_path, cfg),
                     "--out", out]) == 0
    with open(os.path.join(out, "diagnostics.csv")) as fh:
        header, *rows = [line.strip().split(",") for line in fh]
    assert header == ["r", "value", "quantity", "center_x", "center_x2",
                      "tolerance", "violation_flag"]
    assert len(rows) == 3
    assert all(float(r[3]) == 0.0 and float(r[4]) == 0.3 for r in rows)


def test_diagnose_pohozaev(tmp_path, capsys):
    cfg = tiny_config()
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "op")
    assert cli.main(["solve", "--config", path, "--out", out]) == 0
    snap = os.path.join(out, "fields.bin")
    cfg["diagnostics"] = {"center": [0.0], "quantities": ["pohozaev"],
                          "radii": {"start": 0.2, "stop": 0.6, "num": 4}}
    path = write_config(tmp_path, cfg)
    capsys.readouterr()
    assert cli.main(["diagnose", snap, "--config", path, "--out", out,
                     "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    with open(os.path.join(out, "diagnostics.csv")) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    assert len(rows) == 4 and all(r[2] == "pohozaev" for r in rows)
    values = [float(r[1]) for r in rows]
    assert all(np.isfinite(values))
    (check,) = report["checks"]
    assert check["name"] == "pohozaev residual"
    assert check["threshold"] is None and "threshold inf" in check["detail"]
    assert check["value"] == pytest.approx(max(map(abs, values)), rel=1e-9)
    cfg["diagnostics"]["radii"]["stop"] = 5.0
    path = write_config(tmp_path, cfg)
    assert cli.main(["diagnose", snap, "--config", path, "--out", out]) == 2
    assert "exceeds grid bound" in capsys.readouterr().err
    # all radii share one geometry, so they must increase, as for every quantity
    cfg["diagnostics"]["radii"].update(start=0.6, stop=0.2)
    path = write_config(tmp_path, cfg)
    assert cli.main(["diagnose", snap, "--config", path, "--out", out]) == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_diagnose_acf_holder_on_linear_radii(tmp_path, capsys):
    cfg = tiny_config()
    g = build_grid(GridConfig(**cfg["grid"]), FracParams(s=0.5, N=1))
    x, y = np.meshgrid(g.x, g.y, indexing="ij")
    fld = Field(g, y + 0.1 * np.cos(x))
    snap = os.path.join(tmp_path, "fields.bin")
    write_snapshot(snap, [fld])
    cfg["diagnostics"] = {"center": [0.0], "quantities": ["acf_vanish", "holder"],
                          "alphas": [0.1, 0.3], "radii": {
                              "start": 0.2, "stop": 0.6, "num": 5, "spacing": "linear"}}
    out = os.path.join(tmp_path, "od")
    assert cli.main(["diagnose", snap, "--config", write_config(tmp_path, cfg),
                     "--out", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    checks = {c["name"]: c for c in report["checks"]}
    assert list(checks) == ["acf_vanish monotone", "holder alpha=0.1",
                            "holder alpha=0.3"]
    with open(os.path.join(out, "diagnostics.csv")) as fh:
        rows = [line.strip().split(",") for line in fh][1:]
    radii = np.linspace(0.2, 0.6, 5)
    assert np.allclose([float(r[0]) for r in rows], radii, rtol=1e-11, atol=0.0)
    assert [r[2] for r in rows] == ["acf_vanish"] * 5
    prof = acf_one_phase(fld, (0.0,), radii, "acf_vanish")
    assert np.allclose([float(r[1]) for r in rows], prof.values, rtol=1e-11, atol=0.0)
    for alpha in (0.1, 0.3):  # one field: the max over fields is its seminorm
        semi = trace_seminorm(fld, alpha)
        assert semi > 0.0
        assert checks[f"holder alpha={alpha}"]["value"] == pytest.approx(semi, rel=1e-12)


def test_verify_rejects_config(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config())
    assert cli.main(["verify", "--quick", "--config", path]) == 2
    assert "verify takes no --config" in capsys.readouterr().err


def test_outputs_follow_umask(tmp_path):
    path = os.path.join(tmp_path, "out.bin")
    old = os.umask(0o022)
    try:
        atomic_write_bytes(path, b"x")
        assert os.stat(path).st_mode & 0o777 == 0o644
        os.umask(0o077)
        atomic_write_bytes(path, b"y")
        assert os.stat(path).st_mode & 0o777 == 0o600
    finally:
        os.umask(old)


def test_sweep_deterministic_output(tmp_path):
    cfg = tiny_config()
    path = write_config(tmp_path, cfg)
    outs = []
    for name in ("a", "b"):
        out = os.path.join(tmp_path, name)
        assert cli.main(["sweep", "--config", path, "--out", out]) == 0
        with open(os.path.join(out, "sweep.csv"), "rb") as fh:
            outs.append(fh.read())
    assert outs[0] == outs[1]


def test_sweep_csv_format(tmp_path):
    cfg = tiny_config(grid={"d": 1, "L": 2.0, "Y": 1.5, "nx": 65, "ny": 24})
    out = os.path.join(tmp_path, "sc")
    assert cli.main(["sweep", "--config", write_config(tmp_path, cfg),
                     "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == ("beta,sup_norm_0,sup_norm_1,overlap,"
                        "beta_times_overlap,holder_alpha,holder_seminorm,"
                        "outer_iters")
    assert len(lines) == 3


def test_sweep_json_reports_per_beta_solver_data(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config())
    out = os.path.join(tmp_path, "sj")
    assert cli.main(["sweep", "--config", path, "--out", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == []  # a sweep that ran has nothing to fail
    meta = report["meta"]
    assert len(meta["outer_iters"]) == len(meta["seconds"]) == 2
    assert all(n >= 1 for n in meta["outer_iters"])
    assert all(t > 0 for t in meta["seconds"])
    timings = meta["timings"]
    assert set(timings) == {"config", "command"}
    assert all(isinstance(t, float) and t > 0 for t in timings.values())
    assert sum(meta["seconds"]) < timings["command"]
    # the outer steps by kind, per beta; the CSV keeps its columns.  The
    # jump to beta = 1e5 takes damped Newton steps and fallback sweeps
    cfg = tiny_config()
    cfg["problem"]["betas"] = [1e2, 1e5]
    path = write_config(tmp_path, cfg, name="jump.json")
    assert cli.main(["sweep", "--config", path, "--out", out, "--json"]) == 0
    jump = json.loads(capsys.readouterr().out)["meta"]
    for meta in (meta, jump):
        kinds = [meta[k] for k in ("newton_steps", "damped_steps", "fallback_sweeps")]
        assert all(len(col) == 2 for col in kinds)
        assert [sum(n) for n in zip(*kinds)] == meta["outer_iters"]
        assert all(n >= 1 for n in meta["newton_steps"])
    assert jump["damped_steps"][1] >= 1 and jump["fallback_sweeps"][1] >= 1
    with open(os.path.join(out, "sweep.csv")) as fh:
        assert fh.readline().strip() == ("beta,sup_norm_0,sup_norm_1,overlap,"
                                         "beta_times_overlap,holder_alpha,"
                                         "holder_seminorm,outer_iters")


def test_eigen_landmarks(tmp_path, capsys):
    cfg = {"fractional": {"s": 0.5, "N": 2},
           "eigen": {"mesh_ntheta": 32, "mesh_nphi": 64,
                     "regions": ["full", "empty", "half"]}}
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "oe")
    assert cli.main(["eigen", "--config", path, "--out", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {c["name"]: c for c in report["checks"]}
    assert names["lambda(full)"]["passed"]
    assert abs(names["lambda(empty)"]["value"] - 2.0) < 0.05


def test_eigen_codim1_region(tmp_path, capsys):
    # the codim-1 landmark (2s - 1)(N - 1) at s = 3/4; at s = 1/2 the
    # constraint has no capacity and the config is bad input
    cfg = {"fractional": {"s": 0.75, "N": 2},
           "eigen": {"mesh_ntheta": 64, "mesh_nphi": 1024, "regions": ["codim1"]}}
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "oe")
    assert cli.main(["eigen", "--config", path, "--out", out, "--json"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "lambda(codim1)" and check["passed"]
    assert check["threshold"] == 0.5
    assert abs(check["value"] / 0.5 - 1.0) <= 0.05
    cfg["fractional"]["s"] = 0.5
    _exits_2_with_one_line(tmp_path, capsys, "eigen", cfg, "codim1 region needs s > 1/2")


@pytest.mark.parametrize("regions, words", [
    (["full", "empty", "half"], "residual check"), (["empty"], "not finite"),
    (["half"], "not definite")])
def test_eigen_nan_ring_coefficient_exits_3_with_one_line(
        tmp_path, capsys, monkeypatch, regions, words):
    rings = sphere_mod.HemisphereMesh.rings

    def poisoned(mesh):
        g_theta, g_phi, mass = rings.func(mesh)
        g_phi = g_phi.copy()
        g_phi[3] = np.nan
        return g_theta, g_phi, mass

    monkeypatch.setattr(sphere_mod.HemisphereMesh, "rings", property(poisoned))
    cfg = {"fractional": {"s": 0.5, "N": 2},
           "eigen": {"mesh_ntheta": 16, "mesh_nphi": 32, "regions": regions}}
    path = write_config(tmp_path, cfg)
    assert cli.main(["eigen", "--config", path,
                     "--out", os.path.join(tmp_path, "en")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical failure:") and words in err


def test_nuacf_endpoints(tmp_path, capsys):
    cfg = {"fractional": {"s": 0.5},
           "eigen": {"mesh_ntheta": 24, "mesh_nphi": 48, "cap_grid": 5}}
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "on")
    assert cli.main(["nuacf", "--config", path, "--out", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    with open(os.path.join(out, "nuacf.json")) as fh:
        summary = json.load(fh)
    assert 0.0 < summary["nu_hat"] <= 0.52
    with open(os.path.join(out, "nuacf.csv")) as fh:
        header = fh.readline().strip()
        rows = [line.split(",") for line in fh]
    assert header == ("s,t1,t2,lambda1_omega1,lambda1_omega2,"
                      "gamma1,gamma2,mean_gamma")
    def mean_for(t1, t2):
        for r in rows:
            if abs(float(r[1]) - t1) < 1e-9 and abs(float(r[2]) - t2) < 1e-9:
                return float(r[-1])
        raise AssertionError(f"no row for caps ({t1}, {t2})")

    assert mean_for(0.0, np.pi) == pytest.approx(0.5, rel=0.02)
    assert mean_for(np.pi / 2, np.pi / 2) == pytest.approx(0.5, rel=0.02)


def test_oracle_cos_mode(tmp_path):
    cfg = {"fractional": {"s": 0.5},
           "oracle": {"n": 256, "L": 1.0, "function": {"kind": "cos", "k": 2}}}
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "oo")
    assert cli.main(["oracle", "--config", path, "--out", out]) == 0
    data = np.genfromtxt(os.path.join(out, "oracle.csv"), delimiter=",",
                         names=True)
    # |k|^{2s} = 2 at k = 2, s = 1/2
    assert np.abs(data["fraclap_symbol"] - 2.0 * data["u"]).max() < 1e-10
    assert np.abs(data["fraclap_pv"] - data["fraclap_symbol"]).max() < 0.05


ORACLE_DATA = [{"kind": "cos", "k": 1}, {"kind": "band"}]


@pytest.mark.parametrize("L", [2.5, 1e150])
@pytest.mark.parametrize("fn", ORACLE_DATA, ids=["cos", "band"])
def test_oracle_data_are_periodic_at_any_period(tmp_path, capsys, fn, L):
    # cos(k x) is periodic on the grid of period 2 pi L only where k L is an
    # integer; sampled so, a sound oracle failed its own check (cos: 0.036 at
    # L = 2.5, 0.10 at 1e150).  Wavenumbers k / L are periodic at every L
    cfg = {"fractional": {"s": 0.5, "N": 1},
           "oracle": {"n": 256, "L": L, "function": fn}}
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "o")
    assert cli.main(["oracle", "--config", path, "--out", out, "--json"]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "pv vs symbol" and check["value"] <= 0.02


@pytest.mark.parametrize("fn", ORACLE_DATA, ids=["cos", "band"])
def test_oracle_data_at_unit_period_are_unchanged(tmp_path, fn):
    # x / 1.0 == x: at L = 1 the table holds cos(k x) and the band's
    # cos(k x + phase) / (1 + k) bit for bit
    cfg = {"fractional": {"s": 0.5, "N": 1},
           "oracle": {"n": 256, "L": 1.0, "function": fn}}
    out = os.path.join(tmp_path, "o")
    assert cli.main(["oracle", "--config", write_config(tmp_path, cfg),
                     "--out", out]) == 0
    x = PeriodicGrid1D(n=256).x
    if fn["kind"] == "cos":
        u = np.cos(x)
    else:
        rng = np.random.default_rng(7)
        u = sum(np.cos(k * x + rng.uniform(0, 2 * np.pi)) / (1 + k)
                for k in range(1, 256 // 8 + 1))
    with open(os.path.join(out, "oracle.csv")) as fh:
        column = [row.split(",")[1] for row in fh.read().splitlines()[1:]]
    assert column == [format(v, ".12g") for v in u]


def test_oracle_comparison_mode(tmp_path, capsys):
    # line data has no periodic symbol, so the run emits the table and
    # reports no check
    cfg = {"fractional": {"s": 0.5},
           "oracle": {"function": {"kind": "comparison"}}}
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "oc")
    assert cli.main(["oracle", "--config", path, "--out", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    data = np.genfromtxt(os.path.join(out, "oracle.csv"), delimiter=",",
                         names=True)
    assert data.size == 401
    assert np.all(np.isfinite(data["fraclap_pv"]))
    assert report["checks"] == []
    assert report["meta"]["pv_constant"] == pytest.approx(1.0 / math.pi,
                                                          rel=1e-14)


def test_exit_code_3_on_numerical_failure(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ConvergenceError("synthetic blowup", residual=1.0)

    monkeypatch.setattr(cli, "solve_system", boom)
    path = write_config(tmp_path, tiny_config())
    assert cli.main(["solve", "--config", path,
                     "--out", os.path.join(tmp_path, "o3")]) == 3
    assert capsys.readouterr().out == ""


def test_exit_3_json_failure_report(tmp_path, monkeypatch, capsys):
    # the history ConvergenceError carries reaches the --json report
    monkeypatch.setattr(system_mod, "MAX_OUTER", 3)
    cfg = tiny_config()
    cfg["problem"]["beta"] = 1e4
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path, "--json",
                     "--out", os.path.join(tmp_path, "o")]) == 3
    out = capsys.readouterr()
    assert "numerical failure" in out.err
    report = json.loads(out.out)
    assert report["passed"] is False
    [check] = report["checks"]
    assert set(check) == {"name", "value", "threshold", "passed", "detail"}
    assert check["name"] == "numerical failure" and check["threshold"] is None
    failure = report["meta"]["failure"]
    assert failure["iterations"] == 3 and len(failure["history"]) == 3
    assert check["value"] == failure["residual"] == failure["history"][-1]
    assert check["detail"] == failure["message"]


def test_sweep_failure_json_report_names_its_beta(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(system_mod, "MAX_OUTER", 3)
    path = write_config(tmp_path, tiny_config())
    assert cli.main(["sweep", "--config", path, "--json",
                     "--out", os.path.join(tmp_path, "o")]) == 3
    out = capsys.readouterr()
    assert out.err.count("\n") == 1
    assert out.err.startswith("numerical failure: sweep failed at beta=10: "
                              "outer iteration cap 3 exceeded")
    failure = json.loads(out.out)["meta"]["failure"]
    assert failure["message"] == out.err[len("numerical failure: "):-1]
    assert failure["iterations"] == 3 and len(failure["history"]) == 3
    assert failure["residual"] == failure["history"][-1]


def test_nan_reaction_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr(system_mod, "_reaction",
                        lambda R, u: np.full_like(u, np.nan))
    path = write_config(tmp_path, tiny_config())
    assert cli.main(["solve", "--config", path,
                     "--out", os.path.join(tmp_path, "o")]) == 3


def test_nan_reaction_json_report_is_strict(tmp_path, monkeypatch, capsys):
    # a step failure carries the loop state, and its NaN residual is written
    # as null with a string detail
    monkeypatch.setattr(system_mod, "_reaction",
                        lambda R, u: np.full_like(u, np.nan))
    path = write_config(tmp_path, tiny_config())
    assert cli.main(["solve", "--config", path, "--json",
                     "--out", os.path.join(tmp_path, "o")]) == 3

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    failure = report["meta"]["failure"]
    assert failure["iterations"] == 1 and failure["history"] == [None]
    assert failure["residual"] is None
    [check] = report["checks"]
    assert check["value"] is None and "value nan" in check["detail"]


def _shipped_schema_text():
    """The schema exactly as load_config reads it."""
    return (cli.resources.files("fracseg").joinpath("config_schema.json")
            .read_text(encoding="utf-8"))


def test_shipped_schema_passes_its_meta_schema():
    # load_config trusts the shipped schema; this is where it is checked
    import jsonschema

    schema = json.loads(_shipped_schema_text())
    cls = jsonschema.validators.validator_for(schema, default=None)
    assert cls is jsonschema.Draft202012Validator  # named, not the fallback
    cls.check_schema(schema)


def test_load_config_does_not_recheck_the_schema(tmp_path, monkeypatch):
    import jsonschema

    schema = json.loads(_shipped_schema_text())
    cls = jsonschema.validators.validator_for(schema)
    check_schema, checked = cls.check_schema, []

    def counting(schema, *args, **kwargs):
        checked.append(schema)
        return check_schema(schema, *args, **kwargs)

    bad = tiny_config(extra_key=1)
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(bad, schema)
    monkeypatch.setattr(cls, "check_schema", counting)
    cli._config_validator.cache_clear()
    try:
        good = write_config(tmp_path, tiny_config())
        assert cli.load_config(good) == cli.load_config(good) == tiny_config()
        with pytest.raises(cli.ConfigurationError) as err:
            cli.load_config(write_config(tmp_path, bad, name="bad.json"))
    finally:
        cli._config_validator.cache_clear()
    assert checked == []
    assert str(err.value) == f"config violates schema: {want.value.message}"


def _exits_2_silently(capsys, argv, words):
    """argv exits 2 with one stderr line holding words, and no report."""
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("configuration error:") and words in err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    # a UTF-16 file with its byte-order mark: JSON text is UTF-8 (RFC 8259)
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe" + json.dumps(tiny_config()).encode("utf-16-le"))
    out = os.path.join(tmp_path, "out")
    _exits_2_silently(capsys, ["sweep", "--config", path, "--out", out, "--json"],
                      "'utf-8' codec can't decode")
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400,
                                     "1" + "0" * 5000])
def test_overflowing_number_literal_exits_2(tmp_path, capsys, literal):
    # json reads 1e400 as inf without calling parse_constant; a 400-digit
    # integer overflows float(); 5000 digits exceed int()'s digit cap
    text = json.dumps(tiny_config()).replace("[10.0, 100.0]", f"[10.0, {literal}]")
    assert literal in text
    path = write_config(tmp_path, text)
    out = os.path.join(tmp_path, "out")
    _exits_2_silently(capsys, ["sweep", "--config", path, "--out", out, "--json"],
                      "non-finite number " + literal[:20])
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unwritable_output_directory_exits_2_before_solving(tmp_path, capsys,
                                                             monkeypatch, command):
    # a file where the output directory should be, found before any solve
    path = write_config(tmp_path, tiny_config())
    monkeypatch.setattr(cli, "solve_system", None)
    monkeypatch.setattr(cli, "sweep_beta", None)
    blocker = os.path.join(tmp_path, "blocker")
    with open(blocker, "w") as fh:
        fh.write("x")
    for out in (blocker, os.path.join(blocker, "sub")):
        _exits_2_silently(capsys, [command, "--config", path, "--out", out, "--json"],
                          f"cannot write output {out}")
    assert sorted(os.listdir(tmp_path)) == ["blocker", "cfg.json"]


@pytest.mark.parametrize("command, name", [
    ("sweep", "sweep.csv"), ("solve", "fields.bin"), ("solve", "fields.csv"),
    ("solve", "solve.json")])
def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys, command, name):
    # the output directory passes the early check; the write of one file,
    # after the solve, finds a directory at its path (os.replace fails)
    path = write_config(tmp_path, tiny_config())
    out = os.path.join(tmp_path, "o")
    os.makedirs(os.path.join(out, name))
    _exits_2_silently(capsys, [command, "--config", path, "--out", out, "--json"],
                      f"cannot write output {os.path.join(out, name)}")
    assert not [f for _, _, files in os.walk(out) for f in files if f.endswith(".tmp")]


def test_no_partial_files_left(tmp_path):
    cfg = tiny_config()
    path = write_config(tmp_path, cfg)
    out = os.path.join(tmp_path, "o4")
    assert cli.main(["solve", "--config", path, "--out", out]) == 0
    assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


def test_verify_quick_json_schema(tmp_path, capsys, verified_value):
    assert cli.main(["verify", "--quick", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"command", "passed", "checks", "files", "meta"}
    assert report["passed"] is True
    assert len(report["checks"]) == 11
    for check in report["checks"]:
        assert set(check) == {"name", "value", "threshold", "passed", "detail"}
        verified_value("quick", check["name"], check["value"])
    seconds = report["meta"]["seconds"]
    assert len(seconds) == 11
    assert all(isinstance(t, float) and t > 0 for t in seconds)
    peak = report["meta"]["peak_rss_mb"]
    assert isinstance(peak, float) and peak > 0
    faults = report["meta"]["minor_faults"]
    assert isinstance(faults, int) and faults >= 0
    timings = report["meta"]["timings"]
    assert timings["config"] == 0.0  # verify reads no config
    assert sum(seconds) < timings["command"]


@pytest.mark.slow
def test_documented_example_config(tmp_path):
    # the config shipped in the repository solves to a converged two-species
    # state with snapshot files present
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = os.path.join(repo, "examples_config", "two_species.json")
    out = os.path.join(tmp_path, "doc")
    assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
    fields = read_snapshot(os.path.join(out, "fields.bin"))
    assert len(fields) == 2
    assert all(np.isfinite(f.values).all() for f in fields)
    # frozen fixture values produced by this configuration
    assert fields[0].values.max() == pytest.approx(1.0, abs=1e-9)
    assert fields[0].trace.max() == pytest.approx(0.09957, rel=1e-3)
    assert fields[1].trace.max() == pytest.approx(0.09957, rel=1e-3)


def test_two_species_sweep_matches_verified_values(tmp_path, capsys, verified_value):
    # the shipped config's sweep columns, pinned like the verify values:
    # the overlap at full precision from --json, the others from sweep.csv
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = os.path.join(repo, "examples_config", "two_species.json")
    out = os.path.join(tmp_path, "sweep")
    assert cli.main(["sweep", "--config", cfg, "--out", out, "--json"]) == 0
    overlaps = json.loads(capsys.readouterr().out)["meta"]["overlaps"]
    with open(os.path.join(out, "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["beta"] for row in rows] == ["100", "1000", "10000"]
    for row, overlap in zip(rows, overlaps, strict=True):
        beta = f"beta={row['beta']}"
        verified_value("two_species sweep", f"overlap {beta}", overlap)
        for column in ("beta_times_overlap", "holder_seminorm"):
            verified_value("two_species sweep", f"{column} {beta}", float(row[column]))


def _example():
    """The shipped config, examples_config/two_species.json, as a dict."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "examples_config", "two_species.json")) as fh:
        return json.load(fh)


def _example_with_reaction(tmp_path, kind):
    """The shipped config at beta = 10 with the reaction kind at lam = 5 on
    both species."""
    cfg = _example()
    cfg["problem"]["beta"] = 10.0
    cfg["problem"]["reactions"] = [{"kind": kind, "lam": 5.0}] * 2
    return write_config(tmp_path, cfg)


def test_strong_logistic_fallback_sweeps_converge(tmp_path, capsys):
    # lam = 5 lies above the DtN's first eigenvalue, so the Hessian at the
    # zero start is indefinite and the first steps are fallback sweeps;
    # lagging -lam u^2 as absorption keeps each an M-matrix solve
    path = _example_with_reaction(tmp_path, "logistic")
    out = os.path.join(tmp_path, "lg")
    assert cli.main(["solve", "--config", path, "--out", out, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["passed"]
    assert report["meta"]["outer_iters"] < 50
    assert all(0.0 < v <= 1.0 for v in report["meta"]["sup_norms"])


def test_diverging_fallback_sweeps_exit_3_with_one_line(tmp_path, capsys):
    # linear lam = 5 has no bounded steady state here: each sweep changes the
    # traces 4-5 times as much as the one before, until the lagged data
    # overflow at outer step 216, with no numpy warning before it
    path = _example_with_reaction(tmp_path, "linear")
    out = os.path.join(tmp_path, "ln")
    assert cli.main(["solve", "--config", path, "--out", out, "--json"]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: outer step 216: fallback sweep "
                             "diverged: its lagged data are not finite; ")
    # it names why: both growth rates c1 = 5 lie above mu, the principal
    # eigenvalue of S t = mu area t on the config's grid
    mu = TraceSystem(build_grid(GridConfig(d=1, L=2.0, Y=1.5, nx=129, ny=48),
                                FracParams(s=0.5, N=1))).principal_eigenvalue
    assert 0.0 < mu < 5.0
    assert err[0].endswith(f"growth rates c1 = [5.0, 5.0] against "
                           f"mu = min sigma = {mu:.6g}")
    history = json.loads(captured.out)["meta"]["failure"]["history"]
    assert len(history) == 216 and history[-1] is None  # inf, written as null
    assert all(b >= 2.0 * a > 0 for a, b in zip(history[:-2], history[1:-1]))


def _solve_json(tmp_path, capsys, cfg, code=0):
    """cli.main's solve --json on cfg, which must exit with code: its report
    and its stderr lines."""
    path = write_config(tmp_path, cfg)
    assert cli.main(["solve", "--config", path, "--json",
                     "--out", os.path.join(tmp_path, "o")]) == code
    out = capsys.readouterr()
    return json.loads(out.out), out.err.splitlines()


def test_growing_logistic_component_is_not_taken_for_divergence(tmp_path, capsys):
    # the logistic component grows from 1e-6 data to its O(1) state, each
    # fallback sweep changing the traces more than the one before; a rule that
    # took four such sweeps in a row for divergence stopped it at step 5
    cfg = _example()
    cfg["fractional"]["N"] = 2
    cfg["grid"].update(d=2, nx=17, ny=16)
    cfg["problem"].update(
        k=3, beta=1e3, coupling=[[0, 3, 3], [3, 0, 3], [3, 3, 0]],
        reactions=[{"kind": "zero"}, {"kind": "logistic", "lam": 5.0},
                   {"kind": "linear", "lam": 0.94}],
        boundary_data={"kind": "separated_bumps", "width": 2.0, "height": 1e-6})
    report, err = _solve_json(tmp_path, capsys, cfg)
    assert err == [] and report["passed"]
    meta = report["meta"]
    assert meta["outer_iters"] <= 20 and meta["fallback_sweeps"] >= 4
    assert meta["sup_norms"][1] == pytest.approx(0.835, abs=1e-3)
    assert meta["sup_norms"][0] == meta["sup_norms"][2] == pytest.approx(1e-6)


def test_large_data_converge_on_the_scaled_tolerance(tmp_path, capsys):
    # at bump height 1e9 the Newton corrections stall at 3-5e-8, about 5e-17
    # of the traces but above an absolute 1e-8: the stop scales with
    # max(1, |X|)
    cfg = _example()
    cfg["problem"]["boundary_data"]["height"] = 1e9
    report, err = _solve_json(tmp_path, capsys, cfg)
    assert err == []
    [check] = report["checks"]
    assert check["name"] == "solver converged" and check["passed"]
    assert 1e-8 < check["threshold"] <= 1e-8 * 1e9
    assert check["value"] == report["meta"]["residual"] <= check["threshold"]
    assert report["meta"]["outer_iters"] <= 20


@pytest.mark.parametrize("fractional, grid, reaction", [
    ({"s": 0.5, "N": 2}, {"d": 2, "L": 2.0, "Y": 1.5, "nx": 9, "ny": 16},
     {"kind": "linear", "lam": 2.0}),
    ({"s": 0.5, "N": 1}, {"d": 1, "L": 1e9, "Y": 1.5, "nx": 129, "ny": 48},
     {"kind": "logistic", "lam": 50.0})], ids=["linear-d2", "logistic-d1"])
def test_stationary_fallback_sweep_stops_at_an_exact_solution(
        tmp_path, capsys, fractional, grid, reaction):
    # X = 0 solves the system exactly, but c1 lies above mu, so the Hessian
    # there is indefinite: the one fallback sweep changes nothing and stops
    # the loop, where it used to run to the 500-step cap
    cfg = tiny_config(fractional=fractional, grid=grid)
    cfg["problem"] = {"k": 1, "beta": 1e3, "reactions": [reaction],
                      "boundary_data": {"kind": "constant", "values": [0.0]}}
    report, err = _solve_json(tmp_path, capsys, cfg)
    assert err == [] and report["passed"]
    meta = report["meta"]
    assert meta["outer_iters"] == meta["fallback_sweeps"] == 1
    assert meta["residual"] == 0.0 and meta["sup_norms"] == [0.0]
    fields = read_snapshot(os.path.join(tmp_path, "o", "fields.bin"))
    assert not np.any(fields[0].values)


def test_iteration_cap_names_the_growth_rates(tmp_path, capsys, monkeypatch):
    # linear lam = 1 lies above mu = 0.95: the fallback sweeps grow the traces
    # about 1.05-fold each, to 1.2e10 at step 500, and the cap's message says
    # why the run did not settle
    monkeypatch.setattr(system_mod, "MAX_OUTER", 20)
    cfg = _example()
    cfg["problem"].update(
        k=3, beta=100.0, coupling=[[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        reactions=[{"kind": "zero"}, {"kind": "linear", "lam": 1.0},
                   {"kind": "logistic", "lam": 2.0}])
    del cfg["problem"]["boundary_data"]["centers"]
    report, err = _solve_json(tmp_path, capsys, cfg, code=3)
    mu = TraceSystem(build_grid(GridConfig(d=1, L=2.0, Y=1.5, nx=129, ny=48),
                                FracParams(s=0.5, N=1))).principal_eigenvalue
    assert mu < 1.0
    assert len(err) == 1
    assert err[0].startswith("numerical failure: outer iteration cap 20 exceeded")
    assert err[0].endswith(f"growth rates c1 = [0.0, 1.0, 2.0] against "
                           f"mu = min sigma = {mu:.6g}")
    assert len(report["meta"]["failure"]["history"]) == 20


@pytest.mark.parametrize("lam", [1.5, 3.0])
def test_linear_rate_above_mu_has_a_bounded_state_beside_a_competitor(
        tmp_path, capsys, lam):
    # c1 >= mu rules out a bounded positive state only for k = 1 or beta = 0:
    # the competitor's absorption lifts the linear component's eigenvalue
    cfg = _example()
    cfg["problem"].update(
        reactions=[{"kind": "zero"}, {"kind": "linear", "lam": lam}],
        boundary_data={"kind": "constant", "values": [1.0, 0.1]})
    path = write_config(tmp_path, cfg)
    assert cli.main(["sweep", "--config", path, "--json",
                     "--out", os.path.join(tmp_path, "o")]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    meta = json.loads(out.out)["meta"]
    assert meta["outer_iters"] == [4, 4, 4]
    with open(os.path.join(tmp_path, "o", "sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["beta"] for row in rows] == ["100", "1000", "10000"]
    assert all(0.0 < float(row["sup_norm_1"]) < 1.0 for row in rows)


def test_diverging_run_stopped_by_a_residual_check_names_the_growth_rates(
        tmp_path, capsys):
    # linear lam = 984 lies far above mu: each fallback sweep grows the traces
    # about 5000-fold, and at 1e157 a trace solve fails its residual check
    # before the lagged data overflow; the message says why the run grew
    cfg = tiny_config(fractional={"s": 0.05, "N": 2},
                      grid={"d": 2, "L": 0.25, "Y": 0.25, "nx": 4, "ny": 4})
    cfg["problem"] = {"k": 1, "beta": 0.0,
                      "reactions": [{"kind": "linear", "lam": 984.0}],
                      "boundary_data": {"kind": "separated_bumps", "width": 0.1}}
    report, err = _solve_json(tmp_path, capsys, cfg, code=3)
    assert len(err) == 1
    assert re.fullmatch(r"numerical failure: outer step \d+: condensed trace solve "
                        r"failed its residual check; growth rates c1 = \[984\.0\] "
                        r"against mu = min sigma = 0\.177\d*", err[0]), err[0]
    history = report["meta"]["failure"]["history"]
    assert 30 <= len(history) <= 60 and history[-2] > 1e100


def test_superlinear_blow_up_names_the_quadratic_rates(tmp_path, capsys):
    # logistic lam = -2 is f = -2 u + 2 u^2: c1 = -2 lies below mu, but the
    # source c2 u^2 with c2 = 2 blows the bumps of height 10 up (the sweep
    # changes square each step) until a trace solve fails its residual
    # check; the message names c2 beside c1
    cfg = tiny_config(fractional={"s": 0.87, "N": 1},
                      grid={"d": 1, "nx": 28, "ny": 5})
    cfg["problem"] = {"k": 3, "beta": 62.6,
                      "reactions": [{"kind": "zero"}, {"kind": "linear", "lam": 0.0},
                                    {"kind": "logistic", "lam": -2.0}],
                      "boundary_data": {"kind": "separated_bumps", "height": 10.0}}
    report, err = _solve_json(tmp_path, capsys, cfg, code=3)
    mu = TraceSystem(build_grid(GridConfig(d=1, nx=28, ny=5),
                                FracParams(s=0.87, N=1))).principal_eigenvalue
    assert len(err) == 1
    assert re.fullmatch(
        r"numerical failure: outer step \d+: condensed trace solve failed its "
        r"residual check; growth rates c1 = \[0\.0, 0\.0, -2\.0\] against mu = "
        + re.escape(f"min sigma = {mu:.6g}; quadratic rates c2 = [0.0, 0.0, 2.0]: "
                    "a source c2 u^2 with c2 > 0 can blow up"), err[0]), err[0]
    assert report["meta"]["failure"]["history"][-2] > 1e100
