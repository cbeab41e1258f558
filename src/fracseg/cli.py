"""Command-line entry point: experiment orchestration and report emission.

Subcommands: solve | sweep | diagnose | eigen | nuacf | oracle | verify.
Configurations are UTF-8 JSON documents validated against the shipped schema
(unknown keys rejected; NaN, +-Infinity and number literals beyond the double
range, such as 1e400, are configuration errors).  The schema's own validity
against its meta-schema is checked by the test suite, not on every run.
Tabular outputs are CSV, field snapshots use the flat binary layout, and
every file is written atomically; an output directory that cannot be made is
a configuration error found before any solve, and so is a file that cannot be
written, when it is written.  Exit codes: 0 pass, 1 acceptance failure,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

try:
    import resource
except ImportError:  # not on every platform: reports then carry no usage
    resource = None  # (peak_rss_mb, minor_faults)

from . import acceptance
from .core import FracParams
from .errors import ConfigurationError, ConvergenceError
from .grid import (GridConfig, atomic_write_text, drop_engine, read_snapshot,
                   snapshot_csv, write_snapshot)
from .diagnostics import (acf_one_phase, almgren, monotonicity_check,
                          pohozaev_residual, trace_seminorm)
from .spectral import (ComparisonProfile, PeriodicGrid1D, comparison_pv,
                       frac_lap_pv, frac_lap_symbol, pv_constant)
from .sphere import EquatorRegion, HemisphereMesh, lambda1, lambda1_codim1, \
    nu_acf_caps
from .system import (OUTER_TOL, CompetitionProblem, Reaction, bump, solve_system,
                     sweep_beta)


def _nonfinite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def _finite_or_null(value):
    """value with every non-finite float, at any depth, replaced by None."""
    if _nonfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


@dataclass
class RunReport:
    command: str
    checks: list = field(default_factory=list)
    files: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    #: where main writes a copy of the finished report (solve.json), if anywhere
    json_path: str | None = None

    def add(self, name: str, value, threshold, passed: bool, detail: str = ""):
        self.checks.append({"name": name, "value": value,
                            "threshold": threshold, "passed": bool(passed),
                            "detail": detail})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> str:
        """Strict JSON: a non-finite number is written as null; a check whose
        value or threshold is non-finite names it in its detail.  meta gains
        peak_rss_mb, the process's peak resident set size so far, and
        minor_faults, the page faults it has served without I/O so far."""
        meta = dict(self.meta)
        if resource is not None:  # ru_maxrss counts KiB (bytes on macOS)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            meta["peak_rss_mb"] = usage.ru_maxrss / (2 ** 20 if sys.platform == "darwin"
                                                     else 2 ** 10)
            meta["minor_faults"] = usage.ru_minflt
        checks = []
        for c in self.checks:
            bad = {k: c[k] for k in ("value", "threshold") if _nonfinite(c[k])}
            if bad:
                note = ", ".join(f"{k} {v}" for k, v in bad.items())
                c = dict(c, detail=f"{c['detail']} ({note})".lstrip())
            checks.append(c)
        payload = {"command": self.command, "passed": self.passed,
                   "checks": checks, "files": self.files, "meta": meta}
        return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"

    def table(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['name']}: value={c['value']} "
                         f"threshold={c['threshold']} {c['detail']}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


@functools.lru_cache(maxsize=1)
def _config_validator():
    """Validator of the shipped config schema.  The schema is a constant
    file, so its own validity against the 2020-12 meta-schema is checked by
    the test suite (test_shipped_schema_passes_its_meta_schema) and not on
    every run: that check walks the meta-schema's vocabularies and costs
    30-40 ms per process, against about 1 ms to validate a config."""
    import jsonschema

    schema = json.loads(resources.files("fracseg").joinpath("config_schema.json")
                        .read_text(encoding="utf-8"))
    return jsonschema.validators.validator_for(schema)(schema)


def load_config(path: str) -> dict:
    """Parse and schema-validate a UTF-8 JSON run configuration."""
    import jsonschema

    def reject(name):  # json accepts NaN and +-Infinity, the schema would too
        raise ConfigurationError(f"config {path} holds the non-finite number {name}")

    def finite(parse):
        """parse, rejecting literals beyond the double range: json reads 1e400
        as inf, and float() of a 400-digit integer overflows later."""
        def hook(text):
            try:
                value = parse(text)
                if math.isfinite(value):
                    return value
            except (OverflowError, ValueError):  # int() also caps its digits
                pass
            reject(text if len(text) <= 20
                   else f"{text[:20]}... ({len(text)} characters)")
        return hook

    try:
        with open(path, encoding="utf-8") as fh:  # RFC 8259: JSON is UTF-8
            cfg = json.load(fh, parse_constant=reject, parse_float=finite(float),
                            parse_int=finite(int))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    error = jsonschema.exceptions.best_match(_config_validator().iter_errors(cfg))
    if error is not None:
        raise ConfigurationError(f"config violates schema: {error.message}")
    return cfg


def _params(cfg: dict) -> FracParams:
    frac = cfg.get("fractional", {})
    return FracParams(s=frac.get("s", 0.5), N=frac.get("N", 1))


def _grid_config(cfg: dict) -> GridConfig:
    g = cfg.get("grid", {})
    return GridConfig(d=g.get("d", 1), L=g.get("L", 1.0), Y=g.get("Y", 1.0),
                      nx=g.get("nx", 65), ny=g.get("ny", 32),
                      grading_p=g.get("grading_p"))


def _problem(cfg: dict, beta: float) -> CompetitionProblem:
    params = _params(cfg)
    pr = cfg.get("problem", {})
    k = pr.get("k", 1)
    try:
        coupling = np.asarray(pr.get("coupling",
                                     1.0 - np.eye(k) if k > 1 else [[0.0]]),
                              dtype=float)
    except ValueError as exc:  # ragged rows
        raise ConfigurationError("coupling matrix must be k x k") from exc
    reactions = tuple(Reaction(r.get("kind", "zero"), r.get("lam", 1.0))
                      for r in pr.get("reactions",
                                      [{"kind": "zero"}] * k))
    bspec = pr.get("boundary_data", {"kind": "constant", "values": [0.0] * k})
    if bspec["kind"] == "constant":
        values = bspec.get("values", [0.0] * k)
        dirichlet = tuple(float(v) for v in values)
    else:
        centers = bspec.get("centers")
        if centers is None:
            centers = list(np.linspace(-1.0, 1.0, k)) if k > 1 else [0.0]
        width = bspec.get("width", 0.5)
        height = bspec.get("height", 1.0)
        dirichlet = tuple(bump(c, width, height) for c in centers)
    return CompetitionProblem(params=params, grid_config=_grid_config(cfg),
                              k=k, beta=beta, coupling=coupling,
                              reactions=reactions, dirichlet=dirichlet)


def _check_out_dir(out: str) -> None:
    """Fail before any solve when out cannot be, or become, a writable
    directory: its nearest existing ancestor must be one."""
    found = os.path.abspath(out)
    while not os.path.exists(found):
        found = os.path.dirname(found)
    if not (os.path.isdir(found) and os.access(found, os.W_OK | os.X_OK)):
        raise ConfigurationError(f"cannot write output {out}: {found} is not a "
                                 "writable directory")


def _write(report: RunReport, path: str, payload) -> None:
    """Write one output file atomically (text through atomic_write_text, fields
    as a snapshot) and list it, unless listed already (solve.json lists itself);
    a write that fails late, say at a directory, is a configuration error."""
    try:
        if isinstance(payload, str):
            atomic_write_text(path, payload)
        else:
            write_snapshot(path, payload)
    except OSError as exc:
        raise ConfigurationError(f"cannot write output {path}: {exc}") from exc
    if path not in report.files:
        report.files.append(path)


def _emit(report: RunReport, args, text: str) -> None:
    if args.json:
        sys.stdout.write(text)
    elif args.command == "verify":  # the rows were streamed as they ran
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    else:
        print(report.table())


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_solve(cfg: dict, args) -> RunReport:
    report = RunReport("solve")
    pr = cfg.get("problem", {})
    if "beta" not in pr and "betas" in pr and len(pr["betas"]) == 1:
        beta = pr["betas"][0]
    else:
        beta = pr.get("beta")
    if beta is None:
        raise ConfigurationError("solve needs problem.beta (a single value)")
    prob = _problem(cfg, float(beta))
    res = solve_system(prob)
    formats = cfg.get("output", {}).get("formats", ["binary", "json"])
    if "binary" in formats:
        _write(report, os.path.join(args.out, "fields.bin"), res.fields)
    if "csv" in formats and res.fields[0].grid.n_nodes <= 200_000:
        _write(report, os.path.join(args.out, "fields.csv"), snapshot_csv(res.fields))
    sups = [float(np.abs(f.values).max()) for f in res.fields]
    report.meta.update(outer_iters=res.outer_iters, sup_norms=sups,
                       residual=res.residual_history[-1])
    report.add("solver converged", res.residual_history[-1], OUTER_TOL,
               res.residual_history[-1] <= OUTER_TOL)
    if "json" in formats:
        report.json_path = os.path.join(args.out, "solve.json")
        report.files.append(report.json_path)
    return report


def cmd_sweep(cfg: dict, args) -> RunReport:
    report = RunReport("sweep")
    pr = cfg.get("problem", {})
    betas = pr.get("betas")
    if not betas:
        raise ConfigurationError("sweep needs problem.betas")
    alpha = pr.get("holder_alpha", 0.1 * min(_params(cfg).s, 0.5))
    prob = _problem(cfg, float(betas[0]))
    sweep = sweep_beta(prob, betas, holder_alpha=alpha)
    _write(report, os.path.join(args.out, "sweep.csv"), sweep.to_csv())
    report.meta.update(overlaps=list(map(float, sweep.column("overlap"))),
                       outer_iters=[r.outer_iters for r in sweep.rows],
                       seconds=[r.seconds for r in sweep.rows],
                       **{kind: [r.steps[kind] for r in sweep.rows]
                          for kind in sweep.rows[0].steps})
    return report


def _profile(fn, fld, center, radii, *args):
    """fn at the given radii; radii or a center the grid cannot hold are bad
    input (exit 2), not a failed check."""
    try:
        return fn(fld, center, radii, *args)
    except ValueError as exc:
        raise ConfigurationError(f"diagnostics: {exc}") from exc


def cmd_diagnose(cfg: dict, args) -> RunReport:
    report = RunReport("diagnose")
    try:
        fields = read_snapshot(args.snapshot)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read snapshot: {exc}") from exc
    dg = cfg.get("diagnostics", {})
    rr = dg.get("radii", {"start": 0.1, "stop": 0.5, "num": 11})
    if rr.get("spacing", "geom") == "geom":
        radii = np.geomspace(rr["start"], rr["stop"], rr["num"])
    else:
        radii = np.linspace(rr["start"], rr["stop"], rr["num"])
    d = fields[0].grid.d
    center = tuple(dg.get("center", [0.0] * d))
    tol = dg.get("tolerances", {}).get("monotonicity", 0.02)
    quantities = dg.get("quantities", ["almgren"])
    # one center column per trace coordinate; every diagnostic checks that
    # the center has d of them before any row is written
    rows = [",".join(("r", "value", "quantity", *("center_x", "center_x2")[:d],
                      "tolerance", "violation_flag"))]

    def add_rows(radii, values, quantity, tolerance, flag):
        for r, v in zip(radii, values):
            rows.append(",".join(format(c, ".12g") if not isinstance(c, str)
                                 else c for c in
                                 (r, v, quantity, *center, tolerance, flag)))

    def add_profile(prof):
        rep = monotonicity_check(prof, tol)
        add_rows(prof.radii, prof.values, prof.quantity, tol,
                 0 if rep.passed else 1)
        report.add(f"{prof.quantity} monotone", rep.max_violation, tol,
                   rep.passed, detail=f"{rep.violations} violations")

    for q in quantities:
        if q == "almgren":
            prof = _profile(almgren, fields, center, radii)
            for p_ in (prof.E, prof.H, prof.Nfreq):
                add_profile(p_)
        elif q.startswith("acf_"):
            add_profile(_profile(acf_one_phase, fields[0], center, radii, q))
        elif q == "pohozaev":
            res = _profile(pohozaev_residual, fields, center, radii)
            add_rows(radii, res, q, math.inf, 0)
            report.add("pohozaev residual", float(np.abs(res).max()), math.inf, True)
        elif q == "holder":
            for alpha in dg.get("alphas", [0.1]):
                semi = max(trace_seminorm(f, alpha) for f in fields)
                report.add(f"holder alpha={alpha}", semi, math.inf, True)
    _write(report, os.path.join(args.out, "diagnostics.csv"), "\n".join(rows) + "\n")
    return report


_REGION_LANDMARKS = {
    "full": lambda p: 0.0,
    "empty": lambda p: 2.0 * p.s * p.N,
    "half": lambda p: p.s * (p.N - p.s),
    "codim1": lambda p: (2.0 * p.s - 1.0) * (p.N - 1.0),
}


def cmd_eigen(cfg: dict, args) -> RunReport:
    report = RunReport("eigen")
    frac = cfg.get("fractional", {})
    params = FracParams(s=frac.get("s", 0.5), N=frac.get("N", 2))
    eig = cfg.get("eigen", {})
    mesh = HemisphereMesh(params=params, ntheta=eig.get("mesh_ntheta", 64),
                          nphi=eig.get("mesh_nphi", 128))
    rows = ["region,lambda,expected,rel_err"]
    for name in eig.get("regions", ["full", "empty", "half"]):
        if name == "codim1":
            if params.s <= 0.5:
                raise ConfigurationError("codim1 region needs s > 1/2")
            lam = lambda1_codim1(mesh)
            tol = 0.05
        else:
            region = getattr(EquatorRegion, name)(params.N)
            lam, _ = lambda1(mesh, region)
            tol = 0.02
        expected = _REGION_LANDMARKS[name](params)
        err = abs(lam - expected) / max(abs(expected), 1e-12) \
            if expected else abs(lam)
        passed = err <= tol if expected else lam <= 1e-6
        rows.append(f"{name},{lam:.12g},{expected:.12g},{err:.3e}")
        report.add(f"lambda({name})", lam, expected, passed,
                   detail=f"rel err {err:.2e}")
    _write(report, os.path.join(args.out, "eigen.csv"), "\n".join(rows) + "\n")
    return report


def cmd_nuacf(cfg: dict, args) -> RunReport:
    report = RunReport("nuacf")
    frac = cfg.get("fractional", {})
    params = FracParams(s=frac.get("s", 0.5), N=2)
    eig = cfg.get("eigen", {})
    mesh = HemisphereMesh(params=params, ntheta=eig.get("mesh_ntheta", 64),
                          nphi=eig.get("mesh_nphi", 128))
    ncaps = eig.get("cap_grid", 9)
    res = nu_acf_caps(mesh, np.linspace(0.0, math.pi, ncaps))
    rows = ["s,t1,t2,lambda1_omega1,lambda1_omega2,gamma1,gamma2,mean_gamma"]
    for t1, t2, l1, l2, g1, g2, mean in res.table:
        rows.append(",".join(format(v, ".12g")
                    for v in (params.s, t1, t2, l1, l2, g1, g2, mean)))
    _write(report, os.path.join(args.out, "nuacf.csv"), "\n".join(rows) + "\n")
    summary = {"s": params.s, "nu_hat": res.nu_hat,
               "t1_star": res.argmin.t1, "t2_star": res.argmin.t2,
               "support_overlap": res.support_overlap}
    _write(report, os.path.join(args.out, "nuacf.json"),
           json.dumps(summary, indent=2, sort_keys=True) + "\n")
    report.meta.update(summary)
    report.add("0 < nu_hat <= s + 0.02", res.nu_hat, params.s + 0.02,
               0.0 < res.nu_hat <= params.s + 0.02)
    return report


def cmd_oracle(cfg: dict, args) -> RunReport:
    report = RunReport("oracle")
    params = _params(cfg)
    orc = cfg.get("oracle", {})
    try:
        grid = PeriodicGrid1D(n=orc.get("n", 256), L=orc.get("L", 1.0))
    except ValueError as exc:  # the schema admits n that are not 2^k
        raise ConfigurationError(f"oracle: {exc}") from exc
    fn = orc.get("function", {"kind": "cos", "k": 1})
    s = params.s
    if fn["kind"] == "comparison":
        profile = ComparisonProfile(params)
        x = np.linspace(-10.0, 10.0, 401)
        u = profile(x)
        pv = comparison_pv(params, x).values
        sym = np.full_like(x, np.nan)  # no periodic symbol for line data
    else:
        x = grid.x
        if fn["kind"] == "cos":
            u = np.cos(fn.get("k", 1) * x / grid.L)  # wavenumber k / L: periodic
        else:
            rng = np.random.default_rng(7)
            u = sum(np.cos(k * x / grid.L + rng.uniform(0, 2 * np.pi)) / (1 + k)
                    for k in range(1, grid.n // 8 + 1))
        pv = frac_lap_pv(u, s, grid=grid).values
        sym = frac_lap_symbol(u, s, grid)
    rows = ["x,u,fraclap_symbol,fraclap_pv"]
    for xi, ui, si_, pi_ in zip(x, u, sym, pv):
        rows.append(",".join(format(v, ".12g") for v in (xi, ui, si_, pi_)))
    _write(report, os.path.join(args.out, "oracle.csv"), "\n".join(rows) + "\n")
    report.meta.update(pv_constant=pv_constant(s))
    if fn["kind"] != "comparison":
        err = float(np.abs(pv - sym).max() / np.abs(sym).max())
        report.add("pv vs symbol", err, 0.02, err <= 0.02)
    return report


def cmd_verify(cfg, args) -> RunReport:
    """The acceptance suite, which fixes its own inputs (cfg is None)."""
    report = RunReport("verify")

    def progress(res):
        if not args.json:
            print(res.row(), flush=True)

    results = acceptance.run_all(quick=args.quick, progress=progress)
    for r in results:
        report.add(r.name, r.value, r.threshold, r.passed, detail=r.detail)
    report.meta.update(quick=bool(args.quick),
                       seconds=[r.seconds for r in results])
    return report


COMMANDS = {"solve": cmd_solve, "sweep": cmd_sweep, "diagnose": cmd_diagnose,
            "eigen": cmd_eigen, "nuacf": cmd_nuacf, "oracle": cmd_oracle,
            "verify": cmd_verify}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracseg",
        description="numerical laboratory for fractional competition-diffusion "
                    "systems in extension form")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON run configuration")
        if name == "verify":
            p.add_argument("--quick", action="store_true",
                           help="reduced resolution, doubled tolerances")
        else:
            p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report on stdout")
        if name == "diagnose":
            p.add_argument("snapshot", help="field snapshot to analyze")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on bad arguments
        return exc.code
    # seconds in load_config and in the subcommand, for meta.timings
    timings = {"config": 0.0, "command": 0.0}
    try:
        if args.command == "verify":
            if args.config is not None:
                raise ConfigurationError("verify takes no --config: the "
                                         "acceptance suite fixes its own inputs")
            cfg = None
        elif args.config is None:
            raise ConfigurationError(f"{args.command} requires --config")
        else:
            start = time.perf_counter()
            cfg = load_config(args.config)
            timings["config"] = time.perf_counter() - start
            args.out = args.out or cfg.get("output", {}).get("directory", "fracseg_out")
            _check_out_dir(args.out)
        start = time.perf_counter()
        try:
            report = COMMANDS[args.command](cfg, args)
        finally:
            timings["command"] = time.perf_counter() - start
            drop_engine()  # the command is done with its linear engine
        report.meta["timings"] = timings
        text = report.to_json()  # one reading of the process's usage for both copies
        if report.json_path is not None:
            _write(report, report.json_path, text)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if args.json:
            report = RunReport(args.command, meta={"timings": timings, "failure": {
                "message": str(exc), "residual": exc.residual,
                "iterations": exc.iterations, "history": exc.history}})
            report.add("numerical failure", exc.residual, None, False,
                       detail=str(exc))
            sys.stdout.write(report.to_json())
        return 3
    _emit(report, args, text)
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
