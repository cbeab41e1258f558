"""Competition-system solver and beta sweeps."""

import os
import pathlib
import subprocess
import sys
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

import fracseg.grid as grid_mod
import fracseg.system as system_mod
from fracseg.core import FracParams
from fracseg.errors import ConfigurationError, ConvergenceError
from fracseg.grid import BoundaryData, Field, GridConfig, ModeChains, \
    TraceSystem, assemble_La, build_grid, dtn_trace, solve_linear
from fracseg.system import (CompetitionProblem, Reaction, bump, solve_system,
                            sweep_beta, trace_overlap)


def make_problem(s=0.5, beta=0.0, k=2, nx=129, ny=48, L=2.0, Y=1.5,
                 reactions=None):
    if reactions is None:
        reactions = tuple(Reaction("zero") for _ in range(k))
    centers = [0.0] if k == 1 else np.linspace(-1.0, 1.0, k)
    return CompetitionProblem(
        params=FracParams(s=s, N=1),
        grid_config=GridConfig(d=1, L=L, Y=Y, nx=nx, ny=ny),
        k=k, beta=beta, coupling=np.ones((k, k)) - np.eye(k),
        reactions=reactions, dirichlet=tuple(bump(c) for c in centers))


def test_problem_validation():
    with pytest.raises(ConfigurationError):
        make_problem(beta=-1.0)
    good = make_problem()
    with pytest.raises(ConfigurationError):
        CompetitionProblem(params=good.params, grid_config=good.grid_config,
                           k=2, beta=0.0,
                           coupling=np.array([[0.0, 1.0], [2.0, 0.0]]),
                           reactions=good.reactions, dirichlet=good.dirichlet)
    with pytest.raises(ConfigurationError):
        CompetitionProblem(params=good.params, grid_config=good.grid_config,
                           k=2, beta=0.0,
                           coupling=np.array([[1.0, 1.0], [1.0, 0.0]]),
                           reactions=good.reactions, dirichlet=good.dirichlet)
    with pytest.raises(ConfigurationError):
        CompetitionProblem(params=good.params, grid_config=good.grid_config,
                           k=2, beta=0.0,
                           coupling=np.array([[0.0, -1.0], [-1.0, 0.0]]),
                           reactions=good.reactions, dirichlet=good.dirichlet)
    with pytest.raises(ConfigurationError):
        Reaction("cubic")


def test_single_component_matches_linear_solve():
    # with one component the coupling sum is empty for any beta
    prob = make_problem(k=1, beta=7.0)
    res = solve_system(prob)
    grid = build_grid(prob.grid_config, prob.params)
    direct = solve_linear(grid, BoundaryData(top=prob.dirichlet[0],
                                             sides=prob.dirichlet[0]))
    assert np.abs(res.fields[0].values - direct.values).max() < 1e-9
    assert res.residual_history[-1] <= system_mod.OUTER_TOL
    assert res.outer_iters <= 3


def test_decoupled_limit_and_mirror_symmetry():
    res = solve_system(make_problem(beta=0.0))
    g = res.fields[0].grid
    for f in res.fields:
        assert np.abs(dtn_trace(g, f)).max() < 1e-3 * np.abs(f.values).max()
    v1, v2 = res.fields[0].values, res.fields[1].values
    assert np.abs(v1 - v2[::-1]).max() < 1e-10


def test_mirror_symmetry_under_competition():
    res = solve_system(make_problem(beta=1e3))
    v1, v2 = res.fields[0].values, res.fields[1].values
    assert np.abs(v1 - v2[::-1]).max() < 1e-6
    assert min(v.min() for v in (v1, v2)) >= -1e-12


def test_logistic_reaction_stays_bounded():
    prob = make_problem(beta=10.0,
                        reactions=(Reaction("logistic", 1.0),
                                   Reaction("logistic", 1.0)))
    res = solve_system(prob)
    for f in res.fields:
        assert f.values.min() >= -1e-12
        assert f.values.max() <= 1.5


def test_strong_logistic_single_component_converges():
    # Gauss-Seidel steps alone, with the reaction lagged, diverged here; the
    # Hessian S - diag(lam area) at the zero start is indefinite, so three
    # fallback sweeps come first and Newton steps on E finish the solve
    prob = make_problem(k=1, beta=10.0, reactions=(Reaction("logistic", 5.0),))
    res = solve_system(prob)
    assert res.residual_history[-1] <= system_mod.OUTER_TOL
    v = res.fields[0].values
    assert v.min() >= 0.0 and v.max() <= 1.0 + 1e-12


def test_coupling_is_stored_exactly_symmetric():
    # a coupling symmetric only to allclose gives a Hessian whose (i, j) and
    # (j, i) blocks differ, which its Cholesky solve cannot satisfy; the
    # problem keeps the symmetric part and solves like it
    asym = np.array([[0.0, 1.0], [1.0 + 5e-9, 0.0]])
    prob = replace(make_problem(beta=1e3, nx=65, ny=24), coupling=asym)
    assert np.array_equal(prob.coupling, prob.coupling.T)
    got = solve_system(prob)
    mean = 1.0 + 2.5e-9
    want = solve_system(replace(prob, coupling=np.array([[0.0, mean], [mean, 0.0]])))
    assert got.residual_history[-1] <= system_mod.OUTER_TOL
    assert max(np.abs(a.values - b.values).max()
               for a, b in zip(got.fields, want.fields)) <= 1e-12


def test_warm_start_agrees_with_cold():
    prob = make_problem(beta=1e3)
    seed = solve_system(make_problem(beta=1e2))
    warm = solve_system(prob, warm_start=seed.fields)
    cold = solve_system(prob)
    diff = max(np.abs(a.values - b.values).max()
               for a, b in zip(warm.fields, cold.fields))
    assert diff <= 10 * system_mod.OUTER_TOL


def test_warm_start_validation():
    prob = make_problem(beta=1.0)
    other = build_grid(replace(prob.grid_config, nx=33, ny=12), prob.params)
    with pytest.raises(ConfigurationError, match="grid does not match"):
        solve_system(prob, warm_start=[Field(other, np.zeros(other.shape))] * 2)
    grid = build_grid(prob.grid_config, prob.params)
    with pytest.raises(ConfigurationError, match="every component"):
        solve_system(prob, warm_start=[Field(grid, np.zeros(grid.shape))])


def test_outer_cap_raises(monkeypatch):
    monkeypatch.setattr(system_mod, "MAX_OUTER", 3)
    with pytest.raises(ConvergenceError) as err:
        solve_system(make_problem(beta=1e4))
    assert err.value.history is not None


def test_residual_history_contracts():
    res = solve_system(make_problem(beta=1e2))
    hist = np.array(res.residual_history)
    assert np.sum(np.diff(hist[5:]) > 0) <= 1  # non-monotone steps
    assert hist[-1] <= 1e-8


def _counting(calls, owner, name, returned=None):
    """Wrap owner.name to count its calls in calls[name], and in
    calls[returned] the calls that returned something other than None."""
    method = getattr(owner, name)

    def wrapper(*args):
        calls[name] += 1
        out = method(*args)
        if returned and out is not None:
            calls[returned] += 1
        return out
    return wrapper


def test_each_step_is_one_trace_solve(monkeypatch):
    # for every k each outer step tries one Newton solve; a step that falls
    # back is one Gauss-Seidel sweep of k trace solves; then one field solve
    # (which takes its trace from one more trace solve) per component; every
    # trace solve is one block solve
    calls = dict.fromkeys(("solve", "trace_solve", "block_solve",
                           "_newton_step", "newton", "_gauss_seidel"), 0)
    for name in ("solve", "trace_solve", "block_solve"):
        monkeypatch.setattr(TraceSystem, name, _counting(calls, TraceSystem, name))
    monkeypatch.setattr(system_mod, "_newton_step",
                        _counting(calls, system_mod, "_newton_step", "newton"))
    monkeypatch.setattr(system_mod, "_gauss_seidel",
                        _counting(calls, system_mod, "_gauss_seidel"))
    for k, beta in ((1, 1.0), (2, 1e3), (3, 1e3)):
        calls.update(dict.fromkeys(calls, 0))
        res = solve_system(make_problem(k=k, beta=beta, nx=65, ny=24))
        fallbacks = calls["_gauss_seidel"]
        assert calls["_newton_step"] == res.outer_iters
        assert calls["newton"] + fallbacks == res.outer_iters
        assert res.steps["fallback_sweeps"] == fallbacks
        assert res.steps["newton_steps"] + res.steps["damped_steps"] == calls["newton"]
        assert calls["solve"] == k
        assert calls["trace_solve"] == k * fallbacks + k
        assert calls["block_solve"] == res.outer_iters + calls["trace_solve"]


def test_trace_solve_checks_its_residual(monkeypatch):
    # a Cholesky solve 1e-6 off fails the condensed system's backward-error
    # gate (it reads 3e-7); m varies along the trace, so the solve factors
    # the dense S
    g = _d1(0.5, 33, 16)
    engine = TraceSystem(g)
    load = engine.load(BoundaryData(top=1.0, sides=1.0))
    cho_solve = grid_mod.sla.cho_solve
    monkeypatch.setattr(grid_mod.sla, "cho_solve",
                        lambda *a, **kw: cho_solve(*a, **kw) * (1.0 + 1e-6))
    with pytest.raises(ConvergenceError, match="condensed") as err:
        engine.trace_solve(load, engine.free_values(10.0 + g.x), 0.1)
    assert err.value.residual > 1e-8


def test_block_solve_matches_dense_solve():
    engine = TraceSystem(_d1(0.5, 33, 16))
    S, n = engine.schur, engine.schur.shape[0]
    rng = np.random.default_rng(3)
    for k in (2, 3):
        w, rhs = rng.uniform(0.0, 2.0, (k, n)), rng.standard_normal((k, n))
        coupled = (1.0 - np.eye(k))[..., None]
        off = rng.uniform(-0.5, 0.5, (k, k, n)) / (k - 1)  # SPD with S + diag(w)
        off = (off + off.transpose(1, 0, 2)) * coupled
        H = np.block([[(S if i == j else 0.0) + np.diag(w[i] * (i == j) + off[i, j])
                       for j in range(k)] for i in range(k)])
        want = np.linalg.solve(H, rhs.ravel()).reshape(k, n)
        got = engine.block_solve(w, off, rhs)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        with pytest.raises(np.linalg.LinAlgError):  # not positive definite
            engine.block_solve(w, off + 10.0 * np.abs(S).max() * coupled, rhs)


def test_newton_step_checks_its_residual(monkeypatch):
    # a Newton solve 1e-6 off fails the Hessian system's backward-error gate
    # for every k (it reads 3e-8 at k = 2); the error carries the loop state
    cho_solve = grid_mod.sla.cho_solve
    monkeypatch.setattr(grid_mod.sla, "cho_solve",
                        lambda *a, **kw: cho_solve(*a, **kw) * (1.0 + 1e-6))
    for k in (1, 2, 3):
        with pytest.raises(ConvergenceError, match="condensed trace solve failed") as err:
            solve_system(make_problem(k=k, beta=1e2, nx=65, ny=24))
        assert err.value.residual > 1e-8
        assert err.value.iterations == 1
        assert err.value.history == [err.value.residual]


def test_failed_cholesky_falls_back_to_gauss_seidel(monkeypatch):
    # the first three Newton solves find no positive definite Hessian; those
    # steps are Gauss-Seidel sweeps and the solve still converges
    prob = make_problem(beta=1e3, nx=65, ny=24)
    want = solve_system(prob)
    cho_factor, failed = grid_mod.sla.cho_factor, []
    n = prob.grid_config.nx - 2  # free trace nodes

    def failing(a, *args, **kwargs):
        if a.shape[0] == 2 * n and len(failed) < 3:  # a Newton system
            failed.append(True)
            raise np.linalg.LinAlgError("not positive definite")
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(grid_mod.sla, "cho_factor", failing)
    sweeps = {"_gauss_seidel": 0}
    monkeypatch.setattr(system_mod, "_gauss_seidel",
                        _counting(sweeps, system_mod, "_gauss_seidel"))
    got = solve_system(prob)
    assert len(failed) == 3 and sweeps["_gauss_seidel"] >= 3
    assert got.residual_history[-1] <= system_mod.OUTER_TOL
    assert max(np.abs(a.values - b.values).max()
               for a, b in zip(got.fields, want.fields)) <= 1e-9


@pytest.mark.parametrize("kind", ["zero", "linear", "logistic"])
def test_reaction_slope_and_primitive(kind):
    R = np.array(Reaction(kind, 2.5).coef)[:, None]
    u = np.linspace(-1.0, 2.0, 7)
    # f, f', f'' and the primitive in closed form
    f, df, d2f, primitive = {
        "zero": (lambda v: 0.0 * v, lambda v: 0.0 * v, 0.0, lambda v: 0.0 * v),
        "linear": (lambda v: 2.5 * v, lambda v: 2.5 + 0.0 * v, 0.0,
                   lambda v: 1.25 * v * v),
        "logistic": (lambda v: 2.5 * v * (1 - v), lambda v: 2.5 - 5.0 * v, -5.0,
                     lambda v: 2.5 * (v * v / 2 - v ** 3 / 3))}[kind]
    assert np.allclose(system_mod._reaction(R, u), f(u), rtol=1e-15, atol=1e-15)
    fd = (system_mod._reaction(R, u + 1e-6) - system_mod._reaction(R, u - 1e-6)) / 2e-6
    assert np.allclose(system_mod._reaction_slope(R, u), fd, rtol=1e-8, atol=1e-8)
    for du in (0.3, 1e-9):
        change = system_mod._primitive_change(R, u, du)
        assert np.allclose(change, primitive(u + du) - primitive(u), rtol=1e-6, atol=1e-15)
        # Taylor's series ends at du^3 for a quadratic f: a reference with no
        # cancellation at small du; the change keeps its digits but where
        # f(u) = 0 (round-off of the du-sized terms, hence atol)
        taylor = f(u) * du + df(u) * du ** 2 / 2 + d2f * du ** 3 / 6
        assert np.allclose(change, taylor, rtol=1e-13, atol=1e-15 * du)


@pytest.mark.parametrize("lam", [-2.0, 2.0])
def test_fallback_sweep_lags_only_a_damping_logistic(lam, monkeypatch):
    # logistic lam > 0 (c2 < 0 < c1) is lagged as the absorption lam u+ with
    # the source lam u+; lam < 0 has no positive-part lag: its trace_solve
    # gets the plain source f(u) and no absorption beyond the coupling's
    prob = make_problem(k=1, beta=0.0, nx=33, ny=16,
                        reactions=(Reaction("logistic", lam),))
    engine = grid_mod.trace_system(build_grid(prob.grid_config, prob.params))
    loads = [engine.load(BoundaryData(top=v, sides=v)) for v in prob.dirichlet]
    X = np.linspace(-0.5, 1.5, engine.area.size)[None, :]
    u, seen = X[0].copy(), []
    monkeypatch.setattr(TraceSystem, "trace_solve",
                        lambda self, load, m, g0: seen.append((m, g0)) or u)
    R = np.array(Reaction("logistic", lam).coef)[:, None, None]  # (2, k = 1, 1)
    system_mod._gauss_seidel(engine, prob, R, loads, X)
    [(m, source)] = seen
    if lam > 0:
        assert np.array_equal(m, lam * np.maximum(u, 0.0))
        assert np.array_equal(source, lam * np.maximum(u, 0.0))
    else:
        assert np.array_equal(m, np.zeros_like(u))
        assert np.allclose(source, lam * u * (1.0 - u), rtol=1e-15, atol=1e-15)


def _energy(engine, prob, R, X, c):
    """E on the free trace values, summed term by term."""
    area, total = engine.area.ravel(), 0.0
    for i in range(prob.k):
        u = X[i]
        total += 0.5 * u @ engine.schur @ u - c[i] @ u
        total -= area @ system_mod._primitive_change(R[:, i], np.zeros_like(u), u)
        for j in range(i + 1, prob.k):
            total += 0.5 * prob.beta * prob.coupling[i, j] * area @ (u ** 2 * X[j] ** 2)
    return total


@pytest.mark.parametrize("s, betas, reaction, k", [
    (0.3, [1e2, 1e3, 1e4], Reaction("zero"), 2),
    (0.5, [1e1, 1e3], Reaction("logistic", 1.0), 2),
    (0.5, [1e2, 1e3, 1e4], Reaction("logistic", 1.0), 3)],
    ids=["0.3-betas0-reaction0", "0.5-betas1-reaction1", "0.5-betas2-reaction2-k3"])
def test_newton_steps_descend_the_energy(s, betas, reaction, k, monkeypatch):
    steps = []
    newton_step = system_mod._newton_step

    def recording(engine, prob, R, X, c):
        out = newton_step(engine, prob, R, X, c)
        if out is not None:
            steps.append((_energy(engine, prob, R, X, c),
                          _energy(engine, prob, R, out[0], c)))
        return out

    monkeypatch.setattr(system_mod, "_newton_step", recording)
    sweep_beta(make_problem(s=s, k=k, reactions=(reaction,) * k), betas,
               holder_alpha=0.03)
    assert len(steps) >= 2 * len(betas)
    for before, after in steps:
        assert after <= before + 1e-13 * (abs(before) + 1.0)


def _reference_gauss_seidel(prob, engine, traces, tol=1e-13):
    """Fields of a plain Gauss-Seidel loop of trace_solve calls from the
    given free trace values, run to a sweep change of tol (zero reactions)."""
    loads = [engine.load(BoundaryData(top=v, sides=v)) for v in prob.dirichlet]
    traces = list(traces)

    def absorption(i):
        return prob.beta * sum(a * t ** 2 for a, t in zip(prob.coupling[i], traces))

    for _ in range(5000):
        change = 0.0
        for i in range(prob.k):
            new = engine.trace_solve(loads[i], absorption(i), 0.0)
            change = max(change, np.abs(new - traces[i]).max())
            traces[i] = new
        if change <= tol:
            return [engine.solve(loads[i], absorption(i), 0.0)
                    for i in range(prob.k)]
    raise AssertionError(f"reference stopped at change {change:.1e}")


def _matches_gauss_seidel_along(prob, betas):
    """Solve along betas warm-started on one engine, as sweep_beta does, and
    check every solve against the reference run on that engine from the
    last reference traces; returns the outer iterations per beta."""
    engine = grid_mod.trace_system(build_grid(prob.grid_config, prob.params))
    fields, traces = None, [np.zeros(engine.area.size)] * prob.k
    iters = []
    for beta in betas:
        p = replace(prob, beta=beta)
        res = solve_system(p, warm_start=fields)
        want = _reference_gauss_seidel(p, engine, traces)
        assert max(np.abs(f.values - w).max()
                   for f, w in zip(res.fields, want)) <= 1e-9
        fields = res.fields
        traces = [engine.free_values(w[..., 0]) for w in want]
        iters.append(res.outer_iters)
    return iters


def test_newton_matches_gauss_seidel_run_to_round_off():
    # criterion-10 problem (quick grid), warm-started like a sweep; a sweep
    # change of 1e-8 left Gauss-Seidel up to 1.4e-7 off on this workload
    _matches_gauss_seidel_along(make_problem(), (1e2, 1e3, 1e4))


def test_three_component_sweep():
    # bumps at -1, 0 and 1: Gauss-Seidel steps alone took 14, 106, 55 and 158
    # steps to a sweep change of 1e-8
    iters = _matches_gauss_seidel_along(make_problem(k=3), (1e2, 1e3, 1e4, 1e5))
    assert max(iters) <= 20


def test_s03_sweep_converges():
    # perfbench NOTES defect 1: at s = 0.3 on 129 x 48 Gauss-Seidel alone
    # stalled at beta = 1e4 (500 steps, last change 4.7e-8)
    sweep = sweep_beta(make_problem(s=0.3), [1e2, 1e3, 1e4], holder_alpha=0.03)
    assert np.all(sweep.column("outer_iters") <= 20)


def _thread_counts():
    return [get() for get, _ in grid_mod._blas_thread_controls()]


def test_one_blas_thread_restores_counts():
    controls = grid_mod._blas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    saved = _thread_counts()
    try:
        for _, put in controls:
            put(2)
        with grid_mod.one_blas_thread():
            assert _thread_counts() == [1] * len(controls)
        assert _thread_counts() == [2] * len(controls)
        with pytest.raises(RuntimeError, match="inside"):
            with grid_mod.one_blas_thread():
                raise RuntimeError("inside")
        assert _thread_counts() == [2] * len(controls)
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(grid_mod.glob, "glob", lambda pattern: [])
    assert grid_mod._blas_thread_controls.__wrapped__() == ()
    monkeypatch.setattr(grid_mod, "_blas_thread_controls", lambda: ())
    res = solve_system(make_problem(beta=1e2, nx=33, ny=12))
    assert res.residual_history[-1] <= system_mod.OUTER_TOL


def test_solve_system_runs_on_one_blas_thread(monkeypatch):
    seen = []
    block_solve = TraceSystem.block_solve

    def recording(self, *args):
        seen.append(_thread_counts())
        return block_solve(self, *args)

    monkeypatch.setattr(TraceSystem, "block_solve", recording)
    before = _thread_counts()
    solve_system(make_problem(beta=1e2, nx=65, ny=24))
    assert _thread_counts() == before
    assert seen and all(counts == [1] * len(before) for counts in seen)


def test_blas_libraries_are_looked_up_on_first_use():
    code = ("import fracseg.cli, fracseg.grid as g\n"
            "assert g._blas_thread_controls.cache_info().currsize == 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(grid_mod.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("s, nx, ny", [(0.5, 65, 24), (0.75, 257, 96)])
def test_step_gate_catches_wrong_schur(s, nx, ny, monkeypatch):
    # the Newton step factors the dense S but checks its residual with S
    # taken through the modes, so a Schur complement 1 % off fails the first
    # step; at s = 3/4 a wrong trace is below the field's round-off
    prob = make_problem(s=s, beta=1e2, nx=nx, ny=ny)
    engine = TraceSystem(build_grid(prob.grid_config, prob.params))
    engine.schur *= 1.01
    monkeypatch.setattr(grid_mod, "_engine", engine)  # the one solve_system gets
    with pytest.raises(ConvergenceError, match="condensed trace solve failed") as err:
        solve_system(prob)
    assert err.value.iterations == 1
    assert err.value.history == [err.value.residual]


def test_final_field_gate_catches_wrong_interior(monkeypatch):
    # the trace steps never see the interior response; the field gate,
    # which applies the operator face by face, does
    prob = make_problem(beta=1e2, nx=65, ny=24)
    engine = TraceSystem(build_grid(prob.grid_config, prob.params))
    engine._resp *= 1.0 + 1e-6
    monkeypatch.setattr(grid_mod, "_engine", engine)  # the one solve_system gets
    with pytest.raises(ConvergenceError, match="linear solve failed") as err:
        solve_system(prob)
    assert err.value.iterations == len(err.value.history) >= 1


def test_nan_reaction_raises(monkeypatch):
    monkeypatch.setattr(system_mod, "_reaction",
                        lambda R, u: np.full_like(u, np.nan))
    with pytest.raises(ConvergenceError) as err:
        solve_system(make_problem(beta=1e2, nx=65, ny=24))
    assert np.isnan(err.value.residual)


def test_sweep_segregation_and_boundedness():
    betas = [1e2, 1e3, 1e4]
    sweep = sweep_beta(make_problem(), betas, holder_alpha=0.05)
    ov = sweep.column("overlap")
    bo = sweep.column("beta_times_overlap")
    hs = sweep.column("holder_seminorm")
    assert ov[0] / ov[-1] >= 10.0
    assert np.all(bo <= 10.0 * bo[0])
    assert hs.max() / hs[0] <= 1.5
    assert np.all(sweep.column("outer_iters") >= 1)


def test_sweep_csv_format():
    sweep = sweep_beta(make_problem(nx=65, ny=24), [1e1, 1e2],
                       holder_alpha=0.05)
    text = sweep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ("beta,sup_norm_0,sup_norm_1,overlap,"
                        "beta_times_overlap,holder_alpha,holder_seminorm,"
                        "outer_iters")
    assert len(lines) == 3


def test_sweep_validation():
    with pytest.raises(ConfigurationError):
        sweep_beta(make_problem(), [1e3, 1e2], holder_alpha=0.05)
    with pytest.raises(ConfigurationError):
        sweep_beta(make_problem(), [], holder_alpha=0.05)


def test_sweep_single_beta_zero_entry():
    sweep = sweep_beta(make_problem(nx=65, ny=24), [0.0], holder_alpha=0.05)
    assert len(sweep.rows) == 1
    assert sweep.rows[0].beta == 0.0
    assert sweep.rows[0].overlap > 0


def test_overlap_at_beta_zero_matches_decoupled_solves():
    prob = make_problem(beta=0.0)
    res = solve_system(prob)
    grid = build_grid(prob.grid_config, prob.params)
    traces = []
    for spec in prob.dirichlet:
        fld = solve_linear(grid, BoundaryData(top=spec, sides=spec))
        traces.append(fld.trace)
    area = grid.x_dual
    decoupled = float(np.sum(area * traces[0] ** 2 * traces[1] ** 2))
    assert trace_overlap(res) == pytest.approx(decoupled, rel=1e-8)


def test_d2_system_smoke():
    p = FracParams(s=0.5, N=2)
    prob = CompetitionProblem(
        params=p, grid_config=GridConfig(d=2, L=1.0, Y=1.0, nx=13, ny=8),
        k=2, beta=50.0, coupling=np.array([[0.0, 1.0], [1.0, 0.0]]),
        reactions=(Reaction("zero"), Reaction("zero")),
        dirichlet=(lambda x1, x2, y: np.exp(-2 * (x1 + 0.5) ** 2) + 0 * x2 + 0 * y,
                   lambda x1, x2, y: np.exp(-2 * (x1 - 0.5) ** 2) + 0 * x2 + 0 * y))
    res = solve_system(prob)
    assert res.residual_history[-1] <= system_mod.OUTER_TOL
    assert all(f.values.min() >= -1e-12 for f in res.fields)
    assert trace_overlap(res) > 0


def _face_form(grid, v):
    """A v applied face by face, sum_q g_pq (v_p - v_q), on the flat nodes;
    the conductances g_pq are the assembled off-diagonal entries."""
    A = assemble_La(grid).tocoo()
    off = A.row != A.col
    p, q, w = A.row[off], A.col[off], -A.data[off]
    v = v.ravel()
    return np.bincount(p, weights=w * (v[p] - v[q]), minlength=v.size)


def _dirichlet_mask(grid, sides, trace_dirichlet):
    """The Dirichlet nodes BoundaryData names: the top row, the x-edges
    when sides is set and the trace row when trace_dirichlet is set."""
    dmask = np.zeros(grid.shape, dtype=bool)
    dmask[..., -1] = True
    if sides:
        for axis in range(grid.d):
            dmask[(slice(None),) * axis + ([0, -1],)] = True
    if trace_dirichlet:
        dmask[..., 0] = True
    return dmask


class _SparseLU(TraceSystem):
    """Reference engine: each solve LU-factors the Jacobi-scaled sparse
    reduced operator, which it slices out of the assembled operator on its
    own Dirichlet set, and takes one refinement step on the residual with A
    applied face by face.  Rounding the y1^{-2s} trace conductance into the
    assembled diagonal moves the bare LU solution by 2e-8 at s = 3/4; each
    conductance multiplying a difference v_p - v_q restores that accuracy."""

    def __init__(self, grid, sides=True, trace_dirichlet=False):
        super().__init__(grid, sides, trace_dirichlet)
        dmask = _dirichlet_mask(grid, sides, trace_dirichlet)
        self.unk, self.dir = np.flatnonzero(~dmask), np.flatnonzero(dmask)
        A_u = assemble_La(grid)[self.unk]
        self.A_uu, self.A_ud = A_u[:, self.unk], A_u[:, self.dir]
        self.trace_free = ~dmask[..., 0].ravel()
        nodes = np.arange(grid.n_nodes).reshape(grid.shape)[..., 0].ravel()
        self.trace_rows = np.searchsorted(self.unk, nodes[self.trace_free])
        self._area = grid_mod.trace_area(grid).ravel()[self.trace_free]

    def solve(self, load, m, g0):
        # m and g0 are scalars or free values (none with a Dirichlet trace)
        dvals = load[0]
        tr = self.trace_rows
        absorb = np.zeros(self.unk.size)
        absorb[tr] = m * self._area
        ga = g0 * self._area
        b = -(self.A_ud @ dvals.ravel()[self.dir])
        b[tr] += ga
        dh = 1.0 / np.sqrt(self.A_uu.diagonal() + absorb)
        D = sps.diags(dh)
        lu = spla.splu((D @ (self.A_uu + sps.diags(absorb)) @ D).tocsc())
        xs = lu.solve(dh * b)
        v = dvals.ravel().copy()
        v[self.unk] = dh * xs
        r = -_face_form(self.grid, v)[self.unk] - absorb * v[self.unk]
        r[tr] += ga
        xs += lu.solve(dh * r)
        v[self.unk] = dh * xs
        return v.reshape(self.grid.shape)

    def trace_solve(self, load, m, g0):
        return self.free_values(self.solve(load, m, g0)[..., 0])


def _warm_sweep(prob, betas):
    """The solved fields along betas, each solve warm-started from the last
    on the engine of the slot, as sweep_beta solves them."""
    fields, out = None, []
    for beta in betas:
        fields = solve_system(replace(prob, beta=beta), warm_start=fields).fields
        out.append(fields)
    return out


@pytest.mark.parametrize("s, bound", [(0.5, 1e-12), (0.75, 2e-8)])
def test_condensed_matches_sparse_path(s, bound, monkeypatch):
    # criterion-10 problem (quick grid); at s = 0.75 the two paths may stop
    # one outer iteration apart, so they agree to within 2 x outer tol
    betas = [1e2, 1e3, 1e4]
    prob = make_problem(s=s)
    grid = build_grid(prob.grid_config, prob.params)
    dense = _warm_sweep(prob, betas)
    # put the reference engine in the slot; monkeypatch restores the old one
    monkeypatch.setattr(grid_mod, "_engine", _SparseLU(grid))
    sparse = _warm_sweep(prob, betas)
    assert isinstance(grid_mod._engine, _SparseLU)
    diff = max(np.abs(a.values - b.values).max()
               for fa, fb in zip(dense, sparse) for a, b in zip(fa, fb))
    assert diff <= bound


def test_sweep_factors_interior_once(monkeypatch):
    # the separable engine makes no sparse LU, and one TraceSystem (one
    # set-up) serves every beta and a later solve on the sweep's grid;
    # patching the shared scipy.sparse.linalg module counts a spla.splu call
    # from any module
    shapes = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    engines, schur_builds = [], []

    class CountingTraceSystem(TraceSystem):
        def __init__(self, *args, **kwargs):
            engines.append(self)
            super().__init__(*args, **kwargs)

        @cached_property
        def schur(self):
            schur_builds.append(self)
            return TraceSystem.schur.func(self)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(grid_mod, "_engine", None)
    monkeypatch.setattr(grid_mod, "TraceSystem", CountingTraceSystem)
    prob = make_problem(nx=65, ny=24)
    sweep_beta(prob, [1e2, 1e3, 1e4], holder_alpha=0.05)
    assert shapes == []
    assert len(engines) == 1 and schur_builds == engines  # S once per engine
    solve_system(replace(prob, beta=1e4))
    assert len(engines) == 1 and schur_builds == engines


def _d1(s, nx, ny, L=1.0, Y=1.0, grading_p=None):
    return build_grid(GridConfig(d=1, L=L, Y=Y, nx=nx, ny=ny,
                                 grading_p=grading_p), FracParams(s=s, N=1))


SEPARABLE_CASES = {
    "dtn": (_d1(0.5, 256, 128, L=np.pi, Y=6.0),
            BoundaryData(top=0.0, sides=None,
                         trace_dirichlet=lambda x, y: np.cos(2.0 * x))),
    "neumann-const-m": (_d1(0.25, 129, 64),
                        BoundaryData(top=1.0, sides=1.0, neumann_m=10.0,
                                     neumann_g0=lambda x, y: 0.1 * np.cos(3 * x))),
    "neumann-var-m": (_d1(0.5, 129, 64),
                      BoundaryData(top=bump(0.3), sides=bump(0.3),
                                   neumann_m=lambda x, y: 50.0 * np.exp(-x * x) + 0 * y,
                                   neumann_g0=0.2)),
    "acf-vanishing-trace": (_d1(0.5, 129, 128, L=0.8, Y=0.8, grading_p=1.0),
                            BoundaryData(top=lambda x, y: y + 0 * x,
                                         sides=lambda x, y: y + 0 * x,
                                         trace_dirichlet=0.0)),
    "neumann-source-s075": (_d1(0.75, 65, 32),
                            BoundaryData(top=0.0, sides=0.0,
                                         neumann_g0=lambda x, y: np.exp(-4.0 * x * x))),
    "d2-neumann": (build_grid(GridConfig(d=2, L=1.0, Y=1.0, nx=17, ny=8),
                              FracParams(s=0.5, N=2)),
                   BoundaryData(top=1.0, sides=1.0,
                                neumann_m=lambda x1, x2, y: 5.0 + x1 + 0 * x2 * y,
                                neumann_g0=lambda x1, x2, y: 0.1 * np.cos(3 * x1)
                                * np.cos(2 * x2) + 0 * y)),
}


@pytest.mark.parametrize("case", sorted(SEPARABLE_CASES))
def test_separable_matches_sparse_lu(case, monkeypatch):
    g, bd = SEPARABLE_CASES[case]
    got = solve_linear(g, bd).values
    # empty solve_linear's engine slot, or the second solve reuses the first
    # engine; monkeypatch puts the old engine back afterwards
    monkeypatch.setattr(grid_mod, "_engine", None)
    monkeypatch.setattr(grid_mod, "TraceSystem", _SparseLU)
    want = solve_linear(g, bd).values
    assert isinstance(grid_mod._engine, _SparseLU)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("nx, ny", [(129, 48), (257, 128)])
def test_engine_residual_face_by_face(nx, ny):
    # criterion-10 data at s = 3/4 with a competition-sized absorption; the
    # assembled diagonal rounds the y1^{-2s} trace conductance, so the
    # residual is taken with each conductance times a difference v_p - v_q
    g = build_grid(GridConfig(d=1, L=2.0, Y=1.5, nx=nx, ny=ny),
                   FracParams(s=0.75, N=1))
    top = bump(-1.0)
    m = 1e3 * bump(1.0)(g.x, 0.0) ** 2
    v = solve_linear(g, BoundaryData(top=top, sides=top, neumann_m=m)).values
    free = ~_dirichlet_mask(g, sides=True, trace_dirichlet=False)
    absorb = np.zeros(g.shape)
    absorb[:, 0] = m * grid_mod.trace_area(g)
    r = (_face_form(g, v).reshape(g.shape) + absorb * v)[free]
    dvals = np.where(free, 0.0, v)
    b = -_face_form(g, dvals).reshape(g.shape)[free]
    dh = 1.0 / np.sqrt(assemble_La(g).diagonal().reshape(g.shape) + absorb)[free]
    assert np.linalg.norm(dh * r) <= 1e-9 * np.linalg.norm(dh * b)


@pytest.mark.parametrize("s, tol", [(0.25, 1e-9), (0.5, 1e-9), (0.75, 1e-3)])
def test_trace_schur_is_the_dtn_map(s, tol):
    # criterion-2 grid family with zero-flux sides, a free trace and zero
    # top data: trace_flux is the discrete DtN map S / area.  cos(kx) is an
    # exact eigenvector of Kx (the DCT-I mode 2k), so the flux is the symbol
    # of that mode's chain times cos(kx), to 1e-9 at every s.  The flux adds
    # the trace row's own horizontal flux w0 * lambda_k to the dtn_trace of
    # the solved extension; at s = 3/4 dtn_trace multiplies v1 - v0 by
    # 2s y1^{-2s} ~ 5e11, so its round-off floor is about 1e-4 of the
    # amplitude.
    g = _d1(s, 256, 128, L=np.pi, Y=6.0)
    engine = TraceSystem(g, sides=False)
    load = engine.load(BoundaryData(top=0.0, sides=None))
    gv = g.vertical_conductance
    amps = {}
    for k in (1, 2, 4):
        c = np.cos(k * g.x)
        flux = engine.trace_flux(load, c)
        lam = 2.0 / g.dx ** 2 * (1.0 - np.cos(k * g.dx))
        symbol = ModeChains(lam * g.y_dual_w[None, g.ny - 1::-1], gv[-2::-1],
                            gv[-1]).symbol[0]
        assert np.abs(flux - symbol * c).max() <= 1e-9 * symbol
        fld = solve_linear(g, BoundaryData(top=0.0, sides=None,
                                           trace_dirichlet=lambda x, y: np.cos(k * x)))
        amps[k] = flux @ c / (c @ c)
        solved = dtn_trace(g, fld) @ c / (c @ c)
        assert amps[k] - g.y_dual_w[0] * lam == pytest.approx(solved, rel=tol)
    for a, b in ((2, 1), (4, 2), (4, 1)):
        assert amps[a] / amps[b] == pytest.approx((a / b) ** (2 * s), rel=0.03)


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_trace_flux_of_a_solved_trace_is_its_neumann_data(s):
    # the trace solve imposes d_nu^a v = g0 - m v, so the flux of its trace
    # reads the Neumann data back, with the load's c taken off
    g = _d1(s, 129, 64)
    engine = TraceSystem(g)
    load = engine.load(BoundaryData(top=bump(0.3), sides=bump(0.3)))
    m, g0 = engine.free_values(50.0 * np.exp(-g.x ** 2)), 0.2
    t = engine.trace_solve(load, m, g0)
    flux = engine.trace_flux(load, t)
    scale = np.abs(load[3] / engine.area).max()
    assert np.abs(flux - (g0 - m * t)).max() <= 1e-12 * scale


def test_separable_engine_rejects_non_spd_and_nan(monkeypatch):
    # a scalar m is solved in the modes, which check sigma + m > 0 with no
    # Cholesky; the same m as free values reaches the dense Cholesky solve
    g = _d1(0.5, 33, 16)
    bd = BoundaryData(top=1.0, sides=1.0)
    engine = TraceSystem(g)
    load = engine.load(bd)
    cho_factor, calls = grid_mod.sla.cho_factor, []
    monkeypatch.setattr(grid_mod.sla, "cho_factor",
                        lambda *a, **kw: calls.append(1) or cho_factor(*a, **kw))
    for m in (np.nan, -5.0):  # -5: diagonal stays positive, S + m area does not
        with pytest.raises(ConvergenceError, match="not positive definite"):
            engine.solve(load, m, 0.1)
        assert calls == []
    for m in (np.nan, -5.0):
        with pytest.raises(ConvergenceError):
            engine.solve(load, np.full(engine.area.size, m), 0.1)
    assert len(calls) == 2


@pytest.mark.parametrize("nx", [65])
def test_engine_matches_one_shot_solve(nx):
    g = build_grid(GridConfig(d=1, L=2.0, Y=1.0, nx=nx, ny=4),
                   FracParams(s=0.5, N=1))
    top = bump(0.3)
    engine = TraceSystem(g)
    load = engine.load(BoundaryData(top=top, sides=top))
    m = 50.0 * np.exp(-g.x ** 2)
    g0 = 0.2 * np.cos(g.x)
    got = engine.solve(load, engine.free_values(m), engine.free_values(g0))
    want = solve_linear(g, BoundaryData(top=top, sides=top, neumann_m=m,
                                        neumann_g0=g0))
    assert np.abs(got - want.values).max() <= 1e-12


def test_engine_rejects_grid_above_trace_cap(monkeypatch):
    # with Dirichlet sides the cap is nx <= TRACE_CAP + 2 in d = 1 and
    # nx <= 66 in d = 2; the check comes before the first grid-sized step
    # (the face fluxes) and the O(n^2) basis
    def no_work(*args):
        raise AssertionError("engine set-up ran above the cap")

    for name in ("_face_flux", "_trig_basis"):
        monkeypatch.setattr(grid_mod, name, no_work)
    for d, nx in ((1, grid_mod.TRACE_CAP + 3), (2, 67)):
        g = build_grid(GridConfig(d=d, nx=nx, ny=4), FracParams(s=0.5, N=d))
        with pytest.raises(ConfigurationError, match="free horizontal nodes"):
            TraceSystem(g)
        with pytest.raises(ConfigurationError, match="free horizontal nodes"):
            solve_linear(g, BoundaryData(top=1.0, sides=1.0))
