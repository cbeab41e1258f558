"""Competition-system solver and beta sweeps."""

import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spla

import fracseg.grid as grid_mod
import fracseg.system as system_mod
from fracseg.core import FracParams
from fracseg.errors import ConfigurationError, ConvergenceError
from fracseg.grid import BoundaryData, GridConfig, TraceSystem, build_grid, \
    dirichlet_data, dtn_trace, solve_linear
from fracseg.system import (CompetitionProblem, Reaction, bump, solve_system,
                            sweep_beta, trace_overlap)


def make_problem(s=0.5, beta=0.0, k=2, nx=129, ny=48, L=2.0, Y=1.5,
                 reactions=None):
    coupling = np.zeros((k, k)) if k == 1 else np.array([[0.0, 1.0], [1.0, 0.0]])
    if reactions is None:
        reactions = tuple(Reaction("zero") for _ in range(k))
    centers = [0.0] if k == 1 else [-1.0, 1.0]
    return CompetitionProblem(
        params=FracParams(s=s, N=1),
        grid_config=GridConfig(d=1, L=L, Y=Y, nx=nx, ny=ny),
        k=k, beta=beta, coupling=coupling, reactions=reactions,
        dirichlet=tuple(bump(c) for c in centers))


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
    with pytest.raises(ConfigurationError):
        solve_system(prob, warm_start=[np.zeros((3, 3))] * 2)
    with pytest.raises(ConfigurationError):
        solve_system(prob, warm_start=[np.zeros(prob.grid_config.nx)])


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
    # k = 2: every outer step tries one Newton solve; a step that falls back
    # is one Gauss-Seidel sweep of k trace solves; then one field solve
    # (which takes its trace from one more trace solve) per component
    calls = dict.fromkeys(("solve", "trace_solve", "pair_solve",
                           "_newton_step", "newton", "_gauss_seidel"), 0)
    for name in ("solve", "trace_solve", "pair_solve"):
        monkeypatch.setattr(TraceSystem, name, _counting(calls, TraceSystem, name))
    monkeypatch.setattr(system_mod, "_newton_step",
                        _counting(calls, system_mod, "_newton_step", "newton"))
    monkeypatch.setattr(system_mod, "_gauss_seidel",
                        _counting(calls, system_mod, "_gauss_seidel"))
    res = solve_system(make_problem(beta=1e3, nx=65, ny=24))
    fallbacks = calls["_gauss_seidel"]
    assert calls["_newton_step"] == calls["pair_solve"] == res.outer_iters
    assert calls["newton"] + fallbacks == res.outer_iters
    assert calls["solve"] == 2
    assert calls["trace_solve"] == 2 * fallbacks + 2
    # k != 2: every step is a sweep
    calls.update(dict.fromkeys(calls, 0))
    res = solve_system(make_problem(k=1, beta=1.0, nx=65, ny=24))
    assert calls["pair_solve"] == calls["_newton_step"] == 0
    assert calls["_gauss_seidel"] == res.outer_iters
    assert calls["trace_solve"] == res.outer_iters + 1


def test_trace_solve_checks_its_residual(monkeypatch):
    # a Cholesky solve 1e-6 off fails the condensed system's backward-error
    # gate (it reads 3e-7)
    g = _d1(0.5, 33, 16)
    engine = TraceSystem(g)
    load = engine.load(dirichlet_data(g, BoundaryData(top=1.0, sides=1.0)))
    cho_solve = grid_mod.sla.cho_solve
    monkeypatch.setattr(grid_mod.sla, "cho_solve",
                        lambda *a, **kw: cho_solve(*a, **kw) * (1.0 + 1e-6))
    with pytest.raises(ConvergenceError, match="condensed") as err:
        engine.trace_solve(load, 10.0, 0.1)
    assert err.value.residual > 1e-8


def test_pair_solve_matches_dense_block_solve():
    engine = TraceSystem(_d1(0.5, 33, 16))
    S, n = engine.schur, engine.schur.shape[0]
    rng = np.random.default_rng(3)
    w, off = rng.uniform(0.0, 2.0, (2, n)), rng.uniform(-1.0, 1.0, n)
    rhs = rng.standard_normal((2, n))
    H = np.block([[S + np.diag(w[0]), np.diag(off)],
                  [np.diag(off), S + np.diag(w[1])]])
    want = np.linalg.solve(H, rhs.ravel()).reshape(2, n)
    assert np.abs(engine.pair_solve(w, off, rhs) - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(np.linalg.LinAlgError):  # the Schur complement is not SPD
        engine.pair_solve(w, off + 10.0 * np.abs(S).max(), rhs)


def test_newton_step_checks_its_residual(monkeypatch):
    # a Newton solve 1e-6 off fails the Hessian system's backward-error gate
    # (it reads 3e-8); the error carries the loop state
    eliminate = grid_mod._block_eliminate
    monkeypatch.setattr(grid_mod, "_block_eliminate",
                        lambda *args: eliminate(*args) * (1.0 + 1e-6))
    with pytest.raises(ConvergenceError, match="Newton step failed") as err:
        solve_system(make_problem(beta=1e2, nx=65, ny=24))
    assert err.value.residual > 1e-8
    assert err.value.iterations == 1
    assert err.value.history == [err.value.residual]


def test_failed_cholesky_falls_back_to_gauss_seidel(monkeypatch):
    # the first three Newton solves find no positive definite Hessian; those
    # steps are Gauss-Seidel sweeps and the solve still converges
    prob = make_problem(beta=1e3, nx=65, ny=24)
    want = solve_system(prob)
    cholesky, failed = grid_mod.sla.cholesky, []

    def failing(*args, **kwargs):
        if len(failed) < 3:
            failed.append(True)
            raise np.linalg.LinAlgError("not positive definite")
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(grid_mod.sla, "cholesky", failing)
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
    f = Reaction(kind, 2.5)
    u = np.linspace(-1.0, 2.0, 7)
    primitive = {"zero": lambda v: 0.0 * v, "linear": lambda v: 1.25 * v * v,
                 "logistic": lambda v: 2.5 * (v * v / 2 - v ** 3 / 3)}[kind]
    for du in (0.3, 1e-9):
        assert np.allclose(f.primitive_change(u, du),
                           primitive(u + du) - primitive(u), rtol=1e-6, atol=1e-15)
    assert np.allclose(f.slope(u), (f(u + 1e-6) - f(u - 1e-6)) / 2e-6, atol=1e-8)


def _energy(engine, prob, X, c):
    """E on the free trace values, summed term by term (two components)."""
    area = engine.area.ravel()
    total = 0.5 * prob.beta * prob.coupling[0, 1] * area @ (X[0] ** 2 * X[1] ** 2)
    for i in range(2):
        u = X[i]
        total += 0.5 * u @ engine.schur @ u - c[i] @ u
        total -= area @ prob.reactions[i].primitive_change(np.zeros_like(u), u)
    return total


@pytest.mark.parametrize("s, betas, reaction", [
    (0.3, [1e2, 1e3, 1e4], Reaction("zero")),
    (0.5, [1e1, 1e3], Reaction("logistic", 1.0))])
def test_newton_steps_descend_the_energy(s, betas, reaction, monkeypatch):
    steps = []
    newton_step = system_mod._newton_step

    def recording(engine, prob, X, c):
        out = newton_step(engine, prob, X, c)
        if out is not None:
            steps.append((_energy(engine, prob, X, c),
                          _energy(engine, prob, out[0], c)))
        return out

    monkeypatch.setattr(system_mod, "_newton_step", recording)
    sweep_beta(make_problem(s=s, reactions=(reaction, reaction)), betas,
               holder_alpha=0.03)
    assert len(steps) >= 2 * len(betas)
    for before, after in steps:
        assert after <= before + 1e-13 * (abs(before) + 1.0)


def _reference_gauss_seidel(prob, engine, traces, tol=1e-13):
    """Fields of a plain Gauss-Seidel loop of trace_solve calls from the
    given traces, run to a sweep change of tol (two components, zero
    reactions)."""
    g = engine.grid
    loads = [engine.load(dirichlet_data(g, BoundaryData(top=v, sides=v)))
             for v in prob.dirichlet]
    traces = list(traces)
    for _ in range(5000):
        change = 0.0
        for i in range(2):
            new = engine.trace_solve(loads[i], prob.beta * traces[1 - i] ** 2, 0.0)
            change = max(change, np.abs(new - traces[i]).max())
            traces[i] = new
        if change <= tol:
            return [engine.solve(loads[i], prob.beta * traces[1 - i] ** 2, 0.0)
                    for i in range(2)]
    raise AssertionError(f"reference stopped at change {change:.1e}")


def test_newton_matches_gauss_seidel_run_to_round_off():
    # criterion-10 problem (quick grid), warm-started like a sweep; a sweep
    # change of 1e-8 left Gauss-Seidel up to 1.4e-7 off on this workload
    prob = make_problem()
    engine = TraceSystem(build_grid(prob.grid_config, prob.params))
    fields, traces = None, [np.zeros(prob.grid_config.nx)] * 2
    for beta in (1e2, 1e3, 1e4):
        p = replace(prob, beta=beta)
        res = solve_system(p, warm_start=fields, engine=engine)
        want = _reference_gauss_seidel(p, engine, traces)
        assert max(np.abs(f.values - w).max()
                   for f, w in zip(res.fields, want)) <= 1e-9
        fields, traces = res.fields, [w[..., 0] for w in want]


def test_s03_sweep_converges():
    # perfbench NOTES defect 1: at s = 0.3 on 129 x 48 Gauss-Seidel alone
    # stalled at beta = 1e4 (500 steps, last change 4.7e-8)
    sweep = sweep_beta(make_problem(s=0.3), [1e2, 1e3, 1e4], holder_alpha=0.03)
    assert np.all(sweep.column("outer_iters") <= 20)


def _thread_counts():
    return [get() for get, _ in system_mod._blas_thread_controls()]


def test_one_blas_thread_restores_counts():
    controls = system_mod._blas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    saved = _thread_counts()
    try:
        for _, put in controls:
            put(2)
        with system_mod._one_blas_thread():
            assert _thread_counts() == [1] * len(controls)
        assert _thread_counts() == [2] * len(controls)
        with pytest.raises(RuntimeError, match="inside"):
            with system_mod._one_blas_thread():
                raise RuntimeError("inside")
        assert _thread_counts() == [2] * len(controls)
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(system_mod.glob, "glob", lambda pattern: [])
    assert system_mod._blas_thread_controls.__wrapped__() == ()
    monkeypatch.setattr(system_mod, "_blas_thread_controls", lambda: ())
    res = solve_system(make_problem(beta=1e2, nx=33, ny=12))
    assert res.residual_history[-1] <= system_mod.OUTER_TOL


def test_solve_system_runs_on_one_blas_thread(monkeypatch):
    seen = []
    pair_solve = TraceSystem.pair_solve

    def recording(self, *args):
        seen.append(_thread_counts())
        return pair_solve(self, *args)

    monkeypatch.setattr(TraceSystem, "pair_solve", recording)
    before = _thread_counts()
    solve_system(make_problem(beta=1e2, nx=65, ny=24))
    assert _thread_counts() == before
    assert seen and all(counts == [1] * len(before) for counts in seen)


def test_blas_libraries_are_looked_up_on_first_use():
    code = ("import fracseg.cli, fracseg.system as s\n"
            "assert s._blas_thread_controls.cache_info().currsize == 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(system_mod.__file__).parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("s, nx, ny", [(0.5, 65, 24), (0.75, 257, 96)])
def test_step_gate_catches_wrong_schur(s, nx, ny):
    # the Newton step factors the dense S but checks its residual with S
    # taken through the modes, so a Schur complement 1 % off fails the first
    # step; at s = 3/4 a wrong trace is below the field's round-off
    prob = make_problem(s=s, beta=1e2, nx=nx, ny=ny)
    engine = TraceSystem(build_grid(prob.grid_config, prob.params))
    engine.schur *= 1.01
    with pytest.raises(ConvergenceError, match="Newton step failed") as err:
        solve_system(prob, engine=engine)
    assert err.value.iterations == 1
    assert err.value.history == [err.value.residual]


def test_final_field_gate_catches_wrong_interior():
    # the trace steps never see the interior response; the field gate
    # through the assembled operator does
    prob = make_problem(beta=1e2, nx=65, ny=24)
    engine = TraceSystem(build_grid(prob.grid_config, prob.params))
    engine._resp *= 1.0 + 1e-6
    with pytest.raises(ConvergenceError, match="linear solve failed") as err:
        solve_system(prob, engine=engine)
    assert err.value.iterations == len(err.value.history) >= 1


def test_nan_reaction_raises(monkeypatch):
    monkeypatch.setattr(Reaction, "__call__",
                        lambda self, u: np.full_like(u, np.nan))
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
    A = grid.operator.tocoo()
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
        A_u = grid.operator[self.unk]
        self.A_uu, self.A_ud = A_u[:, self.unk], A_u[:, self.dir]
        self.trace_free = ~dmask[..., 0].ravel()
        nodes = np.arange(grid.n_nodes).reshape(grid.shape)[..., 0].ravel()
        self.trace_rows = np.searchsorted(self.unk, nodes[self.trace_free])
        self._area = grid_mod.trace_area(grid).ravel()[self.trace_free]

    def _on_trace(self, values):
        trace = np.broadcast_to(values, self.grid.shape[:-1]).ravel()
        return trace[self.trace_free] * self._area

    def solve(self, load, m, g0):
        dvals = load[0]
        tr = self.trace_rows
        absorb = np.zeros(self.unk.size)
        absorb[tr] = self._on_trace(m)
        ga = self._on_trace(g0)
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
        return self.solve(load, m, g0)[..., 0]


def _warm_sweep(prob, betas, engine):
    """The solved fields along betas, each solve warm-started from the last
    on the one engine, as sweep_beta solves them."""
    fields, out = None, []
    for beta in betas:
        fields = solve_system(replace(prob, beta=beta), warm_start=fields,
                              engine=engine).fields
        out.append(fields)
    return out


@pytest.mark.parametrize("s, bound", [(0.5, 1e-12), (0.75, 2e-8)])
def test_condensed_matches_sparse_path(s, bound):
    # criterion-10 problem (quick grid); at s = 0.75 the two paths may stop
    # one outer iteration apart, so they agree to within 2 x outer tol
    betas = [1e2, 1e3, 1e4]
    prob = make_problem(s=s)
    grid = build_grid(prob.grid_config, prob.params)
    condensed = TraceSystem(grid)
    dense = _warm_sweep(prob, betas, condensed)
    sparse = _warm_sweep(prob, betas, _SparseLU(grid))
    assert condensed.factorizations == 1
    diff = max(np.abs(a.values - b.values).max()
               for fa, fb in zip(dense, sparse) for a, b in zip(fa, fb))
    assert diff <= bound


def test_sweep_factors_interior_once(monkeypatch):
    # the separable engine makes no sparse LU; its setup is the one
    # factorization of the sweep; patching the shared scipy.sparse.linalg
    # module counts a spla.splu call from any module
    shapes = []
    splu = spla.splu

    def counting_splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    sweep = sweep_beta(make_problem(nx=65, ny=24), [1e2, 1e3, 1e4],
                       holder_alpha=0.05)
    assert shapes == []
    assert sweep.factorizations == 1


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
    monkeypatch.setattr(grid_mod, "TraceSystem", _SparseLU)
    want = solve_linear(g, bd).values
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
    dh = 1.0 / np.sqrt(g.operator.diagonal().reshape(g.shape) + absorb)[free]
    assert np.linalg.norm(dh * r) <= 1e-9 * np.linalg.norm(dh * b)


@pytest.mark.parametrize("s, tol", [(0.25, 1e-9), (0.5, 1e-9), (0.75, 1e-3)])
def test_trace_schur_is_the_dtn_map(s, tol):
    # criterion-2 grid family with zero-flux sides and a free trace: S / area
    # is the discrete DtN map, so on cos(kx) it scales like k^{2s}.  It adds
    # the trace row's own horizontal flux w0 * lambda_k (cos(kx) is an exact
    # eigenvector of Kx) to the dtn_trace of the solved extension.  At s = 3/4
    # dtn_trace multiplies v1 - v0 by 2s y1^{-2s} ~ 5e11, so its round-off
    # floor is about 1e-4 of the amplitude.
    g = _d1(s, 256, 128, L=np.pi, Y=6.0)
    engine = TraceSystem(g, sides=False)
    amps = {}
    for k in (1, 2, 4):
        c = np.cos(k * g.x)
        amp = (engine.schur @ c / engine.area) @ c / (c @ c)
        fld = solve_linear(g, BoundaryData(top=0.0, sides=None,
                                           trace_dirichlet=lambda x, y: np.cos(k * x)))
        lam = 2.0 / g.dx ** 2 * (1.0 - np.cos(k * g.dx))
        solved = dtn_trace(g, fld) @ c / (c @ c)
        assert amp - g.y_dual_w[0] * lam == pytest.approx(solved, rel=tol)
        amps[k] = amp
    for a, b in ((2, 1), (4, 2), (4, 1)):
        assert amps[a] / amps[b] == pytest.approx((a / b) ** (2 * s), rel=0.03)


def test_separable_engine_rejects_non_spd_and_nan():
    g = _d1(0.5, 33, 16)
    bd = BoundaryData(top=1.0, sides=1.0)
    engine = TraceSystem(g)
    load = engine.load(dirichlet_data(g, bd))
    with pytest.raises(ConvergenceError):
        engine.solve(load, np.nan, 0.1)
    with pytest.raises(ConvergenceError):
        engine.solve(load, -5.0, 0.1)  # diagonal stays positive, S + m area does not


@pytest.mark.parametrize("nx", [65])
def test_engine_matches_one_shot_solve(nx):
    g = build_grid(GridConfig(d=1, L=2.0, Y=1.0, nx=nx, ny=4),
                   FracParams(s=0.5, N=1))
    top = bump(0.3)
    engine = TraceSystem(g)
    dvals = dirichlet_data(g, BoundaryData(top=top, sides=top))
    m = 50.0 * np.exp(-g.x ** 2)
    g0 = 0.2 * np.cos(g.x)
    got = engine.solve(engine.load(dvals), m, g0)
    want = solve_linear(g, BoundaryData(top=top, sides=top, neumann_m=m,
                                        neumann_g0=g0))
    assert np.abs(got - want.values).max() <= 1e-12


def test_engine_rejects_grid_above_trace_cap(monkeypatch):
    # with Dirichlet sides the cap is nx <= TRACE_CAP + 2 in d = 1 and
    # nx <= 66 in d = 2; the check comes before the operator is assembled
    def no_assembly(grid):
        raise AssertionError("operator assembled above the cap")

    monkeypatch.setattr(grid_mod, "assemble_La", no_assembly)
    for d, nx in ((1, grid_mod.TRACE_CAP + 3), (2, 67)):
        g = build_grid(GridConfig(d=d, nx=nx, ny=4), FracParams(s=0.5, N=d))
        with pytest.raises(ConfigurationError, match="free horizontal nodes"):
            TraceSystem(g)
        with pytest.raises(ConfigurationError, match="free horizontal nodes"):
            solve_linear(g, BoundaryData(top=1.0, sides=1.0))


def test_solve_system_rejects_engine_of_other_grid():
    prob = make_problem(nx=65, ny=24)
    g = build_grid(prob.grid_config, prob.params)
    engine = TraceSystem(g)
    res = solve_system(prob, engine=engine)
    assert res.residual_history[-1] <= system_mod.OUTER_TOL
    for other in (make_problem(nx=67, ny=24), make_problem(s=0.75, nx=65, ny=24)):
        with pytest.raises(ConfigurationError):
            solve_system(other, engine=engine)
    with pytest.raises(ConfigurationError):
        solve_system(prob, engine=TraceSystem(g, sides=False))
