"""Competition-system solver and beta sweeps."""

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
    assert res.converged and res.outer_iters <= 3


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
    tol = 1e-8
    prob = make_problem(beta=1e3)
    seed = solve_system(make_problem(beta=1e2))
    warm = solve_system(prob, warm_start=seed.fields, tol=tol)
    cold = solve_system(prob, tol=tol)
    diff = max(np.abs(a.values - b.values).max()
               for a, b in zip(warm.fields, cold.fields))
    assert diff <= 10 * tol


def test_warm_start_validation():
    prob = make_problem(beta=1.0)
    with pytest.raises(ConfigurationError):
        solve_system(prob, warm_start=[np.zeros((3, 3))] * 2)
    with pytest.raises(ConfigurationError):
        solve_system(prob, warm_start=[np.zeros(prob.grid_config.nx)])


def test_outer_cap_raises():
    with pytest.raises(ConvergenceError) as err:
        solve_system(make_problem(beta=1e4), max_outer=3)
    assert err.value.history is not None


def test_residual_history_contracts():
    res = solve_system(make_problem(beta=1e2))
    hist = np.array(res.residual_history)
    assert res.monotone_violations <= 1
    assert hist[-1] <= 1e-8


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
    assert res.converged
    assert all(f.values.min() >= -1e-12 for f in res.fields)
    assert trace_overlap(res) > 0


class _SparseLU(TraceSystem):
    """Reference engine: each solve LU-factors the Jacobi-scaled sparse
    reduced operator and takes one refinement step on the residual with A
    applied face by face.  Rounding the y1^{-2s} trace conductance into the
    assembled diagonal moves the bare LU solution by 2e-8 at s = 3/4; each
    conductance multiplying a difference v_p - v_q restores that accuracy."""

    def __init__(self, grid, *layout):
        super().__init__(grid, *layout)
        A = grid.operator.tocoo()
        off = A.row != A.col
        self._faces = A.row[off], A.col[off], -A.data[off]

    def solve(self, load, m, g0):
        dvals, b, _, _ = load
        tr = self.trace_rows
        absorb = np.zeros(self.unk.size)
        absorb[tr] = self._on_trace(m) * self.area
        ga = self._on_trace(g0) * self.area
        b = b.copy()
        b[tr] += ga
        dh = 1.0 / np.sqrt(self.A_uu.diagonal() + absorb)
        D = sps.diags(dh)
        lu = spla.splu((D @ (self.A_uu + sps.diags(absorb)) @ D).tocsc())
        xs = lu.solve(dh * b)
        p, q, w = self._faces
        v = dvals.ravel().copy()
        v[self.unk] = dh * xs
        flux = np.bincount(p, weights=w * (v[p] - v[q]), minlength=v.size)
        r = -flux[self.unk] - absorb * v[self.unk]
        r[tr] += ga
        xs += lu.solve(dh * r)
        v[self.unk] = dh * xs
        return v.reshape(self.grid.shape)


@pytest.mark.parametrize("s, bound", [(0.5, 1e-12), (0.75, 2e-8)])
def test_condensed_matches_sparse_path(s, bound, monkeypatch):
    # criterion-10 problem (quick grid); at s = 0.75 the two paths may stop
    # one outer iteration apart, so they agree to within 2 x outer tol
    betas = [1e2, 1e3, 1e4]
    dense = sweep_beta(make_problem(s=s), betas, holder_alpha=0.05,
                       keep_results=True)
    monkeypatch.setattr(system_mod, "TraceSystem", _SparseLU)
    sparse = sweep_beta(make_problem(s=s), betas, holder_alpha=0.05,
                        keep_results=True)
    assert dense.factorizations == 1
    diff = max(np.abs(a.values - b.values).max()
               for ra, rb in zip(dense.results, sparse.results)
               for a, b in zip(ra.fields, rb.fields))
    assert diff <= bound


def test_sweep_factors_interior_once(monkeypatch):
    # the separable engine makes no sparse LU; its setup is the one
    # factorization of the sweep
    shapes = []
    splu = grid_mod.spla.splu

    def counting_splu(A, *args, **kwargs):
        shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(grid_mod.spla, "splu", counting_splu)
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
    engine = TraceSystem(g, bd.sides is not None, bd.trace_dirichlet is not None)
    assert np.array_equal(np.flatnonzero(dirichlet_data(g, bd)[0]), engine.dir)
    got = solve_linear(g, bd).values
    monkeypatch.setattr(grid_mod, "TraceSystem", _SparseLU)
    want = solve_linear(g, bd).values
    assert np.abs(got - want).max() <= 1e-12


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
    load = engine.load(dirichlet_data(g, bd)[1])
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
    dvals = dirichlet_data(g, BoundaryData(top=top, sides=top))[1]
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
    assert solve_system(prob, engine=engine).converged
    for other in (make_problem(nx=67, ny=24), make_problem(s=0.75, nx=65, ny=24)):
        with pytest.raises(ConfigurationError):
            solve_system(other, engine=engine)
    with pytest.raises(ConfigurationError):
        solve_system(prob, engine=TraceSystem(g, sides=False))
