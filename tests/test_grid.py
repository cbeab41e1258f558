"""Finite-volume discretization and linear solver on the truncated half-space."""

import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import block_diag

from fracseg.core import FracParams, NamedSolution, dtn_exact, eval_solution
from fracseg.errors import ConfigurationError, ConvergenceError
from fracseg.grid import (BoundaryData, Field, GridConfig, ModeChains,
                          TraceSystem, build_grid, check_backward_error,
                          dirichlet_data, dtn_trace, field_from_function,
                          grid_coordinates, interpolate_field, read_snapshot,
                          snapshot_csv, solve_linear, trace_area, write_snapshot)


def small_grid(s=0.5, d=1, nx=33, ny=16, L=1.0, Y=1.0, grading=None):
    return build_grid(GridConfig(d=d, L=L, Y=Y, nx=nx, ny=ny, grading_p=grading),
                      FracParams(s=s, N=d))


def sample(grid, fn):
    return field_from_function(grid, fn)


def test_face_weights_against_quadrature():
    for s in (0.25, 0.75):
        g = small_grid(s=s)
        a = g.params.a
        for j in (0, 1, 5):
            lo, hi = g.y[j], g.y[j + 1]
            # rescale to [0, 1] so the quadrature oracle resolves tiny cells
            oracle, _ = quad(lambda t: (lo + (hi - lo) * t) ** a, 0.0, 1.0,
                             epsabs=0.0, epsrel=1e-11, limit=200)
            assert g.face_w[j] == pytest.approx(oracle, rel=1e-7)
    # a = 0 means unit weights
    g = small_grid(s=0.5)
    assert np.allclose(g.face_w, 1.0)
    # first closed form: average of y^a over [0, h] is h^a/(1+a)
    g = small_grid(s=0.25, grading=1.0)
    h = g.y[1]
    assert g.face_w[0] == pytest.approx(h ** g.params.a / (1 + g.params.a), rel=1e-12)


def test_grading_default_and_uniform():
    g = small_grid(s=0.5, grading=1.0)
    assert np.allclose(np.diff(g.y), g.Y / g.ny)
    g = small_grid(s=0.25)
    assert g.grading_p == pytest.approx(4.0)  # max(1, 1/s, 1/(1-s))


def test_build_validation():
    p = FracParams(s=0.5, N=1)
    with pytest.raises(ConfigurationError):
        build_grid(GridConfig(nx=3), p)
    with pytest.raises(ConfigurationError):
        build_grid(GridConfig(L=0.0), p)
    with pytest.raises(ConfigurationError):
        build_grid(GridConfig(grading_p=0.5), p)
    with pytest.raises(ConfigurationError):
        build_grid(GridConfig(d=3), p)


def test_field_validation():
    g = small_grid()
    with pytest.raises(ValueError):
        Field(g, np.zeros((3, 3)))
    bad = np.zeros(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)


def test_operator_annihilates_constants_and_linears():
    for s in (0.25, 0.5, 0.75):
        g = small_grid(s=s)
        A = g.operator
        ones = np.ones(g.n_nodes)
        scale = np.abs(A).max()
        assert np.abs(A @ ones).max() <= 1e-12 * scale
        # linear in x: constant flux telescopes on interior rows
        fld = sample(g, lambda x, y: 2.0 * x + 0.0 * y)
        raw = (A @ fld.values.ravel()).reshape(g.shape)
        rownorm = (np.abs(A) @ np.abs(fld.values.ravel())).reshape(g.shape)
        rel = np.abs(raw[1:-1, 1:-1]) / rownorm[1:-1, 1:-1]
        assert rel.max() < 1e-12


def test_operator_symmetry_and_positivity():
    g = small_grid(s=0.3)
    A = g.operator
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(g.n_nodes)
        w = rng.standard_normal(g.n_nodes)
        au, aw = A @ u, A @ w
        denom = np.linalg.norm(au) * np.linalg.norm(w) + 1e-300
        assert abs(au @ w - u @ aw) / denom < 1e-12
        assert u @ au >= -1e-12 * np.abs(u @ au)


def test_harmonic_layer_residual_decays():
    # y^{2s} is exactly annihilated by the operator, so the pointwise
    # residual on a fixed interior region vanishes under refinement
    for s in (0.25, 0.75):
        errs = []
        for n in (32, 64):
            g = small_grid(s=s, nx=n + 1, ny=n)
            fld = sample(g, lambda x, y: y ** (2 * s) + 0.0 * x)
            volume = np.multiply.outer(trace_area(g), np.diff(g.y_dual_edges))
            r = (g.operator @ fld.values.ravel()).reshape(g.shape) / volume
            mask = ((g.y[None, :] >= 0.25) & (g.y[None, :] <= 0.9)
                    & (np.abs(g.x[:, None]) <= 0.9))
            errs.append(np.abs(r[mask]).max())
        assert errs[0] / errs[1] >= 1.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d, nx", [(1, 33), (2, 9)])
def test_zero_flux_solve_at_extreme_scale(d, nx):
    # zero-flux sides put lambda_0 = 0 in the mode chains; at L = Y = 1e150
    # its round-off sign and the product c rho underflowing must not break
    # positivity.  Constant top data with a free, flux-free trace is solved
    # by the constant.
    g = small_grid(s=0.95, d=d, nx=nx, ny=32, L=1e150, Y=1e150)
    fld = solve_linear(g, BoundaryData(top=1.0, sides=None))
    assert np.all(np.isfinite(fld.values))
    assert np.abs(fld.values - 1.0).max() < 1e-10


def test_dtn_trace_exact_on_layer_and_constant():
    for s in (0.25, 0.5, 0.75):
        g = small_grid(s=s)
        fld = sample(g, lambda x, y: y ** (2 * s) + 0.0 * x)
        tau = dtn_trace(g, fld)
        assert np.allclose(tau, -2 * s, rtol=1e-12)
        const = sample(g, lambda x, y: 3.0 + 0.0 * x + 0.0 * y)
        assert np.abs(dtn_trace(g, const)).max() == 0.0


def test_solve_constant_data():
    g = small_grid(s=0.3)
    bd = BoundaryData(top=2.5, sides=2.5, neumann_g0=0.0, neumann_m=0.0)
    fld = solve_linear(g, bd)
    assert np.abs(fld.values - 2.5).max() < 1e-9


def manufactured_error(s, n):
    g = small_grid(s=s, nx=n + 1, ny=n)
    exact = lambda x, y: y ** (2 * s) + 0.0 * x
    bd = BoundaryData(top=exact, sides=exact, neumann_g0=-2 * s)
    fld = solve_linear(g, bd)
    ref = np.broadcast_to(exact(*grid_coordinates(g)), g.shape)
    return np.abs(fld.values - ref).max()


def test_manufactured_solution_convergence():
    for s in (0.25, 0.75):
        e1, e2 = manufactured_error(s, 32), manufactured_error(s, 64)
        assert e1 / e2 >= 1.8


def test_discrete_maximum_principle():
    rng = np.random.default_rng(23)
    g = small_grid(s=0.3, nx=33, ny=16)
    for trial in range(4):
        c = rng.uniform(-0.8, 0.8)
        data = lambda x, y: np.exp(-3 * (x - c) ** 2) * (1 + 0.2 * y)
        m = lambda x, y: rng.uniform(0.0, 5.0) + 0.0 * x + 0.0 * y
        bd = BoundaryData(top=data, sides=data, neumann_g0=0.0, neumann_m=m)
        fld = solve_linear(g, bd)
        assert fld.values.min() >= -1e-12
        assert fld.values.max() <= 1.0 * (1 + 0.2 * g.Y) + 1e-9


def test_absorbing_trace_decay_bound():
    # desk-scale instance of the absorbing-boundary decay estimate
    s, M, delta = 0.5, 100.0, 0.1
    g = small_grid(s=s, nx=129, ny=64)
    bd = BoundaryData(top=1.0, sides=1.0, neumann_m=M,
                      neumann_g0=lambda x, y: delta * np.cos(3 * x))
    fld = solve_linear(g, bd)
    sup = fld.trace[np.abs(g.x) <= 0.5].max()
    assert sup <= (1 + delta) / M + 5 * g.dx


def test_dtn_of_halfspace_profile_matches_closed_form():
    # solve with the halfspace trace as Dirichlet data; where the trace
    # vanishes the discrete flux must approach -2s (4|x|)^{-s}
    s = 0.75
    p = FracParams(s=s, N=1)
    sol = NamedSolution("halfspace", p)
    g = build_grid(GridConfig(d=1, L=2.0, Y=2.0, nx=257, ny=128), p)
    exact = lambda x, y: eval_solution(sol, np.stack(np.broadcast_arrays(x, y), -1))
    bd = BoundaryData(top=exact, sides=exact,
                      trace_dirichlet=lambda x, y: exact(x, y))
    fld = solve_linear(g, bd)
    tau = dtn_trace(g, fld)
    xs = g.x[(g.x < -0.5) & (g.x > -1.5)]
    ref = dtn_exact(sol, xs)
    got = tau[(g.x < -0.5) & (g.x > -1.5)]
    assert np.abs(got - ref).max() / np.abs(ref).max() < 0.05
    # where the trace is positive the weighted flux vanishes
    plus = tau[(g.x > 0.5) & (g.x < 1.5)]
    assert np.abs(plus).max() < 0.02 * np.abs(ref).max()


def test_dtn_symbol_ratio_smoke():
    s = 0.5
    p = FracParams(s=s, N=1)
    g = build_grid(GridConfig(d=1, L=np.pi, Y=5.0, nx=128, ny=64), p)

    def amp(k):
        bd = BoundaryData(top=0.0, sides=None,
                          trace_dirichlet=lambda x, y: np.cos(k * x))
        tau = dtn_trace(g, solve_linear(g, bd))
        c = np.cos(k * g.x)
        return tau @ c / (c @ c)

    assert amp(2) / amp(1) == pytest.approx(2.0 ** (2 * s), rel=0.03)


def test_solver_errors():
    g = small_grid()
    with pytest.raises(ConfigurationError):
        solve_linear(g, BoundaryData(top=1.0, sides=1.0, neumann_m=-1.0))


def test_backward_error_gate():
    A = np.array([[2.0, -1.0], [-1.0, 2.0]])
    b = np.array([1.0, 0.0])
    x = np.linalg.solve(A, b)
    check_backward_error("exact", b - A @ x, 3.0, x, b)
    check_backward_error("zero system", np.zeros(2), 3.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ConvergenceError, match="off failed its residual check") as err:
        check_backward_error("off", b - A @ (x * (1.0 + 1e-9)), 3.0, x, b)
    assert err.value.residual > 1e-12
    with pytest.raises(ConvergenceError) as err:
        check_backward_error("nan", np.array([np.nan, 0.0]), 3.0, x, b)
    assert np.isnan(err.value.residual)


def test_residual_check_catches_wrong_schur():
    # a Schur complement 1 % off solves a nearby system without complaint;
    # the condensed gate takes S t through the modes and rejects the result
    g = small_grid()
    engine = TraceSystem(g)
    engine.schur *= 1.01
    load = engine.load(dirichlet_data(g, BoundaryData(top=1.0, sides=1.0)))
    with pytest.raises(ConvergenceError, match="residual check"):
        engine.solve(load, 0.0, 0.1)


def chain_data(seed=0):
    """Three modes of five slots plus a boundary slot: a near conductance of
    1e12, the s = 3/4 trace conductance's scale (mode 0); shunts of 1e-9 with
    an open far end, the hemisphere's small mode-0 symbol (mode 1); and one
    plain chain (mode 2)."""
    rng = np.random.default_rng(seed)
    shunt = rng.uniform(0.5, 2.0, (3, 6))
    cond = rng.uniform(0.5, 2.0, (3, 5))
    closure = rng.uniform(0.5, 2.0, 3)
    cond[0, -1] = 1e12
    shunt[1] *= 1e-9
    closure[1] = 0.0
    return shunt, cond, closure


def chain_matrix(shunt, cond, closure):
    """The stacked chains' interior matrix T, one tridiagonal block per mode."""
    blocks = []
    for sh, c, c0 in zip(shunt, cond, closure):
        d = np.concatenate(([c0], c[:-1])) + c + sh[:-1]
        blocks.append(np.diag(d) - np.diag(c[:-1], 1) - np.diag(c[:-1], -1))
    return block_diag(*blocks)


def test_mode_chains_solve_matches_dense():
    shunt, cond, closure = chain_data()
    chains = ModeChains(shunt, cond, closure)
    T = chain_matrix(shunt, cond, closure)
    rng = np.random.default_rng(1)
    u = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    want = np.linalg.solve(T, u.ravel()).reshape(u.shape)
    assert np.abs(chains.solve(u) - want).max() <= 1e-12 * np.abs(want).max()
    real = chains.solve(u.real)
    assert real.dtype == float
    assert np.abs(real - want.real).max() <= 1e-12 * np.abs(want).max()
    unit = np.zeros(u.shape)
    unit[:, -1] = cond[:, -1]
    want = np.linalg.solve(T, unit.ravel()).reshape(u.shape)
    assert np.abs(chains.response - want).max() <= 1e-12 * np.abs(want).max()
    assert np.all(chains.pivots > 0)


def test_mode_chains_symbol_matches_dense_schur():
    # the Schur complement shunt_n + c - c^2 (T^-1)_{n-1,n-1}, with T
    # assembled and solved in 40 digits: float64 would round 1e12 + O(1)
    mpmath = pytest.importorskip("mpmath")
    shunt, cond, closure = chain_data()
    chains = ModeChains(shunt, cond, closure)
    with mpmath.workdps(40):
        for sh, c, c0, got in zip(shunt, cond, closure, chains.symbol):
            sh, c = [mpmath.mpf(v) for v in sh], [mpmath.mpf(v) for v in c]
            left = [mpmath.mpf(c0)] + c[:-1]
            T = mpmath.zeros(5, 5)
            for i in range(5):
                T[i, i] = left[i] + c[i] + sh[i]
                if i < 4:
                    T[i, i + 1] = T[i + 1, i] = -c[i]
            x = mpmath.lu_solve(T, mpmath.matrix([0] * 4 + [1]))
            want = sh[-1] + c[-1] - c[-1] ** 2 * x[4]
            assert abs(got - want) <= 1e-12 * abs(want)


def test_mode_chains_reject_a_negative_shunt():
    shunt, cond, closure = chain_data()
    shunt[2, 0] = -10.0
    with pytest.raises(ConvergenceError):
        ModeChains(shunt, cond, closure)


def test_d2_operator_and_solve():
    g = small_grid(s=0.4, d=2, nx=9, ny=8)
    A = g.operator
    assert np.abs(A @ np.ones(g.n_nodes)).max() <= 1e-12 * np.abs(A).max()
    assert abs((A - A.T)).max() < 1e-12 * np.abs(A).max()
    bd = BoundaryData(top=1.5, sides=1.5)
    fld = solve_linear(g, bd)
    assert np.abs(fld.values - 1.5).max() < 1e-9


def test_d2_manufactured_convergence():
    s = 0.5
    errs = []
    for n in (8, 16):
        g = build_grid(GridConfig(d=2, L=1.0, Y=1.0, nx=n + 1, ny=n),
                       FracParams(s=s, N=2))
        exact = lambda x1, x2, y: y ** (2 * s) + 0.0 * x1 + 0.0 * x2
        bd = BoundaryData(top=exact, sides=exact, neumann_g0=-2 * s)
        fld = solve_linear(g, bd)
        ref = np.broadcast_to(exact(*grid_coordinates(g)), g.shape)
        errs.append(np.abs(fld.values - ref).max())
    assert errs[0] / errs[1] >= 1.8 or errs[1] < 1e-12


def test_interpolation_exact_on_multilinear():
    g = small_grid(s=0.5, nx=17, ny=8)
    fld = sample(g, lambda x, y: 2.0 * x - 3.0 * y + 1.0 + 0.5 * x * y)
    xq = np.array([-0.31, 0.0, 0.47])
    yq = np.array([0.11, 0.52, 0.93])
    got = interpolate_field(fld, xq, yq)
    # multilinear interpolation reproduces multilinear functions between the
    # surrounding nodes only when y-cells are uniform in the product term
    ref = 2.0 * xq - 3.0 * yq + 1.0 + 0.5 * xq * yq
    assert np.abs(got - ref).max() < 5e-3
    lin = sample(g, lambda x, y: 2.0 * x - 3.0 * y + 1.0)
    got = interpolate_field(lin, xq, yq)
    assert np.allclose(got, 2.0 * xq - 3.0 * yq + 1.0, atol=1e-12)


def test_snapshot_roundtrip(tmp_path):
    g = small_grid(s=0.35, nx=17, ny=8)
    rng = np.random.default_rng(3)
    fields = [Field(g, rng.standard_normal(g.shape), component=i)
              for i in range(2)]
    path = os.path.join(tmp_path, "snap.bin")
    write_snapshot(path, fields)
    back = read_snapshot(path)
    assert len(back) == 2
    assert back[0].grid.params.s == pytest.approx(0.35)
    for a, b in zip(fields, back):
        assert np.array_equal(a.values, b.values)
    csv = snapshot_csv(fields)
    header = csv.splitlines()[0]
    assert header == "x1,y,v0,v1"
    assert len(csv.splitlines()) == 1 + g.n_nodes


def test_snapshot_header_checks(tmp_path):
    g = small_grid(nx=9, ny=4)
    path = os.path.join(tmp_path, "snap.bin")
    write_snapshot(path, [Field(g, np.zeros(g.shape))])
    with open(path, "rb") as fh:
        raw = fh.read()
    bad_version = raw[:4] + (2).to_bytes(4, "little") + raw[8:]
    for name, payload in (("version", bad_version), ("long", raw + b"\0"),
                          ("header", raw[:20])):
        with open(path, "wb") as fh:
            fh.write(payload)
        with pytest.raises(ValueError):
            read_snapshot(path)
