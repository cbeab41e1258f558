"""Finite-volume discretization and linear solver on the truncated half-space."""

import ctypes
import os
import weakref
from functools import reduce

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import block_diag, eigh_tridiagonal

import fracseg.grid as grid_mod
from fracseg.core import SOLUTION_TAGS, FracParams, NamedSolution
from fracseg.errors import ConfigurationError, ConvergenceError
from fracseg.grid import (BoundaryData, Field, GridConfig, ModeChains,
                          TraceSystem, assemble_La, build_grid,
                          check_backward_error, dtn_trace, field_from_function,
                          grid_coordinates, interpolate_field, read_snapshot,
                          snapshot_csv, solve_linear, trace_area, write_snapshot)
from fracseg.system import CompetitionProblem, Reaction, solve_system


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
        A = assemble_La(g)
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
    A = assemble_La(g)
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
            r = (assemble_La(g) @ fld.values.ravel()).reshape(g.shape) / volume
            mask = ((g.y[None, :] >= 0.25) & (g.y[None, :] <= 0.9)
                    & (np.abs(g.x[:, None]) <= 0.9))
            errs.append(np.abs(r[mask]).max())
        assert errs[0] / errs[1] >= 1.5


@pytest.mark.parametrize("d, s", [(1, 0.25), (1, 0.75), (2, 0.5)])
def test_face_flux_matches_assembled_operator(d, s):
    # the engine applies A face by face and sums its diagonal from the face
    # conductances; assemble_La is the reference.  Both diagonals sum the
    # same 2d + 2 or fewer positive conductances, in another order
    g = small_grid(s=s, d=d, nx=33 if d == 1 else 13)
    A = assemble_La(g)
    v = np.random.default_rng(3).standard_normal(g.shape)
    got = grid_mod._face_flux(g, v)
    want = (A @ v.ravel()).reshape(g.shape)
    a_norm = np.abs(A).sum(axis=1).max()
    assert np.abs(got - want).max() <= 1e-15 * a_norm * np.abs(v).max()
    for sides in (True, False):
        engine = TraceSystem(g, sides=sides)
        diag = A.diagonal().reshape(g.shape)[engine._box]
        eps = np.finfo(float).eps
        # the engine keeps the box's trace row and the largest other entry
        row, rest = engine._diag
        assert np.all(np.abs(row - diag[..., 0]) <= (2 * d + 1) * eps * diag[..., 0])
        assert abs(rest - diag[..., 1:].max()) <= (2 * d + 1) * eps * rest


@pytest.mark.parametrize("d", [1, 2])
def test_face_flux_makes_one_scratch_array_per_axis(d, peak_bytes):
    # the difference is scaled in place: bit for bit the product g * (v_q - v_p),
    # and beside the output only one axis's scratch and conductances are alive
    g = small_grid(d=d, nx=513 if d == 1 else 65, ny=256 if d == 1 else 64)
    v = np.random.default_rng(5).standard_normal(g.shape)
    want = np.zeros(g.shape)
    for lo, hi, cond in grid_mod._faces(g):
        f = cond * (v[hi] - v[lo])
        want[lo] -= f
        want[hi] += f
    peak, got = peak_bytes(grid_mod._face_flux, g, v)
    assert np.array_equal(got, want)
    assert peak <= 3.2 * v.nbytes


@pytest.mark.parametrize("trace_dirichlet", [False, True])
def test_solve_peaks_at_five_grid_arrays(trace_dirichlet, peak_bytes):
    # beside the load: the field, b's copy (only with the Neumann source) and
    # the gate's face flux (its output, one scratch array, the vertical
    # conductances); the interior's modes are freed before the gate
    g = small_grid(nx=513, ny=256)
    engine = TraceSystem(g, trace_dirichlet=trace_dirichlet)
    load = engine.load(BoundaryData(top=1.0, sides=0.0, trace_dirichlet=(
        (lambda x, y: np.cos(x + 0.0 * y)) if trace_dirichlet else None)))
    m, g0 = (0.0, 0.0) if trace_dirichlet else (10.0, np.cos(engine.free_values(g.x)))
    peak, v = peak_bytes(engine.solve, load, m, g0)
    assert peak <= (4.2 if trace_dirichlet else 5.2) * v.nbytes


def _single_row_grid(s=0.4):
    """A grid of two layers, which build_grid refuses: with a Dirichlet
    trace its box is the one row between the trace and the top."""
    p = FracParams(s=s, N=1)
    x, y = np.linspace(-1.0, 1.0, 17), np.array([0.0, 0.3, 1.0])
    face_w = grid_mod._pow_integral(y[:-1], y[1:], p.a) / np.diff(y)
    return grid_mod.HalfSpaceGrid(d=1, L=1.0, Y=1.0, nx=17, ny=2, grading_p=1.0,
                                  params=p, x=x, y=y, face_w=face_w)


def _wavy(*c):
    """Boundary data that vary along every axis, so each corner of the box
    takes two different Dirichlet terms."""
    return 1.0 + 0.3 * np.cos(2.0 * c[0] + 0.5) + 0.2 * c[-1] * sum(c[:-1]) \
        + 0.1 * c[0] * c[-2]


def _load_cases():
    cases = [(f"d{d}-{'sides' if sides else 'zero-flux'}-"
              f"{'dirichlet' if td else 'free'}-trace", d, sides, td)
             for d in (1, 2) for sides in (True, False) for td in (True, False)]
    return cases + [("single-row-box", 1, True, True)]


@pytest.mark.parametrize("case, d, sides, td", _load_cases())
def test_load_on_its_support_matches_the_face_flux(case, d, sides, td):
    # b = -(A dvals) on the box, formed on the Dirichlet layer only, equals
    # the face-by-face reference bit for bit, and so does the diagonal summed
    # from the conductances against the checkerboard's; z and c, which take
    # the side data through the end rows of V^T, agree with the dense
    # transform of the whole b to round-off
    g = _single_row_grid() if case == "single-row-box" else \
        small_grid(s=0.3 if d == 1 else 0.7, d=d, nx=17 if d == 1 else 9, ny=8)
    engine = TraceSystem(g, sides, td)
    bd = BoundaryData(top=_wavy, sides=_wavy if sides else None,
                      trace_dirichlet=_wavy if td else None)
    dvals, b, z, c = engine.load(bd)
    box = engine._box
    assert np.array_equal(b, -grid_mod._face_flux(g, dvals)[box])
    # on the checkerboard chi = +-1, A chi = 2 chi diag(A) exactly
    chi = reduce(np.multiply.outer, [(-1.0) ** np.arange(n) for n in g.shape])
    diag = (0.5 * chi * grid_mod._face_flux(g, chi))[box]
    row, rest = engine._diag
    assert np.array_equal(row, diag[..., 0])
    assert rest == diag[..., 1:].max(initial=0.0)
    rows = np.moveaxis(b[..., 0 if td else 1:], -1, 0)
    u = engine._chains.solve(np.moveaxis(engine._to_modes(rows)[::-1], 0, -1))
    want = np.moveaxis(u, -1, 0)[::-1]
    assert np.abs(z - want).max() <= 1e-14 * np.abs(want).max()
    if td:
        assert c is None
        return
    gv0 = g.vertical_conductance[0]
    want = b[..., 0].ravel() + gv0 * engine._per_axis(want[0], post=engine._rh).ravel()
    assert np.abs(c - want).max() <= 1e-14 * np.abs(want).max()


def test_single_row_box_solves():
    # the top and the trace face the same row; its field has A's residual
    g = _single_row_grid()
    fld = solve_linear(g, BoundaryData(top=_wavy, sides=_wavy, trace_dirichlet=_wavy))
    r = grid_mod._face_flux(g, fld.values)[:, 1][1:-1]
    assert np.abs(r).max() <= 1e-13 * np.abs(fld.values).max()


def test_dtn_load_transforms_only_its_two_slab_rows(monkeypatch):
    # zero-flux sides and a Dirichlet trace: b lives on the rows beside the
    # top and the trace, and only those two rows go through V^T
    g = small_grid(nx=65, ny=32)
    engine = TraceSystem(g, sides=False, trace_dirichlet=True)
    per_axis, rows = engine._per_axis, []

    def recording(u, *args, **kwargs):
        rows.append(u.shape[0])
        return per_axis(u, *args, **kwargs)

    monkeypatch.setattr(engine, "_per_axis", recording)
    engine.load(BoundaryData(top=0.0, sides=None,
                             trace_dirichlet=lambda x, y: np.cos(2.0 * x)))
    assert rows and max(rows) <= 2


def test_dirichlet_trace_solve_builds_no_response(monkeypatch):
    # the interior response to the trace serves only a free trace; a
    # Dirichlet-trace engine never builds it, a free-trace engine does
    monkeypatch.setattr(grid_mod, "_engine", None)
    g = small_grid()
    solve_linear(g, BoundaryData(top=0.0, sides=None, trace_dirichlet=1.0))
    assert "response" not in vars(grid_mod._engine._chains)
    solve_linear(g, BoundaryData(top=1.0, sides=1.0))
    assert "response" in vars(grid_mod._engine._chains)


def _eliminate_reference(shunt, cond, closure):
    """The recurrence of ModeChains.eliminate as a plain loop over the last
    axis: the same operations in the same order."""
    cond = np.broadcast_to(cond, shunt[..., 1:].shape)
    rho = np.empty(shunt.shape)
    rho[..., 0] = shunt[..., 0] + closure
    for i in range(1, rho.shape[-1]):
        c, r = cond[..., i - 1], rho[..., i - 1]
        rho[..., i] = shunt[..., i] + c * (r / (c + r))
    return cond + rho[..., :-1], rho[..., -1]


@pytest.mark.parametrize("shape, cond_shape", [((512, 257), (256,)),
                                               ((7, 65, 65), (65, 64)),
                                               ((1, 513, 129), (513, 128))])
def test_eliminate_matches_the_reference_loop(shape, cond_shape):
    # pivots and symbol bit for bit, with the shunt laid out either way
    rng = np.random.default_rng(sum(shape))
    shunt = rng.uniform(0.0, 2.0, shape) * 10.0 ** rng.integers(-9, 3, shape)
    cond = rng.uniform(0.5, 2.0, cond_shape)
    cond[..., -1] = 1e12
    closure = 0.5
    want = _eliminate_reference(shunt, cond, closure)
    slot_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(shunt, -1, 0)), 0, -1)
    for laid_out in (shunt, slot_major):
        pivots, symbol = ModeChains.eliminate(laid_out, cond, closure)
        assert pivots.flags.c_contiguous and pivots.shape == want[0].shape
        assert np.array_equal(pivots, want[0]) and np.array_equal(symbol, want[1])


def test_principal_eigenvalue_is_the_smallest_of_s_over_area():
    # mu = min sigma against the dense pencil S t = mu area t
    from scipy.linalg import eigh
    g = small_grid(s=0.4, nx=65, ny=32)
    engine = TraceSystem(g)
    want = eigh(engine.schur, np.diag(engine.area), eigvals_only=True)[0]
    assert engine.principal_eigenvalue == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("nx", [9, 129, 1025])
@pytest.mark.parametrize("sides", [True, False])
def test_trig_basis_is_the_horizontal_eigenbasis(d, nx, sides):
    # the closed-form DST-I / DCT-I pairs against the pencil
    # Kx' v = lambda Hx' v of the free horizontal nodes.  Q is symmetric and
    # orthonormal, holds no dx, and V = Hx'^-1/2 Q are the eigenvectors.
    # eigh_tridiagonal is backward stable, so lambda is compared normwise:
    # its small eigenvalues carry eps ||Kx'|| of absolute error (1.6e-10
    # relative for lambda_1 at nx = 1025).  In d = 2 the engine diagonalizes
    # the Kronecker sum, formed here where the engine serves it (nx = 9)
    g = small_grid(d=d, nx=nx, ny=4)
    h = g.x_dual[1:-1] if sides else g.x_dual
    n = h.size
    deg = np.full(n, 2.0)
    if not sides:
        deg[[0, -1]] = 1.0
    lam, Q = grid_mod._trig_basis(n, g.dx, sides)
    want = eigh_tridiagonal(deg / (g.dx * h), -1.0 / (g.dx * np.sqrt(h[:-1] * h[1:])),
                            eigvals_only=True)
    assert np.abs(lam - want).max() <= 1e-12 * want.max()
    assert np.array_equal(Q, Q.T)
    V = Q / np.sqrt(h)[:, None]
    K = (np.diag(deg) - np.eye(n, k=1) - np.eye(n, k=-1)) / g.dx
    H = np.diag(h)
    if d == 2 and n ** 2 <= grid_mod.TRACE_CAP:
        K, H = np.kron(K, H) + np.kron(H, K), np.kron(H, H)
        Q, V, lam = np.kron(Q, Q), np.kron(V, V), np.add.outer(lam, lam).ravel()
    assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() <= 1e-13
    res = K @ V - H @ V * lam
    assert np.abs(res).max() <= 1e-13 * np.abs(K).sum(axis=1).max() * np.abs(V).max()


@pytest.mark.parametrize("n", [9, 63, 64, 65, 200])
@pytest.mark.parametrize("sides", [True, False])
def test_trig_basis_row_blocks_match_one_angle_index(n, sides):
    # Q is built in row blocks of the integer angle index; one n x n index,
    # the reference, gives the same bits
    P = n + 1 if sides else n - 1
    k = np.arange(1, n + 1) if sides else np.arange(n)
    table = np.sqrt(2.0 / P) * (np.sin if sides else np.cos)(np.pi / P * np.arange(2 * P))
    want = table[np.multiply.outer(k, k) % (2 * P)]
    if not sides:
        want[[0, -1]] *= np.sqrt(0.5)
        want[:, [0, -1]] *= np.sqrt(0.5)
    assert np.array_equal(grid_mod._trig_basis(n, 0.1, sides)[1], want)


def test_trig_basis_peaks_at_its_basis(peak_bytes):
    # no n^2 angle index beside Q: at n = 4095 that index took as much as Q
    peak, (lam, Q) = peak_bytes(grid_mod._trig_basis, 4095, 1e-3, True)
    assert peak <= 1.05 * Q.nbytes


def test_field_from_function_keeps_a_fresh_result(peak_bytes):
    # a fresh grid-shaped result is held, not copied; a broadcast one (here
    # constant along x1) or a read-only one is copied into a grid array
    p = FracParams(s=0.75, N=1)
    g = build_grid(GridConfig(d=1, L=0.8, Y=0.8, nx=1025, ny=1023), p)
    peak, fld = peak_bytes(field_from_function, g, NamedSolution("halfspace", p))
    assert peak <= 1.15 * fld.values.nbytes
    vals = np.ones(g.shape)
    assert field_from_function(g, lambda *c: vals).values is vals
    vals.flags.writeable = False
    assert field_from_function(g, lambda *c: vals).values is not vals
    fld = field_from_function(g, lambda x, y: y + 0.0 * x[:1])
    assert fld.values.shape == g.shape and fld.values.flags.owndata
    assert np.array_equal(fld.values, np.broadcast_to(g.y, g.shape))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("tag", list(SOLUTION_TAGS) + ["lambda"])
def test_window_equals_the_slice_of_values(d, tag):
    # a sampled field samples a box on its own coordinates: np.ix_ of the
    # sliced axes gives the same libm calls as the whole grid's, bit for bit
    p = FracParams(s=0.75, N=d)
    g = small_grid(s=0.75, d=d, nx=17 if d == 2 else 33, L=0.8, Y=0.8)
    fn = (NamedSolution(tag, p) if tag != "lambda" else
          lambda *c: np.exp(sum(c[:-1])) * np.cos(1.5 * c[-1]) + c[-1] ** 1.5)
    box = (slice(3, 12),) * d + (slice(0, 9),)
    whole = field_from_function(g, fn).values
    fld = field_from_function(g, fn)
    assert np.array_equal(fld.window(box), whole[box])
    inner = (slice(5, 9),) * d + (slice(2, 9),)  # sliced from the kept box
    assert np.array_equal(fld.window(inner), whole[inner])
    assert np.array_equal(fld.values, whole)
    assert np.array_equal(fld.window((slice(None),) * (d + 1)), whole)


def test_sampled_field_reads_once_per_box_and_checks_on_first_read():
    g = small_grid(nx=33, ny=16)
    calls = []

    def fn(x, y):
        calls.append((x.size, y.size))
        return np.cos(x) * np.exp(-y)

    fld = field_from_function(g, fn)
    assert calls == []
    fld.window((slice(4, 20), slice(0, 10)))
    fld.window((slice(6, 18), slice(1, 9)))  # inside the kept box
    assert calls == [(16, 10)]
    fld.window((slice(2, 20), slice(0, 10)))  # not inside: sampled again
    assert calls == [(16, 10), (18, 10)]
    fld.trace
    fld.window((slice(0, 33), slice(0, 17)))
    assert calls == [(16, 10), (18, 10), (33, 17)]
    # a NaN or a wrong shape raises the field's ValueError at the first read
    # that samples it, not when the field is made
    nan_right = field_from_function(g, lambda x, y: np.where(x > 0.9, np.nan, 0.0 * y))
    assert np.array_equal(nan_right.window((slice(0, 20), slice(0, 4))), np.zeros((20, 4)))
    for bad in (lambda x, y: np.where(x > 0.9, np.nan, 0.0 * y),
                lambda x, y: np.zeros((3, 3))):
        for read in (lambda f: f.values, lambda f: f.trace,
                     lambda f: f.window((slice(0, 33), slice(0, 4)))):
            with pytest.raises(ValueError):
                read(field_from_function(g, bad))


def test_per_axis_allocates_only_its_output(peak_bytes):
    # a scale left at its default is not applied, so Q along the axis makes
    # the result and nothing beside it
    engine = TraceSystem(small_grid(nx=1025, ny=8))
    u = np.random.default_rng(1).standard_normal((64, engine.area.size))
    peak, out = peak_bytes(engine._per_axis, u)
    assert np.array_equal(out, u @ engine._Q)
    assert peak <= out.nbytes + 4096


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
    # a source g0 = 1/2 under a zero top, with either side layout: the trace
    # (up to 3e224 at s = 3/4) is representable, and so is each product the
    # engine forms, because Hx'V is taken one axis at a time and the trace
    # area (1e300 in d = 2) never multiplies t.  At s = 3/4 in d = 2 the
    # modal coefficients t sqrt(area) pass 1e308, and the solve fails its gate
    for s in ((0.75,) if d == 1 else (0.25, 0.5, 0.75)):
        g = small_grid(s=s, d=d, nx=nx, ny=32, L=1e150, Y=1e150)
        for sides in (0.0, None):
            bd = BoundaryData(top=0.0, sides=sides, neumann_g0=0.5)
            if (s, d) == (0.75, 2):
                with pytest.raises(ConvergenceError, match="residual check"), \
                        np.errstate(over="ignore", invalid="ignore"):
                    solve_linear(g, bd)
                continue
            fld = solve_linear(g, bd)
            engine = grid_mod.trace_system(g, sides is not None)
            flux = engine.trace_flux(engine.load(bd), engine.free_values(fld.trace))
            assert np.abs(flux - 0.5).max() <= 1e-8 * 0.5


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
    bd = BoundaryData(top=sol, sides=sol, trace_dirichlet=sol)
    fld = solve_linear(g, bd)
    tau = dtn_trace(g, fld)
    xs = g.x[(g.x < -0.5) & (g.x > -1.5)]
    ref = -2.0 * s * (4.0 * np.abs(xs)) ** (-s)
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


def test_grid_arrays_are_read_only():
    # solve_linear's kept engine serves every equal grid, so an in-place
    # write must not leave its chains stale
    g = small_grid()
    for arr in (g.x, g.y, g.face_w):
        with pytest.raises(ValueError):
            arr[1] = 0.5


@pytest.fixture
def built_engines(monkeypatch):
    """Empty the engine slot of trace_system (monkeypatch restores it) and
    count the engines it builds; each entry holds a weak reference to the
    engine and whether every earlier engine was dead when it was built."""
    monkeypatch.setattr(grid_mod, "_engine", None)
    built = []

    class Counting(TraceSystem):
        def __init__(self, *args, **kwargs):
            earlier_dead = all(ref() is None for ref, _ in built)
            super().__init__(*args, **kwargs)
            built.append((weakref.ref(self), earlier_dead))

    monkeypatch.setattr(grid_mod, "TraceSystem", Counting)
    return built


REUSE_CONFIG = dict(s=0.4, nx=17, ny=8, L=1.0, Y=1.0, grading=2.0)
NEUMANN = BoundaryData(top=lambda x, y: np.cos(2.0 * x) + y, sides=1.0,
                       neumann_m=2.0, neumann_g0=0.3)


def test_solve_linear_reuses_engine_for_equal_grids(built_engines):
    grids = [small_grid(**REUSE_CONFIG) for _ in range(3)]
    for g in grids:
        assert solve_linear(g, NEUMANN).grid is g
    assert len(built_engines) == 1


@pytest.mark.parametrize("change", [dict(s=0.45), dict(grading=3.0), dict(Y=1.5),
                                    dict(nx=19), dict(ny=9), dict(L=1.5)])
def test_solve_linear_rebuilds_for_another_grid(built_engines, change):
    solve_linear(small_grid(**REUSE_CONFIG), NEUMANN)
    solve_linear(small_grid(**{**REUSE_CONFIG, **change}), NEUMANN)
    assert len(built_engines) == 2


def test_solve_linear_rebuilds_for_another_layout(built_engines):
    g = small_grid(**REUSE_CONFIG)
    for bd in (NEUMANN, BoundaryData(top=1.0, sides=None),
               BoundaryData(top=1.0, sides=1.0, trace_dirichlet=0.5)):
        solve_linear(g, bd)
    assert len(built_engines) == 3


def test_reused_engine_fields_match_fresh_solves(built_engines):
    # a mixed sequence of equal and different grids and layouts; every field
    # is bit-identical to a new engine's solve (m and g0 are scalars here)
    other = {**REUSE_CONFIG, "s": 0.7}
    sequence = [
        (REUSE_CONFIG, NEUMANN),
        (REUSE_CONFIG, BoundaryData(top=0.5, sides=0.5, neumann_g0=-0.2)),
        (REUSE_CONFIG, BoundaryData(top=0.0, sides=None,
                                    trace_dirichlet=lambda x, y: np.cos(x))),
        (REUSE_CONFIG, NEUMANN),
        (other, NEUMANN),
        (other, BoundaryData(top=2.0, sides=1.0, neumann_m=5.0)),
    ]
    for config, bd in sequence:
        g = small_grid(**config)
        fld = solve_linear(g, bd)
        engine = TraceSystem(g, bd.sides is not None,
                             bd.trace_dirichlet is not None)
        load = engine.load(bd)
        assert fld.grid is g
        assert np.array_equal(fld.values,
                              engine.solve(load, bd.neumann_m, bd.neumann_g0))
    assert len(built_engines) == 4


def test_solve_linear_frees_its_engine_before_building_the_next(built_engines):
    # one-off and system solves alternate on different grids; both take
    # their engine from the one slot
    config = GridConfig(d=1, L=1.0, Y=1.0, nx=17, ny=8, grading_p=2.0)
    for s in (0.3, 0.4, 0.5):
        solve_linear(small_grid(**{**REUSE_CONFIG, "s": s}), NEUMANN)
        solve_system(CompetitionProblem(
            params=FracParams(s=s + 0.05, N=1), grid_config=config, k=1,
            beta=0.0, coupling=np.zeros((1, 1)), reactions=(Reaction(),),
            dirichlet=(1.0,)))
    assert [earlier_dead for _, earlier_dead in built_engines] == [True] * 6
    assert built_engines[-1][0]() is grid_mod._engine


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
    # (m varies along the trace, so the solve factors the dense S)
    g = small_grid()
    engine = TraceSystem(g)
    engine.schur *= 1.01
    load = engine.load(BoundaryData(top=1.0, sides=1.0))
    with pytest.raises(ConvergenceError, match="residual check"):
        engine.solve(load, engine.free_values(1.0 + g.x ** 2), 0.1)


@pytest.mark.parametrize("d", [1, 2])
def test_mode_solve_checks_its_residual(d):
    # a uniform m is solved in the modes; a mode division 1e-6 off fails the
    # condensed gate, which takes S t through the modes
    g = small_grid(d=d, nx=33 if d == 1 else 17, ny=16 if d == 1 else 8)
    engine = TraceSystem(g)
    load = engine.load(BoundaryData(top=1.0, sides=1.0))
    from_modes = engine._from_modes
    engine._from_modes = lambda u: from_modes(u) * (1.0 + 1e-6)
    with pytest.raises(ConvergenceError, match="condensed") as err:
        engine.trace_solve(load, 10.0, 0.1)
    assert err.value.residual > 1e-8


@pytest.mark.parametrize("d", [1, 2])
def test_field_gate_catches_wrong_symbol(d):
    # a symbol 1e-9 off after set-up: the mode solve and its condensed gate
    # both read it and agree, the interior response does not, and the field
    # gate, which applies A face by face, rejects the field
    g = small_grid(d=d, nx=33 if d == 1 else 17, ny=16 if d == 1 else 8)
    engine = TraceSystem(g)
    load = engine.load(BoundaryData(top=1.0, sides=1.0))
    engine._chains.symbol = engine._chains.symbol * (1.0 + 1e-9)
    engine.trace_solve(load, 10.0, 0.1)
    with pytest.raises(ConvergenceError, match="linear solve") as err:
        engine.solve(load, 10.0, 0.1)
    assert err.value.residual > 1e-12


@pytest.mark.parametrize("case", ["d1-dirichlet-sides", "d1-zero-flux-sides", "d2"])
def test_uniform_absorption_is_solved_in_the_modes(case, monkeypatch):
    # solve_linear passes a uniform m as a scalar: no Cholesky and no dense S;
    # the field agrees with the dense solve of the same m as free values
    s, d, nx, ny, sides = {"d1-dirichlet-sides": (0.25, 1, 65, 32, 1.0),
                           "d1-zero-flux-sides": (0.75, 1, 65, 32, None),
                           "d2": (0.5, 2, 17, 8, 1.0)}[case]
    g = small_grid(s=s, d=d, nx=nx, ny=ny)
    bd = BoundaryData(top=1.0, sides=sides, neumann_m=10.0,
                      neumann_g0=lambda *xy: 0.1 * np.cos(3.0 * xy[0]) + 0.0 * xy[-1])
    cho_factor, calls = grid_mod.sla.cho_factor, []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return cho_factor(*args, **kwargs)

    monkeypatch.setattr(grid_mod.sla, "cho_factor", counting)
    monkeypatch.setattr(grid_mod, "_engine", None)
    got = solve_linear(g, bd).values
    engine = grid_mod._engine
    assert calls == [] and "schur" not in vars(engine)
    load = engine.load(bd)
    m = engine.free_values(np.full(g.shape[:-1], 10.0))
    g0 = engine.free_values(grid_mod._materialize(bd.neumann_g0, g, (..., 0)))
    want = engine.solve(load, m, g0)  # free values: the dense Cholesky solve
    assert len(calls) == 1 and "schur" in vars(engine)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("sides", [True, False])
def test_engine_keeps_one_horizontal_basis(sides):
    # the engine keeps the orthonormal Q and sqrt(h), from which it applies
    # V, V^T, Hx'V and (Hx'V)^T: one n x n array until the dense S is built
    g = small_grid(nx=65, ny=16)
    engine = TraceSystem(g, sides=sides)
    engine.solve(engine.load(BoundaryData(top=1.0, sides=1.0)), 10.0, 0.1)
    n = engine.area.size
    assert [k for k, v in vars(engine).items()
            if getattr(v, "shape", None) == (n, n)] == ["_Q"]


def test_drop_engine_frees_the_kept_engine(built_engines):
    g = small_grid(**REUSE_CONFIG)
    solve_linear(g, NEUMANN)
    assert built_engines[-1][0]() is grid_mod._engine
    grid_mod.drop_engine()
    assert grid_mod._engine is None and built_engines[-1][0]() is None
    solve_linear(g, NEUMANN)
    assert len(built_engines) == 2 and built_engines[-1][1]


def _libc_has(name):
    try:
        return hasattr(ctypes.CDLL(None), name)
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has("mallopt"), reason="the C library has no mallopt")
def test_repeated_solve_faults_no_fresh_pages(monkeypatch):
    # the heap thresholds set on import keep a solve's freed grid-sized
    # temporaries in the heap for the next: under glibc's adaptive thresholds
    # each repeat of this one-off solve on the kept engine faulted 2848 pages
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(grid_mod, "_engine", None)
    g = build_grid(GridConfig(d=1, L=np.pi, Y=6.0, nx=512, ny=256), FracParams(s=0.5, N=1))
    bd = BoundaryData(top=0.0, sides=None, trace_dirichlet=lambda x, y: np.cos(x + 0.0 * y))
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        solve_linear(g, bd)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[-1] <= 0.05 * 2848, faults


def test_heap_thresholds_sit_at_the_top_of_the_adaptive_range(monkeypatch):
    calls = []
    monkeypatch.setattr(grid_mod, "_c_function", lambda library, name, argtypes:
                        lambda *args: calls.append((name, args)))
    grid_mod._set_heap_thresholds()
    assert calls == [("mallopt", (grid_mod.M_MMAP_THRESHOLD, 32 * 2 ** 20)),
                     ("mallopt", (grid_mod.M_TRIM_THRESHOLD, 64 * 2 ** 20))]


def test_drop_engine_trims_the_heap_and_a_rebuild_does_not(monkeypatch):
    trims = []
    monkeypatch.setattr(grid_mod, "_malloc_trim", trims.append)
    monkeypatch.setattr(grid_mod, "_engine", None)
    solve_linear(small_grid(**REUSE_CONFIG), NEUMANN)
    solve_linear(small_grid(**{**REUSE_CONFIG, "nx": 19}), NEUMANN)
    assert trims == []  # the next engine reuses what the last one freed
    grid_mod.drop_engine()
    assert trims == [0] and grid_mod._engine is None


def test_heap_policy_is_a_no_op_without_the_libc_functions(monkeypatch):
    assert grid_mod._c_function(None, "no_such_function_in_any_libc", []) is None
    monkeypatch.setattr(grid_mod, "_c_function", lambda library, name, argtypes: None)
    grid_mod._set_heap_thresholds()
    monkeypatch.setattr(grid_mod, "_malloc_trim", None)
    monkeypatch.setattr(grid_mod, "_engine", None)
    grid_mod.drop_engine()


def test_c_function_lookups_that_fail_give_none(tmp_path, monkeypatch):
    # one lookup serves libc and the bundled OpenBLAS builds: a missing
    # library and a file that is no library give None (a missing libc symbol:
    # the test above), so the BLAS scope skips that file
    assert grid_mod._c_function(str(tmp_path / "no_such_library.so"), "f", []) is None
    not_a_library = tmp_path / "libscipy_openblas-0.so"
    not_a_library.write_bytes(b"not an ELF file")
    monkeypatch.setattr(grid_mod.glob, "glob", lambda pattern: [str(not_a_library)])
    assert grid_mod._blas_thread_controls.__wrapped__() == ()


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


def test_mode_chains_accept_a_negative_symbol():
    # definiteness is the pivots': a boundary shunt that makes the symbol
    # negative leaves T and its factors alone
    shunt, cond, closure = chain_data()
    chains = ModeChains(shunt, cond, closure)
    shunt[2, -1] -= 10.0 + chains.symbol[2]
    shifted = ModeChains(shunt, cond, closure)
    assert shifted.symbol[2] == pytest.approx(-10.0) and shifted.symbol[2] < 0
    assert np.array_equal(shifted.pivots, chains.pivots)
    assert np.array_equal(ModeChains.eliminate(shunt, cond, closure)[1],
                          shifted.symbol)


def test_trace_system_rejects_a_non_positive_symbol(monkeypatch):
    # the chains accept any symbol with positive pivots; the DtN map needs a
    # positive one before its square root
    class Flipped(ModeChains):
        def __init__(self, *args):
            super().__init__(*args)
            self.symbol = -self.symbol

    monkeypatch.setattr(grid_mod, "ModeChains", Flipped)
    with pytest.raises(ConvergenceError, match="symbol is not positive"):
        TraceSystem(small_grid())


def test_mode_chains_reject_a_negative_shunt():
    shunt, cond, closure = chain_data()
    shunt[2, 0] = -10.0
    with pytest.raises(ConvergenceError):
        ModeChains(shunt, cond, closure)


def test_d2_operator_and_solve():
    g = small_grid(s=0.4, d=2, nx=9, ny=8)
    A = assemble_La(g)
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
    no_fields = raw[:20] + (0).to_bytes(4, "little") + raw[24:-8 * g.n_nodes]
    for name, payload in (("version", bad_version), ("long", raw + b"\0"),
                          ("header", raw[:20]), ("no fields", no_fields)):
        with open(path, "wb") as fh:
            fh.write(payload)
        with pytest.raises(ValueError):
            read_snapshot(path)
