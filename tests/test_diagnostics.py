"""ACF functionals, frequency quotient, Pohozaev residual, Hölder seminorms."""

import numpy as np
import pytest
from scipy.integrate import quad

from fracseg import diagnostics
from fracseg.core import FracParams, NamedSolution
from fracseg.diagnostics import (_CellGeometry, acf_one_phase, almgren,
                                 holder_seminorm, log_derivative_residual,
                                 monotonicity_check, pohozaev_residual,
                                 trace_seminorm)
from fracseg.grid import (Field, GridConfig, build_grid, field_from_function,
                          interpolate_field)

RADII = np.geomspace(0.1, 0.5, 9)


def diag_grid(s, nx=512, L=0.8):
    p = FracParams(s=s, N=1)
    return build_grid(GridConfig(d=1, L=L, Y=L, nx=nx + 1, ny=nx,
                                 grading_p=1.0), p)


def whole_geometry(g, center):
    """The geometry of a largest radius at max_radius: every cell of the
    grid for a center at 0."""
    return _CellGeometry(g, center, [_CellGeometry(g, center, [g.dx]).max_radius()])


def test_acf_constant_on_matched_profiles():
    for s, tag, variant in ((0.5, "vanish_trace", "acf_vanish"),
                            (0.5, "halfspace", "acf_halfspace"),
                            (0.75, "codim1", "acf_codim1")):
        g = diag_grid(s)
        fld = field_from_function(g, NamedSolution(tag, FracParams(s=s, N=1)))
        prof = acf_one_phase(fld, (0.0,), RADII, variant)
        dev = (prof.values.max() - prof.values.min()) / prof.values.mean()
        assert dev < 0.02


def test_acf_zero_on_constants():
    g = diag_grid(0.5, nx=64)
    const = Field(g, np.full(g.shape, 2.0))
    prof = acf_one_phase(const, (0.0,), RADII, "acf_vanish")
    assert np.abs(prof.values).max() == 0.0


def test_acf_validation():
    g = diag_grid(0.5, nx=64)
    fld = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        acf_one_phase(fld, (0.0,), RADII, "acf_codim1")  # needs s > 1/2
    with pytest.raises(ValueError):
        acf_one_phase(fld, (0.0,), np.array([0.1, 2.0]), "acf_vanish")
    with pytest.raises(ValueError):
        acf_one_phase(fld, (0.0,), RADII[::-1], "acf_vanish")
    with pytest.raises(ValueError):
        acf_one_phase(fld, (0.0,), RADII, "acf_bogus")


def test_almgren_landmarks_and_identity():
    for s, tag, deg in ((0.5, "vanish_trace", 1.0), (0.75, "halfspace", 0.75)):
        g = diag_grid(s)
        fld = field_from_function(g, NamedSolution(tag, FracParams(s=s, N=1)))
        prof = almgren(fld, (0.0,), RADII)
        assert np.abs(prof.Nfreq.values / deg - 1.0).max() < 0.01
        assert log_derivative_residual(prof.H, prof.Nfreq).max() < 0.01
        # for homogeneous profiles H r^{-2 deg} is constant
        scaled = prof.H.values * RADII ** (-2 * deg)
        assert (scaled.max() - scaled.min()) / scaled.mean() < 0.01


def test_almgren_energy_against_independent_quadrature():
    # reduce the halfspace energy to a 1-D angular quadrature and compare
    s = 0.25
    g = diag_grid(s)
    fld = field_from_function(g, NamedSolution("halfspace", FracParams(s=s, N=1)))
    prof = almgren(fld, (0.0,), RADII)
    a = 1 - 2 * s
    ang, _ = quad(lambda t: np.sin(t) ** a * ((1 + np.cos(t)) / 2) ** (2 * s - 1),
                  0, np.pi)
    oracle = s * s * ang * RADII ** (2 * s)
    assert np.abs(prof.E.values / oracle - 1.0).max() < 0.02


def test_almgren_frequency_undefined():
    g = diag_grid(0.5, nx=64)
    zero = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        almgren(zero, (0.0,), RADII)


def test_quadrature_translation_invariance():
    # moving the center by whole cells moves the profile rigidly
    s = 0.5
    g = diag_grid(s, nx=256, L=1.2)
    sol = NamedSolution("vanish_trace", FracParams(s=s, N=1))
    f0 = field_from_function(g, sol)
    shift = 8 * g.dx
    prof0 = almgren(f0, (0.0,), RADII)
    prof1 = almgren(f0, (shift,), RADII)  # same field, shifted center
    # the profile depends only on y here, so shifted centers agree
    assert np.allclose(prof0.E.values, prof1.E.values, rtol=1e-10)


def test_volume_integral_matches_full_grid_sum():
    # the one-pass quadrature (inside sums from row prefix sums taken
    # outward from the center column, the ramp on band cells only) against
    # the sum of the same ramp over every held cell (the ramp is 0 on the
    # cells the window leaves out), equal up to the order of summation,
    # on one geometry per list of radii.  The radii come closer than a cell
    # diagonal (several in one cell's band), on the band edges R +- width
    # of a cell, and single;
    # graded layers (grading_p = 2, the default at s = 1/2) give every row
    # its own width.  Also: a radius below every row's width (no row has
    # an inside span), a radius tangent to a row (r = sqrt(q), q = R^2 -
    # x1^2 of the row) and a center on a node, between two cell columns
    rng = np.random.default_rng(3)
    graded = build_grid(GridConfig(d=1, L=0.8, Y=0.8, nx=65, ny=64, grading_p=2.0),
                        FracParams(s=0.5, N=1))
    uniform = diag_grid(0.5, nx=128)
    for g, center in ((uniform, (0.1,)),
                      (build_grid(GridConfig(d=2, L=0.8, Y=0.8, nx=17, ny=16),
                                  FracParams(s=0.5, N=2)), (0.0, 0.1)),
                      (graded, (0.05,)), (uniform, (uniform.x[70],))):
        geo = _CellGeometry(g, center, [0.5])
        if g is graded:
            assert np.ptp(geo.width) > 0.0  # the graded grid's rows differ in width
        step = 0.25 * float(geo.width.min())
        cell = np.unravel_index(np.argmin(np.abs(geo.R - 0.4)), geo.R.shape)
        below = 0.5 * float(geo.width.min())
        tangent = float(np.sqrt(geo._q[np.argmin(np.abs(geo._q - 0.09))]))
        assert not np.any(geo._spans(np.array([below]))[0])
        for radii in ([0.1, 0.3, 0.45], 0.3 + step * np.arange(6),
                      [geo.R[cell] - geo.width[cell], geo.R[cell] + geo.width[cell]],
                      [0.37], [below], [0.2, tangent]):
            gr = _CellGeometry(g, center, radii)
            w = rng.random(gr.R.shape)
            ref = [np.sum(w * gr.vol * gr._ramp(r, gr.R, gr.width)) for r in radii]
            got = gr.volume_integral(w)
            assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
    # the last center is a node: its nearest columns lie dx/2 off on each side
    assert np.allclose([d[0] for d in geo._dist], 0.5 * uniform.dx, rtol=1e-9)


def test_pohozaev_radii_in_one_call():
    # an array of radii reads one geometry; each value equals (==) the
    # scalar call at its radius, on a window of that radius alone
    s = 0.75
    g = diag_grid(s, nx=256)
    fld = field_from_function(g, NamedSolution("codim1", FracParams(s=s, N=1)))
    radii = np.geomspace(0.1, 0.5, 11)
    for center in ((0.0,), (0.05,)):
        got = pohozaev_residual(fld, center, radii)
        assert isinstance(got, np.ndarray) and got.shape == radii.shape
        assert np.array_equal(got, [pohozaev_residual(fld, center, r) for r in radii])
    assert isinstance(pohozaev_residual(fld, (0.0,), 0.4), float)


def test_radii_must_be_positive():
    g = diag_grid(0.5, nx=64)
    fld = field_from_function(g, lambda x, y: x + y)
    for radii in ([-0.1, 0.1, 0.2], [0.0, 0.1, 0.2]):
        with pytest.raises(ValueError, match="radii must be positive"):
            acf_one_phase(fld, (0.0,), radii, "acf_vanish")
        with pytest.raises(ValueError, match="radii must be positive"):
            almgren(fld, (0.0,), radii)
        with pytest.raises(ValueError, match="radii must be positive"):
            pohozaev_residual(fld, (0.0,), radii[0])
    # checked before the window is sized from the largest radius
    with pytest.raises(ValueError, match="radii must be a one-dimensional list"):
        acf_one_phase(fld, (0.0,), [], "acf_vanish")
    with pytest.raises(ValueError, match="radii must be a one-dimensional list"):
        almgren(fld, (0.0,), [])


def test_pohozaev_residuals():
    g = diag_grid(0.5, nx=64)
    const = Field(g, np.full(g.shape, 1.3))
    assert pohozaev_residual(const, (0.0,), 0.4) == 0.0
    for s, tag in ((0.5, "vanish_trace"), (0.75, "codim1")):
        gg = diag_grid(s)
        fld = field_from_function(gg, NamedSolution(tag, FracParams(s=s, N=1)))
        assert abs(pohozaev_residual(fld, (0.0,), 0.4)) < 0.03
    rnd = field_from_function(
        diag_grid(0.5, nx=256),
        lambda x, y: np.sin(2 * x) * np.cos(1.5 * y) + 0.3 * x * x + 0.1 * y)
    assert abs(pohozaev_residual(rnd, (0.0,), 0.4)) > 0.10


def test_holder_constant_and_scaling():
    x = np.linspace(-1, 1, 101)
    assert holder_seminorm(np.zeros_like(x), x, 0.5) == 0.0
    v = np.abs(x) ** 0.3
    base = holder_seminorm(v, x, 0.3)
    assert holder_seminorm(3.0 * v, x, 0.3) == pytest.approx(3.0 * base, rel=1e-12)


def test_holder_exact_on_power():
    # brute force over all pairs of a 401-node grid achieves the sup at
    # the pairs (0, x): seminorm == 1 exactly
    x = np.linspace(-1, 1, 401)
    alpha = 0.4
    v = np.abs(x) ** alpha
    assert holder_seminorm(v, x, alpha) == pytest.approx(1.0, rel=1e-12)


def test_holder_exact_above_4000_nodes():
    # two opposite spikes three cells apart: the sup sits at index lag 3,
    # which a sample of dyadic lags misses; every size is searched exactly
    x = np.linspace(-1, 1, 4097)
    v = np.zeros_like(x)
    v[2000], v[2003] = 1.0, -1.0
    dx = x[1] - x[0]
    assert holder_seminorm(v, x, 0.5) == pytest.approx(2.0 / (3.0 * dx) ** 0.5,
                                                        rel=1e-12)


def test_holder_validation_and_region():
    x = np.linspace(-1, 1, 101)
    v = x ** 2
    with pytest.raises(ValueError):
        holder_seminorm(v, x, 1.5)
    fld = field_from_function(diag_grid(0.5, nx=100, L=1.0),
                              lambda x, y: x ** 2 + 0.0 * y)
    with pytest.raises(ValueError):
        trace_seminorm(fld, 0.5, x_window=-1.0)  # a window holding no node
    inner = trace_seminorm(fld, 0.5, x_window=0.5)
    assert inner <= trace_seminorm(fld, 0.5)


def test_trace_seminorm_window():
    g = diag_grid(0.5, nx=64)
    fld = field_from_function(g, lambda x, y: np.abs(x) ** 0.4 + 0.0 * y)
    full = trace_seminorm(fld, 0.4)
    inner = trace_seminorm(fld, 0.4, x_window=0.4)
    assert 0 < inner <= full + 1e-12


def test_monotonicity_check():
    prof_up = type("P", (), {"values": np.linspace(1, 2, 8), "radii": RADII[:8]})
    rep = monotonicity_check(prof_up, tol=0.01)
    assert rep.passed and rep.violations == 0
    vals = np.linspace(1, 2, 8)
    vals[4] -= 0.5  # one dip of 10x the tolerance scale
    prof_dip = type("P", (), {"values": vals, "radii": RADII[:8]})
    rep = monotonicity_check(prof_dip, tol=0.02)
    assert not rep.passed and rep.violations == 1
    with pytest.raises(ValueError):
        monotonicity_check(type("P", (), {"values": np.ones(2)}), tol=0.1)


def test_functionals_nonnegative_on_arbitrary_fields():
    # E, H and the one-phase functionals are sums of squares times positive
    # weights, whatever the field
    g = diag_grid(0.5, nx=96)
    rng = np.random.default_rng(17)
    fld = Field(g, rng.standard_normal(g.shape))
    prof = almgren(fld, (0.0,), RADII)
    assert np.all(prof.E.values >= 0) and np.all(prof.H.values > 0)
    one = acf_one_phase(fld, (0.0,), RADII, "acf_vanish")
    assert np.all(one.values >= 0)


def test_d2_almgren_smoke():
    # the 2-d trace path at desk-scale resolution
    s = 0.3
    p = FracParams(s=s, N=2)
    g = build_grid(GridConfig(d=2, L=0.8, Y=0.8, nx=49, ny=48, grading_p=1.0), p)
    fld = field_from_function(g, lambda x1, x2, y: y ** (2 * s) + 0 * x1 + 0 * x2)
    radii = np.geomspace(0.15, 0.5, 7)
    prof = almgren(fld, (0.0, 0.0), radii)
    assert np.abs(prof.Nfreq.values - 2 * s).max() / (2 * s) < 0.10
    one = acf_one_phase(fld, (0.0, 0.0), radii, "acf_vanish")
    dev = (one.values.max() - one.values.min()) / one.values.mean()
    assert dev < 0.10


@pytest.mark.parametrize("d", [1, 2])
def test_cell_gradient_exact_on_affine_fields(d):
    # the edge differences of an affine field are its slopes on every
    # cell, also across the graded layers: exact up to the round-off of a
    # difference of nodal values over one spacing
    p = FracParams(s=0.3, N=d)
    g = build_grid(GridConfig(d=d, L=0.8, Y=0.8, nx=17, ny=16), p)
    assert g.grading_p > 1.0
    slopes = (0.7, -1.3, 2.1)[:d] + (-0.4,)
    fld = field_from_function(
        g, lambda *c: 1.5 + sum(k * ci for k, ci in zip(slopes, c)))
    comps = whole_geometry(g, (0.0,) * d).cell_gradient(fld)
    assert len(comps) == d + 1
    roundoff = 4.0 * np.finfo(float).eps * np.abs(fld.values).max()
    for k, comp, h in zip(slopes, comps, [g.dx] * d + [g.dy]):
        assert comp.shape == (16,) * d + (16,)
        assert np.all(np.abs(comp - k) * h <= roundoff)


def _x2_independent_pair(s):
    """The same (x1, y) field on a d = 1 grid and, constant in x2, on d = 2."""
    fn = lambda x, y: np.exp(2.0 * x) * np.cos(y) + 0.3 * y
    grids = [build_grid(GridConfig(d=d, L=0.8, Y=0.8, nx=17, ny=16),
                        FracParams(s=s, N=d)) for d in (1, 2)]
    return (field_from_function(grids[0], fn),
            field_from_function(grids[1], lambda x1, x2, y: fn(x1, y) + 0.0 * x2))


def test_d2_x2_gradient_of_x2_independent_field_vanishes():
    f1, f2 = _x2_independent_pair(0.5)
    g1 = whole_geometry(f1.grid, (0.0,)).cell_gradient(f1)
    g2 = whole_geometry(f2.grid, (0.0, 0.0)).cell_gradient(f2)
    assert np.all(g2[1] == 0.0)
    for one, two in ((g1[0], g2[0]), (g1[1], g2[2])):
        assert np.allclose(two, one[:, None, :], rtol=1e-13, atol=1e-13)


class _AtMaxRadius(_CellGeometry):
    """The geometry of the given radii with one more at max_radius: the
    window of the largest admissible radius, the whole grid for a center
    at 0."""

    def __init__(self, grid, center, radii):
        probe = _CellGeometry(grid, center, radii)
        super().__init__(grid, center, np.append(probe.radii, probe.max_radius()))
        self.radii = probe.radii
        self._radii_spans = self._spans(self.radii)


@pytest.mark.parametrize("d, grading_p", [(1, 1.0), (1, 2.0), (2, 1.0)])
def test_window_equals_whole_grid(d, grading_p, monkeypatch):
    # each functional on the window of its own largest radius equals (==)
    # the same on the window of a radius at max_radius, which for a center
    # at 0 is the whole grid.  The field varies along x, and the centers
    # off 0 by several cells read kernel_energy's core cells at a window
    # offset other than the reference's
    s = 0.3  # at s = 1/2, N = 1 the acf kernel is constant
    n = 128 if d == 1 else 32
    g = build_grid(GridConfig(d=d, L=0.8, Y=0.8, nx=n + 1, ny=n,
                              grading_p=grading_p), FracParams(s=s, N=d))
    fld = field_from_function(
        g, lambda *c: np.exp(sum(c[:-1])) * np.cos(1.5 * c[-1]) + c[-1] ** (2 * s))
    radii = np.geomspace(0.1, 0.4, 5)
    zero = (0.0,) * d
    off = (0.1, -0.15)[:d]  # 8 cells at d = 1; 2 and 3 at d = 2
    runs = [lambda: acf_one_phase(fld, zero, radii, "acf_vanish").values,
            lambda: acf_one_phase(fld, off, radii, "acf_halfspace").values,
            lambda: almgren(fld, zero, radii).Nfreq.values,
            lambda: almgren(fld, off, radii).E.values,
            lambda: pohozaev_residual(fld, zero, 0.3),
            lambda: pohozaev_residual(fld, off, 0.35)]
    got = [run() for run in runs]
    assert _AtMaxRadius(g, zero, radii).R.shape == (n,) * (d + 1)
    assert _CellGeometry(g, off, radii).R.size < _AtMaxRadius(g, off, radii).R.size
    monkeypatch.setattr(diagnostics, "_CellGeometry", _AtMaxRadius)
    for value, run in zip(got, runs):
        assert np.array_equal(value, run())


def test_window_holds_the_reach_of_the_largest_radius():
    # radii <= 0.5 on L = Y = 0.8 reach about 0.64 of each axis: a geometry
    # back on the whole grid fails here
    g = diag_grid(0.5, nx=256)
    geo = _CellGeometry(g, (0.0,), RADII)
    assert geo.R.size < 0.45 * (g.nx - 1) * g.ny


@pytest.mark.parametrize("d", [1, 2])
def test_cell_arrays_in_place_match_the_plain_formulas(d):
    # R, the gradient and the energy density are formed in place, from
    # per-axis squared offsets and with no temporary per term; each element
    # is the same operations in the same order as the plain expressions
    p = FracParams(s=0.3, N=d)
    g = build_grid(GridConfig(d=d, L=1.0, Y=1.0, nx=65 if d == 1 else 17,
                              ny=64 if d == 1 else 16), p)
    fld = field_from_function(
        g, lambda *c: c[-1] ** 0.6 * (1.0 + 0.3 * np.cos(2.0 * c[0])) + 0.2 * c[0] * c[-2])
    geo = _CellGeometry(g, (0.1,) * d, [0.2, 0.4])
    assert np.array_equal(geo.R, np.sqrt(sum(o * o for o in geo.off) + geo.ym * geo.ym))
    v = fld.values[geo.nodes]
    plain = []
    for k in range(d + 1):
        c = np.diff(v, axis=k)
        for j in (j for j in range(d + 1) if j != k):
            lead = (slice(None),) * j
            c = 0.5 * (c[lead + (slice(None, -1),)] + c[lead + (slice(1, None),)])
        plain.append(c / (g.dx if k < d else g.dy[geo.cells[-1]]))
    comps = geo.cell_gradient(fld)
    assert all(np.array_equal(a, b) for a, b in zip(comps, plain))
    want = geo.wy * sum(c * c for c in plain[:-1]) + geo.wy_vert * plain[-1] ** 2
    assert np.array_equal(geo.energy_density(comps), want)


def test_pohozaev_spans_the_radii_once(monkeypatch):
    # its volume and two surface integrals share one _spans of the radii
    calls = []
    spans = _CellGeometry._spans

    def counting(self, radii):
        calls.append(len(radii))
        return spans(self, radii)

    monkeypatch.setattr(_CellGeometry, "_spans", counting)
    fld = field_from_function(diag_grid(0.5, nx=128), NamedSolution(
        "vanish_trace", FracParams(s=0.5, N=1)))
    pohozaev_residual(fld, (0.0,), RADII)
    assert calls == [RADII.size]


def _counting(fn, calls):
    def sampler(*coords):
        calls.append(tuple(np.ravel(c) for c in coords))
        return fn(*coords)
    return sampler


def _varying_field_case(d, s=0.3):
    """A grid and a sampler varying along every axis, as in
    test_window_equals_whole_grid."""
    n = 128 if d == 1 else 32
    g = build_grid(GridConfig(d=d, L=0.8, Y=0.8, nx=n + 1, ny=n, grading_p=1.0),
                   FracParams(s=s, N=d))
    return g, lambda *c: np.exp(sum(c[:-1])) * np.cos(1.5 * c[-1]) + c[-1] ** (2 * s)


@pytest.mark.parametrize("d", [1, 2])
def test_diagnostics_sample_their_geometry_box_once(d):
    # each functional reads a fresh sampled field through one window, the
    # nodes box of its geometry: cell_gradient, kernel_energy and every
    # radius of _sphere_mass slice the same sample
    g, fn = _varying_field_case(d)
    center, radii = (0.05,) * d, np.geomspace(0.1, 0.4, 5)
    runs = [lambda f: [p.values for p in almgren(f, center, radii)],
            lambda f: [acf_one_phase(f, center, radii, "acf_vanish").values],
            lambda f: [pohozaev_residual(f, center, radii)]]
    nodes = _CellGeometry(g, center, radii).nodes
    box = [ax[k] for ax, k in zip([g.x] * d + [g.y], nodes)]
    whole = Field(g, field_from_function(g, fn).values)
    for run in runs:
        calls = []
        got = run(field_from_function(g, _counting(fn, calls)))
        assert len(calls) == 1
        assert all(np.array_equal(c, b) for c, b in zip(calls[0], box))
        assert all(np.array_equal(a, b) for a, b in zip(got, run(whole)))


def test_diagnostics_read_no_node_outside_their_box():
    # a NaN inside the box raises from the diagnostic; one outside it is
    # never sampled there, and raises when the whole grid is read
    s = 0.5
    g = diag_grid(s, nx=128)
    sol = NamedSolution("vanish_trace", FracParams(s=s, N=1))
    radii = np.geomspace(0.1, 0.4, 5)
    for x0, inside in ((0.2, True), (0.7, False)):
        fld = field_from_function(g, lambda x, y: np.where(
            np.abs(x - x0) < 1e-3, np.nan, sol(x, y)))
        for run in (lambda: almgren(fld, (0.0,), radii),
                    lambda: acf_one_phase(fld, (0.0,), radii, "acf_vanish"),
                    lambda: pohozaev_residual(fld, (0.0,), 0.3)):
            if inside:
                with pytest.raises(ValueError, match="NaN"):
                    run()
            else:
                run()
        with pytest.raises(ValueError, match="NaN"):
            fld.values


@pytest.mark.parametrize("d", [1, 2])
def test_sphere_mass_interpolates_through_the_box(d, monkeypatch):
    # interpolating a sampled field within its window is bit-identical to
    # interpolating the whole grid's values at _sphere_mass's points, and
    # samples nothing more
    points = []

    def recording(fld, *coords):
        points.append(coords)
        return interpolate_field(fld, *coords)

    monkeypatch.setattr(diagnostics, "interpolate_field", recording)
    g, fn = _varying_field_case(d)
    radii = np.geomspace(0.1, 0.4, 5)
    for center in ((0.0,) * d, (0.1, -0.15)[:d]):
        geo = _CellGeometry(g, center, radii)
        calls = []
        fld = field_from_function(g, _counting(fn, calls))
        fld.window(geo.nodes)
        points.clear()
        diagnostics._sphere_mass(geo, [fld])
        whole = Field(g, field_from_function(g, fn).values)
        assert len(points) == 1
        for coords in points:
            assert np.array_equal(interpolate_field(fld, *coords),
                                  interpolate_field(whole, *coords))
        assert len(calls) == 1
