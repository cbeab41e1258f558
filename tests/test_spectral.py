"""Fourier-symbol and principal-value fractional-Laplacian oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracseg import spectral
from fracseg.core import FracParams, comparison_f
from fracseg.spectral import (ComparisonProfile, PeriodicGrid1D, comparison_pv,
                              frac_lap_pv, frac_lap_symbol, pv_constant)

S_GRID = (0.25, 0.5, 0.75)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid1D(n=100)  # not a power of two
    with pytest.raises(ValueError):
        PeriodicGrid1D(n=8)
    for L in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="L must be positive"):
            PeriodicGrid1D(n=64, L=L)
    # dx^2 or (pi/dx)^2 is not finite (dx itself rounds to 0 at 5e-324)
    for n, L in [(256, 1e-200), (256, 1e200), (256, 1e-153), (256, 6e155),
                 (16, 5e-324)]:
        with pytest.raises(ValueError, match="spacing"):
            PeriodicGrid1D(n=n, L=L)
    g = PeriodicGrid1D(n=64, L=2.0)
    assert g.period == pytest.approx(4 * np.pi)
    assert g.x.size == 64


@pytest.mark.parametrize("L", [1e-150, 1e150])
def test_pv_symbol_agreement_at_extreme_periods(L):
    # both oracles scale with the period, so data band-limited on the grid
    # agree as at L = 1
    g = PeriodicGrid1D(n=256, L=L)
    u = np.cos(2.0 * g.x / L)
    for s in (0.05, 0.5, 0.95):
        pv = frac_lap_pv(u, s, grid=g).values
        sym = frac_lap_symbol(u, s, g)
        assert np.abs(pv - sym).max() / np.abs(sym).max() <= 0.02


def test_symbol_annihilates_constants_and_eigenfunctions():
    g = PeriodicGrid1D(n=64)
    for s in S_GRID:
        out = frac_lap_symbol(np.ones(g.n), s, g)
        assert np.abs(out).max() == 0.0
        u = np.cos(3 * g.x)
        out = frac_lap_symbol(u, s, g)
        assert np.allclose(out, 3.0 ** (2 * s) * u, atol=1e-11)


def test_symbol_linearity():
    g = PeriodicGrid1D(n=64)
    rng = np.random.default_rng(2)
    u, w = rng.standard_normal(g.n), rng.standard_normal(g.n)
    s = 0.4
    lhs = frac_lap_symbol(2.0 * u - 0.7 * w, s, g)
    rhs = 2.0 * frac_lap_symbol(u, s, g) - 0.7 * frac_lap_symbol(w, s, g)
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_pv_constants_and_cos():
    g = PeriodicGrid1D(n=128)
    for s in S_GRID:
        res = frac_lap_pv(np.ones(g.n), s, grid=g)
        assert np.abs(res.values).max() < 1e-12
        u = np.cos(g.x)
        pv = frac_lap_pv(u, s, grid=g).values
        sym = frac_lap_symbol(u, s, g)
        assert np.abs(pv - sym).max() / np.abs(sym).max() < 0.02


def test_pv_symbol_agreement_band_limited():
    g = PeriodicGrid1D(n=256)
    rng = np.random.default_rng(7)
    u = sum(np.cos(k * g.x + rng.uniform(0, 2 * np.pi)) / (1 + k)
            for k in range(1, g.n // 8 + 1))
    for s in S_GRID:
        pv = frac_lap_pv(u, s, grid=g).values
        sym = frac_lap_symbol(u, s, g)
        assert np.abs(pv - sym).max() / np.abs(sym).max() < 0.02


def test_pv_constant_is_the_kernel_normalization():
    # 1/C_{1,s} = int (1 - cos z) / |z|^{1+2s} dz over the line: adaptive
    # quadrature on [0, 1] (1 - cos z written 2 sin^2(z/2)), the integrable
    # tail 1/(2s), and the oscillatory tail by the weight='cos' rule
    for s in S_GRID:
        near = quad(lambda z: 2.0 * np.sin(0.5 * z) ** 2 * z ** (-1.0 - 2.0 * s),
                    0.0, 1.0, epsabs=1e-12)[0]
        tail = quad(lambda z: z ** (-1.0 - 2.0 * s), 1.0, np.inf,
                    weight="cos", wvar=1.0, epsabs=1e-12)[0]
        inverse = 2.0 * (near + 0.5 / s - tail)
        assert abs(pv_constant(s) * inverse - 1.0) <= 1e-9


def test_pv_converges_to_the_symbol_at_order_two_minus_two_s():
    # with the closed-form constant nothing is fitted: the PV error on
    # cos(2x) falls like dx^{2 - 2s}
    for s in S_GRID:
        errs = []
        for n in (1024, 4096):
            g = PeriodicGrid1D(n=n)
            u = np.cos(2.0 * g.x)
            errs.append(np.abs(frac_lap_pv(u, s, grid=g).values
                               - frac_lap_symbol(u, s, g)).max())
        order = math.log(errs[0] / errs[1], 4.0)
        assert abs(order - (2.0 - 2.0 * s)) <= 0.25


def test_pv_input_validation():
    g = PeriodicGrid1D(n=64)
    with pytest.raises(ValueError):
        frac_lap_pv(np.ones(32), 0.5, grid=g)
    with pytest.raises(ValueError, match="sample count"):
        frac_lap_symbol(np.ones(32), 0.5, g)
    u = np.cos(g.x)
    u[7] = np.nan
    with pytest.raises(ValueError, match="finite"):
        frac_lap_symbol(u, 0.5, g)


def test_comparison_profile_matches_quadrature():
    # independent oracle: adaptive quadrature of the density over (-inf, x],
    # normalized by sqrt(pi) G((1-a)/2) / G(1-a/2)
    for s in (0.25, 0.75):
        p = FracParams(s=s, N=1)
        a = p.a
        mass = math.sqrt(math.pi) * math.gamma((1 - a) / 2) / math.gamma(1 - a / 2)
        xs = np.array([-50.0, -3.0, 0.0, 2.0, 40.0])
        direct = [quad(lambda t: (1 + t * t) ** (0.5 * a - 1.0), -np.inf, x,
                       epsabs=1e-13, epsrel=1e-12, limit=400)[0] for x in xs]
        got = ComparisonProfile(p)(xs)
        assert np.abs(got - np.array(direct) / mass).max() < 1e-9


def test_comparison_profile_is_comparison_f():
    x = np.concatenate((np.linspace(-2e4, 2e4, 4001), [-1e300, 1e300, np.nan]))
    for s in S_GRID:
        p = FracParams(s=s, N=1)
        assert np.array_equal(ComparisonProfile(p)(x), comparison_f(x, p),
                              equal_nan=True)


def test_comparison_left_tail_matches_decay_tail():
    # the far-field term tail_coef |x|^{a-1} that comparison_pv integrates
    # beyond its lattice is the leading term of the profile's left tail
    x = -np.geomspace(1e4, 1e14, 50)
    for s in S_GRID:
        p = FracParams(s=s, N=1)
        prof = ComparisonProfile(p)
        model = prof.tail_coef * np.abs(x) ** (p.a - 1.0)
        assert np.abs(prof(x) / model - 1.0).max() < 1e-7


def test_comparison_profile_far_tail_emits_no_warning():
    # a grid holding both 0 and points far out, and inputs at the edge of
    # the floating-point range, evaluate without a RuntimeWarning
    p = FracParams(s=0.5, N=1)
    prof = ComparisonProfile(p)
    x = np.linspace(-2e4, 2e4, 100001)
    assert 0.0 in x
    assert np.all(np.isfinite(prof(x)))
    edge = prof(np.array([-np.inf, -1e300, 1e300, np.inf]))
    assert np.array_equal(edge, [0.0, 0.0, 1.0, 1.0])


def test_comparison_estimate_holds():
    # the one-sided bound: (-Delta)^s f >= -c f on the negative axis,
    # with a finite stable fitted c
    p = FracParams(s=0.5, N=1)
    prof = ComparisonProfile(p)
    xs = np.linspace(-10.0, 0.0, 50)
    f = prof(xs)
    res = comparison_pv(p, xs)
    c1 = float(np.max(-res.values / f))
    c2 = float(np.max(-comparison_pv(p, xs, h=0.01, pad=100.0).values / f))
    assert np.isfinite(c1) and c1 > 0
    assert abs(c1 - c2) / c1 < 0.10


def _comparison_pv_pointwise(params, x, h, pad):
    """Reference: comparison_pv with the kernel integrals taken for every
    (point, lattice cell) pair from the cell's own distance to the point."""
    prof = ComparisonProfile(params)
    s, x = params.s, np.asarray(x, dtype=float)
    jx = np.rint(x / h).astype(np.int64)
    jpad = int(round(pad / h))
    jlo, jhi = min(int(jx.min()) - jpad, -jpad), max(int(jx.max()) + jpad, jpad)
    nodes = h * np.arange(jlo, jhi + 1)
    uval, ix, xc = prof(nodes), jx - jlo, h * jx
    az = np.abs(nodes[None, :] - xc[:, None])
    wmat = spectral._kernel_cell(np.maximum(az - 0.5 * h, 0.25 * h), az + 0.5 * h, s)
    wmat[np.abs(np.arange(nodes.size)[None, :] - ix[:, None])
         <= spectral._EXCISE_CELLS] = 0.0
    uc = uval[ix]
    vals = uc * wmat.sum(axis=1) - wmat @ uval
    upp = (uval[ix + 1] - 2.0 * uc + uval[ix - 1]) / h ** 2
    vals -= (upp * ((spectral._EXCISE_CELLS + 0.5) * h) ** (2.0 - 2.0 * s)
             / (2.0 - 2.0 * s))
    lo_edge, hi_edge = nodes[0] - 0.5 * h, nodes[-1] + 0.5 * h
    vals += (uc - 1.0) * (hi_edge - xc) ** (-2.0 * s) / (2.0 * s)
    vals += uc * (xc - lo_edge) ** (-2.0 * s) / (2.0 * s)
    for sign, coef, edge in ((1, -prof.tail_coef, hi_edge),
                             (-1, prof.tail_coef, lo_edge)):
        m = int(math.ceil(math.log(spectral._FAR_CUT / abs(edge)) / math.log(1.05)))
        g = abs(edge) * 1.05 ** np.arange(m + 1)
        mid = np.sqrt(g[:-1] * g[1:])
        power = coef * mid ** (params.a - 1.0)
        dist = np.abs(sign * mid[None, :] - xc[:, None])
        vals -= (dist ** (-1.0 - 2.0 * s) * power[None, :]) @ np.diff(g)
    return pv_constant(s) * vals


@pytest.mark.parametrize("s", S_GRID)
def test_comparison_pv_lag_kernel_matches_pointwise_cells(s):
    # the one-per-lag kernel equals the per-(point, cell) integrals on
    # criterion 9's near set at both lattices and its far set (h = 0.04
    # below s = 1/2, to x = -400)
    p = FracParams(s=s, N=1)
    xs = np.linspace(-10.0, 0.0, 50)
    xf = np.linspace(*((-100.0, -20.0) if s >= 0.5 else (-400.0, -100.0)), 25)
    for x, h, pad in ((xs, 0.02, 50.0), (xs, 0.01, 100.0),
                      (xf, 0.02 if s >= 0.5 else 0.04, 50.0)):
        ref = _comparison_pv_pointwise(p, x, h, pad)
        got = comparison_pv(p, x, h=h, pad=pad).values
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


def test_comparison_far_field_slope():
    # |(-Delta)^s f| ~ |x|^{a-1} deep on the negative axis
    p = FracParams(s=0.5, N=1)
    xf = np.linspace(-100.0, -20.0, 25)
    vals = comparison_pv(p, xf).values
    assert np.all(vals < 0)
    slope = np.polyfit(np.log(-xf), np.log(-vals), 1)[0]
    assert abs(slope - (p.a - 1.0)) / abs(p.a - 1.0) < 0.10
