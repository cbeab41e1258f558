"""Fourier-symbol and principal-value fractional-Laplacian oracles."""

import numpy as np
import pytest

from fracseg import spectral
from fracseg.core import FracParams, comparison_f
from fracseg.spectral import (ComparisonProfile, PeriodicGrid1D, comparison_pv,
                              frac_lap_pv, frac_lap_symbol)

S_GRID = (0.25, 0.5, 0.75)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid1D(n=100)  # not a power of two
    with pytest.raises(ValueError):
        PeriodicGrid1D(n=8)
    g = PeriodicGrid1D(n=64, L=2.0)
    assert g.period == pytest.approx(4 * np.pi)
    assert g.x.size == 64


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


def test_pv_discontinuity_flag():
    g = PeriodicGrid1D(n=128)
    u = np.where(np.abs(g.x) < 1.0, 1.0, 0.0) + 0.01 * np.cos(g.x)
    res = frac_lap_pv(u, 0.5, grid=g)
    assert res.discontinuity_warning.any()
    smooth = frac_lap_pv(np.cos(g.x), 0.5, grid=g)
    assert not smooth.discontinuity_warning.any()


def test_pv_input_validation():
    g = PeriodicGrid1D(n=64)
    with pytest.raises(ValueError):
        frac_lap_pv(np.ones(32), 0.5, grid=g)
    with pytest.raises(ValueError):
        frac_lap_pv(lambda x: x, 0.5)  # line mode without x/tail
    with pytest.raises(TypeError):
        frac_lap_pv("nope", 0.5)


def test_comparison_profile_matches_quadrature():
    for s in (0.25, 0.75):
        p = FracParams(s=s, N=1)
        prof = ComparisonProfile(p)
        xs = np.array([-50.0, -3.0, 0.0, 2.0, 40.0])
        assert np.abs(prof(xs) - comparison_f(xs, p)).max() < 1e-6


def test_comparison_profile_tabulates_once_per_order(monkeypatch):
    calls = []
    quadrature = spectral.comparison_f

    def counting(x, p):
        calls.append(p.s)
        return quadrature(x, p)

    monkeypatch.setattr(spectral, "comparison_f", counting)
    spectral._master_table.cache_clear()
    xs = np.linspace(-20.0, 20.0, 41)
    first = ComparisonProfile(FracParams(s=0.3, N=1))(xs)
    again = ComparisonProfile(FracParams(s=0.3, N=2))(xs)
    comparison_pv(FracParams(s=0.3, N=1), xs[:5])
    assert calls == [0.3]
    assert np.array_equal(first, again)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_comparison_profile_far_tail_emits_no_warning():
    # beyond |x| = 1e4 the profile is its tail asymptotic; a grid holding
    # both 0 and such points must not raise the power of 0 to a - 1 < 0
    p = FracParams(s=0.5, N=1)
    prof = ComparisonProfile(p)
    x = np.linspace(-2e4, 2e4, 100001)
    assert 0.0 in x
    got = prof(x)
    lo = x < -1e4
    assert np.array_equal(got[lo], prof.tail.left_coef * np.abs(x[lo]) ** (p.a - 1.0))
    assert np.array_equal(got[~lo], prof(x[~lo]))


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


def test_comparison_far_field_slope():
    # |(-Delta)^s f| ~ |x|^{a-1} deep on the negative axis
    p = FracParams(s=0.5, N=1)
    xf = np.linspace(-100.0, -20.0, 25)
    vals = comparison_pv(p, xf).values
    assert np.all(vals < 0)
    slope = np.polyfit(np.log(-xf), np.log(-vals), 1)[0]
    assert abs(slope - (p.a - 1.0)) / abs(p.a - 1.0) < 0.10
