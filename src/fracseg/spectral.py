"""Independent 1-D fractional-Laplacian oracles.

Two routes to (-Delta)^s in one dimension: the Fourier multiplier |k|^{2s}
on a periodic grid, and a principal-value quadrature of the singular
integral with symmetric excision of the singular cell and a second-order
local correction.  The quadrature constant is calibrated once against the
symbol oracle on the lowest mode, after which the two routes must agree on
band-limited data; that agreement is what makes them usable as mutual
checks and as cross-validation for the extension solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .core import FracParams, comparison_f, comparison_mass

#: period images summed exactly in the periodic kernel
_N_IMAGES = 64


@dataclass(frozen=True)
class PeriodicGrid1D:
    """Uniform periodic grid of period 2*pi*L with a power-of-two node count."""

    n: int
    L: float = 1.0

    def __post_init__(self):
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two >= 16")
        if not self.L > 0:
            raise ValueError("L must be positive")

    @property
    def period(self) -> float:
        return 2.0 * math.pi * self.L

    @property
    def dx(self) -> float:
        return self.period / self.n

    @property
    def x(self) -> np.ndarray:
        return -0.5 * self.period + self.dx * np.arange(self.n)


class PVResult(NamedTuple):
    values: np.ndarray
    discontinuity_warning: np.ndarray


class DecayTail(NamedTuple):
    """Far-field model u(xi) ~ limit + coef * |xi|^exponent on each side."""

    left_limit: float
    right_limit: float
    left_coef: float
    right_coef: float
    exponent: float


def frac_lap_symbol(u, s: float, grid: PeriodicGrid1D) -> np.ndarray:
    """Apply the Fourier multiplier |k|^{2s}; linear, annihilates constants."""
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise ValueError("sample count does not match the grid")
    if not np.all(np.isfinite(u)):
        raise ValueError("samples must be finite")
    k = 2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.dx)
    return np.fft.irfft(np.fft.rfft(u) * np.abs(k) ** (2.0 * s), n=grid.n)


def _kernel_cell(zlo, zhi, s):
    """Exact integral of |z|^{-1-2s} over [zlo, zhi] with 0 < zlo < zhi."""
    return (zlo ** (-2.0 * s) - zhi ** (-2.0 * s)) / (2.0 * s)


#: half-width of the excised symmetric zone, in cells
_EXCISE_CELLS = 1


@lru_cache(maxsize=64)
def _periodic_weights(n: int, L: float, s: float):
    """Lag weights (exact cell kernel integrals over period images) and tail."""
    dx = 2.0 * math.pi * L / n
    ell = np.arange(1, n * _N_IMAGES + 1)
    cell = _kernel_cell((ell - 0.5) * dx, (ell + 0.5) * dx, s)
    cell[: _EXCISE_CELLS] = 0.0  # excised zone, handled by the local correction
    w = np.zeros(n)
    np.add.at(w, ell % n, cell)       # z > 0 side
    np.add.at(w, (-ell) % n, cell)    # z < 0 side
    w[0] = 0.0
    tail = ((n * _N_IMAGES + 0.5) * dx) ** (-2.0 * s) / (2.0 * s)
    return w, tail


def _pv_periodic_raw(u: np.ndarray, s: float, grid: PeriodicGrid1D) -> np.ndarray:
    """Uncalibrated PV quadrature at every node of a periodic grid."""
    n, dx = grid.n, grid.dx
    w, tail = _periodic_weights(n, grid.L, s)
    conv = np.fft.irfft(np.fft.rfft(u) * np.fft.rfft(w), n=n)
    out = u * w.sum() - conv
    # symmetric excision of |z| < (cells + 1/2) dx, second-order correction
    zc = (_EXCISE_CELLS + 0.5) * dx
    upp = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / dx ** 2
    out -= upp * zc ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    # aggregate contribution of all images beyond the summed ones
    out += (u - u.mean()) * 2.0 * tail
    return out


@lru_cache(maxsize=64)
def _calibration(s: float, n: int, L: float) -> float:
    """One-point constant fixing the PV quadrature against the symbol oracle."""
    grid = PeriodicGrid1D(n=n, L=L)
    u = np.cos(grid.x / L)
    raw = _pv_periodic_raw(u, s, grid)
    amp = float(raw @ u) / float(u @ u)
    return (1.0 / L) ** (2.0 * s) / amp


def pv_calibration_constant(s: float) -> float:
    """The calibrated quadrature constant (reference grid n=4096, L=1)."""
    return _calibration(s, 4096, 1.0)


def _discontinuity_flags(u: np.ndarray) -> np.ndarray:
    """Flag nodes whose second difference is wildly out of scale."""
    d2 = np.abs(np.roll(u, -1) - 2.0 * u + np.roll(u, 1))
    scale = np.median(d2) + 1e-300
    return d2 > 50.0 * scale


def frac_lap_pv(u, s: float, grid: PeriodicGrid1D | None = None, x=None,
                tail: DecayTail | None = None, h: float = 0.02,
                pad: float = 50.0, far_cut: float = 1.0e8) -> PVResult:
    """Principal-value quadrature of (-Delta)^s u.

    Two input modes:

    * periodic samples: u is an array on `grid`; returns values at all nodes.
    * decaying line function: u is a callable evaluated on a uniform lattice
      of spacing h covering the points x plus a pad, with the far field
      handled analytically through `tail`.

    The quadrature constant is calibrated once per s against the symbol
    oracle on the lowest mode.  Nodes sitting on an apparent sample
    discontinuity are flagged in the result rather than rejected.
    """
    if grid is not None and not callable(u):
        u = np.asarray(u, dtype=float)
        if u.shape != (grid.n,):
            raise ValueError("sample count does not match the grid")
        c = _calibration(s, grid.n, grid.L)
        vals = c * _pv_periodic_raw(u, s, grid)
        return PVResult(vals, _discontinuity_flags(u))
    if not callable(u):
        raise TypeError("u must be periodic samples with a grid, or a callable")
    if x is None or tail is None:
        raise ValueError("line mode needs evaluation points x and a DecayTail")
    return _pv_line(u, s, np.asarray(x, dtype=float), tail, h, pad, far_cut)


def _pv_line(u: Callable, s: float, x: np.ndarray, tail: DecayTail,
             h: float, pad: float, far_cut: float) -> PVResult:
    c = pv_calibration_constant(s)
    # lattice anchored at 0 so every (snapped) evaluation point is a node;
    # it always covers [-pad, pad], where the far-field model is not yet valid
    jx = np.rint(x / h).astype(np.int64)
    jpad = int(round(pad / h))
    jlo = min(int(jx.min()) - jpad, -jpad)
    jhi = max(int(jx.max()) + jpad, jpad)
    nodes = h * np.arange(jlo, jhi + 1)
    uval = np.asarray(u(nodes), dtype=float)
    ix = jx - jlo

    # exact kernel integrals over every lattice cell, per evaluation point
    az = np.abs(nodes[None, :] - (h * jx)[:, None])
    wmat = _kernel_cell(np.maximum(az - 0.5 * h, 0.25 * h), az + 0.5 * h, s)
    cols = np.arange(nodes.size)
    wmat[np.abs(cols[None, :] - ix[:, None]) <= _EXCISE_CELLS] = 0.0

    ucenter = uval[ix]
    vals = ucenter * wmat.sum(axis=1) - wmat @ uval

    # symmetric excision of |z| < (cells + 1/2) h, second-order correction
    upp = (uval[ix + 1] - 2.0 * ucenter + uval[ix - 1]) / h ** 2
    vals -= upp * ((_EXCISE_CELLS + 0.5) * h) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)

    # far field: constants analytically, the power part on a geometric mesh
    lo_edge = nodes[0] - 0.5 * h
    hi_edge = nodes[-1] + 0.5 * h
    xc = h * jx
    vals += (ucenter - tail.right_limit) * (hi_edge - xc) ** (-2.0 * s) / (2.0 * s)
    vals += (ucenter - tail.left_limit) * (xc - lo_edge) ** (-2.0 * s) / (2.0 * s)
    for sign, coef, edge in ((+1, tail.right_coef, hi_edge),
                             (-1, tail.left_coef, lo_edge)):
        start = abs(edge)
        m = int(math.ceil(math.log(far_cut / start) / math.log(1.05)))
        g = start * 1.05 ** np.arange(m + 1)
        mid = np.sqrt(g[:-1] * g[1:])
        dg = np.diff(g)
        power = coef * mid ** tail.exponent
        dist = np.abs(sign * mid[None, :] - xc[:, None])
        vals -= (dist ** (-1.0 - 2.0 * s) * power[None, :]) @ dg

    d2 = np.abs(np.diff(uval, 2))
    scale = np.median(d2) + 1e-300
    warn = d2[np.clip(ix - 1, 0, d2.size - 1)] > 50.0 * scale
    return PVResult(c * vals, warn)


# --------------------------------------------------------------------------
# tabulated comparison profile (the PV operand of the decay estimate)
# --------------------------------------------------------------------------

#: |x| beyond which ComparisonProfile switches to its tail asymptotic
_PROFILE_CUT = 1.0e4


@lru_cache(maxsize=32)
def _master_table(s: float, n_table: int) -> tuple:
    """ComparisonProfile's asinh-spaced master grid and the adaptive-quadrature
    values on it, tabulated once per order (the values depend on a = 1 - 2s
    only)."""
    u = np.linspace(-math.asinh(_PROFILE_CUT), math.asinh(_PROFILE_CUT), n_table)
    vals = comparison_f(np.sinh(u), FracParams(s=s))
    u.flags.writeable = vals.flags.writeable = False
    return u, vals


class ComparisonProfile:
    """Fast evaluator of the comparison function with its far-field model.

    Tabulates the adaptive-quadrature values on an asinh-spaced master grid
    and interpolates with a cubic spline; beyond |x| = 1e4 it switches to the
    tail asymptotic.  `tail` is the DecayTail consumed by frac_lap_pv.
    """

    def __init__(self, params: FracParams, n_table: int = 2001):
        self.params = params
        a = params.a
        self._spline = CubicSpline(*_master_table(params.s, n_table))
        coef = 1.0 / ((1.0 - a) * comparison_mass(a))
        self.tail = DecayTail(left_limit=0.0, right_limit=1.0,
                              left_coef=coef, right_coef=-coef,
                              exponent=a - 1.0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        a = self.params.a
        out = self._spline(np.arcsinh(np.clip(x, -_PROFILE_CUT, _PROFILE_CUT)))
        hi = x > _PROFILE_CUT
        lo = x < -_PROFILE_CUT
        if np.any(hi):
            xs = np.where(hi, x, 1.0)  # keep the power off negative bases
            out = np.where(hi, 1.0 + self.tail.right_coef * xs ** (a - 1.0), out)
        if np.any(lo):
            xs = np.where(lo, -x, 1.0)  # keep the power off 0
            out = np.where(lo, self.tail.left_coef * xs ** (a - 1.0), out)
        return out


def comparison_pv(params: FracParams, x, h: float = 0.02, pad: float = 50.0):
    """(-Delta)^s of the comparison profile at the points x."""
    profile = ComparisonProfile(params)
    return frac_lap_pv(profile, params.s, x=np.asarray(x, dtype=float),
                       tail=profile.tail, h=h, pad=pad)
