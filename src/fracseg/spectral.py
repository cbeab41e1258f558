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


def frac_lap_pv(u, s: float, grid: PeriodicGrid1D) -> PVResult:
    """Principal-value quadrature of (-Delta)^s on periodic samples.

    u is an array on `grid`; returns values at all nodes.  The quadrature
    constant is calibrated once per (s, grid) against the symbol oracle on
    the lowest mode.  Nodes sitting on an apparent sample discontinuity are
    flagged in the result rather than rejected.  The decaying-line
    quadrature lives in `comparison_pv`.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise ValueError("sample count does not match the grid")
    c = _calibration(s, grid.n, grid.L)
    vals = c * _pv_periodic_raw(u, s, grid)
    return PVResult(vals, _discontinuity_flags(u))


#: where the geometric far-field mesh of the line PV quadrature ends
_FAR_CUT = 1.0e8


def _pv_line(u: Callable, s: float, x: np.ndarray, tail: DecayTail,
             h: float, pad: float) -> PVResult:
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
        m = int(math.ceil(math.log(_FAR_CUT / start) / math.log(1.05)))
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
# comparison profile (the PV operand of the decay estimate)
# --------------------------------------------------------------------------

class ComparisonProfile:
    """The comparison function with its far-field model.

    Evaluates the closed form `comparison_f` (an incomplete Beta function);
    `tail` is the DecayTail consumed by comparison_pv.
    """

    def __init__(self, params: FracParams):
        self.params = params
        a = params.a
        coef = 1.0 / ((1.0 - a) * comparison_mass(a))
        self.tail = DecayTail(left_limit=0.0, right_limit=1.0,
                              left_coef=coef, right_coef=-coef,
                              exponent=a - 1.0)

    def __call__(self, x):
        return comparison_f(x, self.params)


def comparison_pv(params: FracParams, x, h: float = 0.02, pad: float = 50.0):
    """(-Delta)^s of the comparison profile at the points x.

    Line PV quadrature: the profile is sampled on a uniform lattice of
    spacing h covering x plus a pad, and its far field is integrated
    through its DecayTail (`ComparisonProfile.tail`).
    """
    profile = ComparisonProfile(params)
    return _pv_line(profile, params.s, np.asarray(x, dtype=float),
                    profile.tail, h, pad)
