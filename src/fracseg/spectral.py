"""Independent 1-D fractional-Laplacian oracles.

Two routes to (-Delta)^s in one dimension: the Fourier multiplier |k|^{2s}
on a periodic grid, and a principal-value quadrature of the singular
integral with symmetric excision of the singular cell and a second-order
local correction.  The quadrature carries the closed-form kernel constant
C_{1,s} (`pv_constant`), so neither route is fitted to the other; their
agreement on band-limited data is what makes them usable as mutual checks
and as cross-validation for the extension solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    values: np.ndarray  # the only field; perfbench/workloads.py reads .values


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
    """PV quadrature of (u(x) - u(y)) / |x - y|^{1+2s}, without the constant,
    at every node of a periodic grid."""
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


def pv_constant(s: float) -> float:
    """The kernel constant C_{1,s} = 4^s G(1/2 + s) / (sqrt(pi) |G(-s)|) of
    (-Delta)^s u(x) = C_{1,s} PV int (u(x) - u(y)) / |x - y|^{1+2s} dy."""
    return 4.0 ** s * math.gamma(0.5 + s) / (math.sqrt(math.pi)
                                             * abs(math.gamma(-s)))


def frac_lap_pv(u, s: float, grid: PeriodicGrid1D) -> PVResult:
    """Principal-value quadrature of (-Delta)^s on periodic samples.

    u is an array on `grid`; returns values at all nodes, scaled by the
    closed-form constant `pv_constant(s)`.  On smooth data the error falls
    like dx^{2 - 2s}.  The decaying-line quadrature lives in `comparison_pv`.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (grid.n,):
        raise ValueError("sample count does not match the grid")
    return PVResult(pv_constant(s) * _pv_periodic_raw(u, s, grid))


# --------------------------------------------------------------------------
# comparison profile (the PV operand of the decay estimate)
# --------------------------------------------------------------------------

#: where the geometric far-field mesh of the line PV quadrature ends
_FAR_CUT = 1.0e8


class ComparisonProfile:
    """The comparison function, with the coefficient of its far field: the
    profile approaches 0 on the left and 1 on the right by
    tail_coef * |xi|^{a-1}.

    Evaluates the closed form `comparison_f` (an incomplete Beta function).
    """

    def __init__(self, params: FracParams):
        self.params = params
        a = params.a
        self.tail_coef = 1.0 / ((1.0 - a) * comparison_mass(a))

    def __call__(self, x):
        return comparison_f(x, self.params)


def comparison_pv(params: FracParams, x, h: float = 0.02, pad: float = 50.0):
    """(-Delta)^s of the comparison profile at the points x.

    Line PV quadrature: the profile is sampled on a uniform lattice of
    spacing h covering x plus a pad, and its far field beyond the lattice is
    integrated through the limits 0 and 1 and the tail terms
    -+tail_coef |xi|^{a-1} of `ComparisonProfile`.
    """
    profile = ComparisonProfile(params)
    s, x = params.s, np.asarray(x, dtype=float)
    # lattice anchored at 0 so every (snapped) evaluation point is a node;
    # it always covers [-pad, pad], where the far-field model is not yet valid
    jx = np.rint(x / h).astype(np.int64)
    jpad = int(round(pad / h))
    jlo = min(int(jx.min()) - jpad, -jpad)
    jhi = max(int(jx.max()) + jpad, jpad)
    nodes = h * np.arange(jlo, jhi + 1)
    uval = np.asarray(profile(nodes), dtype=float)
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

    # far field: the limits 1 (right) and 0 (left) analytically, the power
    # part on a geometric mesh
    lo_edge = nodes[0] - 0.5 * h
    hi_edge = nodes[-1] + 0.5 * h
    xc = h * jx
    vals += (ucenter - 1.0) * (hi_edge - xc) ** (-2.0 * s) / (2.0 * s)
    vals += ucenter * (xc - lo_edge) ** (-2.0 * s) / (2.0 * s)
    for sign, coef, edge in ((+1, -profile.tail_coef, hi_edge),
                             (-1, profile.tail_coef, lo_edge)):
        start = abs(edge)
        m = int(math.ceil(math.log(_FAR_CUT / start) / math.log(1.05)))
        g = start * 1.05 ** np.arange(m + 1)
        mid = np.sqrt(g[:-1] * g[1:])
        dg = np.diff(g)
        power = coef * mid ** (params.a - 1.0)
        dist = np.abs(sign * mid[None, :] - xc[:, None])
        vals -= (dist ** (-1.0 - 2.0 * s) * power[None, :]) @ dg
    return PVResult(pv_constant(s) * vals)
