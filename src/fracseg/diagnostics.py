"""Monotone-quantity diagnostics on half-space fields.

Computes the radially scaled functionals whose monotonicity in r encodes the
growth of segregation profiles (the one-phase variants), the frequency
quotient E/H, the half-ball Pohozaev residual, and Hölder seminorms; plus
the audit that counts monotonicity violations.

All quadratures are cell-midpoint sums over the grid cells with the same
cell-averaged y^a weights the assembly uses.  Radial cutoffs are smoothed
over one cell width: volume integrals use a C^1 ramp whose exact derivative
in r is the hat-kernel shell sum, so volume and surface quadratures are
consistent with each other under d/dr.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from scipy.special import roots_jacobi

from .core import FracParams
from .grid import Field, HalfSpaceGrid, interpolate_field

ACF_EXPONENTS = {
    "acf_vanish": lambda s: 4.0 * s,
    "acf_halfspace": lambda s: 2.0 * s,
    "acf_codim1": lambda s: 4.0 * s - 2.0,
}


@dataclass
class RadialProfile:
    """Sampled values of one radial quantity around a trace-point center."""

    radii: np.ndarray
    values: np.ndarray
    quantity: str


@dataclass
class MonotonicityReport:
    violations: int
    max_violation: float
    passed: bool


def monotonicity_check(profile: RadialProfile, tol: float) -> MonotonicityReport:
    """Audit a profile for decreases beyond tol times the profile scale."""
    v = np.asarray(profile.values, dtype=float)
    if v.size < 3:
        raise ValueError("need at least 3 radii to audit monotonicity")
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return MonotonicityReport(0, 0.0, True)
    drops = np.maximum(0.0, v[:-1] - v[1:]) / scale
    max_violation = float(drops.max())
    violations = int(np.sum(drops > tol))
    return MonotonicityReport(violations, max_violation, max_violation <= tol)


#: kernel_energy re-integrates the cells within _CORE_CELLS diagonals of the
#: center on a _SUB x _SUB lattice
_CORE_CELLS = 6
_SUB = 6


def _pair_mean(a: np.ndarray, axes) -> np.ndarray:
    """Average neighbouring entries along each of axes (nodes to cells)."""
    for axis in axes:
        lead = (slice(None),) * axis
        a = np.add(a[lead + (slice(None, -1),)], a[lead + (slice(1, None),)])
        a *= 0.5
    return a


class _CellGeometry:
    """Cell-centered geometry and reconstruction relative to a trace center,
    held only on the cells within the largest radius r plus one diagonal.

    Those are the index box |x_k - c_k| - w <= r, y - w <= r of the cell
    midpoints, w the largest cell diagonal (cells and nodes are its slices
    of the grid; fields are read only as window(nodes), the sphere mass
    too).  R bounds every offset, so the box holds each cell a ramp (R -
    width < r) or shell (|R - r| < width) can touch, in the same C order:
    every masked sum is bit-identical to the whole grid's.  Its arrays are
    cell-shaped, with one code path for d = 1 and d = 2: the horizontal
    offsets of the cell midpoints from the center, their height ym,
    distance R, plain volume vol, the y^a weights wy (wy_vert for vertical
    derivatives) and the smoothing width, the cell diagonal."""

    def __init__(self, grid: HalfSpaceGrid, center: Sequence[float], radii):
        center = tuple(float(c) for c in np.atleast_1d(center))
        if len(center) != grid.d:
            raise ValueError(f"center must have {grid.d} trace coordinates")
        self.grid, self.center = grid, center
        self.radii = radii = np.asarray(radii, dtype=float)
        if radii.ndim != 1 or radii.size < 1:
            raise ValueError("radii must be a one-dimensional list")
        if not np.all(radii > 0):
            raise ValueError("radii must be positive")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        rmax = self.max_radius()
        if radii[-1] > rmax:
            raise ValueError(f"largest radius {radii[-1]} exceeds grid bound {rmax:.4g}")
        d, dx, dy = grid.d, grid.dx, grid.dy
        # vertical-gradient energy weight: the bottom cell row is matched to
        # the y^{2s} boundary expansion (integrating y^a (d_y c1 y^{2s})^2
        # exactly), the same consistency device as the trace stencil
        wy_vert = grid.face_w.copy()
        wy_vert[0] = 2.0 * grid.params.s * grid.y[1] ** grid.params.a
        per_layer = np.stack([dx ** d * dy, np.hypot(np.sqrt(d) * dx, dy),
                              grid.face_w, wy_vert])
        w_max = per_layer[1].max()
        xoff = [0.5 * (grid.x[1:] + grid.x[:-1]) - c for c in center]
        ymid = 0.5 * (grid.y[1:] + grid.y[:-1])
        self.cells = tuple(slice(k[0], k[-1] + 1) for k in (
            np.flatnonzero(np.abs(o) - w_max <= radii[-1]) for o in xoff + [ymid]))
        self.nodes = tuple(slice(c.start, c.stop + 1) for c in self.cells)
        offsets = [o[c] for o, c in zip(xoff + [ymid], self.cells)]
        *self.off, self.ym = np.broadcast_arrays(*np.ix_(*offsets))
        self.vol, self.width, self.wy, self.wy_vert = np.broadcast_to(
            per_layer[:, self.cells[-1]].reshape((4,) + (1,) * d + (-1,)),
            (4,) + self.ym.shape)
        self.R = sum(np.ix_(*[o * o for o in offsets]))
        np.sqrt(self.R, out=self.R)
        # rows: the lines of cells along x1, in C order of (x2, y).  Along a
        # row R grows with the x1 distance from the center column c0 (the
        # first with x1 offset >= 0) on each side; _dist holds the increasing
        # distances of the left and the right side
        x1 = xoff[0][self.cells[0]]
        self._c0 = c0 = int(np.searchsorted(x1, 0.0))
        self._dist = (-x1[:c0][::-1], x1[c0:])
        self._q = (sum(o[0] * o[0] for o in self.off[1:])
                   + self.ym[0] * self.ym[0]).ravel()
        self._wrow, self._vrow = self.width[0].ravel(), self.vol[0].ravel()
        self._radii_spans = self._spans(radii)  # shared by every integral

    # -- reconstruction ---------------------------------------------------
    def cell_gradient(self, fld: Field):
        """Cell averages of the edge differences, one array per axis
        (x1[, x2], y): the difference along each axis, averaged over the
        cell's other axes and divided by dx or the layer's dy."""
        v = fld.window(self.nodes)
        g = self.grid
        axes = range(g.d + 1)
        comps = [_pair_mean(np.diff(v, axis=k), [j for j in axes if j != k])
                 for k in axes]
        for c, h in zip(comps, [g.dx] * g.d + [g.dy[self.cells[-1]]]):
            c /= h
        return tuple(comps)

    def energy_density(self, comps: tuple) -> np.ndarray:
        """y^a-weighted |grad v|^2 per cell of cell_gradient's comps, with
        the matched bottom row."""
        out = comps[0] * comps[0]
        for c in comps[1:-1]:
            out += c * c
        out *= self.wy
        out += comps[-1] * comps[-1] * self.wy_vert
        return out

    def kernel_energy(self, fld: Field, kern) -> np.ndarray:
        """energy_density times a radial kernel, subcell-refined near center.

        The kernel-gradient product is strongly singular at the center; cells
        within _CORE_CELLS diagonals are re-integrated on a _SUB x _SUB
        lattice of the bilinear interpolant (d = 1 grids; the d = 2 core is
        left at cell resolution).
        """
        base = self.energy_density(self.cell_gradient(fld)) * kern(self.R)
        if self.grid.d != 1:
            return base
        g = self.grid
        diag = float(np.hypot(g.dx, g.dy.max()))
        ci, cj = np.nonzero(self.R <= _CORE_CELLS * diag)
        v = fld.window(self.nodes)  # ci, cj index the box: so do v and x
        t = (np.arange(_SUB) + 0.5) / _SUB
        tx, ty = t[None, :, None], t[None, None, :]
        v00, v10, v01, v11 = (v[ci + i, cj + j][:, None, None]
                              for i, j in ((0, 0), (1, 0), (0, 1), (1, 1)))
        y0, dyj = g.y[cj][:, None, None], g.dy[cj][:, None, None]
        gx = ((v10 - v00) * (1.0 - ty) + (v11 - v01) * ty) / g.dx
        gy = ((v01 - v00) * (1.0 - tx) + (v11 - v10) * tx) / dyj
        xs = g.x[self.nodes[0]][ci][:, None, None] + tx * g.dx - self.center[0]
        ylo = y0 + (ty - 0.5 / _SUB) * dyj
        yhi = y0 + (ty + 0.5 / _SUB) * dyj
        a = g.params.a
        wya = ((yhi ** (1 + a) - ylo ** (1 + a)) / ((1 + a) * (yhi - ylo)))
        wyv = np.where(cj[:, None, None] == 0,
                       2.0 * g.params.s * g.y[1] ** a, wya)
        ys = 0.5 * (ylo + yhi)
        dens = (wya * gx * gx + wyv * gy * gy) * kern(np.hypot(xs, ys))
        base[ci, cj] = dens.mean(axis=(1, 2))
        return base

    def radial_derivative(self, comps: tuple) -> np.ndarray:
        """d_r v per cell from cell_gradient's comps."""
        rad = sum(o * c for o, c in zip(self.off, comps[:-1]))
        rad = rad + self.ym * comps[-1]
        return rad / np.maximum(self.R, 1e-300)

    # -- smoothed radial quadratures ---------------------------------------
    @staticmethod
    def _ramp(r: float, R: np.ndarray, width: np.ndarray) -> np.ndarray:
        out = np.clip((r - R) / width + 1.0, 0.0, 2.0)
        return np.where(out <= 1.0, 0.5 * out * out, 1.0 - 0.5 * (2.0 - out) ** 2)

    def max_radius(self) -> float:
        """Largest radius keeping a one-cell margin inside the grid."""
        g = self.grid
        horiz = min(g.L - abs(c) for c in self.center)
        return min(horiz - g.dx, g.Y - g.dy[-1])

    def _spans(self, radii: np.ndarray):
        """Where each radius r meets each row (width w, q = R^2 - x1^2).

        The cells wholly inside r (R + w <= r) are the |x1| <= sqrt((r - w)^2
        - q) run about the center column, inner[side] cells on each side; the
        band cells (|R - r| < w) are the next ones out to |x1| < sqrt((r +
        w)^2 - q).  Returns the inner counts (rows x radii, per side) and the
        band as flat indices into the (x1, rows) layout, their row and their
        radius, in C order of (row, radius, side, cell).
        """
        r, w, q = radii[None, :], self._wrow[:, None], self._q[:, None]
        reach_in = np.where(r - w > 0.0, (r - w) ** 2 - q, -1.0)
        lim_in = np.where(reach_in >= 0.0, np.sqrt(np.maximum(reach_in, 0.0)), -1.0)
        lim_out = np.sqrt(np.maximum((r + w) ** 2 - q, 0.0))
        inner = [np.searchsorted(d, lim_in.ravel(), side="right") for d in self._dist]
        outer = [np.searchsorted(d, lim_out.ravel()) for d in self._dist]
        # one run per (row, radius, side): side 0 runs left of c0, 1 right
        start, stop = np.stack(inner, axis=1).ravel(), np.stack(outer, axis=1).ravel()
        count = stop - start
        run = np.repeat(np.arange(count.size), count)
        k = start[run] + np.arange(run.size) - np.repeat(np.cumsum(count) - count, count)
        col = np.where(run % 2 == 1, self._c0 + k, self._c0 - 1 - k)
        row, kr = np.divmod(run // 2, radii.size)
        return inner, col * self._q.size + row, row, kr

    def volume_integral(self, weighted: np.ndarray) -> np.ndarray:
        """Integral over B_r of an already y^a-weighted cell density, every
        radius r of the geometry in one pass.

        The ramp is exactly 1 on the cells with R + width <= r, the inner run
        of each row (`_spans`): its sum is left[a] + right[b] of the row's
        prefix sums taken outward from the center column.  Only the band
        cells go through the ramp.  One sequential bincount over rows adds
        both, so the sum does not depend on how many rows the geometry holds.
        """
        radii = self.radii
        base = (weighted * self.vol).reshape(self.R.shape[0], -1)
        c0, nrow = self._c0, self._q.size
        left, right = np.zeros((c0 + 1, nrow)), np.zeros((base.shape[0] - c0 + 1, nrow))
        np.cumsum(base[:c0][::-1], axis=0, out=left[1:])
        np.cumsum(base[c0:], axis=0, out=right[1:])
        (a, b), flat, row, kr = self._radii_spans
        rows = np.repeat(np.arange(nrow), radii.size)
        inside = left[a, rows] + right[b, rows]
        band = base.ravel()[flat] * self._ramp(radii[kr], self.R.ravel()[flat],
                                               self._wrow[row])
        return np.bincount(np.concatenate((np.tile(np.arange(radii.size), nrow), kr)),
                           weights=np.concatenate((inside, band)), minlength=radii.size)

    def surface_integral(self, weighted: np.ndarray) -> np.ndarray:
        """Shell average over the sphere of each radius r of the geometry:
        the one-cell hat kernel (1 - t) / width, t = |R - r| / width, summed
        over the band cells t < 1 of `_spans`, grouped by radius in one
        bincount."""
        _, flat, row, kr = self._radii_spans
        w = self._wrow[row]
        t = np.abs(self.R.ravel()[flat] - self.radii[kr]) / w
        dens = np.ravel(weighted)[flat] * self._vrow[row]
        return np.bincount(kr, weights=dens * ((1.0 - t) / w), minlength=self.radii.size)


def _kernel_profile(params: FracParams, eps: float):
    """Radial kernel |X|^{2s-N} as a function of the radius |X| >= 0; when
    N > 2s, C^1-regularized at scale eps > 0: inside radius eps the parabola
    that matches value and slope at the seam, so that it increases pointwise
    toward the bare power as eps decreases."""
    s, N = params.s, params.N
    if N <= 2.0 * s:
        return lambda r: np.asarray(r, dtype=float) ** (2.0 * s - N)

    def profile(r):
        r = np.asarray(r, dtype=float)
        scale = eps ** (2.0 * s - N)
        rho = r / eps
        inner = scale * (0.5 * (N + 2.0 * (1.0 - s)) - 0.5 * (N - 2.0 * s) * rho * rho)
        with np.errstate(divide="ignore"):
            outer = np.where(r > 0, r, 1.0) ** (2.0 * s - N)
        return np.where(rho < 1.0, inner, outer)
    return profile


def _fields_geometry(fields, center, radii):
    """The fields (one Field or a sequence) as a list, and their geometry."""
    flist = [fields] if isinstance(fields, Field) else list(fields)
    return flist, _CellGeometry(flist[0].grid, center, radii)


def acf_one_phase(fld: Field, center, radii, variant: str) -> RadialProfile:
    """One-phase scaled kernel energy r^{-exp} int y^a |grad v|^2 K(X).

    The kernel is regularized at one cell diameter near the center, the bare
    power beyond; exact homogeneous solutions of the matched variant give
    profiles constant in r.
    """
    if variant not in ACF_EXPONENTS:
        raise ValueError(f"unknown variant {variant!r}")
    grid = fld.grid
    p = grid.params
    if variant == "acf_codim1" and p.s <= 0.5:
        raise ValueError("codim1 variant requires s > 1/2")
    geo = _CellGeometry(grid, center, radii)
    kern = _kernel_profile(p, eps=float(np.hypot(grid.dx, grid.y[1])))
    integrand = geo.kernel_energy(fld, kern)
    vals = (geo.volume_integral(integrand)
            / geo.radii ** ACF_EXPONENTS[variant](p.s))
    return RadialProfile(geo.radii, vals, variant)


class AlmgrenProfiles(NamedTuple):
    E: RadialProfile
    H: RadialProfile
    Nfreq: RadialProfile


#: Gauss-Jacobi nodes in the polar angle and uniform nodes in phi of
#: _sphere_mass
_N_RAD = 96
_N_PHI = 64


def _sphere_mass(geo: _CellGeometry, flist) -> np.ndarray:
    """int_{boundary sphere} y^a sum v_i^2 at every radius of geo, by a
    weighted Gauss-Jacobi rule on the unit half-sphere scaled by each r.

    The y^a factor (and in d = 2 the uniform phi sum) is absorbed into the
    weights exactly, so only the smooth interpolated v^2 is sampled, once
    per field over all radii.
    """
    a, r = geo.grid.params.a, geo.radii
    if geo.grid.d == 1:
        u, w = roots_jacobi(_N_RAD, 0.5 * (a - 1.0), 0.5 * (a - 1.0))
        unit = [u, np.sqrt(np.maximum(1.0 - u * u, 0.0))]
    else:
        x_gj, w_gj = roots_jacobi(_N_RAD, 0.0, a)
        u = 0.5 * (x_gj + 1.0)          # u = cos(polar), weight u^a on [0, 1]
        su = np.sqrt(np.maximum(1.0 - u * u, 0.0))[:, None]
        phi = 2.0 * np.pi * np.arange(_N_PHI) / _N_PHI
        unit = [(su * np.cos(phi)).ravel(), (su * np.sin(phi)).ravel(),
                np.repeat(u, _N_PHI)]
        w = np.repeat(w_gj * (2.0 ** (-1.0 - a) * (2.0 * np.pi / _N_PHI)), _N_PHI)
    coords = [c + r[:, None] * e for c, e in zip(geo.center + (0.0,), unit)]
    g = sum(interpolate_field(f, *coords) ** 2 for f in flist)
    return r ** (geo.grid.d + a) * (g @ w)


def almgren(fields, center, radii) -> AlmgrenProfiles:
    """Scaled energy E, boundary mass H and their quotient over the radii.

    E(r) = r^{2s-N} int_{B_r^+} y^a sum |grad v_i|^2 (smoothed cell sum),
    H(r) = r^{2s-N-1} int_{sphere} y^a sum v_i^2 (weighted Gauss-Jacobi arc
    quadrature of the interpolated trace), N(r) = E/H; an H <= 0 radius
    makes the frequency undefined.
    """
    flist, geo = _fields_geometry(fields, center, radii)
    p = geo.grid.params
    energy = sum(geo.energy_density(geo.cell_gradient(f)) for f in flist)
    E = geo.volume_integral(energy) * geo.radii ** (2.0 * p.s - p.N)
    H = _sphere_mass(geo, flist) * geo.radii ** (2.0 * p.s - p.N - 1.0)
    if np.any(H <= 0):
        bad = geo.radii[np.argmax(H <= 0)]
        raise ValueError(f"frequency undefined: H vanishes near r = {bad:.4g}")
    return AlmgrenProfiles(RadialProfile(geo.radii, E, "E"),
                           RadialProfile(geo.radii, H, "H"),
                           RadialProfile(geo.radii, E / H, "Nfreq"))


def log_derivative_residual(h_profile: RadialProfile, n_profile: RadialProfile):
    """Relative residual of d/dr log H against 2 N(r) / r.

    Differentiated in log r (the identity reads d log H / d log r = 2 N(r)
    there, with no 1/r curvature to resolve); centered differences on the
    supplied radii, one-sided at the endpoints.
    """
    r = np.asarray(h_profile.radii, dtype=float)
    dlog = np.gradient(np.log(h_profile.values), np.log(r))
    target = 2.0 * n_profile.values
    return np.abs(dlog - target) / np.abs(target)


def pohozaev_residual(fields, center, r):
    """Signed relative residual of the half-ball Pohozaev identity.

    (2s - N) int_{B_r^+} y^a sum |grad v|^2 + r int_{shell} y^a sum |grad v|^2
    - 2 r int_{shell} y^a sum |d_nu v|^2, normalized by the middle term.
    r is one radius (a float comes back) or an increasing 1-D array of radii
    (an array comes back), all read off one geometry and one gradient.
    """
    flist, geo = _fields_geometry(fields, center, np.atleast_1d(r))
    p = geo.grid.params
    grads = [geo.cell_gradient(f) for f in flist]
    energy = sum(geo.energy_density(g) for g in grads)
    radial = geo.wy * sum(geo.radial_derivative(g) ** 2 for g in grads)
    rs = geo.radii
    t1 = (2.0 * p.s - p.N) * geo.volume_integral(energy)
    t2 = rs * geo.surface_integral(energy)
    t3 = 2.0 * rs * geo.surface_integral(radial)
    res = (t1 + t2 - t3) / (np.abs(t2) + 1e-300)
    return float(res[0]) if np.ndim(r) == 0 else res


# --------------------------------------------------------------------------
# Hölder seminorms
# --------------------------------------------------------------------------

def holder_seminorm(values, coords, alpha: float) -> float:
    """Max of |v(X) - v(X')| / |X - X'|^alpha over all node pairs.

    Exact: rows are compared against every node in blocks of about 2e6
    pairs, so the cost grows as n^2 (on a 2-core machine 0.3-0.6 s at 4097
    nodes in d = 1 and 0.9-1.4 s at 65^2-66^2 nodes in d = 2).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values = np.asarray(values, dtype=float).ravel()
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 1:
        coords = coords[:, None]
    coords = coords.reshape(-1, coords.shape[-1])
    if coords.shape[0] != values.size:
        raise ValueError("coords and values disagree in length")
    n = values.size
    if n < 2:
        raise ValueError("need at least two nodes")

    best = 0.0
    block = max(1, 2_000_000 // n)
    for i0 in range(0, n - 1, block):
        i1 = min(i0 + block, n - 1)
        dv = np.abs(values[i0:i1, None] - values[None, :])
        dd = np.linalg.norm(coords[i0:i1, None, :] - coords[None, :, :], axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = dv / dd ** alpha
        q[np.arange(i1 - i0), np.arange(i0, i1)] = 0.0  # self pairs
        best = max(best, float(np.max(q)))
    return best


def trace_seminorm(fld: Field, alpha: float, x_window=None) -> float:
    """Hölder seminorm of the trace restricted to the nodes with |x_k| <=
    x_window along every axis (all nodes when x_window is None)."""
    grid = fld.grid
    keep = np.abs(grid.x) <= (np.inf if x_window is None else float(x_window))
    coords = np.stack(np.meshgrid(*[grid.x[keep]] * grid.d, indexing="ij"),
                      axis=-1).reshape(-1, grid.d)
    return holder_seminorm(fld.trace[np.ix_(*[keep] * grid.d)], coords, alpha)
