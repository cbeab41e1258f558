"""Monotone-quantity diagnostics on half-space fields.

Computes the radially scaled functionals whose monotonicity in r encodes the
growth of segregation profiles (the one-phase, two-phase and perturbed
variants), the frequency quotient E/H, the half-ball Pohozaev residual, and
Hölder seminorms; plus the audit that counts monotonicity violations.

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

from .core import RegularizedKernel
from .grid import Field, HalfSpaceGrid, interpolate_field

ACF_EXPONENTS = {
    "acf_vanish": lambda s: 4.0 * s,
    "acf_halfspace": lambda s: 2.0 * s,
    "acf_codim1": lambda s: 4.0 * s - 2.0,
}


@dataclass
class RadialProfile:
    """Sampled values of one radial quantity around a trace-point center."""

    center: tuple
    radii: np.ndarray
    values: np.ndarray
    quantity: str
    hypothesis_violation: float | None = None


@dataclass
class MonotonicityReport:
    violations: int
    max_violation: float
    tol: float
    passed: bool


def monotonicity_check(profile: RadialProfile, tol: float) -> MonotonicityReport:
    """Audit a profile for decreases beyond tol times the profile scale."""
    v = np.asarray(profile.values, dtype=float)
    if v.size < 3:
        raise ValueError("need at least 3 radii to audit monotonicity")
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return MonotonicityReport(0, 0.0, tol, True)
    drops = np.maximum(0.0, v[:-1] - v[1:]) / scale
    max_violation = float(drops.max())
    violations = int(np.sum(drops > tol))
    return MonotonicityReport(violations, max_violation, tol, max_violation <= tol)


#: kernel_energy re-integrates the cells within _CORE_CELLS diagonals of the
#: center on a _SUB x _SUB lattice
_CORE_CELLS = 6
_SUB = 6


class _CellGeometry:
    """Cell-centered geometry and reconstruction relative to a trace center."""

    def __init__(self, grid: HalfSpaceGrid, center: Sequence[float]):
        center = tuple(float(c) for c in np.atleast_1d(center))
        if len(center) != grid.d:
            raise ValueError(f"center must have {grid.d} trace coordinates")
        self.grid = grid
        self.center = center
        dx = grid.dx
        dy = grid.dy
        xmid = 0.5 * (grid.x[1:] + grid.x[:-1])
        ymid = 0.5 * (grid.y[1:] + grid.y[:-1])
        # vertical-gradient energy weight: the bottom cell row is matched to
        # the y^{2s} boundary expansion (integrating y^a (d_y c1 y^{2s})^2
        # exactly), the same consistency device as the trace stencil
        s = grid.params.s
        wy_vert = grid.face_w.copy()
        wy_vert[0] = 2.0 * s * grid.y[1] ** grid.params.a
        if grid.d == 1:
            self.off = (xmid[:, None] - center[0],)
            self.ym = np.broadcast_to(ymid[None, :], (grid.nx - 1, grid.ny))
            self.vol = np.broadcast_to((dx * dy)[None, :], self.ym.shape)
            self.wy = np.broadcast_to(grid.face_w[None, :], self.ym.shape)
            self.wy_vert = np.broadcast_to(wy_vert[None, :], self.ym.shape)
            self.width = np.broadcast_to(np.hypot(dx, dy)[None, :], self.ym.shape)
        else:
            o1 = (xmid[:, None, None] - center[0])
            o2 = (xmid[None, :, None] - center[1])
            shape = (grid.nx - 1, grid.nx - 1, grid.ny)
            self.off = (np.broadcast_to(o1, shape), np.broadcast_to(o2, shape))
            self.ym = np.broadcast_to(ymid[None, None, :], shape)
            self.vol = np.broadcast_to((dx * dx * dy)[None, None, :], shape)
            self.wy = np.broadcast_to(grid.face_w[None, None, :], shape)
            self.wy_vert = np.broadcast_to(wy_vert[None, None, :], shape)
            self.width = np.broadcast_to(
                np.sqrt(2.0 * dx * dx + dy * dy)[None, None, :], shape)
        self.R = np.sqrt(sum(o * o for o in self.off) + self.ym * self.ym)

    # -- reconstruction ---------------------------------------------------
    def cell_values(self, fld: Field) -> np.ndarray:
        v = fld.values
        if self.grid.d == 1:
            return 0.25 * (v[:-1, :-1] + v[1:, :-1] + v[:-1, 1:] + v[1:, 1:])
        return 0.125 * (v[:-1, :-1, :-1] + v[1:, :-1, :-1] + v[:-1, 1:, :-1]
                        + v[1:, 1:, :-1] + v[:-1, :-1, 1:] + v[1:, :-1, 1:]
                        + v[:-1, 1:, 1:] + v[1:, 1:, 1:])

    def cell_gradient(self, fld: Field):
        """Face-centered differences averaged to cells, one array per axis."""
        v = fld.values
        g = self.grid
        if g.d == 1:
            gx = 0.5 * ((v[1:, :-1] - v[:-1, :-1]) + (v[1:, 1:] - v[:-1, 1:])) / g.dx
            gy = 0.5 * ((v[:-1, 1:] - v[:-1, :-1]) + (v[1:, 1:] - v[1:, :-1])) / g.dy
            return gx, gy
        dx = g.dx
        g1 = 0.25 * ((v[1:, :-1, :-1] - v[:-1, :-1, :-1])
                     + (v[1:, 1:, :-1] - v[:-1, 1:, :-1])
                     + (v[1:, :-1, 1:] - v[:-1, :-1, 1:])
                     + (v[1:, 1:, 1:] - v[:-1, 1:, 1:])) / dx
        g2 = 0.25 * ((v[:-1, 1:, :-1] - v[:-1, :-1, :-1])
                     + (v[1:, 1:, :-1] - v[1:, :-1, :-1])
                     + (v[:-1, 1:, 1:] - v[:-1, :-1, 1:])
                     + (v[1:, 1:, 1:] - v[1:, :-1, 1:])) / dx
    # vertical differences use the per-layer spacing
        gy = 0.25 * ((v[:-1, :-1, 1:] - v[:-1, :-1, :-1])
                     + (v[1:, :-1, 1:] - v[1:, :-1, :-1])
                     + (v[:-1, 1:, 1:] - v[:-1, 1:, :-1])
                     + (v[1:, 1:, 1:] - v[1:, 1:, :-1])) / g.dy
        return g1, g2, gy

    def energy_density(self, fld: Field) -> np.ndarray:
        """y^a-weighted |grad v|^2 per cell, with the matched bottom row."""
        comps = self.cell_gradient(fld)
        horiz = sum(c * c for c in comps[:-1])
        return self.wy * horiz + self.wy_vert * comps[-1] ** 2

    def kernel_energy(self, fld: Field, kern) -> np.ndarray:
        """energy_density times a radial kernel, subcell-refined near center.

        The kernel-gradient product is strongly singular at the center; cells
        within _CORE_CELLS diagonals are re-integrated on a _SUB x _SUB
        lattice of the bilinear interpolant (d = 1 grids; the d = 2 core is
        left at cell resolution).
        """
        base = self.energy_density(fld) * kern(self.R)
        if self.grid.d != 1:
            return base
        g = self.grid
        diag = float(np.hypot(g.dx, g.dy.max()))
        ci, cj = np.nonzero(self.R <= _CORE_CELLS * diag)
        if ci.size == 0:
            return base
        v = fld.values
        t = (np.arange(_SUB) + 0.5) / _SUB
        tx = t[None, :, None]
        ty = t[None, None, :]
        v00 = v[ci, cj][:, None, None]
        v10 = v[ci + 1, cj][:, None, None]
        v01 = v[ci, cj + 1][:, None, None]
        v11 = v[ci + 1, cj + 1][:, None, None]
        y0 = g.y[cj][:, None, None]
        dyj = g.dy[cj][:, None, None]
        gx = ((v10 - v00) * (1.0 - ty) + (v11 - v01) * ty) / g.dx
        gy = ((v01 - v00) * (1.0 - tx) + (v11 - v10) * tx) / dyj
        xs = g.x[ci][:, None, None] + tx * g.dx - self.center[0]
        ylo = y0 + (ty - 0.5 / _SUB) * dyj
        yhi = y0 + (ty + 0.5 / _SUB) * dyj
        a = g.params.a
        wya = ((yhi ** (1 + a) - ylo ** (1 + a)) / ((1 + a) * (yhi - ylo)))
        wyv = np.where(cj[:, None, None] == 0,
                       2.0 * g.params.s * g.y[1] ** a, wya)
        ys = 0.5 * (ylo + yhi)
        dens = (wya * gx * gx + wyv * gy * gy) * kern(np.hypot(xs, ys))
        base = base.copy()
        base[ci, cj] = dens.mean(axis=(1, 2))
        return base

    def radial_derivative(self, fld: Field) -> np.ndarray:
        comps = self.cell_gradient(fld)
        rad = sum(o * c for o, c in zip(self.off, comps[:-1]))
        rad = rad + self.ym * comps[-1]
        return rad / np.maximum(self.R, 1e-300)

    # -- smoothed radial quadratures ---------------------------------------
    @staticmethod
    def _ramp(r: float, R: np.ndarray, width: np.ndarray) -> np.ndarray:
        t = (r - R) / width
        out = np.clip(t + 1.0, 0.0, 2.0)
        inner = out <= 1.0
        res = np.where(inner, 0.5 * out * out, 1.0 - 0.5 * (2.0 - out) ** 2)
        return res

    def _hat(self, r: float) -> np.ndarray:
        t = np.abs(self.R - r) / self.width
        return np.maximum(0.0, 1.0 - t) / self.width

    def max_radius(self) -> float:
        """Largest radius keeping a one-cell margin inside the grid."""
        g = self.grid
        horiz = min(g.L - abs(c) for c in self.center)
        return min(horiz - g.dx, g.Y - g.dy[-1])

    def check_radii(self, radii: np.ndarray) -> np.ndarray:
        radii = np.asarray(radii, dtype=float)
        if radii.ndim != 1 or radii.size < 1:
            raise ValueError("radii must be a one-dimensional list")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        rmax = self.max_radius()
        if radii[-1] > rmax:
            raise ValueError(f"largest radius {radii[-1]} exceeds grid bound {rmax:.4g}")
        return radii

    def volume_integral(self, weighted: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Integral over B_r of an already y^a-weighted cell density.

        The ramp vanishes on cells with R - width >= r, so the sums run over
        the cells inside the largest radius only.
        """
        near = self.R - self.width < np.max(radii)
        base = (weighted * self.vol)[near]
        R, width = self.R[near], self.width[near]
        return np.array([float(np.sum(base * self._ramp(r, R, width))) for r in radii])

    def surface_integral(self, weighted: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Shell average over the sphere of radius r (one-cell hat kernel)."""
        base = weighted * self.vol
        return np.array([float(np.sum(base * self._hat(r))) for r in radii])


def _kernel_profile(grid: HalfSpaceGrid, eps: float):
    """Radial kernel |X|^{2s-N}, regularized at scale eps when N > 2s."""
    p = grid.params
    if p.N > 2.0 * p.s:
        ker = RegularizedKernel(eps=eps, params=p)
        return ker.profile
    return lambda r: np.asarray(r, dtype=float) ** (2.0 * p.s - p.N)


def _as_field_list(fields) -> list[Field]:
    if isinstance(fields, Field):
        return [fields]
    return list(fields)


def _trace_scale(fld: Field) -> float:
    return float(np.max(np.abs(fld.values))) + 1e-300


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
    geo = _CellGeometry(grid, center)
    radii = geo.check_radii(radii)
    kern = _kernel_profile(grid, eps=float(np.hypot(grid.dx, grid.y[1])))
    integrand = geo.kernel_energy(fld, kern)
    vals = geo.volume_integral(integrand, radii) / radii ** ACF_EXPONENTS[variant](p.s)

    tr = fld.trace
    if grid.d == 1:
        xs = grid.x - geo.center[0]
    else:
        xs = grid.x[:, None] - geo.center[0]
    if variant == "acf_vanish":
        mask = np.ones_like(tr, dtype=bool)
    elif variant == "acf_halfspace":
        mask = np.broadcast_to((xs <= 0.0), tr.shape) if grid.d == 1 else (
            np.broadcast_to((grid.x[:, None] - geo.center[0]) <= 0.0, tr.shape))
    else:  # codim1: the trace hyperplane x1 = center closest nodes
        near = np.abs(grid.x - geo.center[0]) <= 0.5 * grid.dx
        mask = np.broadcast_to(near[:, None] if grid.d == 2 else near, tr.shape)
    violation = float(np.max(np.abs(tr[mask]))) / _trace_scale(fld) if mask.any() else 0.0
    return RadialProfile(geo.center, radii, vals, variant, violation)


def acf_two_phase(fields, center, radii, nu: float) -> RadialProfile:
    """Product of the two one-phase kernel energies, each scaled by r^{-2 nu}."""
    f1, f2 = _as_field_list(fields)
    grid = f1.grid
    geo = _CellGeometry(grid, center)
    radii = geo.check_radii(radii)
    kern = _kernel_profile(grid, eps=float(np.hypot(grid.dx, grid.y[1])))
    prod = np.ones_like(radii, dtype=float)
    for f in (f1, f2):
        prod = prod * (geo.volume_integral(geo.kernel_energy(f, kern), radii)
                       / radii ** (2.0 * nu))
    overlap = float(np.max(np.abs(f1.trace * f2.trace)))
    overlap /= _trace_scale(f1) * _trace_scale(f2)
    return RadialProfile(geo.center, radii, prod, "acf_two_phase", overlap)


def acf_perturbed(fields, radii, nu_prime: float, coupling: float,
                  center=None) -> RadialProfile:
    """Perturbed two-phase functional with the epsilon=1 kernel.

    Each factor is r^{-2 nu'} (volume energy with the regularized kernel plus
    the trace coupling term int a12 v_i^2 v_j^2 K); defined for radii above
    the regularization scale, hence the r > 1 use here.
    """
    f1, f2 = _as_field_list(fields)
    grid = f1.grid
    p = grid.params
    geo = _CellGeometry(grid, center if center is not None else (0.0,) * grid.d)
    radii = geo.check_radii(radii)
    ker = RegularizedKernel(eps=1.0, params=p)
    kvals = ker.profile(geo.R)

    # trace-cell geometry (midpoints of trace segments)
    if grid.d == 1:
        txm = 0.5 * (grid.x[1:] + grid.x[:-1]) - geo.center[0]
        tR = np.abs(txm)
        tarea = np.full(txm.shape, grid.dx)
        twidth = np.full(txm.shape, grid.dx)
        tvals = [0.5 * (f.trace[1:] + f.trace[:-1]) for f in (f1, f2)]
    else:
        xm = 0.5 * (grid.x[1:] + grid.x[:-1])
        o1 = xm[:, None] - geo.center[0]
        o2 = xm[None, :] - geo.center[1]
        tR = np.hypot(o1, o2)
        tarea = np.full(tR.shape, grid.dx * grid.dx)
        twidth = np.full(tR.shape, grid.dx * np.sqrt(2.0))
        tvals = [0.25 * (f.trace[1:, 1:] + f.trace[:-1, 1:]
                         + f.trace[1:, :-1] + f.trace[:-1, :-1]) for f in (f1, f2)]
    tker = ker.profile(tR)
    couple = coupling * tvals[0] ** 2 * tvals[1] ** 2 * tker * tarea

    prod = np.ones_like(radii, dtype=float)
    for f in (f1, f2):
        vol = geo.volume_integral(geo.energy_density(f) * kvals, radii)
        ramp = np.array([
            float(np.sum(couple * np.clip((r - tR) / twidth + 0.5, 0.0, 1.0)))
            for r in radii])
        prod = prod * ((vol + ramp) / radii ** (2.0 * nu_prime))
    return RadialProfile(geo.center, radii, prod, "acf_perturbed")


class AlmgrenProfiles(NamedTuple):
    E: RadialProfile
    H: RadialProfile
    Nfreq: RadialProfile


#: Gauss-Jacobi nodes in the polar angle and uniform nodes in phi of
#: _sphere_mass
_N_RAD = 96
_N_PHI = 64


def _sphere_mass(geo: _CellGeometry, flist, radii) -> np.ndarray:
    """int_{boundary sphere} y^a sum v_i^2 by weighted Gauss-Jacobi quadrature.

    The y^a factor is absorbed into the quadrature weight exactly, so only
    the smooth interpolated v^2 is sampled.
    """
    grid = geo.grid
    a = grid.params.a
    out = np.zeros(len(radii))
    if grid.d == 1:
        u, w = roots_jacobi(_N_RAD, 0.5 * (a - 1.0), 0.5 * (a - 1.0))
        y_unit = np.sqrt(np.maximum(1.0 - u * u, 0.0))
        for i, r in enumerate(radii):
            xq = geo.center[0] + r * u
            yq = r * y_unit
            g = sum(interpolate_field(f, xq, yq) ** 2 for f in flist)
            out[i] = r ** (1.0 + a) * float(w @ g)
        return out
    x_gj, w_gj = roots_jacobi(_N_RAD, 0.0, a)
    u = 0.5 * (x_gj + 1.0)          # u = cos(polar), weight u^a on [0, 1]
    su = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    phi = 2.0 * np.pi * np.arange(_N_PHI) / _N_PHI
    cphi, sphi = np.cos(phi), np.sin(phi)
    for i, r in enumerate(radii):
        x1 = geo.center[0] + r * su[:, None] * cphi[None, :]
        x2 = geo.center[1] + r * su[:, None] * sphi[None, :]
        yq = r * (u[:, None] + 0.0 * cphi[None, :])
        g = sum(interpolate_field(f, x1, x2, yq) ** 2 for f in flist)
        out[i] = (r ** (2.0 + a) * 2.0 ** (-1.0 - a) * (2.0 * np.pi / _N_PHI)
                  * float(w_gj @ g.sum(axis=1)))
    return out


def almgren(fields, center, radii) -> AlmgrenProfiles:
    """Scaled energy E, boundary mass H and their quotient over the radii.

    E(r) = r^{2s-N} int_{B_r^+} y^a sum |grad v_i|^2 (smoothed cell sum),
    H(r) = r^{2s-N-1} int_{sphere} y^a sum v_i^2 (weighted Gauss-Jacobi arc
    quadrature of the interpolated trace), N(r) = E/H; an H <= 0 radius
    makes the frequency undefined.
    """
    flist = _as_field_list(fields)
    grid = flist[0].grid
    p = grid.params
    geo = _CellGeometry(grid, center)
    radii = geo.check_radii(radii)
    energy = sum(geo.energy_density(f) for f in flist)
    E = geo.volume_integral(energy, radii) * radii ** (2.0 * p.s - p.N)
    H = _sphere_mass(geo, flist, radii) * radii ** (2.0 * p.s - p.N - 1.0)
    if np.any(H <= 0):
        bad = radii[np.argmax(H <= 0)]
        raise ValueError(f"frequency undefined: H vanishes near r = {bad:.4g}")
    c = tuple(geo.center)
    return AlmgrenProfiles(
        RadialProfile(c, radii, E, "E"),
        RadialProfile(c, radii, H, "H"),
        RadialProfile(c, radii, E / H, "Nfreq"),
    )


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


def pohozaev_residual(fields, center, r: float) -> float:
    """Signed relative residual of the half-ball Pohozaev identity.

    (2s - N) int_{B_r^+} y^a sum |grad v|^2 + r int_{shell} y^a sum |grad v|^2
    - 2 r int_{shell} y^a sum |d_nu v|^2, normalized by the middle term.
    """
    flist = _as_field_list(fields)
    grid = flist[0].grid
    p = grid.params
    geo = _CellGeometry(grid, center)
    radii = geo.check_radii(np.array([r], dtype=float))
    energy = sum(geo.energy_density(f) for f in flist)
    radial = geo.wy * sum(geo.radial_derivative(f) ** 2 for f in flist)
    t1 = (2.0 * p.s - p.N) * geo.volume_integral(energy, radii)[0]
    t2 = r * geo.surface_integral(energy, radii)[0]
    t3 = 2.0 * r * geo.surface_integral(radial, radii)[0]
    return float((t1 + t2 - t3) / (abs(t2) + 1e-300))


# --------------------------------------------------------------------------
# Hölder seminorms
# --------------------------------------------------------------------------

_EXACT_LIMIT = 4000
_HOLDER_SEED = 20240211


def holder_seminorm(values, coords, alpha: float, region=None,
                    pair_budget: int = 200_000) -> float:
    """Max of |v(X) - v(X')| / |X - X'|^alpha over node pairs.

    Exhaustive when the region holds at most 4000 nodes; otherwise a
    deterministic sample stratified by pair distance (index lags covering all
    dyadic scales plus seeded random pairs, capped at pair_budget).
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
    if region is not None:
        mask = np.asarray(region, dtype=bool).ravel()
        values = values[mask]
        coords = coords[mask]
    n = values.size
    if n < 2:
        raise ValueError("region must contain at least two nodes")

    if n <= _EXACT_LIMIT:
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

    rng = np.random.default_rng(_HOLDER_SEED)
    ii, jj = [], []
    lag = 1
    while lag < n:
        base = np.arange(0, n - lag)
        ii.append(base)
        jj.append(base + lag)
        lag *= 2
    ii = np.concatenate(ii)
    jj = np.concatenate(jj)
    if ii.size > pair_budget // 2:
        keep = rng.choice(ii.size, size=pair_budget // 2, replace=False)
        keep.sort()
        ii, jj = ii[keep], jj[keep]
    extra = pair_budget - ii.size
    ri = rng.integers(0, n, size=extra)
    rj = rng.integers(0, n, size=extra)
    ok = ri != rj
    ii = np.concatenate([ii, ri[ok]])
    jj = np.concatenate([jj, rj[ok]])
    dv = np.abs(values[ii] - values[jj])
    dd = np.linalg.norm(coords[ii] - coords[jj], axis=-1)
    return float(np.max(dv / dd ** alpha))


def trace_seminorm(fld: Field, alpha: float, x_window=None,
                   pair_budget: int = 200_000) -> float:
    """Hölder seminorm of the trace restricted to an |x| window."""
    grid = fld.grid
    if grid.d == 1:
        coords = grid.x[:, None]
    else:
        coords = np.stack(np.meshgrid(grid.x, grid.x, indexing="ij"),
                          axis=-1).reshape(-1, 2)
    vals = fld.trace.ravel()
    region = None
    if x_window is not None:
        region = np.all(np.abs(coords) <= float(x_window), axis=1)
    return holder_seminorm(vals, coords, alpha, region=region,
                           pair_budget=pair_budget)
