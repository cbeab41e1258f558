"""Finite-volume discretization of L_a = -div(y^a grad .) on a truncated half-space.

Vertex-centered conservative scheme on a tensor grid: horizontal axes span
[-L, L] with nx nodes each (trace dimension d in {1, 2}), the vertical axis
holds ny graded layers y_j = Y (j/ny)^p plus the trace row y = 0.  Face
conductances use exact cell averages of y^a; the face touching the trace is
matched to the boundary expansion v = v(.,0) + c1 y^{2s} + o(y^{2s}), which
is what makes the weighted normal derivative consistent for a != 0.
The module also holds the process controls its engine needs: the OpenBLAS
thread scope and the glibc heap thresholds.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np
import scipy
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla  # unused here; the traced benchmark hooks grid.spla

from .core import FracParams
from .errors import ConfigurationError, ConvergenceError

_SNAP_MAGIC = b"XHSG"
_SNAP_VERSION = 1
#: magic, version, d, nx, ny, components, L, Y, grading_p, s, N
_SNAP_HEAD = "<4sIIIIIddddI"


@dataclass(frozen=True)
class GridConfig:
    """Geometry of the truncated upper half-space."""

    d: int = 1
    L: float = 1.0
    Y: float = 1.0
    nx: int = 65
    ny: int = 32
    grading_p: float | None = None  # None -> default grading for the given s


def default_grading(params: FracParams) -> float:
    """Vertical grading exponent for the y = 0 boundary layer.

    The matched trace stencil carries an O(y1^{2-2s}) error from the regular
    y^2 part of the boundary expansion, which p = 2/(1+a) = 1/(1-s) turns
    into O(ny^-2); interpolating the y^{2s} layer itself needs p = 1/s.  The
    default covers both, capped so node spacings stay representable for
    extreme orders.
    """
    s = params.s
    return min(8.0, max(1.0, 1.0 / (1.0 - s), 1.0 / s))


@dataclass(frozen=True)
class HalfSpaceGrid:
    d: int
    L: float
    Y: float
    nx: int
    ny: int
    grading_p: float
    params: FracParams
    x: np.ndarray  # (nx,) horizontal nodes, shared by both axes when d = 2
    y: np.ndarray  # (ny+1,) vertical levels, y[0] = 0, y[ny] = Y
    face_w: np.ndarray  # (ny,) exact average of y^a over [y_j, y_{j+1}]

    @property
    def dx(self) -> float:
        return self.x[1] - self.x[0]

    @property
    def shape(self) -> tuple:
        return (self.nx,) * self.d + (self.ny + 1,)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def dy(self) -> np.ndarray:
        return np.diff(self.y)

    @cached_property
    def x_dual(self) -> np.ndarray:
        """Dual (control-volume) lengths per horizontal node."""
        h = np.full(self.nx, self.dx)
        h[0] = h[-1] = 0.5 * self.dx
        return h

    @cached_property
    def y_dual_edges(self) -> np.ndarray:
        """(ny+2,) edges of the vertical dual cells."""
        mid = 0.5 * (self.y[:-1] + self.y[1:])
        return np.concatenate(([0.0], mid, [self.Y]))

    @cached_property
    def y_dual_w(self) -> np.ndarray:
        """Integral of y^a over each vertical dual cell (exact)."""
        return _pow_integral(self.y_dual_edges[:-1], self.y_dual_edges[1:], self.params.a)

    @cached_property
    def vertical_conductance(self) -> np.ndarray:
        """(ny,) conductance per unit horizontal measure across level faces.

        Face 0 (trace to first layer) is matched to the y^{2s} expansion;
        the flux y^a d_y (c0 + c1 y^{2s}) = 2s c1 is exact on it.
        """
        s = self.params.s
        g = self.face_w / self.dy
        g[0] = 2.0 * s * self.y[1] ** (-2.0 * s)
        return g


def _pow_integral(lo, hi, a):
    """Exact integral of y^a over [lo, hi], elementwise (a > -1)."""
    return (hi ** (1.0 + a) - lo ** (1.0 + a)) / (1.0 + a)


def build_grid(config: GridConfig, params: FracParams) -> HalfSpaceGrid:
    """Construct the graded tensor grid with exact cell-averaged face weights."""
    if config.d not in (1, 2):
        raise ConfigurationError(f"trace dimension d must be 1 or 2, got {config.d}")
    if config.nx < 4 or config.ny < 4:
        raise ConfigurationError("nx and ny must both be >= 4")
    if not (config.L > 0 and config.Y > 0):
        raise ConfigurationError("L and Y must be positive")
    p = config.grading_p if config.grading_p is not None else default_grading(params)
    if p < 1.0:
        raise ConfigurationError("grading exponent must satisfy p >= 1")
    x = np.linspace(-config.L, config.L, config.nx)
    j = np.arange(config.ny + 1, dtype=float)
    y = config.Y * (j / config.ny) ** p
    if np.any(np.diff(y) <= 0):
        raise ConfigurationError(
            "vertical grading underflows the node spacing; lower grading_p")
    face_w = _pow_integral(y[:-1], y[1:], params.a) / np.diff(y)
    if not np.all(np.isfinite(face_w)) or np.any(face_w <= 0):
        raise ConfigurationError("degenerate vertical grading: non-positive face weight")
    for arr in (x, y, face_w):  # the engine solve_linear keeps relies on them
        arr.setflags(write=False)
    grid = HalfSpaceGrid(
        d=config.d, L=config.L, Y=config.Y, nx=config.nx, ny=config.ny,
        grading_p=p, params=params, x=x, y=y, face_w=face_w,
    )
    if not np.isfinite(_engine_scale(grid)):
        raise ConfigurationError(
            "grid spacings overflow the linear solve; bring L and Y nearer 1")
    return grid


def _engine_scale(grid: HalfSpaceGrid) -> float:
    """Largest product of grid scales the linear engine forms, per unit data
    (inf when one overflows).

    With kx = 4 d / dx^2 the largest horizontal stiffness (formed from
    dx * h), w the largest vertical dual weight and gv the largest vertical
    conductance: the per-mode factorization multiplies gv by rho <= w kx + gv,
    and the gates bound ||A|| by 2 max diag <= dx^d (w kx + 4 gv).
    """
    dx = grid.dx
    w = grid.y_dual_w.max()
    with np.errstate(all="ignore"):
        gv = grid.vertical_conductance.max()
        kx = 4.0 * grid.d / (dx * dx)
        return float(np.max([dx * dx, kx, gv * (w * kx + gv),
                             grid.n_nodes * dx ** grid.d * (w * kx + 2.0 * gv)]))


class Field:
    """Nodal values on a HalfSpaceGrid, including the y = 0 trace row.

    A Field with a sampler fn (field_from_function) holds no values until
    read: `values` samples every node and `window(nodes)` only that box of
    nodes; the box it holds answers every later read that lies inside it."""

    def __init__(self, grid: HalfSpaceGrid, values=None, component: int = 0, fn=None):
        self.grid, self.component, self._fn, self._box = grid, component, fn, None
        if fn is None:
            self._box = tuple(slice(0, n) for n in grid.shape)
            self._held = self._checked(values, grid.shape)

    @staticmethod
    def _checked(vals, shape: tuple) -> np.ndarray:
        vals = np.asarray(vals, dtype=float)
        if vals.shape != shape:
            raise ValueError(f"field shape {vals.shape} does not match grid {shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains NaN or Inf")
        return vals

    def _hold(self, nodes: tuple) -> np.ndarray:
        """The values held, sampled on the box of nodes first unless they
        cover it: like Field(grid, arr), fn's result itself when that is a
        writeable box-shaped array owning its data."""
        if self._box is None or any(n.start < b.start or n.stop > b.stop
                                    for n, b in zip(nodes, self._box)):
            axes = [self.grid.x] * self.grid.d + [self.grid.y]
            vals = np.asarray(self._fn(*np.ix_(*(a[n] for a, n in zip(axes, nodes)))))
            shape = tuple(n.stop - n.start for n in nodes)
            if vals.shape != shape or not (vals.flags.writeable and vals.flags.owndata):
                vals = np.broadcast_to(vals, shape).copy()
            self._box, self._held = nodes, self._checked(vals, shape)
        return self._held

    @property
    def values(self) -> np.ndarray:
        return self._hold(tuple(slice(0, n) for n in self.grid.shape))

    def window(self, nodes: tuple) -> np.ndarray:
        """Values on the box of node slices (x1[, x2], y), each of step 1."""
        nodes = tuple(slice(*n.indices(m)[:2]) for n, m in zip(nodes, self.grid.shape))
        return self._hold(nodes)[tuple(slice(n.start - b.start, n.stop - b.start)
                                       for n, b in zip(nodes, self._box))]

    @property
    def trace(self) -> np.ndarray:
        return self.values[..., 0]


def field_from_function(grid: HalfSpaceGrid, fn) -> Field:
    """The Field of fn(x1[, x2], y), pure in np.ix_ coordinates of the nodes
    it is read on: a NaN or a wrong shape raises ValueError at that read."""
    return Field(grid, fn=fn)


def grid_coordinates(grid: HalfSpaceGrid):
    """Broadcastable node coordinate arrays (x1[, x2], y)."""
    return np.ix_(*[grid.x] * grid.d, grid.y)


def interpolate_field(fld: Field, *coords) -> np.ndarray:
    """Multilinear interpolation of nodal values at arbitrary points.

    coords are (x1[, x2], y) arrays of a common shape; points must lie inside
    the grid box (they are clamped to it).
    """
    grid = fld.grid
    axes = [grid.x] * grid.d + [grid.y]
    idx, frac = [], []
    for c, ax in zip(coords, axes):
        c = np.asarray(c, dtype=float)
        i = np.clip(np.searchsorted(ax, c) - 1, 0, ax.size - 2)
        idx.append(i)
        frac.append(np.clip((c - ax[i]) / (ax[i + 1] - ax[i]), 0.0, 1.0))
    lo = [int(i.min()) for i in idx]  # read the box the points reach alone
    v = fld.window(tuple(slice(k, int(i.max()) + 2) for k, i in zip(lo, idx)))
    idx = [i - k for i, k in zip(idx, lo)]
    out = 0.0
    for corner in range(2 ** (grid.d + 1)):
        weight = 1.0
        pos = []
        for axis in range(grid.d + 1):
            hi = (corner >> axis) & 1
            weight = weight * (frac[axis] if hi else (1.0 - frac[axis]))
            pos.append(idx[axis] + hi)
        out = out + weight * v[tuple(pos)]
    return out


def _faces(grid: HalfSpaceGrid):
    """Every face as (lo, hi, g): nodes grid[lo] joined to grid[hi], one step
    along an axis, by g = the dual measure of the other axes times the
    conductance per unit measure across that axis, 1 / dx or the vertical."""
    for axis in range(grid.d + 1):
        measure = [grid.x_dual] * grid.d + [grid.y_dual_w]
        measure[axis] = [1.0 / grid.dx] if axis < grid.d else grid.vertical_conductance
        lead = (slice(None),) * axis
        yield (lead + (slice(None, -1),), lead + (slice(1, None),),
               reduce(np.multiply.outer, measure))


def _face_flux(grid: HalfSpaceGrid, v: np.ndarray) -> np.ndarray:
    """A v face by face, sum_q g_pq (v_p - v_q): each conductance multiplies
    a difference; no diagonal sum rounds the y1^{-2s} trace conductance."""
    out = np.zeros(grid.shape)
    for lo, hi, g in _faces(grid):
        f = np.subtract(v[hi], v[lo])
        f *= g  # one scratch array per axis; the product commutes bit for bit
        out[lo] -= f
        out[hi] += f
        del f, g  # freed before the next axis builds its conductances
    return out


def assemble_La(grid: HalfSpaceGrid) -> sps.csr_matrix:
    """Assemble the conservative flux form of L_a over all nodes.

    Symmetric positive semidefinite; every row sums to zero, so constants are
    in the kernel.  Entry (p, q) couples face-adjacent nodes with the face
    conductance; Dirichlet conditions are applied at solve time.  The
    reference form of _face_flux, which the linear engine uses instead.
    """
    nn = grid.n_nodes
    idx = np.arange(nn).reshape(grid.shape)
    rows, cols, vals = [], [], []
    for lo, hi, g in _faces(grid):
        p, q = idx[lo], idx[hi]
        g = np.broadcast_to(-g, p.shape).ravel()
        rows.extend((p.ravel(), q.ravel()))
        cols.extend((q.ravel(), p.ravel()))
        vals.extend((g, g))
    off = sps.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nn, nn),
    ).tocsr()
    # diagonal = minus the row sums, so constants are annihilated exactly
    diag = -np.asarray(off @ np.ones(nn))
    return (off + sps.diags(diag)).tocsr()


def dtn_trace(grid: HalfSpaceGrid, fld: Field) -> np.ndarray:
    """Weighted Dirichlet-to-Neumann trace -2s (v(., y1) - v(., 0)) / y1^{2s}.

    One-sided difference matched to the boundary expansion; exact on fields
    of the form c0(x) + c1(x) y^{2s}.
    """
    s = grid.params.s
    y1 = grid.y[1]
    return -2.0 * s * (fld.values[..., 1] - fld.values[..., 0]) / y1 ** (2.0 * s)


# --------------------------------------------------------------------------
# boundary data and the linear solve
# --------------------------------------------------------------------------

def _materialize(value, grid: HalfSpaceGrid, sl):
    """Evaluate a scalar / array / callable(x1[, x2], y) boundary spec on the
    nodes grid[sl]."""
    coords = [np.broadcast_to(c, grid.shape)[sl] for c in grid_coordinates(grid)]
    out = value(*coords) if callable(value) else value
    return np.broadcast_to(np.asarray(out, dtype=float), coords[0].shape).copy()


@dataclass
class BoundaryData:
    """Boundary specification for the linear extension solve.

    top / sides are Dirichlet values (scalar, array, or callable of the node
    coordinates); sides=None selects zero-flux lateral walls instead.  The
    y = 0 row takes either the affine Neumann pair (g0, m), imposing
    d_nu^a v = g0 - m v with m >= 0, or explicit Dirichlet trace values.
    """

    top: object = 0.0
    sides: object | None = 0.0
    neumann_g0: object = 0.0
    neumann_m: object = 0.0
    trace_dirichlet: object | None = None


def _free_block(grid: HalfSpaceGrid, sides: bool, trace_dirichlet: bool):
    """Index of the free nodes, a box.  The Dirichlet nodes are the top row,
    the lateral walls when sides are Dirichlet and the trace row when it is."""
    xs = slice(1, grid.nx - 1) if sides else slice(None)
    return (xs,) * grid.d + (slice(int(trace_dirichlet), grid.ny),)


def trace_area(grid: HalfSpaceGrid) -> np.ndarray:
    """Horizontal dual measure of each trace node (a new array)."""
    return reduce(np.multiply.outer, [grid.x_dual] * grid.d, 1.0)


#: Largest normwise backward error a checked solve may leave
BACKWARD_TOL = 1e-12


def check_backward_error(what: str, r, a_norm: float, x, b) -> None:
    """Raise ConvergenceError carrying ||r|| / (a_norm ||x|| + ||b||), max norms,
    unless it is <= BACKWARD_TOL; r = +-(b - A x), ||A|| <= a_norm, 0 / 0 passes."""
    scale = a_norm * float(np.abs(x).max()) + float(np.abs(b).max())
    res = float(np.abs(r).max()) / (scale or 1.0)
    if not res <= BACKWARD_TOL:
        raise ConvergenceError(f"{what} failed its residual check", residual=res)


class ModeChains:
    """Stacked SPD tridiagonals T, one per mode, each on a chain of slots
    0..n eliminated toward the boundary slot n: the separable kernel of
    TraceSystem and the hemisphere eigensolver.  shunt (*modes, n + 1) ties
    each slot to zero, cond (broadcastable to (*modes, n)) joins slot i to
    i + 1 and closure ties slot 0, the far end, to zero; T acts on slots
    0..n-1.  Factored from the far end (eliminate), T is definite when its
    pivots are; the boundary's Schur symbol may have either sign (shifted
    chains).  Every term of the recurrence keeps its sign, while the closed
    form cond - cond^2 (T^-1)_{n-1,n-1} and a factorization from the near
    end lose the symbol's digits under the y1^{-2s} trace conductance (1e12
    at s = 3/4) and at the hemisphere's small mode-0 symbol.
    """

    def __init__(self, shunt: np.ndarray, cond, closure):
        self.pivots, self.symbol = self.eliminate(shunt, cond, closure)
        if not np.all(self.pivots > 0):
            raise ConvergenceError("mode chains are not positive definite")
        cond = np.broadcast_to(cond, self.pivots.shape)
        # T = L diag(pivots) L^T with the modes' chains stacked far end first,
        # the layout of LAPACK's ?pttrs; L's subdiagonal is 0 between modes
        lower = np.zeros(self.pivots.shape)
        lower[..., :-1] = -cond[..., :-1] / self.pivots[..., :-1]
        self._lower = lower.ravel()[:-1]
        self._edge = cond[..., -1]

    @cached_property
    def response(self) -> np.ndarray:
        """T^-1 of a unit boundary value, built on first use."""
        unit = np.zeros(self.pivots.shape)
        unit[..., -1] = self._edge
        return self.solve(unit)

    @staticmethod
    def eliminate(shunt: np.ndarray, cond, closure) -> tuple:
        """Pivots cond_i + rho_i and symbol rho_n, unchecked, from
        rho_i = shunt_i + c (rho / (c + rho)) with slot i - 1's c and rho
        (rho_0 = shunt_0 + closure; the product c rho would underflow), in
        place on contiguous slot-major slices (a slot-major shunt is not copied)."""
        cond_at = np.moveaxis(np.broadcast_to(cond, shunt[..., 1:].shape), -1, 0)
        shunt_at = np.ascontiguousarray(np.moveaxis(shunt, -1, 0))
        rho, tmp = np.empty(shunt_at.shape), np.empty(shunt_at.shape[1:])
        np.add(shunt_at[0], closure, out=rho[0])
        for i in range(1, rho.shape[0]):
            c, r = cond_at[i - 1], rho[i - 1]
            np.divide(r, np.add(c, r, out=tmp), out=tmp)
            np.add(shunt_at[i], np.multiply(c, tmp, out=tmp), out=rho[i])
        return np.add(cond, np.moveaxis(rho[:-1], 0, -1), order="C"), rho[-1].copy()

    def solve(self, u: np.ndarray) -> np.ndarray:
        """T^-1 u for every mode; u has the pivots' shape and is real or
        complex (its real and imaginary parts are two right-hand sides)."""
        rhs = np.ascontiguousarray(u).view(float).reshape(self.pivots.size, -1)
        x = sla.lapack.dpttrs(self.pivots.ravel(), self._lower, rhs)[0]
        return np.ascontiguousarray(x).view(u.dtype).reshape(u.shape)


#: Most free horizontal nodes (nx'^d) a TraceSystem serves; with Dirichlet
#: sides nx <= 4098 in d = 1 and nx <= 66 in d = 2.  In d = 1 the basis Q
#: takes 8 n^2 bytes, 134 MB at the cap; the dense S and a trace solve's
#: Cholesky copy as much again each, once S is built (free values m, or a
#: Newton step).  A Newton step of k components factors one (k n)^2 array,
#: which CompetitionProblem bounds by k n <= 2 TRACE_CAP (537 MB at k = 2).
TRACE_CAP = 4096
#: rows per block wherever an n x n array is built from Q: a temporary of
#: the whole square would take as much memory as Q itself
_ROWS = 64


def _trig_basis(n: int, dx: float, sides: bool) -> tuple:
    """Ascending eigenvalues lambda of Kx' v = lambda Hx' v on n free nodes of
    spacing dx spanning P intervals, and Q = Q^T = Q^-1 (no dx), V = Hx'^-1/2 Q
    the eigenvectors, in closed form: sqrt(2 / P) sin(pi j k / P), the DST-I,
    with Dirichlet sides, else cos, the DCT-I, end rows and columns * sqrt(1/2)."""
    P = n + 1 if sides else n - 1
    k = np.arange(1, n + 1) if sides else np.arange(n)
    table = np.sqrt(2.0 / P) * (np.sin if sides else np.cos)(np.pi / P * np.arange(2 * P))
    Q = np.empty((n, n))
    for j in range(0, n, _ROWS):
        jk = np.multiply.outer(k[j:j + _ROWS], k)
        jk %= 2 * P  # the angle pi j k / P mod 2 pi, in integers, indexes the table
        # every index is in range; "clip" writes out without take's buffer
        np.take(table, jk, out=Q[j:j + _ROWS], mode="clip")
    if not sides:
        Q[[0, -1]] *= np.sqrt(0.5)
        Q[:, [0, -1]] *= np.sqrt(0.5)
    return 4.0 / (dx * dx) * np.sin(np.pi / (2 * P) * k) ** 2, Q


class TraceSystem:
    """Linear extension solves on one grid with one boundary layout, by fast
    diagonalization (Lynch, Rice and Thomas, Numer. Math. 6, 1964).

    The layout says whether the lateral walls (sides) and the trace row are
    Dirichlet; the top row always is.  The other nodes form a box, whose
    free trace nodes the engine takes as flat values in row-major order (area,
    the load's c, schur; see free_values).  Eliminating the Dirichlet nodes
    leaves the reduced operator A on the free trace t and the interior i; the
    Neumann row d_nu^a v = g0 - m v adds m * area to the t diagonal.  A is a
    Kronecker sum, Hx (x) Ky + Kx (x) Wy in d = 1 (one more Kx term in d = 2);
    per axis Kx v = lambda Hx v has the eigenvectors V = Hx^-1/2 Q, Q the
    orthonormal DST-I or DCT-I, kept with sqrt(h), h the free dual lengths.
    The modes split A_ii into tridiagonal chains in y (one ModeChains), and
    the DtN map S = A_tt - A_ti A_ii^-1 A_it is (Hx V) diag(sigma) (Hx V)^T
    with the chains' symbol sigma.  A load's b lives on the box nodes beside
    a Dirichlet face: its rows beside the top and a Dirichlet trace go through
    V^T, its side data through the first and last rows of V^T along their
    axis (times V^T along the other in d = 2).  A solve is the SPD system
    (S + diag(m area)) t = c + g0 area plus the interior A_ii^-1 b_i and its
    response to (Hx V)^T t.  A uniform m only shifts sigma and is solved in
    the modes; free values m and block_solve factor the dense S, built on
    first use.  Over TRACE_CAP free horizontal nodes is a ConfigurationError.
    """

    def __init__(self, grid: HalfSpaceGrid, sides: bool = True,
                 trace_dirichlet: bool = False):
        box = _free_block(grid, sides, trace_dirichlet)
        n_horizontal = grid.x[box[0]].size ** grid.d
        if n_horizontal > TRACE_CAP:
            raise ConfigurationError(
                f"grid has {n_horizontal} free horizontal nodes, more than the "
                f"{TRACE_CAP} the linear engine serves; with Dirichlet sides "
                f"nx <= {TRACE_CAP + 2} in d = 1 and "
                f"nx <= {int(TRACE_CAP ** 0.5) + 2} in d = 2")
        self.grid, self.layout, self._box = grid, (sides, trace_dirichlet), box
        area = trace_area(grid)[box[:-1]]
        self._trace_shape = area.shape  # of the box's trace row
        self.area = area.ravel()  # of the free trace nodes
        # A's diagonal, each node's face conductances summed in _face_flux's
        # order, and per Dirichlet face layer beside the box (the load's support,
        # in that order) the box slab, the nodes across and the conductances
        diag, self._layer = np.zeros(grid.shape), []
        for axis, (lo, hi, g) in enumerate(_faces(grid)):
            diag[lo] += g
            diag[hi] += g
            start, stop, _ = box[axis].indices(grid.shape[axis])
            for k, nb in ((stop - 1, stop), (start, start - 1)):
                if 0 <= nb < grid.shape[axis]:  # nodes across: a Dirichlet layer
                    slab, across, face = (box[:axis] + (slice(i, i + 1),) + box[axis + 1:]
                                          for i in (k, nb, min(k, nb)))
                    g_face = np.broadcast_to(g, diag[lo].shape)[face].copy()
                    self._layer.append((slab, across, g_face))
        diag = diag[box]
        self._diag = diag[..., 0].copy(), float(diag[..., 1:].max(initial=0.0))
        # per mode k one chain lambda_k Wy + Ky, its shunts laid out slot-major:
        # the top row closes the far end, rows ny-1..1 are its slots, the trace its boundary
        h = grid.x_dual[box[0]]
        self._rh = np.sqrt(h)
        lam, self._Q = _trig_basis(h.size, grid.dx, sides)
        lam = reduce(np.add.outer, [lam] * grid.d)
        gv = grid.vertical_conductance
        self._chains = ModeChains(np.moveaxis(np.multiply.outer(
            grid.y_dual_w[grid.ny - 1::-1], lam), 0, -1), gv[-2::-1], gv[-1])
        if trace_dirichlet:
            return
        sigma = self._chains.symbol
        if not np.all(sigma > 0):  # the DtN map is definite
            raise ConvergenceError("trace Schur symbol is not positive")
        self.principal_eigenvalue = float(sigma.min())  # mu of S t = mu area t
        # interior response to t, rows first like the interior values
        self._resp = np.moveaxis(self._chains.response, -1, 0)[::-1]
        # S is an M-matrix with row sums >= 0: ||S|| <= 2 max diag(S), and
        # diag(S) = h (Q^2 sigma) along each axis, Q^2 = (Q^2)^T by row blocks
        diag = sigma
        for _ in range(grid.d):
            diag = np.concatenate([diag @ np.square(self._Q[j:j + _ROWS]).T
                                   for j in range(0, h.size, _ROWS)], axis=-1)
            diag = (diag * h).swapaxes(-1, -grid.d)
        self._schur_norm = 2.0 * float(diag.max())

    @cached_property
    def schur(self) -> np.ndarray:
        """The dense S on the free trace, built when block_solve first needs it."""
        P = reduce(np.kron, [self._rh[:, None] * self._Q] * self.grid.d)
        P *= np.sqrt(self._chains.symbol.ravel())
        return P @ P.T

    def _per_axis(self, u: np.ndarray, pre=None, post=None, nodes=None) -> np.ndarray:
        """diag(post) Q diag(pre) along each of the last d axes in turn, each
        scale applied only when given: 1/sqrt(h) as pre or post gives V^T or V,
        sqrt(h) (Hx V)^T or Hx V; no area formed.  nodes[i] (all by default)
        indexes the free nodes that u holds along axis i."""
        for at in (nodes or (slice(None),) * self.grid.d)[::-1]:
            if pre is not None:
                u = u * pre[at]
            u = u @ self._Q[at]
            if post is not None:
                u *= post  # the product is a fresh array
            u = u.swapaxes(-1, -self.grid.d)  # turns d <= 2 axes
        return u

    def _to_modes(self, u: np.ndarray, nodes=None) -> np.ndarray:
        """V^T along every horizontal axis (the last d axes of u)."""
        return self._per_axis(u, pre=1.0 / self._rh, nodes=nodes)

    def _from_modes(self, u: np.ndarray) -> np.ndarray:
        """V along every horizontal axis; inverts _to_modes."""
        return self._per_axis(u, post=1.0 / self._rh)

    def _schur_apply(self, t: np.ndarray) -> np.ndarray:
        """S t for rows t of free trace values through the modes, not the
        dense S the solves factor, so a wrong S fails their gates."""
        u = self._per_axis(t.reshape(t.shape[:-1] + self._trace_shape), pre=self._rh)
        return self._per_axis(self._chains.symbol * u, post=self._rh).reshape(t.shape)

    def trace_flux(self, load: tuple, t: np.ndarray) -> np.ndarray:
        """The discrete DtN map, d_nu^a v = (S t - c) / area, of the field with
        free trace values t and the load's Dirichlet values; no solve."""
        return (self._schur_apply(t) - load[3]) / self.area

    def serves(self, grid: HalfSpaceGrid, layout: tuple) -> bool:
        """Whether this engine was built for grid, compared by value, and the
        boundary layout (sides, trace_dirichlet)."""
        g = self.grid
        return (g.params == grid.params and g.L == grid.L
                and g.shape == grid.shape and np.array_equal(g.y, grid.y)
                and self.layout == layout)

    def load(self, bdata: BoundaryData) -> tuple:
        """The Dirichlet values dvals of bdata on this layout's Dirichlet
        nodes (zero on the box), the reduced right-hand side b = -(A dvals)
        on the box, formed on its support, the interior z = A_ii^-1 b_i in
        the modes (rows first) and b condensed onto the free trace (None with
        a Dirichlet trace).  z takes V^T of b_i as the class docstring says."""
        g = self.grid
        sides, trace_dirichlet = self.layout
        dvals, b = np.zeros(g.shape), np.zeros(g.shape)
        specs = [((slice(None),) * axis + (edge,), bdata.sides)
                 for axis in range(g.d * sides) for edge in (0, -1)]
        specs.append(((..., -1), bdata.top))  # the top and trace win at corners
        if trace_dirichlet:
            specs.append(((..., 0), bdata.trace_dirichlet))
        for sl, spec in specs:
            dvals[sl] = _materialize(spec, g, sl)
        for slab, across, cond in self._layer:
            b[slab] += cond * dvals[across]
        b = b[self._box]
        rows = np.moveaxis(b[..., 1 - trace_dirichlet:], -1, 0)[::-1]
        u = np.zeros(self._chains.pivots.shape)
        slots = np.moveaxis(u, -1, 0)  # a view of u; rows and slots run far end first
        slabs = sorted({0, len(rows) - 1} if trace_dirichlet else {0})
        slots[slabs] = self._to_modes(rows[slabs])
        side, d = slice(1, len(rows) + 1 - len(slabs)), g.d
        for axis in range(d * sides):
            at = (slice(1, -1),) * axis + ([0, -1],) + (slice(None),) * (d - 1 - axis)
            slots[side] += self._to_modes(rows[side][(...,) + at], nodes=at)
        z = np.ascontiguousarray(np.moveaxis(self._chains.solve(u), -1, 0)[::-1])
        if trace_dirichlet:
            return dvals, b, z, None
        gv0 = g.vertical_conductance[0]
        c = b[..., 0].ravel() + gv0 * self._per_axis(z[0], post=self._rh).ravel()
        return dvals, b, z, c

    def free_values(self, trace: np.ndarray) -> np.ndarray:
        """The free nodes of a trace-shaped array as flat free values."""
        return trace[self._box[:-1]].ravel()

    def block_solve(self, w, off, rhs) -> np.ndarray:
        """Solve H d = rhs on the free trace nodes of k components: H has
        S + diag(w_i + off_ii) on block (i, i) and diag(off_ij) on block
        (i, j), with w, rhs and d of shape (k, n) and off of shape (k, k, n),
        symmetric in i and j.  One Cholesky factorization of H, assembled
        from the dense S (built on the first call), checked by the backward
        error of H d = rhs with S taken through the modes; raises
        LinAlgError when H is not positive definite."""
        k, n = w.shape
        H = np.zeros((k * n, k * n))
        for i in range(k):
            H[i * n:(i + 1) * n, i * n:(i + 1) * n] = self.schur
        diags = off.copy()
        diags[range(k), range(k)] += w
        nodes = np.arange(k * n).reshape(k, n)
        H[nodes[:, None], nodes] += diags
        # the Fortran-order view of the symmetric H is factored in place; NaN
        # data reaches the backward-error check
        d = sla.cho_solve(sla.cho_factor(H.T, lower=True, overwrite_a=True,
                                         check_finite=False),
                          rhs.ravel(), check_finite=False).reshape(k, n)
        r = rhs - self._schur_apply(d) - w * d - (off * d).sum(axis=1)
        a_norm = self._schur_norm + np.abs(w).max() + np.abs(off).sum(axis=1).max()
        check_backward_error("condensed trace solve", r, a_norm, d, rhs)
        return d

    def trace_solve(self, load: tuple, m, g0) -> np.ndarray:
        """Free trace values of solve(load, m, g0) for a free trace: they
        solve (S + diag(m area)) t = c + g0 area.  A scalar m only shifts the
        symbol, S + m diag(area) = (Hx'V) diag(sigma + m) (Hx'V)^T, so t is
        solved in the modes under block_solve's gate; free values m take the
        one-component block_solve.  Raises ConvergenceError when the system is
        not positive definite or fails its gate."""
        rhs = load[3] + g0 * self.area
        if np.ndim(m) == 0:
            shifted = self._chains.symbol + m
            if not np.all(shifted > 0):
                raise ConvergenceError("condensed trace solve failed: "
                                       "S + m area is not positive definite")
            t = self._from_modes(self._to_modes(rhs.reshape(self._trace_shape))
                                 / shifted).ravel()
            r = rhs - self._schur_apply(t) - m * self.area * t
            check_backward_error("condensed trace solve", r,
                                 self._schur_norm + abs(m) * self.area.max(), t, rhs)
            return t
        try:
            t = self.block_solve((m * self.area)[None],
                                 np.zeros((1, 1, rhs.size)), rhs[None])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("condensed trace solve failed") from exc
        return t[0]

    def solve(self, load: tuple, m, g0) -> np.ndarray:
        """Grid-shaped solution for a load with trace absorption m and source
        g0, scalars or free values.

        The trace is trace_solve's; the interior is the load's z plus its
        response to the trace (z with a Dirichlet trace), out of the modes.
        The field gate takes its backward error with A applied face by face,
        whose zero row sums and off-diagonals <= 0 give ||A|| <= 2 max diag.
        """
        dvals, b, z, c = load
        box, (diag, rest) = self._box, self._diag
        v = dvals.copy()
        x = v[box]  # a view: writing x writes v
        interior, modes = x, z
        if c is not None:
            t = self.trace_solve(load, m, g0)
            # d_nu^a v = g0 - m v
            absorb, ga, t = (np.reshape(u, self._trace_shape)
                             for u in (m * self.area, g0 * self.area, t))
            diag = diag + absorb
            b = b.copy()  # the load's b is kept for its next solve
            b[..., 0] += ga
            x[..., 0] = t
            interior = x[..., 1:]
            modes = self._resp * self._per_axis(t, pre=self._rh)
            modes += z
        interior[:] = np.moveaxis(self._from_modes(modes), 0, -1)
        del modes  # freed before the gate's face flux
        r = _face_flux(self.grid, v)[box]
        if c is not None:
            r[..., 0] += absorb * t - ga
        check_backward_error("linear solve", r, 2.0 * max(diag.max(), rest), x, b)
        return v


def _c_function(library, name, argtypes, restype=ctypes.c_int):
    """The C function name of the shared library at path library (None: the
    process's own symbols) with argtypes and restype; None where the library
    or the function cannot be found."""
    try:
        fn = getattr(ctypes.CDLL(library), name)
    except (OSError, TypeError, AttributeError):
        return None
    fn.argtypes, fn.restype = list(argtypes), restype
    return fn


#: the OpenBLAS builds numpy and scipy bundle: package, library pattern
#: beside it, suffix of the thread-count functions
_OPENBLAS = ((np, "numpy.libs/libscipy_openblas64_-*.so", "64_"),
             (scipy, "scipy.libs/libscipy_openblas-*.so", ""))


@cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every bundled OpenBLAS found;
    looked up on first use."""
    controls = []
    for package, pattern, suffix in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in glob.glob(os.path.join(site, pattern)):
            get = _c_function(path, "scipy_openblas_get_num_threads" + suffix, [])
            put = _c_function(path, "scipy_openblas_set_num_threads" + suffix,
                              [ctypes.c_int], None)
            if get is not None and put is not None:
                controls.append((get, put))
    return tuple(controls)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every bundled OpenBLAS on one thread, then restore
    the counts: threads cost more than they save on the dense trace systems
    (up to 1023 free nodes, 2 cores) and the hemisphere eigensolves."""
    controls = _blas_thread_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(1)
        yield
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


#: mallopt parameters of glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: glibc's DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, the ceiling of its own
#: adaptive mmap threshold
_MMAP_THRESHOLD = 32 * 2 ** 20


def _set_heap_thresholds() -> None:
    """Fix glibc's heap thresholds once, on import, at the top of its own
    adaptive range: M_MMAP_THRESHOLD at 32 MiB, where the adaptive rule stops
    on 64-bit, and M_TRIM_THRESHOLD at twice that, the ratio the rule keeps.
    The rule raises them only to the largest block freed so far, about one
    grid array, so the grid-sized temporaries every solve frees were trimmed
    from the heap and faulted back in, zero-filled, by the next solve.  Arrays
    above 32 MiB (a large dense S) still go to mmap and back to the kernel
    when freed; drop_engine trims the rest.  Does nothing where the C library
    has no mallopt (macOS, musl)."""
    mallopt = _c_function(None, "mallopt", [ctypes.c_int, ctypes.c_int])
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


_set_heap_thresholds()
_malloc_trim = _c_function(None, "malloc_trim", [ctypes.c_size_t])
_engine = None  # the last engine trace_system built


def drop_engine() -> None:
    """Empty trace_system's slot, so the last engine (its bases, chains and
    any dense S) is freed once no caller holds it, and give the heap's free
    memory back to the system (malloc_trim, where the C library has it)."""
    global _engine
    _engine = None
    if _malloc_trim is not None:
        _malloc_trim(0)


def trace_system(grid: HalfSpaceGrid, sides: bool = True,
                 trace_dirichlet: bool = False) -> TraceSystem:
    """The engine of grid and the boundary layout (sides, trace_dirichlet)
    for every linear solve: the last one when it serves them
    (TraceSystem.serves compares the grid by value), else a new one, built
    after the last is freed, so at most one is alive.  The freed memory stays
    in the heap for the new engine: it is not trimmed as drop_engine does."""
    global _engine
    layout = (sides, trace_dirichlet)
    if _engine is None or not _engine.serves(grid, layout):
        _engine = None  # freed before the next is built
        _engine = TraceSystem(grid, *layout)
    return _engine


def solve_linear(grid: HalfSpaceGrid, bdata: BoundaryData) -> Field:
    """Solve L_a v = 0 with the given boundary data.

    The bottom-row equations impose the Neumann flux through the matched
    trace stencil; with m >= 0 the reduced system is an M-matrix, so
    nonnegative data yields a nonnegative solution.  Solved by the
    trace_system of the boundary's layout, which rejects a grid above
    TRACE_CAP before any grid-shaped array is made; g0 reaches it as free
    values, and m as a scalar when it is uniform on the free trace (solved in
    the modes, with no dense S) or else as free values.
    """
    trace_dirichlet = bdata.trace_dirichlet is not None
    engine = trace_system(grid, bdata.sides is not None, trace_dirichlet)
    load = engine.load(bdata)
    m = g0 = 0.0
    if not trace_dirichlet:
        g0 = _materialize(bdata.neumann_g0, grid, (..., 0))
        m = _materialize(bdata.neumann_m, grid, (..., 0))
        if np.any(m < 0):
            raise ConfigurationError("absorption coefficient m must be >= 0")
        m, g0 = engine.free_values(m), engine.free_values(g0)
        if np.all(m == m[0]):
            m = m[0]
    return Field(grid, engine.solve(load, m, g0))


# --------------------------------------------------------------------------
# snapshots
# --------------------------------------------------------------------------

def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates 0600
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_snapshot(path: str, fields: list[Field]) -> None:
    """Serialize fields to the flat binary layout (header + row-major f64)."""
    if not fields:
        raise ValueError("nothing to write")
    grid = fields[0].grid
    header = struct.pack(
        _SNAP_HEAD, _SNAP_MAGIC, _SNAP_VERSION, grid.d, grid.nx, grid.ny,
        len(fields), grid.L, grid.Y, grid.grading_p, grid.params.s,
        grid.params.N)
    payload = b"".join(np.ascontiguousarray(f.values, dtype="<f8").tobytes()
                       for f in fields)
    atomic_write_bytes(path, header + payload)


def read_snapshot(path: str) -> list[Field]:
    """Fields from a snapshot file; ValueError if it is not a whole one."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head_size = struct.calcsize(_SNAP_HEAD)
    if len(raw) < head_size or raw[:4] != _SNAP_MAGIC:
        raise ValueError(f"{path} is not a field snapshot")
    magic, version, d, nx, ny, k, L, Y, p, s, N = struct.unpack_from(_SNAP_HEAD, raw)
    if version != _SNAP_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    n = nx ** d * (ny + 1)
    if k == 0 or len(raw) != head_size + k * n * 8:
        raise ValueError(f"{path}: payload holds {len(raw) - head_size} bytes, "
                         f"the header announces {k} fields of {n * 8}")
    grid = build_grid(GridConfig(d=d, L=L, Y=Y, nx=nx, ny=ny, grading_p=p),
                      FracParams(s=s, N=N))
    fields = []
    for ci in range(k):
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=head_size + ci * n * 8)
        fields.append(Field(grid, arr.reshape(grid.shape).copy(), component=ci))
    return fields


def snapshot_csv(fields: list[Field]) -> str:
    """Node table (coordinates plus one column per component) for small grids."""
    grid = fields[0].grid
    if grid.n_nodes > 200_000:
        raise ValueError("snapshot CSV is intended for small grids")
    coords = [np.broadcast_to(c, grid.shape).ravel()
              for c in grid_coordinates(grid)]
    names = [f"x{i}" for i in range(1, grid.d + 1)] + ["y"]
    cols = coords + [f.values.ravel() for f in fields]
    names += [f"v{f.component}" for f in fields]
    lines = [",".join(names)]
    for row in zip(*cols):
        lines.append(",".join(format(v, ".12g") for v in row))
    return "\n".join(lines) + "\n"
