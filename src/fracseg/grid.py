"""Finite-volume discretization of L_a = -div(y^a grad .) on a truncated half-space.

Vertex-centered conservative scheme on a tensor grid: horizontal axes span
[-L, L] with nx nodes each (trace dimension d in {1, 2}), the vertical axis
holds ny graded layers y_j = Y (j/ny)^p plus the trace row y = 0.  Face
conductances use exact cell averages of y^a; the face touching the trace is
matched to the boundary expansion v = v(.,0) + c1 y^{2s} + o(y^{2s}), which
is what makes the weighted normal derivative consistent for a != 0.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla

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
    def y_dual_len(self) -> np.ndarray:
        return np.diff(self.y_dual_edges)

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
        g = g.copy()
        g[0] = 2.0 * s * self.y[1] ** (-2.0 * s)
        return g

    @cached_property
    def node_volume(self) -> np.ndarray:
        """Plain (unweighted) dual volume of every node, grid-shaped."""
        hx = self.x_dual
        if self.d == 1:
            return hx[:, None] * self.y_dual_len[None, :]
        return hx[:, None, None] * hx[None, :, None] * self.y_dual_len[None, None, :]

    @cached_property
    def operator(self) -> sps.csr_matrix:
        return assemble_La(self)


def _pow_integral(lo, hi, a):
    """Exact integral of y^a over [lo, hi], elementwise (a > -1)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
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
    return HalfSpaceGrid(
        d=config.d, L=config.L, Y=config.Y, nx=config.nx, ny=config.ny,
        grading_p=p, params=params, x=x, y=y, face_w=face_w,
    )


@dataclass
class Field:
    """Nodal values on a HalfSpaceGrid, including the y = 0 trace row."""

    grid: HalfSpaceGrid
    values: np.ndarray
    component: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains NaN or Inf")

    @property
    def trace(self) -> np.ndarray:
        return self.values[..., 0]

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.component)


def field_from_function(grid: HalfSpaceGrid, fn, component: int = 0) -> Field:
    """Sample fn(x1[, x2], y) on the grid nodes (broadcasting arrays)."""
    coords = grid_coordinates(grid)
    vals = np.broadcast_to(np.asarray(fn(*coords), dtype=float), grid.shape)
    return Field(grid, vals.copy(), component)


def grid_coordinates(grid: HalfSpaceGrid):
    """Broadcastable node coordinate arrays (x1[, x2], y)."""
    if grid.d == 1:
        return grid.x[:, None], grid.y[None, :]
    return (grid.x[:, None, None], grid.x[None, :, None], grid.y[None, None, :])


def interpolate_field(fld: Field, *coords) -> np.ndarray:
    """Multilinear interpolation of nodal values at arbitrary points.

    coords are (x1[, x2], y) arrays of a common shape; points must lie inside
    the grid box (they are clamped to it).
    """
    grid = fld.grid
    v = fld.values
    axes = [grid.x] * grid.d + [grid.y]
    idx, frac = [], []
    for c, ax in zip(coords, axes):
        c = np.asarray(c, dtype=float)
        i = np.clip(np.searchsorted(ax, c) - 1, 0, ax.size - 2)
        idx.append(i)
        frac.append(np.clip((c - ax[i]) / (ax[i + 1] - ax[i]), 0.0, 1.0))
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


def assemble_La(grid: HalfSpaceGrid) -> sps.csr_matrix:
    """Assemble the conservative flux form of L_a over all nodes.

    Symmetric positive semidefinite; every row sums to zero, so constants are
    in the kernel.  Entry (p, q) couples face-adjacent nodes with the face
    conductance; Dirichlet conditions are applied at solve time.
    """
    shape = grid.shape
    nn = grid.n_nodes
    idx = np.arange(nn).reshape(shape)
    hx = grid.x_dual
    rows, cols, vals = [], [], []

    def add_faces(p, q, g):
        rows.append(p.ravel())
        cols.append(q.ravel())
        vals.append(-g.ravel())
        rows.append(q.ravel())
        cols.append(p.ravel())
        vals.append(-g.ravel())

    gv = grid.vertical_conductance  # per unit horizontal measure
    if grid.d == 1:
        # vertical faces
        p = idx[:, :-1]
        q = idx[:, 1:]
        g = hx[:, None] * gv[None, :]
        add_faces(p, q, g)
        # horizontal faces
        p = idx[:-1, :]
        q = idx[1:, :]
        g = np.broadcast_to(grid.y_dual_w[None, :] / grid.dx, p.shape)
        add_faces(p, q, g)
    else:
        harea = hx[:, None] * hx[None, :]
        # vertical faces
        p = idx[:, :, :-1]
        q = idx[:, :, 1:]
        g = harea[:, :, None] * gv[None, None, :]
        add_faces(p, q, g)
        # horizontal faces along axis 1
        p = idx[:-1, :, :]
        q = idx[1:, :, :]
        g = np.broadcast_to(
            hx[None, :, None] * grid.y_dual_w[None, None, :] / grid.dx, p.shape)
        add_faces(p, q, g)
        # horizontal faces along axis 2
        p = idx[:, :-1, :]
        q = idx[:, 1:, :]
        g = np.broadcast_to(
            hx[:, None, None] * grid.y_dual_w[None, None, :] / grid.dx, p.shape)
        add_faces(p, q, g)

    off = sps.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nn, nn),
    ).tocsr()
    # diagonal = minus the row sums, so constants are annihilated exactly
    diag = -np.asarray(off @ np.ones(nn))
    return (off + sps.diags(diag)).tocsr()


def apply_operator(grid: HalfSpaceGrid, fld: Field) -> np.ndarray:
    """Pointwise residual (A v) / dual-volume, grid-shaped.

    Approximates L_a v at the nodes; exactly zero on constants and on fields
    linear in a horizontal coordinate (interior rows).
    """
    r = grid.operator @ fld.values.ravel()
    return (r / grid.node_volume.ravel()).reshape(grid.shape)


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


def dirichlet_data(grid: HalfSpaceGrid, bdata: BoundaryData):
    """Dirichlet mask and value array for the full node set."""
    dmask = np.ones(grid.shape, dtype=bool)
    dmask[_free_block(grid, bdata.sides is not None,
                     bdata.trace_dirichlet is not None)] = False
    dvals = np.zeros(grid.shape)

    def put(sl, spec):
        dvals[sl] = _materialize(spec, grid, sl)

    if bdata.sides is not None:
        for axis in range(grid.d):
            for edge in (0, -1):
                sl = [slice(None)] * (grid.d + 1)
                sl[axis] = edge
                put(tuple(sl), bdata.sides)
    put((..., -1), bdata.top)
    if bdata.trace_dirichlet is not None:
        put((..., 0), bdata.trace_dirichlet)
    return dmask, dvals


def trace_area(grid: HalfSpaceGrid) -> np.ndarray:
    """Horizontal dual measure of each trace node."""
    hx = grid.x_dual
    if grid.d == 1:
        return hx.copy()
    return hx[:, None] * hx[None, :]


def _inv_sqrt_diagonal(d: np.ndarray) -> np.ndarray:
    """Symmetric Jacobi scaling; the matched trace conductance scales like
    y1^{-2s}, which would otherwise dominate both the pivoting and the
    residual norm."""
    if np.any(d <= 0):
        raise ConvergenceError("operator lost positive diagonal")
    return 1.0 / np.sqrt(d)


#: Most free horizontal nodes (nx'^d) a separable TraceSystem serves.  The
#: dense Schur complement and its Cholesky copy take 16 n^2 bytes, 268 MB at
#: the cap; above it every solve factors the sparse reduced operator.
TRACE_CAP = 4096
#: Most unknowns the sparse path factors by LU; Jacobi-scaled CG above.
SPARSE_LU_CAP = 150_000
#: Relative residual CG stops at; every solve must pass 100 times it.
SOLVE_TOL = 1e-10


class TraceSystem:
    """Linear extension solves on one grid with one boundary layout.

    The layout says whether the lateral walls (sides) and the trace row are
    Dirichlet; the top row always is.  Eliminating the Dirichlet nodes
    leaves the reduced operator A on the free trace nodes t and the interior
    nodes i.  The Neumann row d_nu^a v = g0 - m v only adds m * area to the
    t diagonal.  On the tensor grid A is a Kronecker sum,
    A = Hx (x) Ky + Kx (x) Wy in d = 1 (one more Kx term in d = 2).  Up to
    TRACE_CAP free horizontal nodes the engine diagonalizes the horizontal
    part once (Kx v = lambda Hx v; fast diagonalization), which splits A_ii
    into one tridiagonal system in y per mode.  The Schur complement
    S = A_tt - A_ti A_ii^-1 A_it, the discrete Dirichlet-to-Neumann map, is
    diagonal in the modes; each solve is the dense SPD system
    (S + diag(m area)) t = c + g0 area plus the interior A_ii^-1 b_i of the
    load corrected by its precomputed response to t.  With a Dirichlet trace
    each solve is purely spectral.  Above the cap each solve factors the
    sparse reduced operator.
    """

    def __init__(self, grid: HalfSpaceGrid, sides: bool = True,
                 trace_dirichlet: bool = False):
        self.grid, self.layout = grid, (sides, trace_dirichlet)
        block = _free_block(grid, sides, trace_dirichlet)
        free = np.zeros(grid.shape, dtype=bool)
        free[block] = True
        self.unk = np.flatnonzero(free.ravel())
        self.dir = np.flatnonzero(~free.ravel())
        A_u = grid.operator[self.unk]
        self.A_uu = A_u[:, self.unk].tocsr()
        self.A_ud = A_u[:, self.dir].tocsr()
        pos = np.full(grid.n_nodes, -1, dtype=np.int64)
        pos[self.unk] = np.arange(self.unk.size)
        rows = pos[np.arange(grid.n_nodes).reshape(grid.shape)[..., 0].ravel()]
        self.trace_free = rows >= 0  # lateral-Dirichlet corners drop out
        self.trace_rows = rows[self.trace_free]
        self.area = trace_area(grid).ravel()[self.trace_free]
        self._diag = self.A_uu.diagonal()
        self.factorizations = 0
        self.schur = None
        self._faces = None  # off-diagonal (p, q, conductance) of the operator
        if grid.x[block[0]].size ** grid.d <= TRACE_CAP:
            self._separate(block[0], sides, trace_dirichlet)

    def _separate(self, xs: slice, sides: bool, trace_dirichlet: bool) -> None:
        """Horizontal eigenbasis, per-mode factors and the Schur complement."""
        g = self.grid
        h = g.x_dual[xs]
        deg = np.full(h.size, 2.0)
        if not sides:  # zero-flux sides
            deg[[0, -1]] = 1.0
        # Kx' v = lambda Hx' v through the symmetric Hx'^-1/2 Kx' Hx'^-1/2
        lam, U = sla.eigh_tridiagonal(deg / (g.dx * h),
                                      -1.0 / (g.dx * np.sqrt(h[:-1] * h[1:])))
        self._V = U / np.sqrt(h)[:, None]  # V^T Hx' V = I
        if g.d == 2:
            lam = lam[:, None] + lam[None, :]
        # per-mode tridiagonal T_k = lambda_k Wy + Ky on the rows 1..ny-1,
        # factored from the Dirichlet top down (U D U^T).  Pivot j is
        # gv_{j-1} + rho_j, where rho_j, the conductance row j sees upward,
        # sums positive terms only: the y1^{-2s} trace conductance would
        # cancel in a bottom-up factorization and in gv0 - gv0^2 (T_k^-1)_00.
        gv, w = g.vertical_conductance, g.y_dual_w
        col = (-1,) + (1,) * g.d
        shunt = w.reshape(col) * lam
        rho = np.empty((g.ny - 1,) + lam.shape)
        rho[-1] = shunt[-2] + gv[-1]
        for j in range(g.ny - 3, -1, -1):
            rho[j] = shunt[j + 1] + gv[j + 1] * rho[j + 1] / (gv[j + 1] + rho[j + 1])
        self._piv = gv[:-1].reshape(col) + rho
        if not np.all(self._piv > 0):
            raise ConvergenceError("operator lost positive diagonal")
        self._mult = -gv[1:-1].reshape(col) / self._piv[1:]
        self._block = (g.ny - int(trace_dirichlet),) + lam.shape  # rows first
        self.factorizations += 1
        if trace_dirichlet:
            self.schur = np.zeros((0, 0))
            return
        e0 = np.zeros(rho.shape)
        e0[0] = 1.0
        self._resp = gv[0] * self._tridiag_solve(e0)  # interior response to t
        # the Dirichlet-to-Neumann symbol per mode, S = (Hx'V) diag(sigma) (Hx'V)^T
        sigma = (shunt[0] + gv[0] * rho[0] / self._piv[0]).ravel()
        if not np.all(sigma > 0):
            raise ConvergenceError("condensed trace operator is not positive")
        P = h[:, None] * self._V
        if g.d == 2:
            P = np.kron(P, P)
        P *= np.sqrt(sigma)
        self.schur = P @ P.T

    def _tridiag_solve(self, u: np.ndarray) -> np.ndarray:
        """T_k^-1 u for every mode, rows first; overwrites u."""
        mult = self._mult
        for j in range(u.shape[0] - 2, -1, -1):
            u[j] -= mult[j] * u[j + 1]
        u /= self._piv
        for j in range(1, u.shape[0]):
            u[j] -= mult[j - 1] * u[j - 1]
        return u

    def _to_modes(self, u: np.ndarray) -> np.ndarray:
        """V^T along every horizontal axis (the last d axes of u)."""
        u = u @ self._V
        return self._V.T @ u if self.grid.d == 2 else u

    def _from_modes(self, u: np.ndarray) -> np.ndarray:
        """V along every horizontal axis; inverts _to_modes."""
        u = u @ self._V.T
        return self._V @ u if self.grid.d == 2 else u

    def _interior_solve(self, rhs: np.ndarray) -> np.ndarray:
        """A_ii^-1 rhs for rows-first interior values."""
        return self._from_modes(self._tridiag_solve(self._to_modes(rhs)))

    def _on_trace(self, values) -> np.ndarray:
        return np.broadcast_to(values, self.grid.shape[:-1]).ravel()[self.trace_free]

    def serves(self, grid: HalfSpaceGrid, layout: tuple) -> bool:
        """Whether this engine was built for grid and the boundary layout
        (sides, trace_dirichlet)."""
        g = self.grid
        return (g.params == grid.params and g.L == grid.L
                and g.shape == grid.shape and np.array_equal(g.y, grid.y)
                and self.layout == layout)

    def load(self, dvals: np.ndarray) -> tuple:
        """Grid-shaped Dirichlet values dvals, their reduced right-hand side
        b and, for a separable engine, the interior z = A_ii^-1 b_i (rows
        first) and b condensed onto the free trace (else None, None)."""
        b = -(self.A_ud @ dvals.ravel()[self.dir])
        if self.schur is None:
            return dvals, b, None, None
        rows = np.moveaxis(b.reshape(self._block[1:] + self._block[:1]), -1, 0)
        rows = np.ascontiguousarray(rows)  # BLAS is 6x slower on the view
        if not self.trace_rows.size:
            return dvals, b, self._interior_solve(rows), None
        z = self._interior_solve(rows[1:])
        gv0 = self.grid.vertical_conductance[0]
        c = rows[0].ravel() + gv0 * self.area * z[0].ravel()
        return dvals, b, z, c

    def solve(self, load: tuple, m, g0) -> np.ndarray:
        """Grid-shaped solution for a load with trace absorption m and source g0.

        A separable engine solves spectrally.  Otherwise the sparse reduced
        operator is solved: by LU plus one flux-form refinement step up to
        SPARSE_LU_CAP unknowns, by Jacobi-scaled CG above.  Every solve is
        checked by the equilibrated residual of the reduced system.
        """
        n, tr = self.unk.size, self.trace_rows
        dvals, b, z, c = load
        absorb = np.zeros(n)
        absorb[tr] = self._on_trace(m) * self.area
        ga = self._on_trace(g0) * self.area
        b = b.copy()
        b[tr] += ga
        dh = _inv_sqrt_diagonal(self._diag + absorb)
        bnorm = float(np.linalg.norm(dh * b))
        if bnorm == 0.0:
            return self._field(dvals, np.zeros(n))
        info = 0
        if self.schur is not None:
            x = self._separable_solve(z, c, absorb[tr], ga)
        else:
            D = sps.diags(dh)
            As = (D @ (self.A_uu + sps.diags(absorb)) @ D).tocsr()
            if n <= SPARSE_LU_CAP:
                lu = spla.splu(As.tocsc())
                self.factorizations += 1
                xs = lu.solve(dh * b)
                xs += lu.solve(dh * self._flux_residual(dvals, dh * xs, absorb, ga))
            else:
                maxiter = int(20 * math.sqrt(n)) + 200
                xs, info = spla.cg(As, dh * b, rtol=SOLVE_TOL, atol=0.0,
                                   maxiter=maxiter)
            x = dh * xs
        res = float(np.linalg.norm(dh * (self.A_uu @ x + absorb * x - b))) / bnorm
        if info != 0:
            raise ConvergenceError(
                f"CG failed to reach tol={SOLVE_TOL} within {maxiter} iterations",
                residual=res, iterations=info)
        if not np.isfinite(res) or res > 100 * SOLVE_TOL:
            raise ConvergenceError("linear solve failed its residual check",
                                   residual=res)
        return self._field(dvals, x)

    def _flux_residual(self, dvals, x, absorb, ga) -> np.ndarray:
        """Residual of the reduced system with A applied face by face.

        On graded grids the y1^{-2s} trace conductance dwarfs the rest of
        its rows, and the rounding of the diagonal that holds it moves the
        solution by up to 1e-5 at s = 3/4.  Here each conductance multiplies
        a difference v_p - v_q, so one refinement step on this residual
        restores the accuracy the assembled matrix loses.
        """
        if self._faces is None:
            A = self.grid.operator.tocoo()
            off = A.row != A.col
            self._faces = A.row[off], A.col[off], -A.data[off]
        p, q, g = self._faces
        v = dvals.ravel().copy()
        v[self.unk] = x
        flux = np.bincount(p, weights=g * (v[p] - v[q]), minlength=v.size)
        r = -flux[self.unk] - absorb * x
        r[self.trace_rows] += ga
        return r

    def _separable_solve(self, z, c, absorb, ga) -> np.ndarray:
        """Reduced solution from the load's interior z and condensed c."""
        x = np.empty(self._block)
        if c is None:
            x[:] = z
        else:
            St = self.schur.copy()
            St.flat[::c.size + 1] += absorb
            try:
                t = sla.cho_solve(sla.cho_factor(St, overwrite_a=True), c + ga)
            except (np.linalg.LinAlgError, ValueError) as exc:  # not SPD, or NaN
                raise ConvergenceError("condensed trace solve failed") from exc
            x[0] = t.reshape(z.shape[1:])
            q = self._to_modes((self.area * t).reshape(z.shape[1:]))
            x[1:] = z + self._from_modes(self._resp * q)
        return np.moveaxis(x, 0, -1).ravel()

    def _field(self, dvals, x) -> np.ndarray:
        full = dvals.ravel().copy()
        full[self.unk] = x
        return full.reshape(self.grid.shape)


def solve_linear(grid: HalfSpaceGrid, bdata: BoundaryData) -> Field:
    """Solve L_a v = 0 with the given boundary data.

    The bottom-row equations impose the Neumann flux through the matched
    trace stencil; with m >= 0 the reduced system is an M-matrix, so
    nonnegative data yields a nonnegative solution.  Solved by a TraceSystem
    of the boundary's layout.
    """
    _, dvals = dirichlet_data(grid, bdata)
    engine = TraceSystem(grid, bdata.sides is not None,
                         bdata.trace_dirichlet is not None)
    if engine.unk.size == 0:
        return Field(grid, dvals)
    m = g0 = 0.0
    if bdata.trace_dirichlet is None:
        g0 = _materialize(bdata.neumann_g0, grid, (..., 0))
        m = _materialize(bdata.neumann_m, grid, (..., 0))
        if np.any(m < 0):
            raise ConfigurationError("absorption coefficient m must be >= 0")
    return Field(grid, engine.solve(engine.load(dvals), m, g0))


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
    if len(raw) != head_size + k * n * 8:
        raise ValueError(f"{path}: payload holds {len(raw) - head_size} bytes, "
                         f"the header announces {k * n * 8}")
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
    names = ["x1", "y"] if grid.d == 1 else ["x1", "x2", "y"]
    cols = coords + [f.values.ravel() for f in fields]
    names += [f"v{f.component}" for f in fields]
    lines = [",".join(names)]
    for row in zip(*cols):
        lines.append(",".join(format(v, ".12g") for v in row))
    return "\n".join(lines) + "\n"
