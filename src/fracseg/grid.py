"""Finite-volume discretization of L_a = -div(y^a grad .) on a truncated half-space.

Vertex-centered conservative scheme on a tensor grid: horizontal axes span
[-L, L] with nx nodes each (trace dimension d in {1, 2}), the vertical axis
holds ny graded layers y_j = Y (j/ny)^p plus the trace row y = 0.  Face
conductances use exact cell averages of y^a; the face touching the trace is
matched to the boundary expansion v = v(.,0) + c1 y^{2s} + o(y^{2s}), which
is what makes the weighted normal derivative consistent for a != 0.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
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
        g = g.copy()
        g[0] = 2.0 * s * self.y[1] ** (-2.0 * s)
        return g

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


def field_from_function(grid: HalfSpaceGrid, fn) -> Field:
    """Sample fn(x1[, x2], y) on the grid nodes (broadcasting arrays)."""
    coords = grid_coordinates(grid)
    vals = np.broadcast_to(np.asarray(fn(*coords), dtype=float), grid.shape)
    return Field(grid, vals.copy())


def grid_coordinates(grid: HalfSpaceGrid):
    """Broadcastable node coordinate arrays (x1[, x2], y)."""
    return np.ix_(*[grid.x] * grid.d, grid.y)


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
    nn = grid.n_nodes
    idx = np.arange(nn).reshape(grid.shape)
    hx = [grid.x_dual] * grid.d
    rows, cols, vals = [], [], []

    def add_faces(axis, g):
        """Faces between nodes i and i + 1 along axis, conductance g."""
        lead = (slice(None),) * axis
        p, q = idx[lead + (slice(None, -1),)], idx[lead + (slice(1, None),)]
        g = np.broadcast_to(-g, p.shape).ravel()
        rows.extend((p.ravel(), q.ravel()))
        cols.extend((q.ravel(), p.ravel()))
        vals.extend((g, g))

    # horizontal faces: the dual measure of the other axes times y^a / dx
    for axis in range(grid.d):
        g = reduce(np.multiply.outer, hx[1:] + [grid.y_dual_w]) / grid.dx
        add_faces(axis, np.expand_dims(g, axis))
    # vertical faces: horizontal dual measure times the conductance per unit
    gv = grid.vertical_conductance
    add_faces(grid.d, reduce(np.multiply.outer, hx + [gv]))

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


def dirichlet_data(grid: HalfSpaceGrid, bdata: BoundaryData) -> np.ndarray:
    """Grid-shaped Dirichlet values: bdata on the Dirichlet nodes of its
    layout, zero on the free box."""
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
    return dvals


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
    TraceSystem and the hemisphere solver.  shunt (*modes, n + 1) ties each
    slot to zero, cond (broadcastable to (*modes, n)) joins slot i to i + 1
    and closure ties slot 0, the far end, to zero; T acts on slots 0..n-1.
    Factored from the far end, rho_i = shunt_i + c (rho / (c + rho)) with the
    c and rho of slot i - 1 (rho_0 = shunt_0 + closure) gives the pivots
    cond_i + rho_i and the boundary's Schur symbol rho_n; the quotient comes
    first because the product c rho underflows at extreme grid scales.
    Every term is positive, while the closed form cond - cond^2 (T^-1)_{n-1,n-1} and a
    factorization from the near end subtract nearly equal numbers: they lose
    the symbol's digits under the y1^{-2s} trace conductance (1e12 at
    s = 3/4) and at the hemisphere's small mode-0 symbol.
    """

    def __init__(self, shunt: np.ndarray, cond, closure):
        cond = np.broadcast_to(cond, shunt[..., 1:].shape)
        rho = np.empty(shunt.shape)
        rho[..., 0] = shunt[..., 0] + closure
        for i in range(1, rho.shape[-1]):
            c, r = cond[..., i - 1], rho[..., i - 1]
            rho[..., i] = shunt[..., i] + c * (r / (c + r))
        if not np.all(rho > 0):
            raise ConvergenceError("mode chains are not positive definite")
        self.pivots = cond + rho[..., :-1]
        self.symbol = rho[..., -1]
        # T = L diag(pivots) L^T with the modes' chains stacked far end first,
        # the layout of LAPACK's ?pttrs; L's subdiagonal is 0 between modes
        lower = np.zeros(self.pivots.shape)
        lower[..., :-1] = -cond[..., :-1] / self.pivots[..., :-1]
        self._lower = lower.ravel()[:-1]
        unit = np.zeros(self.pivots.shape)
        unit[..., -1] = cond[..., -1]
        self.response = self.solve(unit)  # T^-1 of a unit boundary value

    def solve(self, u: np.ndarray) -> np.ndarray:
        """T^-1 u for every mode; u has the pivots' shape and is real or
        complex (its real and imaginary parts are two right-hand sides)."""
        rhs = np.ascontiguousarray(u).view(float).reshape(self.pivots.size, -1)
        x = sla.lapack.dpttrs(self.pivots.ravel(), self._lower, rhs)[0]
        return np.ascontiguousarray(x).view(u.dtype).reshape(u.shape)


#: Most free horizontal nodes (nx'^d) a TraceSystem serves; with Dirichlet
#: sides nx <= 4098 in d = 1 and nx <= 66 in d = 2.  The dense Schur
#: complement and a trace solve's Cholesky copy take 16 n^2 bytes, 268 MB at
#: the cap (in d = 1 the bases V and Hx'V as much again); a Newton step of k
#: components factors one (k n)^2 array, 4 n^2 at k = 2 and 9 n^2 (1.2 GB at
#: the cap) at k = 3.
TRACE_CAP = 4096


class TraceSystem:
    """Linear extension solves on one grid with one boundary layout.

    The layout says whether the lateral walls (sides) and the trace row are
    Dirichlet; the top row always is.  The other nodes form a box, and the
    engine works on grid-shaped arrays restricted to it.  Eliminating the
    Dirichlet nodes leaves the reduced operator A on the box: the free trace
    nodes t and the interior nodes i.  The Neumann row d_nu^a v = g0 - m v
    only adds m * area to the t diagonal.  On the tensor grid A is a
    Kronecker sum, A = Hx (x) Ky + Kx (x) Wy in d = 1 (one more Kx term in
    d = 2).  The engine diagonalizes the horizontal part once
    (Kx v = lambda Hx v; fast diagonalization), which splits A_ii into one
    tridiagonal chain in y per mode, all held by one ModeChains.  The Schur
    complement S = A_tt - A_ti A_ii^-1 A_it, the discrete Dirichlet-to-Neumann
    map, is diagonal in the modes with the chains' symbol; each solve is the
    dense SPD system (S + diag(m area)) t = c + g0 area plus the interior
    A_ii^-1 b_i of the load corrected by its precomputed response to t.
    With a Dirichlet trace each solve is purely spectral.  A grid with more
    than TRACE_CAP free horizontal nodes is a ConfigurationError.
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
        self.area = trace_area(grid)[box[:-1]]  # of the free trace nodes
        self._diag = grid.operator.diagonal().reshape(grid.shape)[box]
        self._separate(box[0], sides, trace_dirichlet)

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
        lam = np.maximum(lam, 0.0)  # zero-flux lambda_0 carries a round-off sign
        self._V = U / np.sqrt(h)[:, None]  # V^T Hx' V = I
        lam = reduce(np.add.outer, [lam] * g.d)
        # per mode k one chain lambda_k Wy + Ky: the top Dirichlet row closes
        # the far end, rows ny-1..1 are its slots and the trace row its boundary
        gv = g.vertical_conductance
        self._chains = ModeChains(np.multiply.outer(lam, g.y_dual_w[g.ny - 1::-1]),
                                  gv[-2::-1], gv[-1])
        if trace_dirichlet:
            self.schur = np.zeros((0, 0))
            return
        # interior response to t, rows first like the interior values
        self._resp = np.moveaxis(self._chains.response, -1, 0)[::-1]
        # the DtN map, S = (Hx'V) diag(sigma) (Hx'V)^T, is an M-matrix with
        # row sums >= 0: ||S|| <= 2 max diag(S)
        self._hV = h[:, None] * self._V
        P = reduce(np.kron, [self._hV] * g.d) * np.sqrt(self._chains.symbol.ravel())
        self.schur = P @ P.T
        self._schur_norm = 2.0 * float(np.einsum("ij,ij->i", P, P).max())

    def _to_modes(self, u: np.ndarray) -> np.ndarray:
        """V^T along every horizontal axis (the last d axes of u)."""
        u = u @ self._V
        return self._V.T @ u if self.grid.d == 2 else u

    def _from_modes(self, u: np.ndarray) -> np.ndarray:
        """V along every horizontal axis; inverts _to_modes."""
        u = u @ self._V.T
        return self._V @ u if self.grid.d == 2 else u

    def _schur_apply(self, t: np.ndarray) -> np.ndarray:
        """S t for rows t of free trace values through the modes, not the
        dense S the solves factor, so a wrong S fails their gates; Hx'V per
        axis never forms the tiny trace area of an extreme grid."""
        if self.grid.d == 1:
            return (self._chains.symbol * (t @ self._hV)) @ self._hV.T
        u = self._hV.T @ t.reshape(t.shape[:-1] + self.area.shape) @ self._hV
        return (self._hV @ (self._chains.symbol * u) @ self._hV.T).reshape(t.shape)

    def _interior_solve(self, rhs: np.ndarray) -> np.ndarray:
        """A_ii^-1 rhs for rows-first interior values (row 1 first); the
        chains hold the modes first and the far end first."""
        u = self._chains.solve(np.moveaxis(self._to_modes(rhs)[::-1], 0, -1))
        return self._from_modes(np.moveaxis(u, -1, 0)[::-1])

    def serves(self, grid: HalfSpaceGrid, layout: tuple) -> bool:
        """Whether this engine was built for grid and the boundary layout
        (sides, trace_dirichlet)."""
        g = self.grid
        return (g.params == grid.params and g.L == grid.L
                and g.shape == grid.shape and np.array_equal(g.y, grid.y)
                and self.layout == layout)

    def load(self, dvals: np.ndarray) -> tuple:
        """Grid-shaped Dirichlet values dvals (zero on the box), the reduced
        right-hand side b = -(A dvals) on the box, the interior
        z = A_ii^-1 b_i (rows first) and b condensed onto the free trace
        (None with a Dirichlet trace)."""
        g = self.grid
        b = -(g.operator @ dvals.ravel()).reshape(g.shape)[self._box]
        rows = np.moveaxis(b, -1, 0)
        rows = np.ascontiguousarray(rows)  # BLAS is 6x slower on the view
        if self.layout[1]:
            return dvals, b, self._interior_solve(rows), None
        z = self._interior_solve(rows[1:])
        gv0 = g.vertical_conductance[0]
        c = (rows[0] + gv0 * self.area * z[0]).ravel()
        return dvals, b, z, c

    def _on_trace(self, value) -> np.ndarray:
        """value (a scalar or trace-shaped) times area on the free trace nodes."""
        return np.broadcast_to(value, self.grid.shape[:-1])[self._box[:-1]] * self.area

    def block_solve(self, w, off, rhs) -> np.ndarray:
        """Solve H d = rhs on the free trace nodes of k components: H has
        S + diag(w_i + off_ii) on block (i, i) and diag(off_ij) on block
        (i, j), with w, rhs and d of shape (k, n) and off of shape (k, k, n),
        symmetric in i and j.  One Cholesky factorization, checked by the
        backward error of H d = rhs with S taken through the modes; raises
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
        """Trace row of solve(load, m, g0): the free nodes solve
        (S + diag(m area)) t = c + g0 area, the one-component block_solve;
        Dirichlet nodes keep the load."""
        dvals, _, _, c = load
        trace = dvals[..., 0].copy()
        if c is None:
            return trace
        try:
            t = self.block_solve(self._on_trace(m).reshape(1, -1),
                                 np.zeros((1, 1, c.size)),
                                 (c + self._on_trace(g0).ravel())[None])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("condensed trace solve failed") from exc
        trace[self._box[:-1]] = t.reshape(self.area.shape)
        return trace

    def free_nodes(self) -> tuple:
        """Index of the free trace nodes in a trace-shaped array; area, the
        load's c and schur list them in the row-major order of this index."""
        return self._box[:-1]

    def solve(self, load: tuple, m, g0) -> np.ndarray:
        """Grid-shaped solution for a load with trace absorption m and source g0.

        The trace is trace_solve's; the interior is the load's z plus its
        response to the trace.  With a Dirichlet trace the solution is z.
        The field gate takes its backward error through the assembled operator,
        whose zero row sums and off-diagonals <= 0 give ||A|| <= 2 max diag.
        """
        dvals, b, z, c = load
        box, diag, b = self._box, self._diag.copy(), b.copy()
        v = dvals.copy()
        x = v[box]  # a view: writing x writes v
        if c is None:
            x[:] = np.moveaxis(z, 0, -1)
        else:
            t = self.trace_solve(load, m, g0)[box[:-1]]
            absorb, ga = self._on_trace(m), self._on_trace(g0)  # d_nu^a v = g0 - m v
            diag[..., 0] += absorb
            b[..., 0] += ga
            x[..., 0] = t
            q = self._to_modes(self.area * t)
            interior = z + self._from_modes(self._resp * q)
            x[..., 1:] = np.moveaxis(interior, 0, -1)
        r = (self.grid.operator @ v.ravel()).reshape(self.grid.shape)[box]
        if c is not None:
            r[..., 0] += absorb * t - ga
        check_backward_error("linear solve", r, 2.0 * diag.max(), x, b)
        return v


def solve_linear(grid: HalfSpaceGrid, bdata: BoundaryData) -> Field:
    """Solve L_a v = 0 with the given boundary data.

    The bottom-row equations impose the Neumann flux through the matched
    trace stencil; with m >= 0 the reduced system is an M-matrix, so
    nonnegative data yields a nonnegative solution.  Solved by a TraceSystem
    of the boundary's layout on its free box, which rejects a grid above
    TRACE_CAP before any grid-shaped array is made.
    """
    engine = TraceSystem(grid, bdata.sides is not None,
                         bdata.trace_dirichlet is not None)
    dvals = dirichlet_data(grid, bdata)
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
    names = [f"x{i}" for i in range(1, grid.d + 1)] + ["y"]
    cols = coords + [f.values.ravel() for f in fields]
    names += [f"v{f.component}" for f in fields]
    lines = [",".join(names)]
    for row in zip(*cols):
        lines.append(",".join(format(v, ".12g") for v in row))
    return "\n".join(lines) + "\n"
