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


def dirichlet_data(grid: HalfSpaceGrid, bdata: BoundaryData):
    """Dirichlet mask and value array for the full node set."""
    dmask = np.zeros(grid.shape, dtype=bool)
    dvals = np.zeros(grid.shape)

    def put(sl, spec):
        dmask[sl] = True
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


#: Most free trace nodes a condensing TraceSystem condenses onto.  The dense
#: Schur complement and its Cholesky copy take 16 n^2 bytes, 268 MB at the
#: cap; above it every solve factors the sparse reduced operator.
TRACE_CAP = 4096


class TraceSystem:
    """Linear extension solves on one grid with one Dirichlet node set.

    Eliminating the Dirichlet nodes leaves the reduced operator A on the
    free trace nodes t and the interior nodes i.  The Neumann row
    d_nu^a v = g0 - m v only adds m * area to the t diagonal.  With
    condense (and at most TRACE_CAP free trace nodes) A_ii is factored once
    and A is condensed to the dense Schur complement
    S = A_tt - A_ti A_ii^-1 A_it, the discrete Dirichlet-to-Neumann map;
    each solve is then the dense SPD system (S + diag(m area)) t =
    c + g0 area plus an interior recovery with the cached factor.
    Otherwise each solve factors the whole reduced operator, which is
    cheaper for a one-shot solve.
    """

    def __init__(self, grid: HalfSpaceGrid, dirichlet_mask: np.ndarray,
                 condense: bool = True):
        self.grid, self.mask = grid, dirichlet_mask
        self.unk = np.flatnonzero(~dirichlet_mask.ravel())
        self.dir = np.flatnonzero(dirichlet_mask.ravel())
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
        if condense and self.trace_rows.size <= TRACE_CAP:
            self._condense()

    def _condense(self) -> None:
        tr = self.trace_rows
        self._inner = np.setdiff1d(np.arange(self.unk.size), tr)
        A_i = self.A_uu[self._inner]
        A_ii = A_i[:, self._inner]
        self._dh = _inv_sqrt_diagonal(A_ii.diagonal())
        D = sps.diags(self._dh)
        # minimum degree on A + A^T: half the fill of COLAMD on this pattern
        self._lu = spla.splu((D @ A_ii @ D).tocsc(), permc_spec="MMD_AT_PLUS_A")
        self.factorizations += 1
        self._A_it = A_i[:, tr].tocsc()
        self._A_ti = self._A_it.T.tocsr()
        S = self.A_uu[tr][:, tr].toarray()
        for j in range(0, tr.size, 16):  # column blocks bound the work space
            cols = slice(j, j + 16)
            S[:, cols] -= self._A_ti @ self._inner_solve(self._A_it[:, cols].toarray())
        self.schur = 0.5 * (S + S.T)

    def _inner_solve(self, rhs: np.ndarray) -> np.ndarray:
        """A_ii^-1 rhs through the cached equilibrated factor."""
        dh = self._dh if rhs.ndim == 1 else self._dh[:, None]
        return dh * self._lu.solve(dh * rhs)

    def _on_trace(self, values) -> np.ndarray:
        return np.broadcast_to(values, self.grid.shape[:-1]).ravel()[self.trace_free]

    def serves(self, grid: HalfSpaceGrid, dirichlet_mask: np.ndarray) -> bool:
        """Whether this engine was built for grid and dirichlet_mask."""
        g = self.grid
        return (g.params == grid.params and g.L == grid.L
                and np.array_equal(g.y, grid.y)
                and np.array_equal(self.mask, dirichlet_mask))

    def load(self, dvals: np.ndarray) -> tuple:
        """Grid-shaped Dirichlet values dvals, their reduced right-hand side
        b and, when condensed, b condensed onto the free trace (else None)."""
        b = -(self.A_ud @ dvals.ravel()[self.dir])
        if self.schur is None:
            return dvals, b, None
        c = b[self.trace_rows] - self._A_ti @ self._inner_solve(b[self._inner])
        return dvals, b, c

    def solve(self, load: tuple, m, g0, tol: float = 1e-10,
              maxiter: int | None = None, method: str = "auto") -> np.ndarray:
        """Grid-shaped solution for a load with trace absorption m and source g0.

        Uncondensed solves use sparse LU up to 150k unknowns and
        Jacobi-scaled CG above (method "direct" or "pcg" forces one).  Every
        solve is checked by the equilibrated residual of the reduced system.
        """
        n, tr = self.unk.size, self.trace_rows
        dvals, b, c = load
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
            x = np.empty(n)
            St = self.schur.copy()
            St.flat[::tr.size + 1] += absorb[tr]
            try:
                x[tr] = sla.cho_solve(sla.cho_factor(St, overwrite_a=True), c + ga)
            except (np.linalg.LinAlgError, ValueError) as exc:  # not SPD, or NaN
                raise ConvergenceError("condensed trace solve failed") from exc
            x[self._inner] = self._inner_solve(b[self._inner] - self._A_it @ x[tr])
        else:
            D = sps.diags(dh)
            As = (D @ (self.A_uu + sps.diags(absorb)) @ D).tocsr()
            if method == "auto":
                method = "direct" if n <= 150_000 else "pcg"
            if method == "direct":
                xs = spla.splu(As.tocsc()).solve(dh * b)
                self.factorizations += 1
            else:
                if maxiter is None:
                    maxiter = int(20 * math.sqrt(n)) + 200
                xs, info = spla.cg(As, dh * b, rtol=tol, atol=0.0, maxiter=maxiter)
            x = dh * xs
        res = float(np.linalg.norm(dh * (self.A_uu @ x + absorb * x - b))) / bnorm
        if info != 0:
            raise ConvergenceError(
                f"CG failed to reach tol={tol} within {maxiter} iterations",
                residual=res, iterations=info)
        if not np.isfinite(res) or res > max(tol * 100, 1e-8):
            raise ConvergenceError("linear solve failed its residual check",
                                   residual=res)
        return self._field(dvals, x)

    def _field(self, dvals, x) -> np.ndarray:
        full = dvals.ravel().copy()
        full[self.unk] = x
        return full.reshape(self.grid.shape)


def solve_linear(grid: HalfSpaceGrid, bdata: BoundaryData, tol: float = 1e-10,
                 maxiter: int | None = None, method: str = "auto") -> Field:
    """Solve L_a v = 0 with the given boundary data.

    The bottom-row equations impose the Neumann flux through the matched
    trace stencil; with m >= 0 the reduced system is an M-matrix, so
    nonnegative data yields a nonnegative solution.  A one-shot solve gains
    nothing from condensation, so it factors the reduced operator once.
    """
    dmask, dvals = dirichlet_data(grid, bdata)
    engine = TraceSystem(grid, dmask, condense=False)
    if engine.unk.size == 0:
        return Field(grid, dvals)
    m = g0 = 0.0
    if bdata.trace_dirichlet is None:
        g0 = _materialize(bdata.neumann_g0, grid, (..., 0))
        m = _materialize(bdata.neumann_m, grid, (..., 0))
        if np.any(m < 0):
            raise ConfigurationError("absorption coefficient m must be >= 0")
    return Field(grid, engine.solve(engine.load(dvals), m, g0, tol, maxiter,
                                    method))


# --------------------------------------------------------------------------
# snapshots
# --------------------------------------------------------------------------

def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
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
        "<4sIIIIIdddd", _SNAP_MAGIC, _SNAP_VERSION, grid.d, grid.nx, grid.ny,
        len(fields), grid.L, grid.Y, grid.grading_p, grid.params.s,
    ) + struct.pack("<I", grid.params.N)
    payload = b"".join(np.ascontiguousarray(f.values, dtype="<f8").tobytes()
                       for f in fields)
    atomic_write_bytes(path, header + payload)


def read_snapshot(path: str) -> list[Field]:
    with open(path, "rb") as fh:
        raw = fh.read()
    head_fmt = "<4sIIIIIdddd"
    head_size = struct.calcsize(head_fmt)
    magic, version, d, nx, ny, k, L, Y, p, s = struct.unpack_from(head_fmt, raw)
    (N,) = struct.unpack_from("<I", raw, head_size)
    if magic != _SNAP_MAGIC or version != _SNAP_VERSION:
        raise ValueError(f"{path} is not a field snapshot")
    grid = build_grid(GridConfig(d=d, L=L, Y=Y, nx=nx, ny=ny, grading_p=p),
                      FracParams(s=s, N=N))
    offset = head_size + 4
    n = grid.n_nodes
    fields = []
    for ci in range(k):
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=offset + ci * n * 8)
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
