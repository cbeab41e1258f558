"""Steady states of the k-component competition system in extension form.

Each component satisfies L_a v_i = 0 in the volume with the nonlinear trace
flux d_nu^a v_i = f_i(v_i) - beta v_i sum_j a_ij v_j^2.  The solver runs a
component-wise Gauss-Seidel sweep: every component solves a linear extension
problem whose absorption m(x) = beta sum a_ij v_j(x,0)^2 freezes the other
components (semi-implicit, sign-preserving) and whose source term is the
lagged reaction.  Sweeping the coupling strength beta with warm starts
produces the segregation data: trace overlaps, sup norms and Hölder
seminorms per beta.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import FracParams
from .diagnostics import trace_seminorm
from .errors import ConfigurationError, ConvergenceError
from .grid import (BoundaryData, Field, GridConfig, TraceSystem, build_grid,
                   dirichlet_data, trace_area)

REACTION_KINDS = ("zero", "linear", "logistic")
OUTER_TOL = 1e-8  # max change of the traces over one Gauss-Seidel sweep
MAX_OUTER = 500


@dataclass(frozen=True)
class Reaction:
    """Per-component reaction term: zero, linear lam*u, or logistic lam*u*(1-u)."""

    kind: str = "zero"
    lam: float = 1.0

    def __post_init__(self):
        if self.kind not in REACTION_KINDS:
            raise ConfigurationError(f"unknown reaction kind {self.kind!r}")
        if not (np.isfinite(self.lam) and abs(self.lam) <= 1e3):
            raise ConfigurationError("reaction rate must be finite and moderate")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(u)
        if self.kind == "linear":
            return self.lam * u
        return self.lam * u * (1.0 - u)


@dataclass
class CompetitionProblem:
    """Data of the k-component system on a truncated half-space grid."""

    params: FracParams
    grid_config: GridConfig
    k: int
    beta: float
    coupling: np.ndarray
    reactions: tuple
    dirichlet: tuple  # per-component value spec for top and lateral walls

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError("component count must be >= 1")
        if self.params.N != self.grid_config.d:
            raise ConfigurationError(
                f"space dimension N = {self.params.N} must equal the grid's "
                f"trace dimension d = {self.grid_config.d}")
        if self.beta < 0:
            raise ConfigurationError("beta must be nonnegative")
        c = np.asarray(self.coupling, dtype=float)
        if c.shape != (self.k, self.k):
            raise ConfigurationError("coupling matrix must be k x k")
        if not np.allclose(c, c.T):
            raise ConfigurationError("coupling matrix must be symmetric")
        if np.any(np.abs(np.diag(c)) > 0):
            raise ConfigurationError("coupling diagonal must vanish")
        off = c[~np.eye(self.k, dtype=bool)]
        if self.k > 1 and np.any(off <= 0):
            raise ConfigurationError("off-diagonal couplings must be positive")
        self.coupling = c
        if len(self.reactions) != self.k or len(self.dirichlet) != self.k:
            raise ConfigurationError("need one reaction and one boundary spec "
                                     "per component")


@dataclass
class SolveResult:
    fields: list
    residual_history: list
    outer_iters: int
    converged: bool

    @property
    def traces(self) -> list:
        return [f.trace for f in self.fields]


def bump(center: float, width: float = 0.5, height: float = 1.0):
    """Gaussian bump height * exp(-4 ((x1 - center) / width)^2) as wall data,
    a function of the node coordinates (x1[, x2], y); constant along x2."""
    def fn(x, *rest):
        t = (x - center) / width
        return height * np.exp(-4.0 * t * t) + 0.0 * rest[-1]
    return fn


def solve_system(prob: CompetitionProblem, warm_start=None,
                 engine: TraceSystem | None = None) -> SolveResult:
    """Gauss-Seidel outer iteration (ascending component index) on the k
    traces, one checked trace_solve per step, until their max-norm change
    over a sweep drops below OUTER_TOL; then each field is built once, by
    the engine's checked solve on its component's last step data.

    Nonnegative boundary data yields nonnegative fields (the frozen-neighbor
    absorption only adds to the M-matrix diagonal).  Raises ConvergenceError
    with the residual history if the sweep cap is exceeded.  engine, the
    linear engine of the same grid and walls, carries its factorization over
    from an earlier solve (sweep_beta passes one).
    """
    grid = build_grid(prob.grid_config, prob.params)
    if engine is None:
        engine = TraceSystem(grid)
    elif not engine.serves(grid, (True, False)):  # Dirichlet walls, free trace
        raise ConfigurationError("engine was built for another grid")
    loads = [engine.load(dirichlet_data(grid, BoundaryData(top=v, sides=v)))
             for v in prob.dirichlet]
    k = prob.k
    if warm_start is not None:
        if len(warm_start) != k:
            raise ConfigurationError("warm start must supply every component")
        vals = [np.asarray(f.values if isinstance(f, Field) else f, dtype=float)
                for f in warm_start]
        if any(v.shape != grid.shape for v in vals):
            raise ConfigurationError("warm start grid does not match")
        traces = [v[..., 0] for v in vals]
    else:
        traces = [np.zeros(grid.shape[:-1]) for _ in range(k)]

    history = []
    data = [None] * k  # each component's last (m, g0)
    for outer in range(1, MAX_OUTER + 1):
        change = 0.0
        for i in range(k):
            m = prob.beta * sum(prob.coupling[i, j] * traces[j] ** 2
                                for j in range(k) if j != i)
            data[i] = (m, prob.reactions[i](traces[i]))
            new = engine.trace_solve(loads[i], *data[i])
            change = max(change, float(np.abs(new - traces[i]).max()))
            traces[i] = new
        history.append(change)
        if change <= OUTER_TOL:
            break
    else:
        raise ConvergenceError(
            f"outer iteration cap {MAX_OUTER} exceeded (last change "
            f"{history[-1]:.3e})", residual=history[-1], iterations=MAX_OUTER,
            history=history)

    fields = [Field(grid, engine.solve(load, *d), component=i)
              for i, (load, d) in enumerate(zip(loads, data))]
    return SolveResult(fields=fields, residual_history=history,
                       outer_iters=outer, converged=True)


def trace_overlap(result: SolveResult) -> float:
    """Trace overlap sum_{i<j} int u_i^2 u_j^2 dx over the whole trace."""
    grid = result.fields[0].grid
    area = trace_area(grid)
    total = 0.0
    traces = result.traces
    for i in range(len(traces)):
        for j in range(i + 1, len(traces)):
            total += float(np.sum(area * traces[i] ** 2 * traces[j] ** 2))
    return total


@dataclass
class SweepRow:
    beta: float
    sup_norms: list
    overlap: float
    beta_times_overlap: float
    holder_alpha: float
    holder_seminorm: float
    outer_iters: int
    seconds: float  # solve and diagnostics; not written to the CSV


@dataclass
class BetaSweep:
    rows: list
    results: list = field(default_factory=list, repr=False)
    factorizations: int = 0  # operator factorizations (any kind) over the sweep

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def to_csv(self) -> str:
        k = len(self.rows[0].sup_norms)
        header = (["beta"] + [f"sup_norm_{i}" for i in range(k)]
                  + ["overlap", "beta_times_overlap", "holder_alpha",
                     "holder_seminorm", "outer_iters"])
        lines = [",".join(header)]
        for r in self.rows:
            cells = ([r.beta] + list(r.sup_norms)
                     + [r.overlap, r.beta_times_overlap, r.holder_alpha,
                        r.holder_seminorm, r.outer_iters])
            lines.append(",".join(format(c, ".12g") for c in cells))
        return "\n".join(lines) + "\n"


def sweep_beta(prob: CompetitionProblem, betas, holder_alpha: float,
               keep_results: bool = False) -> BetaSweep:
    """Solve along an increasing beta list, warm-starting each solve.

    Records per beta: sup norms, trace overlap, beta * overlap, and the trace
    Hölder seminorm at holder_alpha restricted to the inner half of the
    trace (|x| <= L/2).
    """
    betas = np.asarray(betas, dtype=float)
    if betas.size == 0 or np.any(np.diff(betas) <= 0):
        raise ConfigurationError("betas must be a nonempty increasing list")
    x_window = 0.5 * prob.grid_config.L
    grid = build_grid(prob.grid_config, prob.params)
    engine = TraceSystem(grid)
    rows = []
    results = []
    fields = None
    for b in betas:
        start = time.perf_counter()
        try:
            res = solve_system(replace(prob, beta=float(b)), warm_start=fields,
                               engine=engine)
        except ConvergenceError as exc:
            raise ConvergenceError(f"sweep failed at beta={b:g}: {exc}",
                                   residual=exc.residual,
                                   iterations=exc.iterations,
                                   history=exc.history) from exc
        fields = res.fields
        overlap = trace_overlap(res)
        semi = max(trace_seminorm(f, holder_alpha, x_window=x_window)
                   for f in res.fields)
        rows.append(SweepRow(
            beta=float(b),
            sup_norms=[float(np.abs(f.values).max()) for f in res.fields],
            overlap=overlap, beta_times_overlap=float(b) * overlap,
            holder_alpha=holder_alpha, holder_seminorm=semi,
            outer_iters=res.outer_iters,
            seconds=time.perf_counter() - start))
        if keep_results:
            results.append(res)
    return BetaSweep(rows=rows, results=results,
                     factorizations=engine.factorizations)
