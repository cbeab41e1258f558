"""Steady states of the k-component competition system in extension form.

Each component satisfies L_a v_i = 0 in the volume with the nonlinear trace
flux d_nu^a v_i = f_i(v_i) - beta v_i sum_j a_ij v_j^2.  Condensed onto the
free trace nodes (S the engine's Dirichlet-to-Neumann Schur complement) the
system reads F_i(t) = S t_i - c_i + area (beta t_i sum_j a_ij t_j^2 - f_i(t_i))
= 0, the gradient of the energy

    E(t) = sum_i (t_i^T S t_i / 2 - c_i^T t_i - area . Phi_i(t_i))
           + beta/2 sum_{i<j} a_ij sum area t_i^2 t_j^2,    Phi_i' = f_i.

For every k the solver takes damped Newton steps on E (Armijo backtracking
on E itself); a Gauss-Seidel sweep is the fallback step: every component
solves its linear extension problem with the absorption m = beta sum_j
a_ij t_j^2 of the other components frozen and its reaction f(u) = c1 u +
c2 u^2 (a row of `CompetitionProblem.reactions`) lagged, as the absorption
-c2 u+ with the source c1 u+ (u+ = max(u, 0)) where c2 < 0 < c1, so that
each sweep is an M-matrix solve with nonnegative data, and as the source
f(u) otherwise.
Sweeping the coupling strength beta with warm starts produces the segregation
data: trace overlaps, sup norms and Hölder seminorms per beta.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .core import FracParams
from .diagnostics import trace_seminorm
from .errors import ConfigurationError, ConvergenceError
from .grid import (TRACE_CAP, BoundaryData, Field, GridConfig, build_grid,
                   one_blas_thread, trace_area, trace_system)

#: stop at a full Newton correction of at most this times max(1, the traces'
#: max norm) (_tolerance)
OUTER_TOL = 1e-8
MAX_OUTER = 500
ARMIJO = 1e-4  # sufficient decrease: E falls by this share of the slope
MAX_HALVINGS = 30  # of the Newton step length before the fallback step


# The reaction f(u) = c1 u + c2 u^2, its slope and the change of its primitive
# Phi (Phi' = f) free of the cancellation in Phi(u + du) - Phi(u) at small du,
# for the coefficients R = (c1, c2) stacked to broadcast against u.
def _reaction(R, u):
    return u * (R[0] + R[1] * u)


def _reaction_slope(R, u):
    return R[0] + 2.0 * R[1] * u


def _primitive_change(R, u, du):
    v = u + du  # c1 du (u + du/2) + c2 du (u^2 + uv + v^2) / 3
    return R[0] * (du * (u + 0.5 * du)) + R[1] * (du * (u * u + u * v + v * v) / 3.0)


@dataclass
class CompetitionProblem:
    """Data of the k-component system on a truncated half-space grid."""

    params: FracParams
    grid_config: GridConfig
    k: int
    beta: float
    coupling: np.ndarray
    reactions: np.ndarray  # (k, 2): (c1, c2) of f_i(u) = c1 u + c2 u^2
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
        self.coupling = 0.5 * (c + c.T)  # E needs an exactly symmetric one
        r = np.asarray(self.reactions, dtype=float)
        if r.shape != (self.k, 2) or len(self.dirichlet) != self.k:
            raise ConfigurationError("need one reaction (c1, c2) and one "
                                     "boundary spec per component")
        if not (np.all(np.isfinite(r)) and np.all(np.abs(r) <= 1e3)):
            raise ConfigurationError("reaction coefficients must be finite "
                                     "and moderate (|c| <= 1e3)")
        self.reactions = r
        # the Newton Hessian is dense (k n)^2; n above the cap the engine rejects
        n = (self.grid_config.nx - 2) ** self.grid_config.d  # Dirichlet walls
        if self.k * n > 2 * TRACE_CAP >= 2 * n:
            raise ConfigurationError(
                f"{self.k} components of {n} free trace nodes make {self.k * n} "
                f"Newton unknowns, more than the {2 * TRACE_CAP} it serves")


@dataclass
class SolveResult:
    fields: list
    residual_history: list
    outer_iters: int
    steps: dict  # outer steps: newton_steps (full), damped_steps, fallback_sweeps
    tol: float  # the last step's stop tolerance, _tolerance of its start


def bump(center: float, width: float = 0.5, height: float = 1.0):
    """Gaussian bump height * exp(-4 ((x1 - center) / width)^2) as wall data,
    a function of the node coordinates (x1[, x2], y); constant along x2."""
    def fn(x, *rest):
        t = (x - center) / width
        return height * np.exp(-4.0 * t * t) + 0.0 * rest[-1]
    return fn


def _tolerance(X) -> float:
    """The outer loop's stop: a full Newton correction of at most OUTER_TOL
    times max(1, ||X||_inf), scale-free for traces above 1."""
    return OUTER_TOL * max(1.0, float(np.abs(X).max()))


def _growth_rates(engine, R) -> str:
    """Why a run may not settle: each component's linear rate c1 against the
    principal eigenvalue mu of S t = mu area t.  c1 >= mu leaves no bounded
    positive state only for k = 1 or beta = 0 (Sattinger 1972); the other
    components' absorption can lift a component's eigenvalue above its c1.
    Where some c2 > 0 the quadratic rates are named too: a superlinear
    source can blow up from large data, whatever c1."""
    text = (f"growth rates c1 = {R[0, :, 0].tolist()} against "
            f"mu = min sigma = {engine.principal_eigenvalue:.6g}")
    if np.any(R[1] > 0):
        text += (f"; quadratic rates c2 = {R[1, :, 0].tolist()}: a source "
                 "c2 u^2 with c2 > 0 can blow up")
    return text


def _gauss_seidel(engine, prob, R, loads, X):
    """One Gauss-Seidel sweep (ascending component index) over the free
    trace values X, in place: per component one checked trace_solve with the
    others' absorption frozen and the reaction lagged (module docstring).
    Returns the max change; raises ConvergenceError when the lagged data are
    no longer finite (the iterates diverged)."""
    change = 0.0
    for i in range(prob.k):
        m = prob.beta * (prob.coupling[i] @ X ** 2)
        c1, c2 = R[:, i, 0]
        if c2 < 0 < c1:
            pos = np.maximum(X[i], 0.0)
            m, source = m - c2 * pos, c1 * pos
        else:
            source = _reaction(R[:, i], X[i])
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(source))):
            raise ConvergenceError("fallback sweep diverged: its lagged data "
                                   "are not finite", residual=float("inf"))
        new = engine.trace_solve(loads[i], m, source)
        change = max(change, float(np.abs(new - X[i]).max()))
        X[i] = new
    return change


def _newton_step(engine, prob, R, X, c, tol):
    """One damped Newton step on E: the new free trace values, the max norm
    of the full correction J^-1 F and whether the step was shortened (never
    when that norm is at most tol); None when the Hessian is not positive
    definite or the backtracking gives up."""
    S, area, C = engine.schur, engine.area, prob.beta * prob.coupling
    SXc = X @ S - c  # rows S t_i - c_i (S is symmetric)
    Q = X * X
    CQ = C @ Q
    F = SXc + area * (X * CQ - _reaction(R, X))
    W = area * (CQ - _reaction_slope(R, X))
    try:
        D = engine.block_solve(W, 2.0 * C[..., None] * (area * X)[:, None] * X, -F)
    except np.linalg.LinAlgError:
        return None
    size = float(np.abs(D).max())
    if size <= tol:
        return X + D, size, False
    slope, lin = float(np.sum(F * D)), float(np.sum(SXc * D))
    quad = 0.5 * float(np.sum((D @ S) * D))
    alpha = 1.0
    for _ in range(MAX_HALVINGS):
        step = alpha * D
        dQ = step * (2.0 * X + step)  # (X + step)^2 - Q, to its digits
        change = (alpha * lin + alpha * alpha * quad
                  - float(np.sum(_primitive_change(R, X, step) @ area))
                  + 0.25 * float(np.sum(area * dQ * (C @ (2.0 * Q + dQ)))))
        if change <= ARMIJO * alpha * slope:
            return X + step, size, alpha < 1.0
        alpha *= 0.5
    return None


def solve_system(prob: CompetitionProblem, warm_start=None) -> SolveResult:
    """Minimize E on the free trace values, then build each field once, by
    the engine's checked solve with its component's absorption and reaction
    at the final traces.  The engine is grid.trace_system's, so solves on
    equal grids (a beta sweep) share one set-up; warm_start, the fields of
    an earlier solve on the grid, gives the first traces.

    Every outer step is one damped Newton step whose linear solve is checked
    on its own Hessian system, or a Gauss-Seidel sweep of checked trace_solve
    calls when the Hessian is not positive definite or the backtracking gives
    up.  The loop stops at a full Newton correction of at most
    _tolerance(X), which bounds the error to second order, or at a fallback
    sweep that leaves X exactly unchanged: X is then a Gauss-Seidel fixed
    point, each component the solution of its own gated trace equation.
    The loop runs with the bundled BLAS on one thread; the dense S its
    steps factor is built before it, with the default threads.

    Nonnegative boundary data yields nonnegative fields (the frozen-neighbor
    absorption only adds to the M-matrix diagonal).  Raises ConvergenceError
    with the per-step history (Newton correction or sweep change) when
    MAX_OUTER steps do not converge or when a step fails (the history then
    ends with the failed step's residual: inf for a fallback sweep whose data
    overflow), its message naming each c1 against mu and any c2 > 0
    (_growth_rates), or when a field fails its gate.
    """
    grid = build_grid(prob.grid_config, prob.params)
    engine = trace_system(grid)  # Dirichlet walls, free trace
    loads = [engine.load(BoundaryData(top=v, sides=v)) for v in prob.dirichlet]
    k = prob.k
    if warm_start is not None:
        if len(warm_start) != k:
            raise ConfigurationError("warm start must supply every component")
        if any(f.grid.shape != grid.shape for f in warm_start):
            raise ConfigurationError("warm start grid does not match")
        X = np.array([engine.free_values(f.trace) for f in warm_start])
    else:
        X = np.zeros((k, engine.area.size))
    c = np.array([load[3] for load in loads])
    R = prob.reactions.T[..., None]  # (2, k, 1)
    history = []
    steps = dict.fromkeys(("newton_steps", "damped_steps", "fallback_sweeps"), 0)
    engine.schur  # the Newton steps' dense S, built with the default BLAS threads
    # a fallback sweep whose iterates overflow is caught as diverged
    with one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        for outer in range(1, MAX_OUTER + 1):
            tol = _tolerance(X)
            try:
                step = _newton_step(engine, prob, R, X, c, tol)
                if step is None:
                    change = _gauss_seidel(engine, prob, R, loads, X)
                    kind, done = "fallback_sweeps", change == 0.0
                else:
                    X, change, damped = step
                    kind = "damped_steps" if damped else "newton_steps"
                    done = change <= tol
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"outer step {outer}: {exc}; {_growth_rates(engine, R)}",
                    residual=exc.residual, iterations=outer,
                    history=history + [exc.residual]) from exc
            history.append(change)
            steps[kind] += 1
            if done:
                break
        else:
            raise ConvergenceError(
                f"outer iteration cap {MAX_OUTER} exceeded (last step "
                f"{history[-1]:.3e}); {_growth_rates(engine, R)}",
                residual=history[-1], iterations=MAX_OUTER, history=history)
        fields, source = [], _reaction(R, X)
        for i, load in enumerate(loads):
            m = prob.beta * (prob.coupling[i] @ X ** 2)
            try:
                v = engine.solve(load, m, source[i])
            except ConvergenceError as exc:  # the field gate
                raise ConvergenceError(str(exc), residual=exc.residual,
                                       iterations=outer, history=history) from exc
            fields.append(Field(grid, v))
    return SolveResult(fields=fields, residual_history=history,
                       outer_iters=outer, steps=steps, tol=tol)


def trace_overlap(result: SolveResult) -> float:
    """Trace overlap sum_{i<j} int u_i^2 u_j^2 dx over the whole trace."""
    area = trace_area(result.fields[0].grid)
    total = 0.0
    traces = [f.trace for f in result.fields]
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
    steps: dict  # SolveResult.steps; not written to the CSV


def sweep_beta(prob: CompetitionProblem, betas, holder_alpha: float) -> list:
    """Solve along an increasing beta list, warm-starting each solve.

    Returns one SweepRow per beta: sup norms, trace overlap, beta * overlap,
    and the exact trace Hölder seminorm at holder_alpha restricted to the
    inner half of the trace (|x| <= L/2).  Every beta's solve_system gets the
    same engine from grid.trace_system, so the operator is set up once; the
    solved fields are not kept (callers that need them run solve_system).
    """
    betas = np.asarray(betas, dtype=float)
    if betas.size == 0 or np.any(np.diff(betas) <= 0):
        raise ConfigurationError("betas must be a nonempty increasing list")
    x_window = 0.5 * prob.grid_config.L
    rows = []
    fields = None
    for b in betas:
        start = time.perf_counter()
        try:
            res = solve_system(replace(prob, beta=float(b)), warm_start=fields)
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
            seconds=time.perf_counter() - start, steps=res.steps))
    return rows
