"""The acceptance suite: every release criterion as an executable check.

Each check returns a CheckResult with the measured value, its threshold and
the pass verdict; run_all executes the full list and times each check.  The
quick mode reduces resolutions and doubles tolerances, keeping the same pass
contract.  These functions are the single source of truth for both the CLI
`verify` subcommand and the pytest acceptance module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (FracParams, NamedSolution, eval_solution, gamma_inverse,
                   gamma_map)
from .diagnostics import (acf_one_phase, almgren, log_derivative_residual,
                          monotonicity_check, pohozaev_residual)
from .grid import (BoundaryData, Field, GridConfig, TraceSystem, build_grid,
                   dirichlet_data, dtn_trace, field_from_function,
                   solve_linear)
from .spectral import (ComparisonProfile, PeriodicGrid1D, comparison_pv,
                       frac_lap_pv, frac_lap_symbol)
from .sphere import (EquatorRegion, HemisphereMesh, lambda1, lambda1_codim1,
                     nu_acf_caps)
from .system import CompetitionProblem, Reaction, bump, sweep_beta

S_GRID = (0.25, 0.5, 0.75)

#: empirically calibrated discrete-monotonicity ceiling for the solved
#: vanishing-trace profile at the baseline resolution (criterion 6)
SOLVED_ACF_MONOTONICITY_TOL = 0.02


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""
    seconds: float = 0.0

    def row(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"[{mark}] {self.name}: value={self.value:.4g} "
                f"threshold={self.threshold:.4g} ({self.seconds:.1f}s) {self.detail}")


def _tol(base: float, quick: bool) -> float:
    return 2.0 * base if quick else base


def explicit_field(grid, sol: NamedSolution):
    """Sample a named solution on a d=1 grid."""
    def fn(x, y):
        pts = np.stack(np.broadcast_arrays(x, y), axis=-1)
        return eval_solution(sol, pts)
    return field_from_function(grid, fn)


def _diag_grid(s: float, nx: int):
    """Uniform-grading grid used for quadrature on explicit profiles."""
    p = FracParams(s=s, N=1)
    return build_grid(GridConfig(d=1, L=0.8, Y=0.8, nx=nx + 1, ny=nx,
                                 grading_p=1.0), p), p


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def check_gamma_landmarks(quick: bool = False) -> CheckResult:
    """1. homogeneity-map landmarks and round trips."""
    worst = 0.0
    for s in S_GRID:
        for N in (1, 2, 3):
            p = FracParams(s=s, N=N)
            worst = max(worst, abs(gamma_map(2.0 * s * N, p) / (2.0 * s) - 1.0))
            # the map's range starts at gamma(0) = max(0, 2s - N)
            for g in gamma_map(0.0, p) + np.linspace(0.0, 4.0, 17):
                back = gamma_map(gamma_inverse(g, p), p)
                worst = max(worst, abs(back - g) / max(g, 1e-30) if g else abs(back))
    return CheckResult("gamma landmarks", worst, 1e-10, worst <= 1e-10)


def _dtn_amplitudes(s: float, nx: int, ny: int) -> dict:
    """DtN amplitude of cos(kx) for k = 1, 2, 4: the load and solve calls
    solve_linear makes, on one engine for the three trace data."""
    p = FracParams(s=s, N=1)
    g = build_grid(GridConfig(d=1, L=math.pi, Y=6.0, nx=nx, ny=ny), p)
    engine = TraceSystem(g, sides=False, trace_dirichlet=True)
    amps = {}
    for k in (1, 2, 4):
        bd = BoundaryData(top=0.0, sides=None,
                          trace_dirichlet=lambda x, y: np.cos(k * x))
        fld = Field(g, engine.solve(engine.load(dirichlet_data(g, bd)), 0.0, 0.0))
        tau = dtn_trace(g, fld)
        c = np.cos(k * g.x)
        amps[k] = float(tau @ c / (c @ c))
    return amps


def check_dtn_symbol(quick: bool = False) -> CheckResult:
    """2. DtN of cos(kx) scales like k^{2s} (ratio test) and equals d_s k^{2s}
    with the extension's constant d_s = 2^{1-2s} G(1-s) / G(s) (absolute
    test); both under the same threshold."""
    nx, ny = (256, 128) if quick else (512, 256)
    tol = _tol(0.03, quick)
    worst = 0.0
    detail = []
    for s in S_GRID:
        amps = _dtn_amplitudes(s, nx, ny)
        for (ka, kb) in ((2, 1), (4, 2), (4, 1)):
            err = abs(amps[ka] / amps[kb] / (ka / kb) ** (2.0 * s) - 1.0)
            worst = max(worst, err)
        d_s = 2.0 ** (1.0 - 2.0 * s) * math.gamma(1.0 - s) / math.gamma(s)
        for k, amp in amps.items():
            worst = max(worst, abs(amp / (d_s * k ** (2.0 * s)) - 1.0))
        detail.append(f"s={s}: c_dtn/d_s={amps[1] / d_s:.5f}")
    return CheckResult("dtn symbol", worst, tol, worst <= tol,
                       detail="; ".join(detail))


def check_hemisphere_landmarks(quick: bool = False) -> CheckResult:
    """3. hemisphere eigenvalue landmarks, refinement rate, codim-1 value."""
    nt, nph = (32, 64) if quick else (64, 128)
    tol = _tol(0.02, quick)
    worst = 0.0
    for s in S_GRID:
        p = FracParams(s=s, N=2)
        mesh = HemisphereMesh(params=p, ntheta=nt, nphi=nph)
        lam_e, _ = lambda1(mesh, EquatorRegion.empty(2))
        lam_h, _ = lambda1(mesh, EquatorRegion.half(2))
        worst = max(worst, abs(lam_e / (4.0 * s) - 1.0),
                    abs(lam_h / (s * (2.0 - s)) - 1.0))
    if worst > tol:
        return CheckResult("hemisphere landmarks", worst, tol, False)

    # refinement rate on the empty-region landmark
    p = FracParams(s=0.5, N=2)
    e1 = abs(lambda1(HemisphereMesh(params=p, ntheta=nt, nphi=nph),
                     EquatorRegion.empty(2))[0] - 2.0)
    e2 = abs(lambda1(HemisphereMesh(params=p, ntheta=2 * nt, nphi=2 * nph),
                     EquatorRegion.empty(2))[0] - 2.0)
    ratio = e1 / max(e2, 1e-300)
    if ratio < 1.8:
        return CheckResult("hemisphere refinement", ratio, 1.8, False)

    p = FracParams(s=0.75, N=2)
    cmesh = HemisphereMesh(params=p, ntheta=64 if quick else 128,
                           nphi=512 if quick else 1024)
    lam = lambda1_codim1(cmesh)
    err = abs(lam / 0.5 - 1.0)
    ctol = _tol(0.05, quick)
    return CheckResult("hemisphere landmarks", max(worst, err),
                       max(tol, ctol), err <= ctol,
                       detail=f"codim1 lam={lam:.4f} (refine ratio {ratio:.2f})")


def check_nu_acf_scan(quick: bool = False) -> CheckResult:
    """4. cap-partition scan: 0 < nu_hat <= s + 0.02, endpoint values = s."""
    nt, nph = (32, 64) if quick else (64, 128)
    tol = _tol(0.02, quick)
    worst = 0.0
    details = []
    for s in S_GRID:
        p = FracParams(s=s, N=2)
        mesh = HemisphereMesh(params=p, ntheta=nt, nphi=nph)
        res = nu_acf_caps(mesh)
        if not 0.0 < res.nu_hat <= s + tol:
            return CheckResult("nu_acf cap scan", res.nu_hat, s + tol, False,
                               detail=f"s={s}")
        for row in res.table:
            t1, t2, mean = row[0], row[1], row[6]
            degenerate = t1 == 0.0 and abs(t2 - math.pi) < 1e-9
            cut = (abs(t1 - math.pi / 2) < 1e-9 and abs(t2 - math.pi / 2) < 1e-9)
            if degenerate or cut:
                worst = max(worst, abs(mean / s - 1.0))
        details.append(f"s={s}: nu_hat={res.nu_hat:.4f}")
    return CheckResult("nu_acf cap scan", worst, tol, worst <= tol,
                       detail="; ".join(details))


def check_almgren(quick: bool = False) -> CheckResult:
    """5. frequency is the homogeneity on explicit profiles; log-H identity."""
    nx = 384 if quick else 1024
    tol = _tol(0.01, quick)
    radii = np.geomspace(0.1, 0.5, 11)
    worst = 0.0
    for s in S_GRID:
        gr, p = _diag_grid(s, nx)
        for tag, deg in (("vanish_trace", 2.0 * s), ("halfspace", s)):
            fld = explicit_field(gr, NamedSolution(tag, p))
            prof = almgren(fld, (0.0,), radii)
            worst = max(worst, float(np.abs(prof.Nfreq.values / deg - 1.0).max()))
            worst = max(worst, float(log_derivative_residual(prof.H, prof.Nfreq).max()))
    return CheckResult("almgren frequency suite", worst, tol, worst <= tol)


def check_acf_monotonicity(quick: bool = False) -> CheckResult:
    """6. ACF variants constant on matched profiles; solved-field audit."""
    nx = 384 if quick else 1024
    tol = _tol(0.02, quick)
    radii = np.geomspace(0.1, 0.5, 11)
    worst = 0.0
    cases = [(s, "vanish_trace", "acf_vanish") for s in S_GRID]
    cases += [(s, "halfspace", "acf_halfspace") for s in S_GRID]
    cases += [(0.75, "codim1", "acf_codim1")]
    for s, tag, variant in cases:
        gr, p = _diag_grid(s, nx)
        fld = explicit_field(gr, NamedSolution(tag, p))
        prof = acf_one_phase(fld, (0.0,), radii, variant)
        dev = float((prof.values.max() - prof.values.min()) / prof.values.mean())
        worst = max(worst, dev)
    if worst > tol:
        return CheckResult("acf one-phase constancy", worst, tol, False)

    # solved vanishing-trace field: discretization-limited monotonicity
    s = 0.5
    p = FracParams(s=s, N=1)
    viols = []
    for nx_solve in ((64, 128) if quick else (128, 256)):
        g = build_grid(GridConfig(d=1, L=0.8, Y=0.8, nx=nx_solve + 1,
                                  ny=nx_solve, grading_p=1.0), p)
        exact = lambda x, y: y ** (2.0 * s) + 0.0 * x
        bd = BoundaryData(top=exact, sides=exact, trace_dirichlet=0.0)
        fld = solve_linear(g, bd)
        prof = acf_one_phase(fld, (0.0,), radii, "acf_vanish")
        rep = monotonicity_check(prof, tol=_tol(SOLVED_ACF_MONOTONICITY_TOL, quick))
        viols.append(rep.max_violation)
    shrinks = viols[1] <= viols[0] + 1e-12
    ok = shrinks and viols[-1] <= _tol(SOLVED_ACF_MONOTONICITY_TOL, quick)
    return CheckResult("acf monotonicity", max(worst, viols[-1]),
                       tol, ok, detail=f"solved-field violations {viols}")


def check_pohozaev(quick: bool = False) -> CheckResult:
    """7. Pohozaev residual small on exact profiles, large off them."""
    nx = 384 if quick else 768
    tol = _tol(0.03, quick)
    worst = 0.0
    for s, tag in ((0.25, "vanish_trace"), (0.5, "halfspace"),
                   (0.75, "vanish_trace"), (0.75, "codim1")):
        gr, p = _diag_grid(s, nx)
        fld = explicit_field(gr, NamedSolution(tag, p))
        worst = max(worst, abs(pohozaev_residual(fld, (0.0,), 0.4)))
    if worst > tol:
        return CheckResult("pohozaev residual", worst, tol, False)
    gr, p = _diag_grid(0.5, 256)
    rnd = field_from_function(
        gr, lambda x, y: np.sin(2.0 * x) * np.cos(1.5 * y) + 0.3 * x * x + 0.1 * y)
    off = abs(pohozaev_residual(rnd, (0.0,), 0.4))
    ok = off >= 0.10
    return CheckResult("pohozaev residual", worst, tol, ok,
                       detail=f"off-solution residual {off:.2f} (needs >= 0.10)")


def check_decay_bound(quick: bool = False) -> CheckResult:
    """8. absorbing-trace decay: sup over the inner half trace <= (1+d)/M + 5h."""
    delta = 0.1
    nx, ny = (129, 64) if quick else (257, 128)
    worst_excess = -math.inf
    detail = []
    for s in (0.25, 0.5):
        p = FracParams(s=s, N=1)
        g = build_grid(GridConfig(d=1, L=1.0, Y=1.0, nx=nx, ny=ny), p)
        for M in (10.0, 100.0):
            bd = BoundaryData(top=1.0, sides=1.0, neumann_m=M,
                              neumann_g0=lambda x, y: delta * np.cos(3.0 * x))
            fld = solve_linear(g, bd)
            sup = float(fld.trace[np.abs(g.x) <= 0.5].max())
            bound = (1.0 + delta) / M + 5.0 * g.dx
            worst_excess = max(worst_excess, sup - bound)
            detail.append(f"s={s} M={M:g}: sup={sup:.4f} bound={bound:.4f}")
    return CheckResult("decay bound", worst_excess, 0.0, worst_excess <= 0.0,
                       detail="; ".join(detail))


def check_comparison_estimate(quick: bool = False) -> CheckResult:
    """9. (-Delta)^s f >= -c f with stable fitted c; far-field slope a-1."""
    worst_stab = 0.0
    worst_slope = 0.0
    details = []
    for s in S_GRID:
        p = FracParams(s=s, N=1)
        prof = ComparisonProfile(p)
        xs = np.linspace(-10.0, 0.0, 50)
        f = prof(xs)
        c1 = float(np.max(-comparison_pv(p, xs).values / f))
        c2 = float(np.max(-comparison_pv(p, xs, h=0.01, pad=100.0).values / f))
        cref = max(abs(c1), abs(c2), 1e-12)
        if not (np.isfinite(c1) and np.isfinite(c2)):
            return CheckResult("comparison estimate", math.inf, 0.1, False)
        worst_stab = max(worst_stab, abs(c1 - c2) / cref)
        lo, hi = (-100.0, -20.0) if s >= 0.5 else (-400.0, -100.0)
        xf = np.linspace(lo, hi, 25)
        vals = comparison_pv(p, xf, h=0.02 if s >= 0.5 else 0.04).values
        slope = float(np.polyfit(np.log(-xf), np.log(np.abs(vals)), 1)[0])
        worst_slope = max(worst_slope, abs((slope - (p.a - 1.0)) / (p.a - 1.0)))
        details.append(f"s={s}: c={c1:.3f} slope={slope:.3f}")
    tol = _tol(0.10, quick)
    worst = max(worst_stab, worst_slope)
    return CheckResult("comparison estimate", worst, tol, worst <= tol,
                       detail="; ".join(details))


def _nu_hat_coarse(s: float) -> float:
    mesh = HemisphereMesh(params=FracParams(s=s, N=2), ntheta=24, nphi=48)
    return nu_acf_caps(mesh, np.linspace(0.0, math.pi, 5)).nu_hat


def check_beta_sweep(quick: bool = False) -> CheckResult:
    """10. segregation sweep: overlap falls, beta*overlap stays bounded,
    the small-exponent Hölder seminorm stays essentially flat."""
    svals = (0.5,) if quick else (0.3, 0.5, 0.75)
    betas = [1e2, 1e3, 1e4] if quick else [1e2, 1e3, 1e4, 1e5]
    nx, ny = (129, 48) if quick else (257, 96)
    details = []
    ok = True
    worst_growth = 0.0
    for s in svals:
        nu_hat = _nu_hat_coarse(s)
        caps = [s, nu_hat] + ([2.0 * s - 1.0] if s > 0.5 else [])
        alpha = 0.1 * min(caps)
        p = FracParams(s=s, N=1)
        prob = CompetitionProblem(
            params=p, grid_config=GridConfig(d=1, L=2.0, Y=1.5, nx=nx, ny=ny),
            k=2, beta=0.0, coupling=np.array([[0.0, 1.0], [1.0, 0.0]]),
            reactions=(Reaction("zero"), Reaction("zero")),
            dirichlet=(bump(-1.0), bump(1.0)))
        sweep = sweep_beta(prob, betas, holder_alpha=alpha)
        ov = sweep.column("overlap")
        bo = sweep.column("beta_times_overlap")
        hs = sweep.column("holder_seminorm")
        drop = ov[0] / ov[-1]
        bounded = bool(np.all(bo <= 10.0 * bo[0]))
        growth = hs.max() / hs[0] - 1.0
        worst_growth = max(worst_growth, growth)
        this_ok = drop >= 10.0 and bounded and growth <= _tol(0.5, quick)
        ok = ok and this_ok
        details.append(f"s={s}: drop={drop:.0f}x growth={growth:+.2%} "
                       f"alpha={alpha:.3f}")
    return CheckResult("beta sweep segregation", worst_growth, _tol(0.5, quick),
                       ok, detail="; ".join(details))


def check_oracle_consistency(quick: bool = False) -> CheckResult:
    """11. PV and symbol oracles agree on band-limited data."""
    grid = PeriodicGrid1D(n=128 if quick else 256)
    x = grid.x
    tol = _tol(0.02, quick)
    rng = np.random.default_rng(7)
    kmax = grid.n // 8
    u = sum(np.cos(k * x + rng.uniform(0.0, 2.0 * np.pi)) / (1.0 + k)
            for k in range(1, kmax + 1))
    worst = 0.0
    for s in S_GRID:
        pv = frac_lap_pv(u, s, grid=grid).values
        sy = frac_lap_symbol(u, s, grid)
        worst = max(worst, float(np.abs(pv - sy).max() / np.abs(sy).max()))
    return CheckResult("oracle consistency", worst, tol, worst <= tol)


ALL_CHECKS = (
    check_gamma_landmarks,
    check_dtn_symbol,
    check_hemisphere_landmarks,
    check_nu_acf_scan,
    check_almgren,
    check_acf_monotonicity,
    check_pohozaev,
    check_decay_bound,
    check_comparison_estimate,
    check_beta_sweep,
    check_oracle_consistency,
)


def run_all(quick: bool = False, progress=None) -> list:
    results = []
    for fn in ALL_CHECKS:
        t0 = time.perf_counter()
        res = fn(quick=quick)
        res.seconds = time.perf_counter() - t0
        results.append(res)
        if progress is not None:
            progress(res)
    return results
