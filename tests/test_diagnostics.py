"""ACF functionals, frequency quotient, Pohozaev residual, Hölder seminorms."""

import numpy as np
import pytest
from scipy.integrate import quad

from fracseg.core import FracParams, NamedSolution, eval_solution
from fracseg.diagnostics import (_CellGeometry, acf_one_phase, acf_perturbed, acf_two_phase,
                                 almgren, holder_seminorm,
                                 log_derivative_residual, monotonicity_check,
                                 pohozaev_residual, trace_seminorm)
from fracseg.grid import Field, GridConfig, build_grid, field_from_function

RADII = np.geomspace(0.1, 0.5, 9)


def diag_grid(s, nx=512, L=0.8):
    p = FracParams(s=s, N=1)
    return build_grid(GridConfig(d=1, L=L, Y=L, nx=nx + 1, ny=nx,
                                 grading_p=1.0), p)


def explicit_field(grid, sol, reflect=False):
    sign = -1.0 if reflect else 1.0

    def fn(x, y):
        pts = np.stack(np.broadcast_arrays(sign * x, y), axis=-1)
        return eval_solution(sol, pts)

    return field_from_function(grid, fn)


@pytest.fixture(scope="module")
def half_pair():
    g = diag_grid(0.5)
    sol = NamedSolution("halfspace", FracParams(s=0.5, N=1))
    return explicit_field(g, sol), explicit_field(g, sol, reflect=True)


def test_acf_constant_on_matched_profiles():
    for s, tag, variant in ((0.5, "vanish_trace", "acf_vanish"),
                            (0.5, "halfspace", "acf_halfspace"),
                            (0.75, "codim1", "acf_codim1")):
        g = diag_grid(s)
        fld = explicit_field(g, NamedSolution(tag, FracParams(s=s, N=1)))
        prof = acf_one_phase(fld, (0.0,), RADII, variant)
        dev = (prof.values.max() - prof.values.min()) / prof.values.mean()
        assert dev < 0.02
        assert prof.hypothesis_violation < 1e-12


def test_acf_zero_on_constants():
    g = diag_grid(0.5, nx=64)
    const = Field(g, np.full(g.shape, 2.0))
    prof = acf_one_phase(const, (0.0,), RADII, "acf_vanish")
    assert np.abs(prof.values).max() == 0.0


def test_acf_hypothesis_violation_reported():
    g = diag_grid(0.5, nx=64)
    fld = field_from_function(g, lambda x, y: 1.0 + x + y)
    prof = acf_one_phase(fld, (0.0,), RADII, "acf_halfspace")
    assert prof.hypothesis_violation > 0.1


def test_acf_validation():
    g = diag_grid(0.5, nx=64)
    fld = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        acf_one_phase(fld, (0.0,), RADII, "acf_codim1")  # needs s > 1/2
    with pytest.raises(ValueError):
        acf_one_phase(fld, (0.0,), np.array([0.1, 2.0]), "acf_vanish")
    with pytest.raises(ValueError):
        acf_one_phase(fld, (0.0,), RADII[::-1], "acf_vanish")
    with pytest.raises(ValueError):
        acf_one_phase(fld, (0.0,), RADII, "acf_bogus")


def test_two_phase_zero_component(half_pair):
    f1, _ = half_pair
    zero = Field(f1.grid, np.zeros(f1.grid.shape))
    prof = acf_two_phase((f1, zero), (0.0,), RADII, nu=0.5)
    assert np.abs(prof.values).max() == 0.0


def test_two_phase_constant_at_matched_exponent(half_pair):
    prof = acf_two_phase(half_pair, (0.0,), RADII, nu=0.5)
    dev = (prof.values.max() - prof.values.min()) / prof.values.mean()
    assert dev < 0.04
    assert prof.hypothesis_violation < 1e-12


def test_two_phase_nondecreasing_below_matched_exponent(half_pair):
    prof = acf_two_phase(half_pair, (0.0,), RADII, nu=0.3)
    report = monotonicity_check(prof, tol=1e-3)
    assert report.passed


def test_two_phase_rescaling_identity(half_pair):
    nu, nu_prime = 0.5, 0.3
    a = acf_two_phase(half_pair, (0.0,), RADII, nu=nu)
    b = acf_two_phase(half_pair, (0.0,), RADII, nu=nu_prime)
    # pure rescaling: profiles differ by r^{4 (nu - nu')} exactly
    assert np.allclose(b.values, a.values * RADII ** (4 * (nu - nu_prime)),
                       rtol=1e-12)


def test_perturbed_reduces_to_two_phase_off_the_core():
    # compactly supported fields away from B_1: the coupling term vanishes
    # and the regularized kernel coincides with the bare power on the support
    s = 0.3
    p = FracParams(s=s, N=1)
    g = build_grid(GridConfig(d=1, L=6.0, Y=6.0, nx=257, ny=256, grading_p=1.0), p)

    def lump(c):
        return lambda x, y: (np.exp(-2.0 * ((x - c) ** 2 + (y - 1.5) ** 2))
                             * np.maximum(0.0, 1.0 - ((x - c) / 1.2) ** 2) ** 2)

    f1 = field_from_function(g, lump(-3.0))
    f2 = field_from_function(g, lump(3.0))
    radii = np.array([1.5, 2.0, 2.5])
    pert = acf_perturbed((f1, f2), radii, nu_prime=0.2, coupling=1.0)
    two = acf_two_phase((f1, f2), (0.0,), radii, nu=0.2)
    assert np.allclose(pert.values, two.values, rtol=1e-10)


def test_perturbed_coupling_term_nonnegative():
    s = 0.3
    p = FracParams(s=s, N=1)
    g = build_grid(GridConfig(d=1, L=6.0, Y=6.0, nx=129, ny=128, grading_p=1.0), p)
    rng = np.random.default_rng(8)
    f1 = Field(g, rng.standard_normal(g.shape))
    f2 = Field(g, rng.standard_normal(g.shape))
    radii = np.array([1.5, 2.5, 3.5])
    with_c = acf_perturbed((f1, f2), radii, nu_prime=0.2, coupling=5.0)
    without = acf_perturbed((f1, f2), radii, nu_prime=0.2, coupling=1e-12)
    assert np.all(with_c.values >= without.values - 1e-12 * np.abs(with_c.values))


def test_almgren_landmarks_and_identity():
    for s, tag, deg in ((0.5, "vanish_trace", 1.0), (0.75, "halfspace", 0.75)):
        g = diag_grid(s)
        fld = explicit_field(g, NamedSolution(tag, FracParams(s=s, N=1)))
        prof = almgren(fld, (0.0,), RADII)
        assert np.abs(prof.Nfreq.values / deg - 1.0).max() < 0.01
        assert log_derivative_residual(prof.H, prof.Nfreq).max() < 0.01
        # for homogeneous profiles H r^{-2 deg} is constant
        scaled = prof.H.values * RADII ** (-2 * deg)
        assert (scaled.max() - scaled.min()) / scaled.mean() < 0.01


def test_almgren_energy_against_independent_quadrature():
    # reduce the halfspace energy to a 1-D angular quadrature and compare
    s = 0.25
    g = diag_grid(s)
    fld = explicit_field(g, NamedSolution("halfspace", FracParams(s=s, N=1)))
    prof = almgren(fld, (0.0,), RADII)
    a = 1 - 2 * s
    ang, _ = quad(lambda t: np.sin(t) ** a * ((1 + np.cos(t)) / 2) ** (2 * s - 1),
                  0, np.pi)
    oracle = s * s * ang * RADII ** (2 * s)
    assert np.abs(prof.E.values / oracle - 1.0).max() < 0.02


def test_almgren_frequency_undefined():
    g = diag_grid(0.5, nx=64)
    zero = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        almgren(zero, (0.0,), RADII)


def test_quadrature_translation_invariance():
    # moving the center by whole cells moves the profile rigidly
    s = 0.5
    g = diag_grid(s, nx=256, L=1.2)
    sol = NamedSolution("vanish_trace", FracParams(s=s, N=1))
    f0 = explicit_field(g, sol)
    shift = 8 * g.dx
    prof0 = almgren(f0, (0.0,), RADII)
    prof1 = almgren(f0, (shift,), RADII)  # same field, shifted center
    # the profile depends only on y here, so shifted centers agree
    assert np.allclose(prof0.E.values, prof1.E.values, rtol=1e-10)


def test_volume_integral_matches_full_grid_sum():
    # the quadrature sums only the cells inside the largest radius; the
    # full-grid sum of the same ramp is the reference, equal up to the
    # order of summation
    rng = np.random.default_rng(3)
    for g, center in ((diag_grid(0.5, nx=128), (0.1,)),
                      (build_grid(GridConfig(d=2, L=0.8, Y=0.8, nx=17, ny=16),
                                  FracParams(s=0.5, N=2)), (0.0, 0.1))):
        geo = _CellGeometry(g, center)
        w = rng.random(geo.R.shape)
        radii = np.array([0.45, 0.1, 0.3])
        ref = [np.sum(w * geo.vol * geo._ramp(r, geo.R, geo.width)) for r in radii]
        got = geo.volume_integral(w, radii)
        assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


def test_pohozaev_residuals():
    g = diag_grid(0.5, nx=64)
    const = Field(g, np.full(g.shape, 1.3))
    assert pohozaev_residual(const, (0.0,), 0.4) == 0.0
    for s, tag in ((0.5, "vanish_trace"), (0.75, "codim1")):
        gg = diag_grid(s)
        fld = explicit_field(gg, NamedSolution(tag, FracParams(s=s, N=1)))
        assert abs(pohozaev_residual(fld, (0.0,), 0.4)) < 0.03
    rnd = field_from_function(
        diag_grid(0.5, nx=256),
        lambda x, y: np.sin(2 * x) * np.cos(1.5 * y) + 0.3 * x * x + 0.1 * y)
    assert abs(pohozaev_residual(rnd, (0.0,), 0.4)) > 0.10


def test_holder_constant_and_scaling():
    x = np.linspace(-1, 1, 101)
    assert holder_seminorm(np.zeros_like(x), x, 0.5) == 0.0
    v = np.abs(x) ** 0.3
    base = holder_seminorm(v, x, 0.3)
    assert holder_seminorm(3.0 * v, x, 0.3) == pytest.approx(3.0 * base, rel=1e-12)


def test_holder_exact_on_power():
    # brute force over all pairs of a 401-node grid achieves the sup at
    # the pairs (0, x): seminorm == 1 exactly
    x = np.linspace(-1, 1, 401)
    alpha = 0.4
    v = np.abs(x) ** alpha
    assert holder_seminorm(v, x, alpha) == pytest.approx(1.0, rel=1e-12)


def test_holder_budget_mode_close_to_exact():
    rng = np.random.default_rng(4)
    x = np.linspace(-1, 1, 6001)
    v = np.abs(x) ** 0.4 + 0.01 * np.cos(40 * x)
    exact = holder_seminorm(v[::2], x[::2], 0.4)  # 3001 nodes: exact path
    budget = holder_seminorm(v, x, 0.4, pair_budget=100_000)
    assert budget >= 0.9 * exact


def test_holder_validation_and_region():
    x = np.linspace(-1, 1, 101)
    v = x ** 2
    with pytest.raises(ValueError):
        holder_seminorm(v, x, 1.5)
    with pytest.raises(ValueError):
        holder_seminorm(v, x, 0.5, region=np.zeros(101, dtype=bool))
    inner = holder_seminorm(v, x, 0.5, region=np.abs(x) <= 0.5)
    assert inner <= holder_seminorm(v, x, 0.5)


def test_trace_seminorm_window():
    g = diag_grid(0.5, nx=64)
    fld = field_from_function(g, lambda x, y: np.abs(x) ** 0.4 + 0.0 * y)
    full = trace_seminorm(fld, 0.4)
    inner = trace_seminorm(fld, 0.4, x_window=0.4)
    assert 0 < inner <= full + 1e-12


def test_monotonicity_check():
    prof_up = type("P", (), {"values": np.linspace(1, 2, 8), "radii": RADII[:8]})
    rep = monotonicity_check(prof_up, tol=0.01)
    assert rep.passed and rep.violations == 0
    vals = np.linspace(1, 2, 8)
    vals[4] -= 0.5  # one dip of 10x the tolerance scale
    prof_dip = type("P", (), {"values": vals, "radii": RADII[:8]})
    rep = monotonicity_check(prof_dip, tol=0.02)
    assert not rep.passed and rep.violations == 1
    with pytest.raises(ValueError):
        monotonicity_check(type("P", (), {"values": np.ones(2)}), tol=0.1)


def test_functionals_nonnegative_on_arbitrary_fields():
    # E, H and the one-phase functionals are sums of squares times positive
    # weights, whatever the field
    g = diag_grid(0.5, nx=96)
    rng = np.random.default_rng(17)
    fld = Field(g, rng.standard_normal(g.shape))
    prof = almgren(fld, (0.0,), RADII)
    assert np.all(prof.E.values >= 0) and np.all(prof.H.values > 0)
    one = acf_one_phase(fld, (0.0,), RADII, "acf_vanish")
    assert np.all(one.values >= 0)


@pytest.mark.slow
def test_perturbed_monotone_on_converged_competition_pair():
    # a converged strong-competition pair: the perturbed functional is
    # nondecreasing above the kernel's regularization radius
    from fracseg.grid import GridConfig
    from fracseg.system import CompetitionProblem, Reaction, sweep_beta

    s = 0.3
    p = FracParams(s=s, N=1)

    def lump(c):
        return lambda x, y: np.exp(-4.0 * ((x - c) / 0.8) ** 2) + 0.0 * y

    prob = CompetitionProblem(
        params=p, grid_config=GridConfig(d=1, L=6.0, Y=5.0, nx=129, ny=48),
        k=2, beta=0.0, coupling=np.array([[0.0, 1.0], [1.0, 0.0]]),
        reactions=(Reaction("zero"), Reaction("zero")),
        dirichlet=(lump(-2.5), lump(2.5)))
    sweep = sweep_beta(prob, [1e2, 1e3, 1e4], holder_alpha=0.03,
                       keep_results=True)
    fields = sweep.results[-1].fields
    radii = np.linspace(1.2, 4.0, 11)
    prof = acf_perturbed(fields, radii, nu_prime=0.5 * 0.249, coupling=1.0)
    report = monotonicity_check(prof, tol=1e-3)
    assert report.passed


def test_d2_almgren_smoke():
    # the 2-d trace path at desk-scale resolution
    s = 0.3
    p = FracParams(s=s, N=2)
    g = build_grid(GridConfig(d=2, L=0.8, Y=0.8, nx=49, ny=48, grading_p=1.0), p)
    fld = field_from_function(g, lambda x1, x2, y: y ** (2 * s) + 0 * x1 + 0 * x2)
    radii = np.geomspace(0.15, 0.5, 7)
    prof = almgren(fld, (0.0, 0.0), radii)
    assert np.abs(prof.Nfreq.values - 2 * s).max() / (2 * s) < 0.10
    one = acf_one_phase(fld, (0.0, 0.0), radii, "acf_vanish")
    dev = (one.values.max() - one.values.min()) / one.values.mean()
    assert dev < 0.10
