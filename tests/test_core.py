"""Closed-form maps, kernels and model solutions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import stdtr

from fracseg.core import (SOLUTION_TAGS, FracParams, NamedSolution,
                          RegularizedKernel, comparison_f, eval_solution,
                          gamma_inverse, gamma_map)

S_GRID = (0.25, 0.5, 0.75)


def test_params_validation():
    with pytest.raises(ValueError):
        FracParams(s=0.0)
    with pytest.raises(ValueError):
        FracParams(s=1.0)
    with pytest.raises(ValueError):
        FracParams(s=0.5, N=0)
    p = FracParams(s=0.3, N=2)
    assert p.a == 1.0 - 0.6


def test_gamma_map_landmarks():
    for s in S_GRID:
        for N in (1, 2, 3):
            p = FracParams(s=s, N=N)
            assert gamma_map(0.0, p) == pytest.approx(max(0.0, 2 * s - N), abs=1e-14)
            # eigenvalue of the trace-vanishing profile maps to degree 2s
            assert gamma_map(2 * s * N, p) == pytest.approx(2 * s, rel=1e-12)
            # half-region eigenvalue s(N-s) maps to degree s
            assert gamma_map(s * (N - s), p) == pytest.approx(s, rel=1e-12)


def test_gamma_map_monotone_and_identity():
    p = FracParams(s=0.3, N=2)
    t = np.linspace(0.0, 100.0, 2001)
    g = gamma_map(t, p)
    assert np.all(np.diff(g) > 0)
    # gamma (gamma + N - 2s) = t, the defining quadratic
    resid = g * (g + p.N - 2 * p.s) - t
    assert np.abs(resid[1:] / t[1:]).max() < 1e-10


def test_gamma_inverse_landmarks():
    for s in S_GRID:
        for N in (1, 2, 3):
            p = FracParams(s=s, N=N)
            assert gamma_inverse(0.0, p) == 0.0
            assert gamma_inverse(2 * s, p) == pytest.approx(2 * s * N, rel=1e-12)
    p = FracParams(s=0.75, N=2)
    # (2s-1)^2 + (N-2s)(2s-1) = (2s-1)(N-1), frozen for s=0.75, N=2
    assert gamma_inverse(0.5, p) == pytest.approx(0.5, rel=1e-12)


def test_gamma_round_trip():
    for s in S_GRID:
        for N in (1, 2, 3):
            p = FracParams(s=s, N=N)
            for g in gamma_map(0.0, p) + np.linspace(0.0, 5.0, 11):
                assert gamma_map(gamma_inverse(g, p), p) == pytest.approx(
                    g, rel=1e-12, abs=1e-12)


def test_gamma_domain_errors():
    p = FracParams(s=0.5, N=2)
    with pytest.raises(ValueError):
        gamma_map(-0.1, p)
    with pytest.raises(ValueError):
        gamma_inverse(-0.1, p)


def test_kernel_seam_and_values():
    p = FracParams(s=0.5, N=2)
    k = RegularizedKernel(eps=1.0, params=p)
    # C^1 matching forces value 1 at the seam
    assert k.profile(1.0) == pytest.approx(1.0, rel=1e-14)
    # inner branch at the origin: (N + 2(1-s))/2, frozen for N=2, s=0.5
    assert k.profile(0.0) == pytest.approx(1.5)
    # outer branch is the bare power
    for s in S_GRID:
        for N in (2, 3):
            kk = RegularizedKernel(eps=1.0, params=FracParams(s=s, N=N))
            assert kk.profile(2.0) == pytest.approx(2.0 ** (2 * s - N), rel=1e-14)


def test_kernel_c1_derivative_jump():
    p = FracParams(s=0.3, N=2)
    k = RegularizedKernel(eps=0.7, params=p)
    jumps = []
    for h in (1e-3, 1e-4):
        left = (k.profile(0.7) - k.profile(0.7 - h)) / h
        right = (k.profile(0.7 + h) - k.profile(0.7)) / h
        jumps.append(abs(right - left))
    assert jumps[1] < 0.2 * jumps[0]  # jump vanishes at O(h)


def test_kernel_monotone_in_eps():
    p = FracParams(s=0.3, N=2)
    r = np.linspace(0.0, 3.0, 301)
    k1 = RegularizedKernel(eps=1.0, params=p).profile(r)
    k2 = RegularizedKernel(eps=0.5, params=p).profile(r)
    k3 = RegularizedKernel(eps=0.25, params=p).profile(r)
    assert np.all(k2 >= k1 - 1e-14)
    assert np.all(k3 >= k2 - 1e-14)


def test_kernel_validation():
    with pytest.raises(ValueError):
        RegularizedKernel(eps=0.0, params=FracParams(s=0.3, N=2))
    with pytest.raises(ValueError):
        RegularizedKernel(eps=1.0, params=FracParams(s=0.75, N=1))  # N <= 2s
    k = RegularizedKernel(eps=1.0, params=FracParams(s=0.3, N=2))
    with pytest.raises(ValueError):
        k.profile(-0.5)  # a negative radius


def test_named_solution_values():
    p = FracParams(s=0.5, N=1)
    half = NamedSolution("halfspace", p)
    assert eval_solution(half, np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert eval_solution(half, np.array([-1.0, 0.0])) == pytest.approx(0.0)
    p75 = FracParams(s=0.75, N=1)
    cod = NamedSolution("codim1", p75)
    assert eval_solution(cod, np.array([1.0, 0.0])) == pytest.approx(1.0)
    van = NamedSolution("vanish_trace", p)
    xs = np.stack([np.linspace(-2, 2, 9), np.zeros(9)], axis=-1)
    assert np.all(eval_solution(van, xs) == 0.0)


def test_named_solution_homogeneity():
    rng = np.random.default_rng(5)
    pts = np.abs(rng.standard_normal((40, 2))) + 0.1
    for s, tag in ((0.25, "vanish_trace"), (0.5, "halfspace"), (0.75, "codim1")):
        degree = {"vanish_trace": 2 * s, "halfspace": s, "codim1": 2 * s - 1}[tag]
        sol = NamedSolution(tag, FracParams(s=s, N=1))
        base = eval_solution(sol, pts)
        for lam in (0.5, 2.0, 3.0):
            scaled = eval_solution(sol, lam * pts)
            assert np.allclose(scaled, lam ** degree * base, rtol=1e-12)


def test_named_solution_on_coordinates_matches_stacked_points():
    # the kernel takes broadcastable (x1[, x2], y); on the grid's np.ix_
    # coordinates it gives every value of the stacked points bit for bit
    x1, y = np.ix_(np.linspace(-0.8, 0.8, 65), np.linspace(0.0, 0.8, 32))
    pts = np.stack(np.broadcast_arrays(x1, y), axis=-1)
    for s, tag in ((0.25, "vanish_trace"), (0.5, "halfspace"), (0.3, "halfspace"),
                   (0.75, "codim1")):
        sol = NamedSolution(tag, FracParams(s=s, N=1))
        want = eval_solution(sol, pts)
        assert np.array_equal(np.broadcast_to(sol(x1, y), want.shape), want)
        assert np.array_equal(np.broadcast_to(sol(x1, 0.0 * x1, y), want.shape), want)
    with pytest.raises(ValueError, match="upper half-space"):
        sol(x1, np.array([0.1, np.nan, -0.2]))  # a NaN does not hide -0.2
    with pytest.raises(ValueError, match="at least"):
        sol(x1)


def test_eval_solution_makes_only_its_result(peak_bytes):
    # on stacked 1025 x 1024 points each profile is built in place: the
    # result plus at most the y < 0 mask (1.0 MB), not one grid-sized
    # temporary per operation
    x1, y = np.ix_(np.linspace(-0.8, 0.8, 1025), np.linspace(0.0, 0.8, 1024))
    pts = np.stack(np.broadcast_arrays(x1, y), axis=-1)
    for tag in SOLUTION_TAGS:
        sol = NamedSolution(tag, FracParams(s=0.75, N=1))
        peak, out = peak_bytes(eval_solution, sol, pts)
        assert peak <= out.nbytes + 1.1 * 2 ** 20, tag


def test_named_solution_validation():
    with pytest.raises(ValueError):
        NamedSolution("codim1", FracParams(s=0.5, N=2))
    with pytest.raises(ValueError):
        NamedSolution("nope", FracParams(s=0.5, N=1))


def test_comparison_f_basics():
    for s in S_GRID:
        p = FracParams(s=s, N=1)
        assert comparison_f(0.0, p) == pytest.approx(0.5, abs=1e-10)
        # the tail decays like x^{a-1}; at 1e12 even s = 0.25 is within 1e-6
        assert comparison_f(1e12, p) == pytest.approx(1.0, abs=1e-6)
        assert comparison_f(2.0, p) + comparison_f(-2.0, p) == pytest.approx(
            1.0, abs=1e-10)
        xs = np.linspace(-30.0, 30.0, 41)
        vals = comparison_f(xs, p)
        assert np.all(np.diff(vals) > 0)
        assert np.all((vals > 0) & (vals < 1))


def test_comparison_f_normalization_against_beta_function():
    # independent oracle: int (1+t^2)^{(a-2)/2} dt = sqrt(pi) G((1-a)/2)/G(1-a/2)
    for s in S_GRID:
        p = FracParams(s=s, N=1)
        a = p.a
        mass = math.sqrt(math.pi) * gamma_fn((1 - a) / 2) / gamma_fn(1 - a / 2)
        probe = 1.234
        direct, _ = quad(lambda t: (1 + t * t) ** (0.5 * a - 1.0), -np.inf, probe,
                         limit=400)
        assert comparison_f(probe, p) == pytest.approx(direct / mass, abs=1e-8)


def test_comparison_f_derivative_decay():
    # f' ~ |t|^{a-2}: the compensated ratio is constant within 1 percent
    for s in S_GRID:
        p = FracParams(s=s, N=1)
        ts = np.linspace(50.0, 200.0, 7)
        h = 1e-3
        fp = (comparison_f(ts + h, p) - comparison_f(ts - h, p)) / (2 * h)
        ratio = fp * ts ** (2.0 - p.a)
        assert ratio.max() / ratio.min() - 1.0 < 0.01


def test_comparison_f_is_the_student_t_cdf():
    # independent special-function route: F(x) = stdtr(2s, x sqrt(2s))
    for s in S_GRID:
        p = FracParams(s=s, N=1)
        x = np.linspace(-50.0, 50.0, 2001)
        ref = stdtr(2 * s, x * math.sqrt(2 * s))
        assert np.abs(comparison_f(x, p) - ref).max() <= 1e-13
        x = -np.geomspace(1e-3, 1e14, 300)
        ref = stdtr(2 * s, x * math.sqrt(2 * s))
        assert np.abs(comparison_f(x, p) / ref - 1.0).max() <= 1e-12


def test_comparison_f_near_zero_keeps_its_digits():
    # F(x) = 1/2 + (x - (1+2s) x^3/6 + O(x^5)) / B(1/2, s); 1/(1+x^2) rounds
    # to 1 here, so this pins the complementary argument used for |x| < 1
    x = np.array([-1e-5, -1e-8, -1e-12, -1e-300, 0.0, 1e-300, 1e-12, 1e-8, 1e-5])
    for s in S_GRID:
        p = FracParams(s=s, N=1)
        mass = math.sqrt(math.pi) * gamma_fn(s) / gamma_fn(0.5 + s)
        ref = 0.5 + (x - (1 + 2 * s) * x ** 3 / 6) / mass
        assert np.abs(comparison_f(x, p) - ref).max() <= 2e-16


def test_comparison_f_propagates_nan():
    p = FracParams(s=0.5, N=1)
    assert math.isnan(comparison_f(math.nan, p))
    out = comparison_f(np.array([-1.0, np.nan, 0.0, np.nan]), p)
    assert np.array_equal(np.isnan(out), [False, True, False, True])
    assert out[2] == 0.5
