"""Scalar maps, kernels and closed-form model solutions of the extension problem.

Everything in this module is a pure function of its inputs.  The objects here
(homogeneity map, regularized kernel, explicit homogeneous solutions and the
1-D comparison profile) serve as fixtures and building blocks for the grid
solver, the diagnostics and the eigenvalue machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import beta, betainc

SOLUTION_TAGS = ("vanish_trace", "halfspace", "codim1")


@dataclass(frozen=True)
class FracParams:
    """Fractional order s in (0,1) and ambient trace dimension N >= 1.

    The weight exponent a = 1 - 2s is derived, so the relation holds exactly.
    """

    s: float
    N: int = 1

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if int(self.N) != self.N or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N}")

    @property
    def a(self) -> float:
        return 1.0 - 2.0 * self.s

    @property
    def half_gap(self) -> float:
        """(N - 2s) / 2, the offset entering the homogeneity map."""
        return 0.5 * (self.N - 2.0 * self.s)


def gamma_map(t, p: FracParams):
    """Homogeneity degree of the eigenvalue-t homogeneous harmonic extension.

    gamma(t) = sqrt(((N-2s)/2)^2 + t) - (N-2s)/2.  Nonnegative and strictly
    increasing for t >= 0.  The discriminant is clamped at zero to guard
    against negative round-off.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("gamma_map requires t >= 0")
    half = p.half_gap
    out = np.sqrt(np.maximum(half * half + t, 0.0)) - half
    return float(out) if out.ndim == 0 else out


def gamma_inverse(g, p: FracParams):
    """Algebraic inverse of gamma_map: t = g^2 + (N - 2s) g."""
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise ValueError("gamma_inverse requires g >= 0")
    out = g * g + (p.N - 2.0 * p.s) * g
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class NamedSolution:
    """One of the explicit homogeneous solutions used as fixtures.

    vanish_trace  y^{2s}                        degree 2s, trace == 0
    halfspace     ((|(x1,y)| + x1)/2)^s         degree s,  trace == 0 on x1 <= 0
    codim1        (x1^2 + y^2)^{(2s-1)/2}       degree 2s-1, needs s > 1/2
    """

    tag: str
    params: FracParams

    def __post_init__(self):
        if self.tag not in SOLUTION_TAGS:
            raise ValueError(f"unknown solution tag {self.tag!r}")
        if self.tag == "codim1" and self.params.s <= 0.5:
            raise ValueError("codim1 solution requires s > 1/2")


def _split_point(X):
    """Split points (..., m) into (x1, y); y is the last coordinate."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] < 2:
        raise ValueError("points must have at least (x1, y) coordinates")
    x1 = X[..., 0]
    y = X[..., -1]
    if np.any(y < 0):
        raise ValueError("points must lie in the closed upper half-space y >= 0")
    return x1, y


def eval_solution(sol: NamedSolution, X):
    """Evaluate a named solution at points X of shape (..., m), y last."""
    s = sol.params.s
    x1, y = _split_point(X)
    if sol.tag == "vanish_trace":
        out = y ** (2.0 * s)
    elif sol.tag == "halfspace":
        rho = np.hypot(x1, y)
        out = (0.5 * (rho + x1)) ** s
    else:  # codim1
        out = np.hypot(x1, y) ** (2.0 * s - 1.0)
    return float(out) if np.ndim(out) == 0 else out


def dtn_exact(sol: NamedSolution, x1):
    """Weighted normal derivative -lim y^a d_y v of a named solution on y = 0.

    x1 is the first trace coordinate (the only one these solutions depend
    on).  vanish_trace gives the constant -2s.  halfspace gives 0 on x1 > 0
    (where the trace is positive) and -2s (4|x1|)^{-s} on x1 < 0 (where the
    trace vanishes); x1 = 0 is excluded.
    """
    s = sol.params.s
    x1 = np.asarray(x1, dtype=float)
    if sol.tag == "vanish_trace":
        out = np.full(np.shape(x1), -2.0 * s)
    elif sol.tag == "halfspace":
        if np.any(x1 == 0):
            raise ValueError("halfspace trace derivative needs x1 != 0")
        out = np.where(x1 > 0, 0.0, -2.0 * s * (4.0 * np.abs(x1)) ** (-s))
    else:
        raise NotImplementedError(f"no closed-form trace derivative for {sol.tag!r}")
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class RegularizedKernel:
    """C^1 regularization of the power kernel |X|^{2s-N}.

    Outside radius eps it equals |X|^{2s-N}; inside it is the parabola that
    matches value and slope at the seam.  As eps decreases the kernel
    increases pointwise toward the bare power (N > 2s required).
    """

    eps: float
    params: FracParams

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.params.N <= 2.0 * self.params.s:
            raise ValueError("regularized kernel requires N > 2s")

    def profile(self, r):
        """Kernel value as a function of the radius |X| >= 0."""
        s, N = self.params.s, self.params.N
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        scale = self.eps ** (2.0 * s - N)
        rho = r / self.eps
        inner = scale * (0.5 * (N + 2.0 * (1.0 - s)) - 0.5 * (N - 2.0 * s) * rho * rho)
        with np.errstate(divide="ignore"):
            outer = np.where(r > 0, r, 1.0) ** (2.0 * s - N)
        out = np.where(rho < 1.0, inner, outer)
        return float(out) if out.ndim == 0 else out


def comparison_mass(a: float) -> float:
    """Total integral of (1+t^2)^{(a-2)/2} over the line (a in (-1,1))."""
    return float(beta(0.5, 0.5 * (1.0 - a)))


def comparison_f(x, p: FracParams):
    """Normalized antiderivative of (1+t^2)^{(a-2)/2}; increasing, range (0,1).

    The mass beyond |x| is I(1/(1+x^2); s, 1/2) / 2, a regularized incomplete
    Beta function, so this is the Student-t CDF with 2s degrees of freedom
    at x sqrt(2s).  For |x| < 1 the same call takes the complementary
    I(x^2/(1+x^2); 1/2, s), which keeps the digits of x that 1/(1+x^2)
    rounds away; both arguments are u^2/(1+u^2) with u = min(|x|, 1/|x|),
    which cannot overflow.  The left tail keeps full relative accuracy.
    """
    s = p.s
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    near = ax < 1.0
    u = np.where(near, ax, 1.0 / np.maximum(ax, 1.0))
    ib = betainc(np.where(near, 0.5, s), np.where(near, s, 0.5),
                 u * u / (1.0 + u * u))
    beyond = np.where(near, 0.5 - 0.5 * ib, 0.5 * ib)
    out = np.where(x < 0, beyond, 1.0 - beyond)
    return float(out) if out.ndim == 0 else out

