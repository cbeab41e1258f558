"""Scalar maps and closed-form model solutions of the extension problem.

Everything in this module is a pure function of its inputs.  The objects here
(homogeneity map, explicit homogeneous solutions and the 1-D comparison
profile) serve as fixtures and building blocks for the grid solver, the
diagnostics and the eigenvalue machinery.
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


def gamma_map(t, p: FracParams):
    """Homogeneity degree of the eigenvalue-t homogeneous harmonic extension.

    gamma(t) = sqrt(((N-2s)/2)^2 + t) - (N-2s)/2.  Nonnegative and strictly
    increasing for t >= 0.  The discriminant is clamped at zero to guard
    against negative round-off.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("gamma_map requires t >= 0")
    half = 0.5 * (p.N - 2.0 * p.s)
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
    """One of the explicit homogeneous solutions used as fixtures; calling
    it evaluates the solution at coordinates (x1[, x2], y).

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

    def __call__(self, x1, *coords):
        """Values at broadcastable coordinates (x1[, x2], y), y last, as a
        sampled Field passes them, np.ix_ of the node box it reads (no
        profile reads x2): one fresh array built in place, so the half-space
        profile holds one box-sized array, not three (vanish_trace has y's
        shape; a float at scalar coordinates)."""
        if not coords:
            raise ValueError("points must have at least (x1, y) coordinates")
        y = np.asarray(coords[-1], dtype=float)
        if np.any(y < 0):  # not y.min() < 0: a NaN would hide a negative value
            raise ValueError("points must lie in the closed upper half-space y >= 0")
        s = self.params.s
        if self.tag == "vanish_trace":
            out = y ** (2.0 * s)
        else:
            out = np.hypot(x1, y)
            if self.tag == "halfspace":
                out += x1
                out *= 0.5
                out **= s
            else:  # codim1
                out **= 2.0 * s - 1.0
        return float(out) if np.ndim(out) == 0 else out


def eval_solution(sol: NamedSolution, X):
    """Evaluate a named solution at stacked points X of shape (..., m), y
    last, on views of X's first and last coordinates; field_from_function
    (grid, sol) gives the same bits on any node box, with no stacked X."""
    X = np.asarray(X, dtype=float)
    if X.shape[-1] < 2:
        raise ValueError("points must have at least (x1, y) coordinates")
    return sol(X[..., 0], X[..., -1])


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

