"""Weighted hemisphere eigenvalues and the two-cap partition scan.

Solves the first eigenvalue of the weighted Laplace-Beltrami form on the
upper hemisphere with Dirichlet conditions on part of the equator: the
Rayleigh quotient of int y^a |grad_T u|^2 over int y^a u^2, with y the
vertical coordinate of the sphere point.  The N = 2 mesh is a (psi, phi)
tensor grid, psi the latitude, with a collapsed pole and cells graded
toward the equator; the N = 1 half-circle is a cheap oracle.  The cap scan
evaluates the mean homogeneity of antipodally centered equator caps and
returns its minimum, an upper bound for the partition optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.special import beta, betainc, digamma, hyp2f1, poch

from .core import FracParams, gamma_map
from .errors import ConfigurationError, ConvergenceError
from .grid import ModeChains, check_backward_error

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EquatorRegion:
    """Free (non-Dirichlet) part of the equator.

    For N = 2 a union of angular arcs (lo, hi) in radians; for N = 1 a pair
    of booleans marking whether each endpoint of the half-circle is free.
    """

    arcs: tuple = ()
    ends: tuple | None = None

    def __post_init__(self):
        total = 0.0
        for lo, hi in self.arcs:
            if not hi > lo:
                raise ValueError("arc must have hi > lo")
            total += hi - lo
        if total > _TWO_PI + 1e-12:
            raise ValueError("arcs overlap: total measure exceeds 2*pi")

    @staticmethod
    def full(N: int = 2) -> "EquatorRegion":
        return EquatorRegion(arcs=((0.0, _TWO_PI),)) if N == 2 else \
            EquatorRegion(ends=(True, True))

    @staticmethod
    def empty(N: int = 2) -> "EquatorRegion":
        return EquatorRegion() if N == 2 else EquatorRegion(ends=(False, False))

    @staticmethod
    def half(N: int = 2) -> "EquatorRegion":
        """The half equator x1 > 0."""
        return EquatorRegion(arcs=((-0.5 * math.pi, 0.5 * math.pi),)) if N == 2 \
            else EquatorRegion(ends=(True, False))

    @staticmethod
    def cap(center: float, radius: float) -> "EquatorRegion":
        """Open arc of the given angular radius about center (N = 2)."""
        if radius <= 0.0:
            return EquatorRegion()
        if radius >= math.pi:
            return EquatorRegion.full(2)
        return EquatorRegion(arcs=((center - radius, center + radius),))

    def contains(self, phi: np.ndarray) -> np.ndarray:
        """Membership of equator angles (N = 2), up to 2*pi wrapping."""
        out = np.zeros(np.shape(phi), dtype=bool)
        for lo, hi in self.arcs:
            span = hi - lo
            if span >= _TWO_PI - 1e-12:
                out |= True
                continue
            rel = np.mod(np.asarray(phi) - lo, _TWO_PI)
            out |= rel < span
        return out


@dataclass(frozen=True)
class CapPair:
    """Angular radii of two antipodally centered equator caps."""

    t1: float
    t2: float

    def __post_init__(self):
        if self.t1 < 0 or self.t2 < 0:
            raise ValueError("cap radii must be nonnegative")
        if self.t1 + self.t2 > math.pi + 1e-12:
            raise ValueError("caps overlap: t1 + t2 must not exceed pi")


def _int_sin_pow(a: float, lo, hi) -> np.ndarray:
    """Integral of sin(alpha)^a over each cell [lo, hi] within [0, pi], a > -1.

    Closed form: on [0, pi/2] the primitive is
    P(t) = B((1+a)/2, 1/2) I(sin^2 t; (1+a)/2, 1/2) / 2.  The part of a cell
    beyond pi/2 is mirrored to P(pi - lo) - P(pi - hi), which keeps the
    cells next to pi to full relative accuracy (B - P would cancel there).
    """
    p = 0.5 * (1.0 + a)
    half = 0.5 * math.pi

    def prim(t):
        return 0.5 * beta(p, 0.5) * betainc(p, 0.5, np.sin(t) ** 2)

    left = prim(np.minimum(hi, half)) - prim(np.minimum(lo, half))
    right = (prim(math.pi - np.maximum(lo, half))
             - prim(math.pi - np.maximum(hi, half)))
    return left + right


@dataclass(frozen=True)
class HemisphereMesh:
    """Tensor mesh of the upper hemisphere (N = 2) or half-circle (N = 1).

    psi is the angle above the equator, graded toward it where the
    eigenfunctions have their t^{gamma} boundary layers; phi is uniform and
    periodic.  All metric coefficients are exact cell integrals of the
    weighted surface measure, in closed form.
    """

    params: FracParams
    ntheta: int = 64
    nphi: int = 128

    def __post_init__(self):
        if self.params.N not in (1, 2):
            raise ConfigurationError("hemisphere mesh supports N in {1, 2}")
        if self.ntheta < 4:
            raise ConfigurationError("ntheta must be >= 4")
        if self.params.N == 2 and (self.nphi < 8 or self.nphi % 2):
            raise ConfigurationError("nphi must be even and >= 8")

    @property
    def grading_exp(self) -> float:
        """Equator clustering exponent; resolves the t^{2s} Dirichlet layers."""
        return min(8.0, max(1.0, 1.0 / self.params.s))

    @cached_property
    def psi(self) -> np.ndarray:
        """Node angles above the equator, pole first, equator last (N = 2),
        exactly 0 on the equator and accurate to full precision next to it."""
        i = np.arange(self.ntheta + 1, dtype=float)
        return 0.5 * math.pi * (1.0 - i / self.ntheta) ** self.grading_exp

    @cached_property
    def alpha(self) -> np.ndarray:
        """Half-circle nodes (N = 1), graded toward both endpoints."""
        g = self.grading_exp
        t = np.arange(self.ntheta + 1, dtype=float) / self.ntheta
        w = t ** g / (t ** g + (1.0 - t) ** g)
        return math.pi * w

    @property
    def phi(self) -> np.ndarray:
        return _TWO_PI * np.arange(self.nphi) / self.nphi

    @cached_property
    def rings(self) -> tuple:
        """Ring coefficients of the N = 2 forms (g_theta, g_phi, mass).

        Ring 0 is the collapsed pole, ring i (1 <= i <= ntheta) holds nphi
        nodes and the last ring is the equator.  g_theta[i] joins each node
        of ring i to its neighbour on ring i + 1 (the pole to every node of
        ring 1), g_phi[i - 1] joins phi-neighbours on ring i, and mass[i] is
        the lumped mass of one node of ring i.  The weight sin(psi)^a on
        the surface measure cos(psi) dpsi dphi has the primitive
        sin^{1+a}/(1+a) from the equator; phi conductances integrate
        sin^a/cos dpsi = t^a/(1 - t^2) dt, t = sin(psi), over each ring's dual
        strip: t^{1+a}/(1+a) 2F1(1, (1+a)/2; (3+a)/2; t^2) from the equator.
        Above psi = pi/4, where t rounds to 1, both come from w = cos^2(psi):
        1 - t^{1+a} = I_w(1, (1+a)/2) and 2F1's series in w (A&S 15.3.10).
        """
        a = self.params.a
        psi = self.psi
        dphi = _TWO_PI / self.nphi

        def strip(hi, lo):  # integral of sin^a cos over [lo, hi]
            out = np.sin(hi) ** (1 + a) / (1 + a) - np.sin(lo) ** (1 + a) / (1 + a)
            pole = lo >= 0.25 * math.pi
            co = betainc(1.0, 0.5 * (1 + a), np.cos(np.stack((lo[pole], hi[pole]))) ** 2)
            out[pole] = (co[0] - co[1]) / (1 + a)
            return out

        dual = np.concatenate(([psi[0]], 0.5 * (psi[:-1] + psi[1:]), [psi[-1]]))
        g_theta = strip(psi[:-1], psi[1:]) / np.diff(psi) ** 2 * dphi
        t = np.sin(dual[1:])  # the pole, t = 1, bounds no phi strip
        f = t ** (1 + a) / (1 + a) * hyp2f1(1.0, 0.5 * (1 + a), 0.5 * (3 + a), t * t)
        pole = dual[1:] >= 0.25 * math.pi
        w, b, total = np.cos(dual[1:][pole]) ** 2, 0.5 * (1 + a), 0.0
        for n in range(60):  # w <= 1/2: the terms fall below 2^-60
            total += w ** n * poch(b, n) / math.factorial(n) * (
                digamma(n + 1.0) - digamma(b + n) - np.log(w))
        f[pole] = t[pole] ** (1 + a) / 2 * total
        g_phi = -np.diff(f) / dphi
        mass = strip(dual[:-1], dual[1:]) * dphi
        mass[0] *= self.nphi
        return g_theta, g_phi, mass


def _half_circle_forms(mesh: HemisphereMesh):
    """Edge conductances and lumped node masses of the weighted half-circle."""
    a = mesh.params.a
    al = mesh.alpha
    n = al.size
    mid = 0.5 * (al[:-1] + al[1:])
    edges = np.concatenate(([al[0]], mid, [al[-1]]))
    ints = _int_sin_pow(a, np.concatenate((al[:-1], edges[:-1])),
                        np.concatenate((al[1:], edges[1:])))
    return ints[:n - 1] / np.diff(al) ** 2, ints[n - 1:]


def _half_circle_pair(mesh: HemisphereMesh, ends: tuple):
    """Smallest eigenpair of the half-circle pencil, free endpoints per ends.

    The pencil is tridiagonal: its Dirichlet restriction, scaled to
    M^-1/2 K M^-1/2, is solved directly for its lowest eigenpair.  The
    graded cells spread the scaled entries over many decades (up to 5e18
    at 256 cells and s = 1/4), so the bisection runs to the smallest
    absolute tolerance, which keeps the lowest eigenvalue to high relative
    accuracy.
    """
    cond, mass = _half_circle_forms(mesh)
    deg = np.zeros(mass.size)
    deg[:-1] += cond
    deg[1:] += cond
    lo, hi = (0 if ends[0] else 1), (mass.size if ends[1] else mass.size - 1)
    root = np.sqrt(mass[lo:hi])
    vals, vecs = sla.eigh_tridiagonal(
        deg[lo:hi] / mass[lo:hi], -cond[lo:hi - 1] / (root[:-1] * root[1:]),
        select="i", select_range=(0, 0), tol=np.finfo(float).tiny)
    vec = np.zeros(mass.size)
    vec[lo:hi] = vecs[:, 0] / root
    return max(float(vals[0]), 0.0), vec


def _node_mass(mesh: HemisphereMesh) -> np.ndarray:
    """Lumped mass of every node of an N = 2 mesh."""
    mass = mesh.rings[2]
    return np.concatenate((mass[:1], np.repeat(mass[1:], mesh.nphi)))


def _ring_flux(mesh: HemisphereMesh, u: np.ndarray) -> np.ndarray:
    """K u on all nodes of an N = 2 mesh, face by face, sum_q g_pq (u_p - u_q):
    the pole joins every node of ring 1, each ring node its neighbours in
    theta and its periodic neighbours in phi.  Node 0 is the pole, ring i
    holds nodes 1 + (i - 1) nphi + j.  The analogue of grid._face_flux."""
    g_theta, g_phi, _ = mesh.rings
    v = np.vstack((np.full(mesh.nphi, u[0]), u[1:].reshape(mesh.ntheta, -1)))
    f = g_theta[:, None] * np.diff(v, axis=0)  # v's row 0 repeats the pole
    out = np.zeros_like(v)
    out[:-1] -= f
    out[1:] += f
    f = g_phi[:, None] * (np.roll(v[1:], -1, axis=1) - v[1:])
    out[1:] += np.roll(f, 1, axis=1) - f
    return np.append(out[0].sum(), out[1:])


class _HemisphereSolver:
    """x = (K - sigma M)_ff^-1 b on the free nodes of an N = 2 mesh.

    Only equator nodes are ever Dirichlet, and away from the equator the
    pencil is rotation invariant: in the orthonormal real Fourier basis in
    phi each mode is one tridiagonal chain in theta from the pole to the
    equator, and the pole couples to mode 0 only.  One ModeChains holds
    every mode's chain.  Eliminating the interior (pole and rings 1..nt-1)
    leaves on the equator ring a circulant with the chains' symbol,
    Cholesky factored once on the free equator nodes.  Each solve is one
    interior solve, a dense triangular solve on the free equator and the
    chains' interior response to equator values, and is checked by its
    backward error, with K applied ring by ring (_ring_flux).

    The shift sigma is small and negative, so the shifted pencil stays
    definite even when the full-equator null vector is present.  free marks
    the free nodes among all mesh nodes; diag and mass are the diagonals of
    K and M on them.
    """

    def __init__(self, mesh: HemisphereMesh, free_eq: np.ndarray):
        g_theta, g_phi, mass = mesh.rings
        nt, nph = mesh.ntheta, mesh.nphi
        self.mesh = mesh
        self.free = np.ones(1 + nt * nph, dtype=bool)
        self.free[-nph:] = free_eq
        self.mass = _node_mass(mesh)[self.free]
        # K's diagonal: the pole's nphi faces; a ring node's faces to the
        # next ring (none on the equator), in phi, to the previous ring or
        # the pole, and in phi
        ring = np.append(g_theta[1:], 0.0) + g_phi + g_theta + g_phi
        self.diag = np.append(nph * g_theta[0], np.repeat(ring, nph))[self.free]
        self.sigma = sigma = -1e-8 * float(self.diag.mean())
        lam = 4.0 * np.sin(math.pi * np.arange(nph // 2 + 1) / nph) ** 2
        # one chain per mode: the pole slot at the far end, rings 1..nt-1 and
        # the equator ring as the boundary.  In mode 0 the pole is unit-scaled
        # (its value times sqrt(nphi)) and joins ring 1 by g_theta[0]; in the
        # others it is a decoupled unit row and ring 1 sees g_theta[0] against
        # zero
        shunt = np.empty((lam.size, nt + 1))
        shunt[:, 1:] = (g_phi[:, None] * lam - sigma * mass[1:, None]).T
        shunt[0, 0] = -sigma * mass[0] / nph
        shunt[1:, 0] = 1.0
        shunt[1:, 1] += g_theta[0]
        cond = np.tile(g_theta, (lam.size, 1))
        cond[1:, 0] = 0.0
        self._chains = ModeChains(shunt, cond, 0.0)
        self._free = np.flatnonzero(free_eq)
        circ = np.fft.irfft(self._chains.symbol, nph)
        S = circ[np.subtract.outer(self._free, self._free) % nph]
        try:
            self._chol = sla.cho_factor(S)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise ConvergenceError("equator Schur complement is not positive "
                                   "definite") from exc
        # ||(K - sigma M)_ff|| in the max norm: row p sums diag_p - sigma m_p
        # and its free off-diagonals, whose moduli add up to diag_p - (K_ff 1)_p
        self._A_norm = float((2.0 * self.diag - self.flux(np.ones_like(self.diag))
                              - sigma * self.mass).max())
        self._g_eq = g_theta[-1]
        self._n_int = 1 + (nt - 1) * nph
        self._nphi = nph

    def flux(self, x: np.ndarray) -> np.ndarray:
        """K_ff x, face by face."""
        u = np.zeros(self.free.size)
        u[self.free] = x
        return _ring_flux(self.mesh, u)[self.free]

    def solve(self, b: np.ndarray) -> np.ndarray:
        nph, ni = self._nphi, self._n_int
        rings = np.fft.rfft(b[1:ni].reshape(-1, nph), axis=1, norm="ortho")
        z = np.zeros((rings.shape[1], rings.shape[0] + 1), dtype=complex)
        z[0, 0] = b[0] / math.sqrt(nph)  # the unit-scaled pole
        z[:, 1:] = rings.T
        z = self._chains.solve(z)
        below = np.fft.irfft(z[:, -1], nph, norm="ortho")  # z on ring nt-1
        eq = np.zeros(nph)
        eq[self._free] = sla.cho_solve(  # NaN is caught by the check below
            self._chol, b[ni:] + self._g_eq * below[self._free],
            check_finite=False)
        z += self._chains.response * np.fft.rfft(eq, norm="ortho")[:, None]
        x = np.empty_like(b)
        x[0] = z[0, 0].real / math.sqrt(nph)
        x[1:ni] = np.fft.irfft(z[:, 1:].T, nph, axis=1, norm="ortho").ravel()
        x[ni:] = eq[self._free]
        r = b - self.flux(x) + self.sigma * self.mass * x
        check_backward_error("hemisphere solve", r, self._A_norm, x, b)
        return x


#: ARPACK tolerance, iteration cap and Lanczos basis size of the N = 2
#: eigen-iteration.  ARPACK fills the whole basis before its first
#: convergence test, so its default of 20 vectors for one eigenpair costs 21
#: shift-invert solves per eigenvalue; 6 vectors converge in 7 to 13.
_ARPACK_TOL = 1e-9
_ARPACK_MAXITER = 2000
_ARPACK_NCV = 6


def _lowest_pair(mesh: HemisphereMesh, free_eq: np.ndarray):
    """Smallest eigenpair of the N = 2 pencil, u = 0 on the equator outside
    free_eq: shift-invert Lanczos (ARPACK) on a basis of _ARPACK_NCV vectors
    from a deterministic start vector, with the inverse applied by a
    _HemisphereSolver.  Returns the eigenvalue and the eigenvector on all
    mesh nodes.
    """
    pencil = _HemisphereSolver(mesh, free_eq)
    n = pencil.mass.size
    K, M, OPinv = (spla.LinearOperator((n, n), matvec=f, dtype=float) for f in
                   (pencil.flux, lambda x: pencil.mass * x, pencil.solve))
    try:
        vals, vecs = spla.eigsh(K, k=1, M=M, sigma=pencil.sigma,
                                which="LM", v0=np.ones(n),
                                ncv=_ARPACK_NCV, tol=_ARPACK_TOL,
                                maxiter=_ARPACK_MAXITER, OPinv=OPinv)
    except spla.ArpackNoConvergence as exc:  # pragma: no cover
        raise ConvergenceError("eigen-iteration did not converge",
                               iterations=_ARPACK_MAXITER) from exc
    vec = np.zeros(pencil.free.size)
    vec[pencil.free] = vecs[:, 0]
    return max(float(vals[0]), 0.0), vec


def lambda1(mesh: HemisphereMesh, omega: EquatorRegion):
    """First eigenvalue with u = 0 on the equator outside omega.

    Returns (eigenvalue, eigenfunction on all mesh nodes); the eigenfunction
    is normalized sign-definite, first nonzero entry positive.  The N = 2
    iteration is ARPACK's (tolerance _ARPACK_TOL, a Lanczos basis of
    _ARPACK_NCV vectors); the N = 1 solve is direct.
    """
    if mesh.params.N == 1:
        lam, vec = _half_circle_pair(
            mesh, omega.ends if omega.ends is not None else (False, False))
    else:
        lam, vec = _lowest_pair(mesh, omega.contains(mesh.phi))
    nz = np.flatnonzero(np.abs(vec) > 1e-12 * np.abs(vec).max())
    if nz.size and vec[nz[0]] < 0:
        vec = -vec
    return lam, vec


def lambda1_codim1(mesh: HemisphereMesh):
    """Eigenvalue with Dirichlet data only at the two equator nodes nearest
    the x1 = 0 plane (N = 2, s > 1/2 for a capacity-positive constraint)."""
    if mesh.params.N != 2:
        raise ConfigurationError("codim-1 constraint needs the N = 2 mesh")
    phi = mesh.phi
    free_eq = np.ones(mesh.nphi, dtype=bool)
    for target in (0.5 * math.pi, 1.5 * math.pi):
        free_eq[int(np.argmin(np.abs(phi - target)))] = False
    return _lowest_pair(mesh, free_eq)[0]


@dataclass
class CapScanResult:
    s: float
    nu_hat: float
    argmin: CapPair
    table: list  # rows (t1, t2, lam1, lam2, gamma1, gamma2, mean_gamma)
    #: mass-weighted overlap of the optimal pair's eigenfunction supports,
    #: recorded as data: the minimizers separate on the equator only, not on
    #: the whole hemisphere
    support_overlap: float = float("nan")


def nu_acf_caps(mesh: HemisphereMesh, radii_grid=None) -> CapScanResult:
    """Scan antipodally centered cap pairs for the minimal mean homogeneity.

    Evaluates (gamma(lambda1(cap t1)) + gamma(lambda1(cap t2)))/2 over the
    grid of disjoint cap pairs and returns the minimum: an upper bound for
    the partition infimum, restricted to caps.  Cap radius 0 is the empty
    region; radius pi is the full equator.  Caps need the N = 2 mesh: an
    N = 1 equator is two points, with no cap between them.
    """
    p = mesh.params
    if p.N != 2:
        raise ConfigurationError("cap scan needs the N = 2 mesh")
    if radii_grid is None:
        radii_grid = np.linspace(0.0, math.pi, 9)
    radii_grid = np.asarray(radii_grid, dtype=float)
    pair_cache: dict[float, tuple] = {}

    def pair_of(t: float) -> tuple:
        key = round(float(t), 12)
        if key not in pair_cache:
            pair_cache[key] = lambda1(mesh, EquatorRegion.cap(0.0, t))
        return pair_cache[key]

    table = []
    best = (math.inf, None)
    for t1 in radii_grid:
        for t2 in radii_grid:
            if t1 > t2 or t1 + t2 > math.pi + 1e-12:
                continue
            l1, l2 = pair_of(t1)[0], pair_of(t2)[0]
            g1, g2 = gamma_map(l1, p), gamma_map(l2, p)
            mean = 0.5 * (g1 + g2)
            table.append((float(t1), float(t2), l1, l2, g1, g2, mean))
            if mean < best[0]:
                best = (mean, CapPair(float(t1), float(t2)))
    overlap = _support_overlap(mesh, best[1], pair_of(best[1].t1)[1])
    return CapScanResult(s=p.s, nu_hat=best[0], argmin=best[1], table=table,
                         support_overlap=overlap)


def _support_overlap(mesh: HemisphereMesh, pair: CapPair, u1: np.ndarray) -> float:
    """Mass-weighted overlap of the optimal eigenfunction pair's supports.

    u1 is the scan's eigenfunction of cap(0, t1).  The cap about pi is
    solved anew: it is not the rotation of the scan's cap(0, t2), since a
    rotation may round its boundary nodes, which are ties, differently.
    """
    m = _node_mass(mesh)
    _, u2 = lambda1(mesh, EquatorRegion.cap(math.pi, pair.t2))
    a1, a2 = np.abs(u1), np.abs(u2)
    both = float(np.sum(m * a1 * a2))
    norm = math.sqrt(float(np.sum(m * a1 * a1)) * float(np.sum(m * a2 * a2)))
    return both / norm if norm > 0 else 0.0
