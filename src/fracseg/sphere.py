"""Weighted hemisphere eigenvalues and the two-cap partition scan.

Solves the first eigenvalue of the weighted Laplace-Beltrami form on the
upper hemisphere with Dirichlet conditions on part of the equator: the
Rayleigh quotient of int y^a |grad_T u|^2 over int y^a u^2, with y the
vertical coordinate of the sphere point.  The N = 2 mesh is a (psi, phi)
tensor grid with a collapsed pole and cells graded toward the equator; each
eigenvalue is a root of the equator's Schur complement, found by Newton's
method on per-mode chains; the N = 1 half-circle is a cheap oracle.  The
cap scan returns the least mean homogeneity of antipodally centered caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla  # unused here; the traced benchmark hooks sphere.spla
from scipy.special import beta, betainc, digamma, hyp2f1, poch

from .core import FracParams, gamma_map
from .errors import ConfigurationError, ConvergenceError
from .grid import ModeChains, check_backward_error, one_blas_thread

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
        for lo, hi in self.arcs:  # an arc of 2 pi holds every angle
            out |= (np.mod(np.asarray(phi) - lo, _TWO_PI) < hi - lo) \
                | (hi - lo >= _TWO_PI - 1e-12)
        return out


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
        g, t = self.grading_exp, np.arange(self.ntheta + 1) / self.ntheta
        return math.pi * t ** g / (t ** g + (1.0 - t) ** g)

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


@one_blas_thread()
def _tridiagonal_pair(diag: np.ndarray, off: np.ndarray, mass: np.ndarray):
    """Lowest eigenpair of the tridiagonal pencil (diag, off; mass) as
    M^-1/2 K M^-1/2, whose entries span many decades (5e18 at 256 cells,
    s = 1/4): bisection to the smallest absolute tolerance keeps its digits."""
    if not np.all(np.isfinite(np.concatenate((diag, off, mass)))):
        raise ConvergenceError("tridiagonal pencil is not finite")
    root = np.sqrt(mass)
    vals, vecs = sla.eigh_tridiagonal(
        diag / mass, off / (root[:-1] * root[1:]),
        select="i", select_range=(0, 0), tol=np.finfo(float).tiny)
    return max(float(vals[0]), 0.0), vecs[:, 0] / root


def _half_circle_pair(mesh: HemisphereMesh, ends: tuple):
    """Smallest eigenpair of the half-circle (N = 1), free endpoints per
    ends: edge conductances and lumped masses integrate sin^a exactly."""
    al, n = mesh.alpha, mesh.alpha.size
    edges = np.concatenate(([al[0]], 0.5 * (al[:-1] + al[1:]), [al[-1]]))
    ints = _int_sin_pow(mesh.params.a, np.concatenate((al[:-1], edges[:-1])),
                        np.concatenate((al[1:], edges[1:])))
    cond, mass = ints[:n - 1] / np.diff(al) ** 2, ints[n - 1:]
    deg = np.append(cond, 0.0) + np.append(0.0, cond)
    lo, hi = (0 if ends[0] else 1), (n if ends[1] else n - 1)
    vec = np.zeros(n)
    lam, vec[lo:hi] = _tridiagonal_pair(deg[lo:hi], -cond[lo:hi - 1], mass[lo:hi])
    return lam, vec


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


class _ModePencil:
    """K - lam M (N = 2) as one ModeChains chain per real Fourier mode in phi:
    the pole (times sqrt(nphi) in mode 0, a unit row in the others), rings
    1..nt-1 and the equator as the boundary, shunts shunt + lam dshunt.
    Below the interior Dirichlet eigenvalue lam_D they leave on the equator
    the circulant C(lam) of their symbol s_m, decreasing and concave in lam."""

    def __init__(self, mesh: HemisphereMesh):
        g_theta, g_phi, mass = mesh.rings
        nt, nph = mesh.ntheta, mesh.nphi
        eig = 4.0 * np.sin(math.pi * np.arange(nph // 2 + 1) / nph) ** 2
        self.shunt = np.multiply.outer(eig, np.append(0.0, g_phi))
        self.shunt[1:, 0] = 1.0  # the pole, a unit row outside mode 0
        self.shunt[1:, 1] += g_theta[0]
        self.dshunt = np.tile(-np.append(mass[0] / nph, mass[1:]), (eig.size, 1))
        self.cond = np.tile(g_theta, (eig.size, 1))
        self.dshunt[1:, 0] = self.cond[1:, 0] = 0.0
        self.weight = np.where(np.arange(eig.size) % (nph // 2), 2.0, 1.0)  # rfft
        self.mesh, self.mass = mesh, _node_mass(mesh)
        ring = np.append(g_theta[1:], 0.0) + g_theta + 2.0 * g_phi  # K's diagonal
        self._k_norm = 2.0 * max(nph * g_theta[0], float(ring.max()))  # ||K||

    def sweep(self, lam: np.ndarray) -> tuple:
        """Per shift: whether the chains are definite, s_m and ds_m/dlam; as
        drho_i = dshunt_i + (c / (c + rho))^2 drho_{i-1}, a sum of products."""
        pivots, sym = ModeChains.eliminate(
            self.shunt + lam[:, None, None] * self.dshunt, self.cond, 0.0)
        q2 = np.cumprod(((self.cond / pivots) ** 2)[..., ::-1], axis=-1)[..., ::-1]
        dsym = self.dshunt[:, -1] + np.sum(self.dshunt[:, :-1] * q2, axis=-1)
        return np.all(pivots > 0, axis=(1, 2)), sym, dsym

    def extend(self, lam: float, eq: np.ndarray, z=None) -> np.ndarray:
        """All nodes from equator values eq and interior modes z (by default
        the response of the chains shifted by lam to eq)."""
        if z is None:
            z = ModeChains(self.shunt + lam * self.dshunt, self.cond, 0.0).response \
                * np.fft.rfft(eq, norm="ortho")[:, None]
        rings = np.fft.irfft(z[:, 1:].T, eq.size, axis=1, norm="ortho")
        return np.concatenate(([z[0, 0].real / math.sqrt(eq.size)], rings.ravel(), eq))

    @cached_property
    def empty(self) -> tuple:
        """Lowest eigenpair with the whole equator Dirichlet, lam_D: the mode-0
        interior chain, ring nt-1 tied to the equator by g_theta[-1]."""
        c = self.cond[0]
        lam, v = _tridiagonal_pair(self.shunt[0, :-1] + c + np.append(0.0, c[:-1]),
                                   -c[:-1], -self.dshunt[0, :-1])
        z = np.zeros(self.cond.shape)
        z[0] = v
        return lam, self.extend(lam, np.zeros(self.mesh.nphi), z)

    def check(self, lam: float, u: np.ndarray, free_eq: np.ndarray) -> None:
        """Gate ||(K - lam M) u|| / ((||K|| + lam ||M||) ||u||) on free nodes."""
        r = _ring_flux(self.mesh, u) - lam * self.mass * u
        r[r.size - free_eq.size:][~free_eq] = 0.0  # Dirichlet rows hold no equation
        check_backward_error("hemisphere eigenpair", r,
                             self._k_norm + lam * float(self.mass.max()), u, 0.0)


_MAX_EVALS = 60  # Newton evaluations allowed per eigenvalue


@one_blas_thread()
def _lockstep_roots(count: int, evaluate, pole=lambda: math.inf):
    """Smallest roots of count decreasing concave mu > 0 at 0, by Newton in
    lockstep: evaluate(lam, todo) gives mu, mu', ok (False at or past a pole,
    then halved back) and a vector each.  Tangents land right of the root,
    or at that of a - b / (pole - lam) past pole(), and decrease to the
    round-off floor: mu not negative or not increasing, or a step of ulps."""
    lam, lo, last = np.zeros(count), np.zeros(count), np.zeros(count)
    right, todo, vecs, shifts = np.zeros(count, dtype=bool), np.arange(count), {}, []

    def failure(message):
        return ConvergenceError(message, iterations=len(shifts), history=[
            [float(h[k]) for h in shifts] for k in todo])

    while todo.size:
        shifts.append(lam.copy())
        at = lam[todo]
        mu, dmu, ok, got = evaluate(at, todo)
        if not np.all(ok | (at > lo[todo])):
            raise failure("hemisphere chains are not definite left of the eigenvalue")
        pole = pole() if len(shifts) == 1 else pole
        with np.errstate(divide="ignore", invalid="ignore"):
            step = at - mu / dmu
            step = np.where(step < pole, step, at + mu / (mu / (pole - at) - dmu))
            step = np.where(ok, step, 0.5 * (lo[todo] + at))
        done = ok & right[todo] & ((mu >= 0) | (mu <= last[todo]) | (step >= at)
                                   | (at - step <= 8.0 * np.finfo(float).eps * at))
        lo[todo] = np.where(ok & (mu > 0), at, lo[todo])
        right[todo] |= ok & (mu <= 0)
        last[todo] = mu
        vecs.update(zip(todo, got))
        lam[todo] = np.where(done, at, step)
        todo = todo[~done]
        if todo.size and len(shifts) == _MAX_EVALS:
            raise failure("hemisphere eigen-iteration did not converge")
    return lam, [vecs[k] for k in range(count)]


def _lowest_pairs(mesh: HemisphereMesh, frees: list) -> list:
    """Smallest eigenpair (N = 2) per free equator set F: 0 on the full
    equator, lam_D on the empty one, else the root of mu = min eig C_FF(lam)
    below lam_D (Sylvester), mu' = v^T C'_FF v: the Rayleigh functional
    iteration (Voss and Werner, Math. Methods Appl. Sci. 4, 1982) on all
    sets in lockstep.  The null vector, extended by the chains' response, is
    the eigenvector; every pair passes the residual gate."""
    pencil, nph = _ModePencil(mesh), mesh.nphi
    out = [(0.0, np.ones(pencil.mass.size)) if free.all() else
           pencil.empty if not free.any() else None for free in frees]
    newton = [k for k, pair in enumerate(out) if pair is None]
    sets = [np.flatnonzero(frees[k]) for k in newton]

    def evaluate(lam, todo):
        ok, sym, dsym = pencil.sweep(lam)
        circ = np.fft.irfft(sym, nph)
        mu, dmu, eqs = np.full(lam.size, np.nan), np.full(lam.size, np.nan), []
        for j, F in enumerate(sets[k] for k in todo):
            eqs.append(np.zeros(nph))
            if ok[j]:
                w, v = sla.eigh(circ[j][np.subtract.outer(F, F) % nph],
                                subset_by_index=(0, 0))
                eqs[j][F] = v[:, 0]
                ehat = np.abs(np.fft.rfft(eqs[j], norm="ortho")) ** 2
                mu[j], dmu[j] = w[0], pencil.weight @ (dsym[j] * ehat)
        return mu, dmu, ok, eqs

    lams, eqs = _lockstep_roots(len(newton), evaluate, lambda: pencil.empty[0])
    for k, lam, eq in zip(newton, lams, eqs):
        out[k] = (float(lam), pencil.extend(lam, eq))
    for (lam, u), free in zip(out, frees):
        pencil.check(lam, u, free)
    return [(max(lam, 0.0), u) for lam, u in out]


def lambda1(mesh: HemisphereMesh, omega: EquatorRegion):
    """First eigenpair with u = 0 on the equator outside omega, the vector on
    all mesh nodes with its first nonzero entry positive: on N = 2 from the
    equator's Schur complement, on the N = 1 half-circle one eigh.  omega
    must be built for the mesh's N: ends on N = 1, arcs alone on N = 2."""
    if (mesh.params.N == 1) != (omega.ends is not None):
        raise ConfigurationError(f"equator region does not match the N = "
                                 f"{mesh.params.N} mesh")
    if mesh.params.N == 1:
        lam, vec = _half_circle_pair(mesh, omega.ends)
    else:
        lam, vec = _lowest_pairs(mesh, [omega.contains(mesh.phi)])[0]
    nz = np.flatnonzero(np.abs(vec) > 1e-12 * np.abs(vec).max())
    return lam, -vec if nz.size and vec[nz[0]] < 0 else vec


def lambda1_codim1(mesh: HemisphereMesh):
    """Eigenvalue with Dirichlet data only at the equator nodes p, q at
    phi = pi/2, 3pi/2 (N = 2, nphi divisible by 4; s > 1/2 for a
    capacity-positive constraint).  det C_FF = det C det (C^-1)_DD (Golub,
    SIAM Rev. 15, 1973); (C^-1)_DD has the eigenvalues 2/n times the even-
    and the odd-mode sum of 1/s_m, and below nu_1, the mode-1 full-region
    eigenvalue, lam_1 is the root of the even one: Newton on the decreasing,
    concave 1 + s_0 sum_{m > 0 even} 1/s_m, eigenvector C^-1 (e_p + e_q)."""
    if mesh.params.N != 2 or mesh.nphi % 4:
        raise ConfigurationError("codim-1 constraint needs the N = 2 mesh with "
                                 "nphi divisible by 4")
    pencil, nph = _ModePencil(mesh), mesh.nphi
    even = np.where(np.arange(1, pencil.weight.size) % 2, 0.0, pencil.weight[1:])
    free = (np.arange(nph) - nph // 4) % (nph // 2) != 0  # all but p and q

    def evaluate(lam, todo):
        ok, sym, dsym = pencil.sweep(lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            rest = (even / sym[:, 1:]).sum(axis=1)
            drest = -(even * dsym[:, 1:] / sym[:, 1:] ** 2).sum(axis=1)
            eqs = np.fft.irfft(np.fft.rfft(~free) / sym, nph) * free
        return (1.0 + sym[:, 0] * rest, dsym[:, 0] * rest + sym[:, 0] * drest,
                ok & np.all(sym[:, 1:] > 0, axis=1), list(eqs))  # below nu_1

    (lam,), (eq,) = _lockstep_roots(1, evaluate)
    pencil.check(lam, pencil.extend(lam, eq), free)
    return max(float(lam), 0.0)


@dataclass
class CapScanResult:
    nu_hat: float
    argmin: tuple  # (t1, t2), the angular radii of the optimal cap pair
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
    radii_grid = np.asarray(np.linspace(0.0, math.pi, 9) if radii_grid is None
                            else radii_grid, dtype=float)
    radii = {round(float(t), 12): t for t in radii_grid}  # one cap per key
    pairs = dict(zip(radii, _lowest_pairs(mesh, [
        EquatorRegion.cap(0.0, t).contains(mesh.phi) for t in radii.values()])))
    table = []
    best = (math.inf, None, None, None)
    for t1 in radii_grid:
        for t2 in radii_grid:
            if t1 > t2 or t1 + t2 > math.pi + 1e-12:
                continue
            (l1, u1), (l2, u2) = (pairs[round(float(t), 12)] for t in (t1, t2))
            g1, g2 = gamma_map(l1, p), gamma_map(l2, p)
            mean = 0.5 * (g1 + g2)
            table.append((float(t1), float(t2), l1, l2, g1, g2, mean))
            if mean < best[0]:
                best = (mean, (float(t1), float(t2)), u1, u2)
    return CapScanResult(nu_hat=best[0], argmin=best[1], table=table,
                         support_overlap=_support_overlap(mesh, *best[2:]))


def _support_overlap(mesh: HemisphereMesh, u1: np.ndarray, u2: np.ndarray) -> float:
    """Mass-weighted overlap of the optimal eigenfunction pair's supports.

    u1, u2 are the scan's eigenfunctions of cap(0, t1) and cap(0, t2).  The
    mesh is invariant under the turn by pi (nphi / 2 nodes per ring, the pole
    fixed), so u2 turned is the eigenfunction of cap(0, t2) turned by pi.
    """
    m = _node_mass(mesh)
    rings = np.roll(u2[1:].reshape(mesh.ntheta, -1), mesh.nphi // 2, axis=1)
    a1, a2 = np.abs(u1), np.abs(np.append(u2[0], rings))
    both = float(np.sum(m * a1 * a2))
    norm = math.sqrt(float(np.sum(m * a1 * a1)) * float(np.sum(m * a2 * a2)))
    return both / norm if norm > 0 else 0.0
