"""Weighted hemisphere eigenvalues and the cap-partition scan."""

import math
import types

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sps
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.special import beta as beta_fn

import fracseg.grid as grid_mod
from fracseg import sphere
from fracseg.core import FracParams
from fracseg.errors import ConfigurationError, ConvergenceError
from fracseg.grid import BACKWARD_TOL, ModeChains
from fracseg.sphere import (EquatorRegion, HemisphereMesh, lambda1, lambda1_codim1,
                            nu_acf_caps)

S_GRID = (0.25, 0.5, 0.75)


def mesh2(s, nt=64, nph=128):
    return HemisphereMesh(params=FracParams(s=s, N=2), ntheta=nt, nphi=nph)


def eigenfunction_sign_definite(vec: np.ndarray, rtol: float = 1e-8) -> bool:
    scale = np.abs(vec).max()
    if scale == 0:
        return True
    return vec.min() >= -rtol * scale or vec.max() <= rtol * scale


def test_half_circle_landmarks():
    for s in S_GRID:
        mesh = HemisphereMesh(params=FracParams(s=s, N=1), ntheta=256)
        lam_e, vec = lambda1(mesh, EquatorRegion.empty(1))
        assert lam_e == pytest.approx(2 * s, rel=2e-3)
        assert eigenfunction_sign_definite(vec)
        lam_f, _ = lambda1(mesh, EquatorRegion.full(1))
        assert abs(lam_f) < 1e-8
        lam_h, _ = lambda1(mesh, EquatorRegion.half(1))
        assert lam_h == pytest.approx(s * (1 - s), rel=2e-3)


def test_region_of_the_other_dimension_is_rejected():
    # an N = 1 mesh reads the region's ends, an N = 2 mesh its arcs: a
    # region built for the other N raises, where it used to read as the
    # empty equator
    one = HemisphereMesh(params=FracParams(s=0.5, N=1), ntheta=32)
    two = mesh2(0.5, nt=16, nph=32)
    assert lambda1(one, EquatorRegion.half(1))[0] == pytest.approx(0.25, rel=2e-3)
    assert lambda1(two, EquatorRegion.half(2))[0] < 1.0
    for mesh, N in ((one, 2), (two, 1)):
        for make in (EquatorRegion.empty, EquatorRegion.half, EquatorRegion.full):
            with pytest.raises(ConfigurationError, match="does not match"):
                lambda1(mesh, make(N))


def _sin_pow_series(d, a):
    """Three-term primitive of sin^a near 0: an independent oracle for d
    below 1e-2, where the next term is below 1e-12 relative."""
    return (d ** (1 + a) / (1 + a) - (a / 6) * d ** (3 + a) / (3 + a)
            + (a * a / 72 - a / 180) * d ** (5 + a) / (5 + a))


@pytest.mark.parametrize("ntheta", [64, 256])
@pytest.mark.parametrize("s", S_GRID)
def test_half_circle_cell_integrals(s, ntheta):
    a = 1.0 - 2.0 * s
    al = HemisphereMesh(params=FracParams(s=s, N=1), ntheta=ntheta).alpha
    lo, hi = al[:-1], al[1:]
    cells = sphere._int_sin_pow(a, lo, hi)
    assert cells.sum() == pytest.approx(beta_fn(0.5 * (1 + a), 0.5), rel=1e-13)
    # near pi the series runs in d = pi - alpha, exact in floating point for
    # alpha >= pi/2; the mirrored closed form must keep these digits.  Only
    # the mild grading at s = 3/4 with 64 cells puts no cell this close.
    near0 = hi <= 1e-2
    nearpi = lo >= math.pi - 1e-2
    assert near0.any() == nearpi.any() == (s < 0.7 or ntheta > 64)
    ref0 = _sin_pow_series(hi[near0], a) - _sin_pow_series(lo[near0], a)
    refpi = (_sin_pow_series(math.pi - lo[nearpi], a)
             - _sin_pow_series(math.pi - hi[nearpi], a))
    assert np.all(np.abs(cells[near0] / ref0 - 1.0) <= 1e-12)
    assert np.all(np.abs(cells[nearpi] / refpi - 1.0) <= 1e-12)
    mid = (lo >= 1e-2) & (hi <= math.pi - 1e-2)
    ref = [quad(lambda t: math.sin(t) ** a, l, h, epsabs=0.0, epsrel=1e-13)[0]
           for l, h in zip(lo[mid], hi[mid])]
    assert np.abs(cells[mid] / np.array(ref) - 1.0).max() <= 1e-11


def test_hemisphere_landmarks():
    for s in S_GRID:
        mesh = mesh2(s)
        lam_e, ve = lambda1(mesh, EquatorRegion.empty(2))
        assert lam_e == pytest.approx(4 * s, rel=0.02)
        lam_f, vf = lambda1(mesh, EquatorRegion.full(2))
        assert abs(lam_f) < 1e-8
        lam_h, vh = lambda1(mesh, EquatorRegion.half(2))
        assert lam_h == pytest.approx(s * (2 - s), rel=0.02)
        for vec in (ve, vf, vh):
            assert eigenfunction_sign_definite(vec)


def test_eigenvalue_monotone_in_region():
    mesh = mesh2(0.5, nt=32, nph=64)
    lam = []
    for radius in (math.pi / 4, math.pi / 2, math.pi):
        region = EquatorRegion.cap(0.0, radius)
        lam.append(lambda1(mesh, region)[0])
    # enlarging the free region can only lower the eigenvalue
    assert lam[0] >= lam[1] >= lam[2] - 1e-12


def test_rotation_invariance_on_grid_shifts():
    mesh = mesh2(0.5, nt=32, nph=64)
    dphi = 2 * math.pi / 64
    lam0 = lambda1(mesh, EquatorRegion.cap(0.0, math.pi / 3))[0]
    for shift in (5, 17, 32):
        lam = lambda1(mesh, EquatorRegion.cap(shift * dphi, math.pi / 3))[0]
        assert lam == pytest.approx(lam0, rel=1e-9)


def test_refinement_convergence():
    p = FracParams(s=0.5, N=2)
    errs = []
    for nt in (32, 64):
        mesh = HemisphereMesh(params=p, ntheta=nt, nphi=2 * nt)
        lam, _ = lambda1(mesh, EquatorRegion.empty(2))
        errs.append(abs(lam - 2.0))
    assert errs[0] / errs[1] >= 1.8


def _ring_reference(mesh, mp):
    """30-digit ring coefficients between the mesh's own float nodes.

    The phi strips integrate sin^a/cos in w = sin^{1+a}(psi), where the
    integrand 1/((1+a)(1 - w^{2/(1+a)})) has no equator singularity; in psi
    itself mp.quad is 21 % off on the equator strip at s = 0.99, 64 rings.
    Returns functions of the ring index.
    """
    psi = mesh.psi
    dual = np.concatenate(([psi[0]], 0.5 * (psi[:-1] + psi[1:]), [psi[-1]]))
    a = mp.mpf(mesh.params.a)
    dphi = 2 * mp.pi / mesh.nphi

    def w(p):
        return mp.sin(mp.mpf(p)) ** (1 + a)

    def g_theta(i):
        gap = mp.mpf(psi[i]) - mp.mpf(psi[i + 1])
        return (w(psi[i]) - w(psi[i + 1])) / (1 + a) / gap ** 2 * dphi

    def g_phi(i):  # ring i >= 1, the dual strip [dual[i + 1], dual[i]]
        f = lambda v: 1 / ((1 + a) * (1 - v ** (2 / (1 + a))))
        return mp.quad(f, [w(dual[i + 1]), w(dual[i])]) / dphi

    def mass(i):
        cell = (w(dual[i]) - w(dual[i + 1])) / (1 + a) * dphi
        return cell * mesh.nphi if i == 0 else cell

    return g_theta, g_phi, mass


@pytest.mark.parametrize("s, nt", [(s, nt) for s in S_GRID for nt in (32, 64, 128)]
                         + [(0.1, 64), (0.99, 64), (0.99, 1024)])
def test_ring_coefficients_match_mpmath(s, nt):
    mp = pytest.importorskip("mpmath")
    mesh = mesh2(s, nt=nt)
    g_theta, g_phi, mass = mesh.rings
    strips = sorted({1, 2, 3, nt // 2, nt - 1, nt})  # the pole and equator too
    with mp.workdps(30):
        ref_theta, ref_phi, ref_mass = _ring_reference(mesh, mp)
        for i in strips:
            assert abs(g_phi[i - 1] / float(ref_phi(i)) - 1.0) <= 1e-11, i
            assert abs(g_theta[i - 1] / float(ref_theta(i - 1)) - 1.0) <= 1e-10, i
        for i in [0] + strips:
            assert abs(mass[i] / float(ref_mass(i)) - 1.0) <= 1e-10, i


def test_half_region_converges_near_s_one():
    # the equator strips' weight sin^a/cos is singular for s > 1/2; an
    # adaptive rule there put the half-region eigenvalue 80 % high at s = 0.99
    s = 0.99
    errs = [lambda1(mesh2(s, nt=nt, nph=2 * nt), EquatorRegion.half(2))[0]
            / (s * (2 - s)) - 1.0 for nt in (32, 64)]
    assert abs(errs[1]) <= 0.035
    assert abs(errs[0]) / abs(errs[1]) >= 1.9  # first order: about halves


def test_fine_polar_grading_keeps_every_ring():
    # grading exponent 8: measured from the pole, these nodes rounded into
    # pi/2; from the equator they stay distinct down to exactly 0
    mesh = HemisphereMesh(params=FracParams(s=0.1, N=2), ntheta=1024)
    assert mesh.psi[-1] == 0.0 and np.all(np.diff(mesh.psi) < 0)
    for coef in mesh.rings:
        assert np.all(np.isfinite(coef)) and np.all(coef > 0)


def test_codim1_landmark_and_capacity_trend():
    # s > 1/2: the two-point constraint has positive capacity
    lam = lambda1_codim1(mesh2(0.9, nt=64, nph=128))
    assert lam == pytest.approx(0.8, rel=0.05)
    errs = []
    for nt, nph in ((32, 128), (64, 512)):
        errs.append(abs(lambda1_codim1(mesh2(0.75, nt=nt, nph=nph)) - 0.5))
    assert errs[1] < errs[0]
    # s <= 1/2: zero capacity, the eigenvalue collapses under refinement
    lam_c = [lambda1_codim1(mesh2(0.4, nt=nt, nph=2 * nt)) for nt in (16, 32, 64)]
    assert lam_c[0] > lam_c[1] > lam_c[2]
    assert lam_c[2] < 0.7 * lam_c[0]


def test_codim1_needs_n2():
    with pytest.raises(ConfigurationError):
        lambda1_codim1(HemisphereMesh(params=FracParams(s=0.75, N=1), ntheta=32))


def test_region_and_cap_validation():
    with pytest.raises(ValueError):
        EquatorRegion(arcs=((0.0, 8.0),))  # exceeds the circle
    with pytest.raises(ValueError):
        EquatorRegion(arcs=((1.0, 0.5),))
    region = EquatorRegion.cap(0.0, math.pi / 2)
    phi = np.array([0.0, math.pi / 4, math.pi, -math.pi / 4 + 2 * math.pi])
    assert list(region.contains(phi)) == [True, True, False, True]


def test_mesh_validation():
    with pytest.raises(ConfigurationError):
        HemisphereMesh(params=FracParams(s=0.5, N=3))
    with pytest.raises(ConfigurationError):
        HemisphereMesh(params=FracParams(s=0.5, N=2), ntheta=2)
    with pytest.raises(ConfigurationError):
        HemisphereMesh(params=FracParams(s=0.5, N=2), nphi=9)


def test_no_free_nodes_error():
    mesh = HemisphereMesh(params=FracParams(s=0.5, N=1), ntheta=16)
    lam, _ = lambda1(mesh, EquatorRegion.empty(1))
    assert lam > 0  # interior stays free even with both endpoints fixed


def test_nu_scan_endpoints_and_bound():
    mesh = mesh2(0.5, nt=48, nph=96)
    res = nu_acf_caps(mesh)
    s = 0.5
    assert 0.0 < res.nu_hat <= s + 0.02
    found_degenerate = found_cut = False
    for t1, t2, _, _, _, _, mean in res.table:
        if t1 == 0.0 and abs(t2 - math.pi) < 1e-12:
            assert mean == pytest.approx(s, rel=0.02)
            found_degenerate = True
        if abs(t1 - math.pi / 2) < 1e-12 and abs(t2 - math.pi / 2) < 1e-12:
            assert mean == pytest.approx(s, rel=0.02)
            found_cut = True
    assert found_degenerate and found_cut
    t1, t2 = res.argmin  # a disjoint pair of the table, at the minimal mean
    assert 0.0 <= t1 and 0.0 <= t2 and t1 + t2 <= math.pi + 1e-12
    assert (t1, t2, res.nu_hat) in {(row[0], row[1], row[6]) for row in res.table}


def test_nu_scan_needs_the_n2_mesh():
    # an N = 1 equator has no caps: every cap would be solved as the empty
    # region
    mesh = HemisphereMesh(params=FracParams(s=0.5, N=1), ntheta=16)
    with pytest.raises(ConfigurationError, match="N = 2"):
        nu_acf_caps(mesh)


def test_nu_scan_deterministic_table():
    mesh = mesh2(0.25, nt=24, nph=48)
    grid = np.linspace(0.0, math.pi, 5)
    r1 = nu_acf_caps(mesh, grid)
    r2 = nu_acf_caps(mesh, grid)
    assert r1.table == r2.table
    assert r1.nu_hat == r2.nu_hat


def _edge_stiffness(mesh):
    """Reference: K on all mesh nodes, assembled edge by edge from the ring
    coefficients (node 0 the pole, ring i at 1 + (i - 1) nphi + j)."""
    g_theta, g_phi, _ = mesh.rings
    nt, nph = mesh.ntheta, mesh.nphi
    n = 1 + nt * nph

    def node(ring, j):
        return 0 if ring == 0 else 1 + (ring - 1) * nph + j % nph

    K = sps.lil_matrix((n, n))
    edges = [(node(0, 0), node(1, j), g_theta[0]) for j in range(nph)]
    edges += [(node(i, j), node(i + 1, j), g_theta[i])
              for i in range(1, nt) for j in range(nph)]
    edges += [(node(i, j), node(i, j + 1), g_phi[i - 1])
              for i in range(1, nt + 1) for j in range(nph)]
    for p, q, g in edges:
        K[p, q] -= g
        K[q, p] -= g
        K[p, p] += g
        K[q, q] += g
    return K.tocsr()


def _sparse_lu_lambda1(mesh, free_eq):
    """Reference: the pencil assembled edge by edge and shift-inverted
    through one sparse LU on ARPACK's default basis.  Returns the eigenvalue
    and the M-normalized eigenvector on all mesh nodes."""
    mass, nph = mesh.rings[2], mesh.nphi
    m = np.concatenate((mass[:1], np.repeat(mass[1:], nph)))
    free = np.concatenate((np.ones(m.size - nph, dtype=bool), free_eq))
    Kf = _edge_stiffness(mesh)[free][:, free]
    Mf = sps.diags(m[free]).tocsr()
    sigma = -1e-8 * float(Kf.diagonal().mean())
    lu = spla.splu((Kf - sigma * Mf).tocsc())
    OPinv = spla.LinearOperator(Kf.shape, matvec=lu.solve, dtype=float)
    vals, vecs = spla.eigsh(Kf, k=1, M=Mf, sigma=sigma, which="LM",
                            v0=np.ones(Kf.shape[0]), tol=1e-9, OPinv=OPinv)
    vec = np.zeros(m.size)
    vec[free] = vecs[:, 0]
    return max(float(vals[0]), 0.0), vec


def _free_sets(mesh):
    """Free equator sets: the half, a cap and the codim-1 pair of Dirichlet
    nodes at phi = pi/2, 3pi/2."""
    codim1 = np.ones(mesh.nphi, dtype=bool)
    codim1[[mesh.nphi // 4, 3 * mesh.nphi // 4]] = False
    return {"half": EquatorRegion.half(2).contains(mesh.phi),
            "cap": EquatorRegion.cap(0.4, 1.1).contains(mesh.phi),
            "codim1": codim1}


@pytest.mark.parametrize("s", S_GRID)
@pytest.mark.parametrize("nt, nph", [(8, 16), (16, 32)])
def test_ring_flux_is_the_edge_stiffness(s, nt, nph):
    # the eigenpair gate applies K ring by ring and reads ||K|| off the ring
    # coefficients; the pencil assembled edge by edge is the reference.  The
    # mesh is graded toward the equator at every s (exponent 1/s)
    mesh = mesh2(s, nt=nt, nph=nph)
    assert mesh.grading_exp > 1.0
    K = _edge_stiffness(mesh)
    eps = np.finfo(float).eps
    u = np.random.default_rng(7).standard_normal(K.shape[0])
    k_norm = np.abs(K).sum(axis=1).max()
    got = sphere._ring_flux(mesh, u)
    assert np.abs(got - K @ u).max() <= 1e-15 * k_norm * np.abs(u).max()
    # twice a diagonal of four conductances, or the pole's nphi
    assert sphere._ModePencil(mesh)._k_norm == pytest.approx(k_norm, rel=nph * eps)


def _dense_equator_schur(mesh, lam):
    """Reference: the Schur complement of the assembled K - lam M onto the
    equator ring and its lam-derivative -(M_ee + W^T M_ii W), W the interior
    response A_ii^-1 A_ie."""
    nph = mesh.nphi
    A = _edge_stiffness(mesh).toarray()
    m = sphere._node_mass(mesh)
    A -= lam * np.diag(m)
    Aii, Aie, Aee = A[:-nph, :-nph], A[:-nph, -nph:], A[-nph:, -nph:]
    W = np.linalg.solve(Aii, Aie)
    return Aee - Aie.T @ W, -np.diag(m[-nph:]) - W.T @ (m[:-nph, None] * W)


@pytest.mark.parametrize("s", S_GRID)
def test_mode_chains_are_the_equator_schur_complement(s):
    # the chains' symbol is the circulant the interior leaves on the
    # equator, and the differentiated recurrence its lam-derivative, below
    # the interior Dirichlet eigenvalue lam_D, where every chain is definite;
    # nearer lam_D the dense reference itself loses digits
    for nt, nph in ((8, 16), (16, 32)):
        mesh = mesh2(s, nt=nt, nph=nph)
        pencil = sphere._ModePencil(mesh)
        shifts = pencil.empty[0] * np.array([0.0, 0.5, 0.9, 0.9999, 1.0001])
        ok, sym, dsym = pencil.sweep(shifts)
        assert list(ok) == [True, True, True, True, False]
        j = np.subtract.outer(np.arange(nph), np.arange(nph)) % nph
        for row, lam in enumerate(shifts[:3]):
            S, dS = _dense_equator_schur(mesh, lam)
            circ, dcirc = (np.fft.irfft(v[row], nph)[j] for v in (sym, dsym))
            assert np.abs(circ - S).max() <= 1e-12 * np.abs(S).max()
            assert np.abs(dcirc - dS).max() <= 1e-11 * np.abs(dS).max()
            # per mode, ds/dlam = dshunt_n + sum_i dshunt_i w_i^2 with w the
            # shifted chains' response to a unit boundary value
            w = ModeChains(pencil.shunt + lam * pencil.dshunt, pencil.cond, 0.0).response
            want = pencil.dshunt[:, -1] + np.sum(pencil.dshunt[:, :-1] * w * w, axis=1)
            assert np.abs(dsym[row] / want - 1.0).max() <= 1e-12


def _mass_distance(mesh, u, v):
    """Mass-norm distance of u and v after scaling each to unit mass norm
    and aligning their signs."""
    m = sphere._node_mass(mesh)
    u = u / math.sqrt(np.sum(m * u * u))
    v = v / math.sqrt(np.sum(m * v * v))
    v = v if np.sum(m * u * v) >= 0 else -v
    return math.sqrt(np.sum(m * (u - v) ** 2))


@pytest.mark.parametrize("s", S_GRID)
def test_hemisphere_engine_matches_sparse_lu(s):
    for nt, nph in ((16, 32), (24, 48)):
        mesh = mesh2(s, nt=nt, nph=nph)
        regions = {"empty": EquatorRegion.empty(2), "half": EquatorRegion.half(2),
                   "cap": EquatorRegion.cap(0.4, 1.1), "full": EquatorRegion.full(2)}
        for name, region in regions.items():
            lam, vec = lambda1(mesh, region)
            ref, ref_vec = _sparse_lu_lambda1(mesh, region.contains(mesh.phi))
            if name == "full":
                assert abs(lam - ref) <= 1e-10
            else:
                assert lam == pytest.approx(ref, rel=1e-10, abs=0.0)
            assert _mass_distance(mesh, vec, ref_vec) <= 1e-8
        free_eq = np.ones(nph, dtype=bool)
        free_eq[[nph // 4, 3 * nph // 4]] = False  # the nodes at phi = pi/2, 3pi/2
        ref, _ = _sparse_lu_lambda1(mesh, free_eq)
        assert lambda1_codim1(mesh) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_newton_evaluations_per_eigenvalue(monkeypatch):
    # the scan runs its seven interior caps in lockstep, one stacked chain
    # sweep per step, and solves no cap about pi; the first tangent from 0
    # overshoots and the iterates return from the right
    runs = []
    driver = sphere._lockstep_roots

    def counting(count, evaluate, *args):
        evals, sweeps = np.zeros(count, dtype=int), [0]

        def ev(lam, todo):
            evals[todo] += 1
            sweeps[0] += 1
            return evaluate(lam, todo)

        out = driver(count, ev, *args)
        runs.append((evals, sweeps[0]))
        return out

    monkeypatch.setattr(sphere, "_lockstep_roots", counting)
    nu_acf_caps(mesh2(0.25, 64, 128))
    (caps, sweeps), = runs
    assert caps.size == 7 and sweeps == caps.max() <= 10
    runs.clear()
    lambda1_codim1(mesh2(0.75, 64, 512))
    assert runs[0][0].max() <= 8
    # at s = 0.9 on 256 x 256 this cap's mu stops changing at its round-off
    # floor while still negative; without the stop on a mu that no longer
    # increases, the iterates crept down for 21 evaluations
    runs.clear()
    lambda1(mesh2(0.9, 256, 256), EquatorRegion.cap(0.0, math.pi / 4))
    assert runs[0][0].max() <= 12


def test_scan_overlap_reuses_the_t1_eigenpair():
    # the scan hands its cap(0, t1) and cap(0, t2) eigenvectors to the
    # overlap.  The cap(0, t2) vector turned by pi (nphi / 2 nodes per ring,
    # the pole fixed) is an eigenvector of the cap about pi, and the overlap
    # equals that of a fresh solve of that cap
    mesh = mesh2(0.5, nt=24, nph=48)
    res = nu_acf_caps(mesh)
    t1, t2 = res.argmin
    _, u1 = lambda1(mesh, EquatorRegion.cap(0.0, t1))
    lam2, u2 = lambda1(mesh, EquatorRegion.cap(0.0, t2))
    assert res.support_overlap == sphere._support_overlap(mesh, u1, u2)
    turned = np.append(u2[0], np.roll(u2[1:].reshape(24, 48), 24, axis=1))
    sphere._ModePencil(mesh).check(
        lam2, turned, EquatorRegion.cap(math.pi, t2).contains(mesh.phi))
    _, fresh = lambda1(mesh, EquatorRegion.cap(math.pi, t2))
    m, a1, a2 = sphere._node_mass(mesh), np.abs(u1), np.abs(fresh)
    want = np.sum(m * a1 * a2) / math.sqrt(np.sum(m * a1 * a1) * np.sum(m * a2 * a2))
    assert abs(res.support_overlap - want) <= 1e-12


def test_sphere_makes_no_sparse_lu(monkeypatch):
    calls = []

    def forbidden(name):
        def record(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return record

    for name in ("splu", "eigsh", "spsolve"):
        monkeypatch.setattr(spla, name, forbidden(name))
    mesh = mesh2(0.75, nt=16, nph=32)
    lambda1(mesh, EquatorRegion.half(2))
    lambda1_codim1(mesh)
    nu_acf_caps(mesh, np.linspace(0.0, math.pi, 3))
    lambda1(HemisphereMesh(params=FracParams(s=0.75, N=1), ntheta=16),
            EquatorRegion.half(1))
    assert calls == []


class _SkewedResponse(ModeChains):
    """Chains whose interior response to the equator is 1e-6 off."""

    def __init__(self, *args):
        super().__init__(*args)
        self.response = self.response * (1.0 + 1e-6)


def test_lambda1_checks_every_solve(monkeypatch):
    # an eigenvector extended 1e-6 off into the interior fails the shared
    # backward-error gate on (K - lam M) u, for a region, the scan and
    # codim-1
    monkeypatch.setattr(sphere, "ModeChains", _SkewedResponse)
    mesh = mesh2(0.5, nt=16, nph=32)
    for run in (lambda: lambda1(mesh, EquatorRegion.half(2)),
                lambda: nu_acf_caps(mesh, np.linspace(0.0, math.pi, 3)),
                lambda: lambda1_codim1(mesh)):
        with pytest.raises(ConvergenceError, match="eigenpair failed") as err:
            run()
        assert err.value.residual > BACKWARD_TOL


def test_hemisphere_solver_rejects_nan():
    # a NaN ring coefficient reaches every mode's chain: the first shift,
    # 0, is not definite, and the iteration stops there with its history
    mesh = mesh2(0.5, nt=8, nph=16)
    mesh.rings[1][3] = np.nan  # the phi conductance of ring 4
    for run in (lambda: lambda1(mesh, EquatorRegion.half(2)),
                lambda: lambda1_codim1(mesh)):
        with pytest.raises(ConvergenceError, match="not definite") as err:
            run()
        assert err.value.iterations == 1 and err.value.history == [[0.0]]
    with pytest.raises(ConvergenceError, match="not finite"):
        lambda1(mesh, EquatorRegion.empty(2))


def test_eigen_iteration_cap_reports_its_shifts(monkeypatch):
    monkeypatch.setattr(sphere, "_MAX_EVALS", 3)
    with pytest.raises(ConvergenceError, match="did not converge") as err:
        lambda1(mesh2(0.5, nt=8, nph=16), EquatorRegion.half(2))
    history = err.value.history
    assert err.value.iterations == 3 and len(history) == 1
    assert len(history[0]) == 3 and history[0][0] == 0.0 < history[0][1]


def test_codim1_needs_antipodal_nodes():
    # nphi = 2 mod 4 puts no node on the x1 = 0 plane
    with pytest.raises(ConfigurationError, match="divisible by 4"):
        lambda1_codim1(mesh2(0.75, nt=8, nph=18))


def test_hemisphere_eigensolves_run_on_one_blas_thread(monkeypatch):
    # every eigh in the module (the lockstep scan's dense eigh of C_FF, the
    # tridiagonal eigh of the empty region and of the half-circle) runs
    # inside grid.one_blas_thread; after an idle gap the default threads
    # made criteria 3 and 4 about 8x slower on a 2-core machine
    controls = grid_mod._blas_thread_controls()
    seen = []

    def recording(solver):
        def run(*args, **kwargs):
            seen.append((solver.__name__, [get() for get, _ in controls]))
            return solver(*args, **kwargs)
        return run

    view = types.SimpleNamespace(eigh=recording(sla.eigh),
                                 eigh_tridiagonal=recording(sla.eigh_tridiagonal))
    monkeypatch.setattr(sphere, "sla", view)
    saved = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(2)
        mesh = mesh2(0.5, nt=16, nph=32)
        for region in (EquatorRegion.empty(2), EquatorRegion.half(2)):
            lambda1(mesh, region)
        lambda1_codim1(mesh)
        nu_acf_caps(mesh)
        lambda1(HemisphereMesh(params=FracParams(s=0.5, N=1), ntheta=32),
                EquatorRegion.half(1))
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)
    assert {name for name, _ in seen} == {"eigh", "eigh_tridiagonal"}
    assert all(counts == [1] * len(controls) for _, counts in seen)
