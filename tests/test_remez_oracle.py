"""Independent minimax oracle for the rational impedance.

The best [k-1/k] relative approximation of 1/sqrt(x) on [eps, 1] is
characterized by its error equioscillating at 2k+1 points (alternation
theorem: equioscillation at that many points is sufficient for
optimality, and the optimum is unique).  These tests verify the
characterization with code that shares nothing with the package
construction: a separate error evaluator and extremum scanner, a Newton
solver for the alternation system started from perturbed values, scipy
elliptic integrals for the theoretical level, and for k = 1 (where the
oscillation structure exists for any admissible start) a full
from-scratch minimax solve.
"""

import numpy as np
import pytest
import scipy.special

from wavecast.scenarios import get_scenario
from wavecast.zolotarev import SpectralInterval, zolotarev_approx

# and the (chi, k) pairs the presets run at (ring-desk and
# homogeneous-desk share theirs)
CASES = [(100.0, 4), (1e4, 6), (30.0, 2), (1e4, 9)] + sorted({
    (get_scenario(name).chi, get_scenario(name).k)
    for name in ("ring-desk", "homogeneous-desk", "waveguide-desk", "ring")
})


def _error(theta, y, x):
    phi = np.sum(y / (x[:, None] - theta[None, :]), axis=1)
    return 1.0 - np.sqrt(x) * phi


def _extrema(theta, y, eps, n=400001):
    """Extrema of the error on [eps, 1]: dense scan + parabolic refine."""
    t = np.linspace(np.log(eps), 0.0, n)
    e = _error(theta, y, np.exp(t))
    out_t, out_e = [t[0]], [e[0]]
    for i in range(1, n - 1):
        if (e[i] - e[i - 1]) * (e[i + 1] - e[i]) <= 0.0 and e[i] != e[i - 1]:
            # parabola through three samples
            denom = e[i - 1] - 2.0 * e[i] + e[i + 1]
            shift = 0.0
            if denom != 0.0:
                shift = 0.5 * (e[i - 1] - e[i + 1]) / denom
            tt = t[i] + shift * (t[i + 1] - t[i])
            out_t.append(tt)
            out_e.append(_error(theta, y, np.exp(np.array([tt])))[0])
    out_t.append(t[-1])
    out_e.append(e[-1])
    return np.exp(np.array(out_t)), np.array(out_e)


def _newton_alternation(theta, y, level, xr, sig, iters=40):
    """Solve error(x_j) = sig_j * E for (theta, y, E), references fixed."""
    k = len(theta)
    z = np.concatenate([theta, y, [level]])
    for _ in range(iters):
        th, yy, lev = z[:k], z[k:2 * k], z[2 * k]
        r = _error(th, yy, xr) - sig * lev
        jac = np.zeros((2 * k + 1, 2 * k + 1))
        sq = np.sqrt(xr)
        for i in range(k):
            jac[:, i] = -sq * yy[i] / (xr - th[i]) ** 2
            jac[:, k + i] = -sq / (xr - th[i])
        jac[:, 2 * k] = -sig
        step = np.linalg.solve(jac, r)
        lam = 1.0
        while np.any(z[:k] - lam * step[:k] >= 0.0):
            lam *= 0.5
        z = z - lam * step
        if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(z))):
            break
    return z[:k], z[k:2 * k], z[2 * k]


@pytest.mark.parametrize("chi,k", CASES)
def test_alternation_characterization(chi, k):
    # sufficient optimality condition, checked with an independent scan
    imp = zolotarev_approx(SpectralInterval(-chi, -1.0), k)
    theta = np.sort(imp.poles / chi)
    y = imp.residues[np.argsort(imp.poles)] / np.sqrt(chi)
    xr, er = _extrema(theta, y, 1.0 / chi)
    assert len(xr) >= 2 * k + 1
    sig = np.sign(er)
    assert np.all(sig[1:] * sig[:-1] < 0)
    mags = np.abs(er)
    assert (np.max(mags) - np.min(mags)) < 1e-6 * np.max(mags)
    assert abs(np.max(mags) - imp.max_error) < 1e-6 * imp.max_error


@pytest.mark.parametrize("chi,k", CASES)
def test_package_values_solve_alternation_system(chi, k):
    # Newton on the independent alternation system, started from values
    # perturbed by 1e-3, must come back to the package solution
    imp = zolotarev_approx(SpectralInterval(-chi, -1.0), k)
    order = np.argsort(imp.poles)
    theta = imp.poles[order] / chi
    y = imp.residues[order] / np.sqrt(chi)
    xr, er = _extrema(theta, y, 1.0 / chi)
    assert len(xr) == 2 * k + 1
    sig = np.sign(er)
    rng = np.random.default_rng(42 + k)
    th0 = theta * (1.0 + 1e-3 * rng.standard_normal(k))
    y0 = y * (1.0 + 1e-3 * rng.standard_normal(k))
    th1, y1, lev1 = _newton_alternation(th0, y0, np.max(np.abs(er)), xr, sig)
    assert np.allclose(th1, theta, rtol=1e-6)
    assert np.allclose(y1, y, rtol=1e-6)
    assert abs(abs(lev1) - imp.max_error) < 1e-6 * imp.max_error


@pytest.mark.parametrize("chi,k", CASES)
def test_level_matches_scipy_elliptic_theory(chi, k):
    # level = 4 exp(-2 pi k K(kappa) / K(kappa')), kappa = 1/sqrt(chi),
    # with both integrals from scipy (independent of the package's AGM)
    imp = zolotarev_approx(SpectralInterval(-chi, -1.0), k)
    eps = 1.0 / chi
    big_k = scipy.special.ellipkm1(1.0 - eps)
    big_kc = scipy.special.ellipkm1(eps)
    pred = 4.0 * np.exp(-2.0 * np.pi * k * big_k / big_kc)
    assert abs(imp.max_error - pred) < 5e-3 * pred


def test_k1_from_scratch_minimax():
    # blind minimax solve at k = 1, where any admissible start yields
    # the +,-,+ oscillation: geometric-mean pole, one-point residue fit
    chi = 400.0
    eps = 1.0 / chi
    theta = np.array([-np.sqrt(eps)])
    # residue overshooting the tangent fit at the interval's geometric
    # mean by 10% so the error dips negative there (alternation +,-,+)
    y = np.array([2.2 * eps ** 0.25])
    level = None
    for _ in range(50):
        xr, er = _extrema(theta, y, eps, n=100001)
        # keep endpoints and the largest interior extremum
        mid = 1 + int(np.argmax(np.abs(er[1:-1])))
        xr3 = np.array([xr[0], xr[mid], xr[-1]])
        er3 = np.array([er[0], er[mid], er[-1]])
        sig = np.sign(er3)
        assert np.all(sig[1:] * sig[:-1] < 0)
        theta, y, lev = _newton_alternation(
            theta, y, np.max(np.abs(er3)), xr3, sig
        )
        if level is not None and abs(abs(lev) - level) < 1e-13 * level:
            break
        level = abs(lev)
    imp = zolotarev_approx(SpectralInterval(-chi, -1.0), 1)
    assert abs(level - imp.max_error) < 1e-8 * imp.max_error
    assert abs(theta[0] * chi - imp.poles[0]) < 1e-8 * abs(imp.poles[0])
    assert abs(y[0] * np.sqrt(chi) - imp.residues[0]) < 1e-8 * imp.residues[0]
