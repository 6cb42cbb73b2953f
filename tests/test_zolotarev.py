import numpy as np
import pytest
import scipy.special

from wavecast.elliptic import agm, ellip_k, ellip_km1, jacobi_sn_cn
from wavecast.errors import (
    DegenerateInputError,
    InvalidParameterError,
    PoleProximityError,
    PrecisionError,
)
from wavecast.zolotarev import (
    PmlSteps,
    RationalImpedance,
    SpectralInterval,
    _equioscillation_references,
    compute_interval,
    eval_impedance_cf,
    impedance_error,
    to_continued_fraction,
    zolotarev_approx,
)


def test_agm_known_value():
    # Gauss's constant: agm(1, sqrt(2)) = 1.19814023473559220744...
    assert abs(agm(1.0, np.sqrt(2.0)) - 1.1981402347355922074) < 1e-15


def test_ellip_k_vs_scipy():
    for kappa in [0.0, 0.1, 0.5, 0.9, 0.99, 0.9999]:
        mine = ellip_k(kappa)
        ref = scipy.special.ellipk(kappa ** 2)
        assert abs(mine - ref) < 1e-13 * ref
    # near-unit modulus: feed the exact complement to both sides
    for m1 in [1e-4, 1e-8, 1e-12]:
        mine = ellip_km1(m1)
        ref = scipy.special.ellipkm1(m1)
        assert abs(mine - ref) < 1e-13 * ref


def test_ellip_k_domain():
    with pytest.raises(InvalidParameterError):
        ellip_k(1.0)
    with pytest.raises(InvalidParameterError):
        ellip_k(-0.1)


def test_jacobi_vs_scipy():
    for kappa in [0.05, 0.3, 0.7, 0.95, 0.999]:
        big_k = ellip_k(kappa)
        for frac in [0.05, 0.2, 0.45, 0.7, 0.9, 0.999]:
            u = frac * big_k
            sn, cn = jacobi_sn_cn(u, kappa)
            sn_ref, cn_ref, _, _ = scipy.special.ellipj(u, kappa ** 2)
            assert abs(sn - sn_ref) < 1e-11
            assert abs(cn - cn_ref) < 1e-11


def test_jacobi_small_modulus_is_circular():
    sn, cn = jacobi_sn_cn(0.7, 1e-12)
    assert abs(sn - np.sin(0.7)) < 1e-14
    assert abs(cn - np.cos(0.7)) < 1e-14


def test_compute_interval():
    iv = compute_interval(2.0, 20.0, mu=0.1)
    assert iv.s_min == -400.0
    assert abs(iv.s_max - (-0.04)) < 1e-15
    assert abs(iv.chi - 1e4) < 1e-9
    with pytest.raises(InvalidParameterError):
        compute_interval(-1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        compute_interval(3.0, 2.0)
    with pytest.raises(InvalidParameterError):
        compute_interval(1.0, 2.0, mu=0.0)


def test_reference_error_level():
    # chi = 1e4, k = 9 has equioscillation level 1.4568e-6
    iv = SpectralInterval(-1e4, -1.0)
    imp = zolotarev_approx(iv, 9)
    assert abs(imp.max_error - 1.4568056e-6) < 1e-4 * 1.4568056e-6


def test_error_level_matches_closed_form():
    # level = 4 exp(-2 pi k K(1/sqrt(chi)) / K(sqrt(1 - 1/chi)))
    for chi, k in [(1e4, 9), (100.0, 4), (1e6, 12), (30.0, 3)]:
        iv = SpectralInterval(-chi, -1.0)
        imp = zolotarev_approx(iv, k)
        eps = 1.0 / chi
        pred = 4.0 * np.exp(
            -2.0 * np.pi * k * ellip_k(np.sqrt(eps))
            / ellip_k(np.sqrt(1.0 - eps))
        )
        assert abs(imp.max_error - pred) < 5e-3 * pred


def test_equioscillation():
    iv = SpectralInterval(-1e4, -1.0)
    imp = zolotarev_approx(iv, 9)
    x_ext, e_ext = _equioscillation_references(
        imp.poles / iv.x_hi, imp.residues / np.sqrt(iv.x_hi), 1.0 / iv.chi
    )
    assert len(x_ext) == 2 * 9 + 1
    signs = np.sign(e_ext)
    assert np.all(signs[1:] * signs[:-1] < 0)
    assert np.min(np.abs(e_ext)) / np.max(np.abs(e_ext)) >= 0.99


def test_pole_zero_interlacing():
    iv = SpectralInterval(-1e4, -1.0)
    imp = zolotarev_approx(iv, 7)
    poles = np.sort(imp.poles)
    zeros = np.sort(imp.zeros)
    assert len(zeros) == 6
    # poles and zeros strictly alternate along the negative axis
    for i in range(6):
        assert poles[i] < zeros[i] < poles[i + 1]


def test_error_rate_in_k():
    # log-error decreases linearly in k with rate comparable to
    # pi^2 / (2 log10 chi)
    chi = 1e4
    iv = SpectralInterval(-chi, -1.0)
    ks = np.arange(5, 13)
    errs = [zolotarev_approx(iv, int(k)).max_error for k in ks]
    slope = np.polyfit(ks, np.log(errs), 1)[0]
    ref_rate = np.pi ** 2 / (2.0 * np.log10(chi))
    assert 0.5 * ref_rate < -slope < 2.0 * ref_rate


def test_impedance_error_matches_stored():
    iv = SpectralInterval(-1e4, -1.0)
    imp = zolotarev_approx(iv, 9)
    indep = impedance_error(imp, iv, samples=200000)
    assert abs(indep - imp.max_error) < 1e-3 * imp.max_error


def test_error_blows_up_outside_interval():
    iv = SpectralInterval(-1e4, -1.0)
    imp = zolotarev_approx(iv, 9)
    wide = SpectralInterval(-1e6, -0.01)
    assert impedance_error(imp, wide) > 100.0 * imp.max_error


def test_scaling_covariance():
    # s -> c s scales poles by c, residues by sqrt(c), error unchanged
    iv1 = SpectralInterval(-1e4, -1.0)
    c = 3.7e8
    iv2 = SpectralInterval(-1e4 * c, -c)
    i1 = zolotarev_approx(iv1, 6)
    i2 = zolotarev_approx(iv2, 6)
    assert abs(i1.max_error - i2.max_error) < 1e-12 * i1.max_error
    assert np.allclose(i2.poles, i1.poles * c, rtol=1e-12)
    assert np.allclose(i2.residues, i1.residues * np.sqrt(c), rtol=1e-12)


def test_degenerate_point_interval():
    iv = SpectralInterval(-4.0, -4.0)
    imp = zolotarev_approx(iv, 1)
    assert imp.max_error == 0.0
    # interpolates exactly at the point: phi(4) = 2*2/(4+4) = 1/2
    assert abs(imp(np.array(4.0)) - 0.5) < 1e-15
    with pytest.raises(DegenerateInputError):
        zolotarev_approx(iv, 2)


def test_precision_guard():
    iv = SpectralInterval(-100.0, -1.0)
    with pytest.raises(PrecisionError) as exc:
        zolotarev_approx(iv, 40)
    assert "k=" in str(exc.value)


def test_invalid_inputs():
    iv = SpectralInterval(-100.0, -1.0)
    with pytest.raises(InvalidParameterError):
        zolotarev_approx(iv, 0)
    with pytest.raises(InvalidParameterError):
        SpectralInterval(-1.0, -2.0)
    with pytest.raises(InvalidParameterError):
        SpectralInterval(-1.0, 1.0)
    with pytest.raises(InvalidParameterError):
        RationalImpedance(1, np.array([1.0]), np.array([1.0]), 0.1, iv)
    with pytest.raises(InvalidParameterError):
        RationalImpedance(1, np.array([-1.0]), np.array([-1.0]), 0.1, iv)
    with pytest.raises(InvalidParameterError):
        PmlSteps(2, np.array([1.0, -1.0]), np.array([1.0, 1.0]), 0.0)


@pytest.mark.parametrize("chi,ks", [(100.0, (1, 2, 5, 10)), (1e4, (1, 2, 5, 10, 15))])
def test_continued_fraction_roundtrip(chi, ks):
    # chi = 100 caps at k = 12: beyond that the equioscillation level
    # underflows double precision (see test_precision_guard)
    iv = SpectralInterval(-chi, -1.0)
    for k in ks:
        imp = zolotarev_approx(iv, k)
        steps = to_continued_fraction(imp, roundtrip_tol=1e-10)
        assert steps.roundtrip_error <= 1e-10
        assert np.all(steps.gamma > 0)
        assert np.all(steps.gamma_hat > 0)


def test_cf_single_pole_by_hand():
    # phi = 2/(s+1): gamma_hat = 1/2, gamma = 2; phi(-2) = -2
    iv = SpectralInterval(-2.0, -0.5)
    imp = RationalImpedance(1, np.array([-1.0]), np.array([2.0]), 0.0, iv)
    steps = to_continued_fraction(imp)
    assert abs(steps.gamma_hat[0] - 0.5) < 1e-14
    assert abs(steps.gamma[0] - 2.0) < 1e-14
    assert abs(eval_impedance_cf(steps, -2.0) - (-2.0)) < 1e-13


def test_cf_matches_partial_fractions():
    iv = SpectralInterval(-1e4, -1.0)
    imp = zolotarev_approx(iv, 9)
    steps = to_continued_fraction(imp)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-50, 50, size=20) + 1j * rng.uniform(0.5, 40, size=20)
    for s in pts:
        got = eval_impedance_cf(steps, s)
        want = complex(imp(np.array(s)))
        assert abs(got - want) < 1e-11 * abs(want)


def test_cf_eval_on_pole_raises():
    iv = SpectralInterval(-1e4, -1.0)
    imp = zolotarev_approx(iv, 5)
    steps = to_continued_fraction(imp)
    with pytest.raises(PoleProximityError):
        eval_impedance_cf(steps, imp.poles[2])


def test_cf_rejects_near_coinciding_poles():
    iv = SpectralInterval(-100.0, -1.0)
    imp = RationalImpedance(
        2,
        np.array([-1.0 - 1e-15, -1.0]),
        np.array([1.0, 1.0]),
        0.1,
        iv,
    )
    with pytest.raises(DegenerateInputError):
        to_continued_fraction(imp)
