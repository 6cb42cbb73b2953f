from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
import scipy.sparse

from wavecast.errors import (
    BranchCutError,
    BreakdownError,
    InvalidParameterError,
    NearDefectiveError,
    SamplingError,
)
from wavecast.grid import build_grid2d
from wavecast.krylov import (
    LanczosDecomposition,
    ModeSet,
    bilanczos,
    convolve_source,
    eigen_tridiag,
    evaluate_impulse,
    extend_bilanczos,
    sc_resolvent_dense,
    sctde_scalar,
)
from wavecast.operator import MediumMap, assemble_operator
from wavecast.scenarios import get_scenario
from wavecast.zolotarev import (
    SpectralInterval,
    to_continued_fraction,
    zolotarev_approx,
)


def _small_op(n_int=6, chi=25.0, k=2, medium=None):
    steps = to_continued_fraction(
        zolotarev_approx(SpectralInterval(-chi, -1.0), k)
    )
    g = build_grid2d(n_int, steps)
    return assemble_operator(g, medium)


def _dense_impulse(op, b, probes, times):
    """Oracle: K(t) = Re[expm(-sqrt(A) t) sqrt(A)^{-1} b] row-wise."""
    a = op.a_mat.toarray()
    s = scipy.linalg.sqrtm(a).astype(complex)
    sb = np.linalg.solve(s, b.astype(complex))
    out = np.empty((len(probes), len(times)))
    for j, t in enumerate(times):
        e = scipy.linalg.expm(-s * t)
        out[:, j] = (e @ sb)[probes].real
    return out


def test_sctde_scalar_values():
    # f(t, 4) = exp(-2t)/2
    assert abs(sctde_scalar(0.5, 4.0) - np.exp(-1.0) / 2.0) < 1e-15
    vals = sctde_scalar(np.array([0.0, 1.0]), 4.0)
    assert np.allclose(vals, [0.5, np.exp(-2.0) / 2.0])
    with pytest.raises(BranchCutError):
        sctde_scalar(1.0, -4.0)
    with pytest.raises(BranchCutError):
        sctde_scalar(1.0, 0.0)


def test_sc_resolvent_scalar_value():
    # A = (4), lam = 1: (1/2)(1/2)(1/3) + (1/2)(1/2)(1/3) = 1/6
    f = sc_resolvent_dense(1.0, np.array([[4.0]]))
    assert abs(f[0, 0] - 1.0 / 6.0) < 1e-14


def test_sc_resolvent_real_part_identity():
    # Re f(lam, A) = Re (A - lam I)^{-1} for lam < 0, for operators
    # that are symmetric under a diagonal weight
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = 12
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = s + s.T
        d = rng.uniform(0.5, 2.0, n) * np.exp(
            1j * rng.uniform(-1.0, 1.0, n)
        )
        a = s / d[:, None]  # diag(d) a is symmetric
        lam = -rng.uniform(0.5, 10.0)
        f = sc_resolvent_dense(lam, a)
        res = np.linalg.inv(a - lam * np.eye(n))
        assert np.max(np.abs(f.real - res.real)) < 1e-9 * np.max(
            np.abs(res.real)
        )


def test_sc_resolvent_shift_stack():
    a = np.array([[4.0, 1.0], [1.0, 3.0 + 0.5j]])
    lams = np.array([-2.0, -0.5, 1.0])
    stack = sc_resolvent_dense(lams, a)
    assert stack.shape == (3, 2, 2)
    for lam, f in zip(lams, stack):
        assert np.allclose(f, sc_resolvent_dense(lam, a), rtol=1e-14)


def test_full_length_run_matches_dense_oracle():
    op = _small_op()
    b, src = op.sample_source(-0.25, 0.1)
    probes = [op.probe_index(0.4, 0.3), op.probe_index(-0.1, -0.5)]
    n = op.n
    dec = bilanczos(op, b, n, probes)
    assert dec.m == n
    modes = eigen_tridiag(dec)
    times = np.linspace(0.0, 3.0, 40)
    mine = evaluate_impulse(modes, times)
    oracle = _dense_impulse(op, b, probes, times)
    scale = np.abs(oracle).max()
    assert np.max(np.abs(mine - oracle)) < 1e-8 * scale


def test_midrange_m_is_converging():
    op = _small_op()
    b, _ = op.sample_source(-0.25, 0.1)
    probes = [op.probe_index(0.4, 0.3)]
    times = np.linspace(0.0, 2.0, 30)
    oracle = _dense_impulse(op, b, probes, times)
    errs = []
    for m in (20, 40, op.n):
        modes = eigen_tridiag(bilanczos(op, b, m, probes))
        errs.append(
            np.max(np.abs(evaluate_impulse(modes, times) - oracle))
        )
    assert errs[2] < errs[0]
    assert errs[2] < 1e-8 * np.abs(oracle).max()


def test_truncate_equals_fresh_run():
    op = _small_op()
    b, _ = op.sample_source(0.0, 0.0)
    probes = [op.probe_index(0.5, -0.5)]
    long = bilanczos(op, b, 50, probes)
    short = bilanczos(op, b, 30, probes)
    cut = long.truncate(30)
    assert np.allclose(cut.alpha, short.alpha)
    assert np.allclose(cut.zeta, short.zeta)
    assert np.allclose(cut.delta, short.delta)
    assert np.allclose(cut.w_probe, short.w_probe)
    assert abs(cut.zeta_next - short.zeta_next) < 1e-13
    assert not cut.can_extend
    with pytest.raises(InvalidParameterError):
        long.truncate(0)


def test_checkpoint_save_load_extend():
    op = _small_op()
    b, _ = op.sample_source(0.1, -0.3)
    probes = [op.probe_index(0.5, 0.5), op.probe_index(-0.4, 0.2)]
    first = bilanczos(op, b, 40, probes)
    assert first.can_extend
    resumed = extend_bilanczos(op, first, 75)
    fresh = bilanczos(op, b, 75, probes)
    assert np.allclose(resumed.alpha, fresh.alpha, rtol=1e-12, atol=1e-14)
    assert np.allclose(resumed.zeta, fresh.zeta, rtol=1e-12, atol=1e-14)
    assert np.allclose(resumed.w_probe, fresh.w_probe, rtol=1e-11, atol=1e-13)
    with pytest.raises(InvalidParameterError):
        extend_bilanczos(op, resumed, 75)


def test_extend_leaves_input_unchanged():
    op = _small_op()
    b, _ = op.sample_source(0.1, -0.3)
    first = bilanczos(op, b, 40, [op.probe_index(0.5, 0.5)])
    w_last, w_next = first.w_last.copy(), first.w_next.copy()
    resumed = extend_bilanczos(op, first, 75)
    assert np.array_equal(first.w_last, w_last)
    assert np.array_equal(first.w_next, w_next)
    assert not np.shares_memory(resumed.w_last, resumed.w_next)
    for vec in (resumed.w_last, resumed.w_next):
        assert not np.shares_memory(vec, first.w_last)
        assert not np.shares_memory(vec, first.w_next)


def test_breakdown_raises():
    n = 4
    op = SimpleNamespace(
        a_mat=scipy.sparse.identity(n, dtype=complex, format="csr"),
        m_diag=np.array([1.0, -1.0, 1.0, -1.0], dtype=complex),
        n=n,
    )
    b = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(BreakdownError) as exc:
        bilanczos(op, b, 3, [0])
    assert exc.value.index == 1


def test_happy_breakdown_on_invariant_start():
    # start vector equal to an eigenvector closes the subspace at m = 1
    g = build_grid2d(6)
    op = assemble_operator(g)
    a = op.a_mat.toarray().real
    lam, vec = np.linalg.eigh(a)
    b = vec[:, 3]
    dec = bilanczos(op, b, 10, [0])
    assert dec.happy
    assert dec.m == 1
    assert abs(dec.alpha[0] - lam[3]) < 1e-10 * abs(lam[3])


def test_near_defective_raises():
    # H = [[i, 1], [1, -i]] has a double eigenvalue with quasi-null
    # eigenvector (s^T s = 0)
    dec = LanczosDecomposition(
        n=2,
        m=2,
        alpha=np.array([1j, -1j]),
        zeta=np.array([1.0, 1.0]),
        delta=np.array([1.0 + 0j, 1.0 + 0j]),
        zeta_next=0.1,
        probe_indices=np.array([0]),
        w_probe=np.ones((1, 2), dtype=complex),
        w_last=np.empty(0, dtype=complex),
        w_next=np.empty(0, dtype=complex),
        happy=False,
        drift=0.0,
    )
    with pytest.raises(NearDefectiveError):
        eigen_tridiag(dec)


@pytest.fixture(scope="module")
def ring600():
    """ring-desk decomposed to m = 600, via public calls."""
    sc = get_scenario("ring-desk")
    steps = to_continued_fraction(zolotarev_approx(sc.interval(), sc.k))
    grid = build_grid2d(sc.n_int, steps)
    op = assemble_operator(grid, MediumMap.from_function(grid, sc.medium_fn()))
    b, _ = op.sample_source(*sc.source_xy, amplitude=sc.amplitude)
    probes = [op.probe_index(x, y) for x, y in sc.probes]
    return sc, bilanczos(op, b, 600, probes)


def _symmetrized(dec):
    """Diagonal, off-diagonal and diagonal D^{1/2} of H = D^{1/2} T D^{-1/2}."""
    sqd = np.sqrt(dec.delta)
    return dec.alpha, dec.zeta[1:] * sqd[1:] / sqd[:-1], sqd


def _dense_route_modes(dec):
    """The dense eigenvector route (np.linalg.eig of H), the structured
    eigensolve's oracle."""
    alpha, off, sqd = _symmetrized(dec)
    theta, s = np.linalg.eig(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    s = s / np.sqrt(np.sum(s * s, axis=0))
    coeff = np.linalg.solve(s, np.eye(dec.m)[:, 0])
    return ModeSet(theta=theta, probe_modes=(dec.w_probe / sqd) @ s,
                   weights=coeff * sqd[0], zeta1=float(dec.zeta[0]),
                   recon_error=0.0)


def test_structured_eigensolve_matches_dense_route(ring600):
    # m = 150 has no ghost pairs, so the dense route is accurate there
    sc, dec = ring600
    dec = dec.truncate(150)
    modes = eigen_tridiag(dec)
    dense = _dense_route_modes(dec)
    assert modes.merged == 0
    scale = np.abs(dense.theta).max()
    assert np.allclose(np.sort_complex(modes.theta),
                       np.sort_complex(dense.theta), rtol=0, atol=1e-12 * scale)
    times = np.linspace(0.0, sc.t_final, 50)
    want = evaluate_impulse(dense, times)
    got = evaluate_impulse(modes, times)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


def test_ghost_merge_matches_dense_oracle(ring600):
    # ring-desk at m = 600 has ghost Ritz pairs straddling the branch
    # cut; unmerged, their cancelling residues leave the impulse ~2e-2 off
    sc, dec = ring600
    modes = eigen_tridiag(dec)
    assert modes.merged >= 1
    assert modes.theta.size == dec.m - modes.merged
    # oracle: zeta_1 Re[W D^{-1/2} expm(-sqrt(H) t) sqrt(H)^{-1} e_1 d_1^{1/2}]
    alpha, off, sqd = _symmetrized(dec)
    h = np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)
    sq = scipy.linalg.sqrtm(h).astype(complex)
    v = np.linalg.solve(sq, np.eye(dec.m)[:, 0]) * sqd[0]
    times = np.array([0.5, 1.0]) * sc.t_final
    oracle = np.stack([
        dec.zeta[0] * ((dec.w_probe / sqd) @ (scipy.linalg.expm(-sq * t) @ v)).real
        for t in times
    ], axis=1)
    err = np.abs(evaluate_impulse(modes, times) - oracle).max()
    assert err < 1e-7 * np.abs(oracle).max()


def test_kernels_agree_on_real_negative_spectrum():
    modes = ModeSet(
        theta=np.array([-4.0 + 0j]),
        probe_modes=np.array([[1.0 + 0j]]),
        weights=np.array([1.0 + 0j]),
        zeta1=1.0,
        recon_error=0.0,
    )
    t = np.linspace(0.0, 5.0, 200)
    stable = evaluate_impulse(modes, t)
    uncorr = evaluate_impulse(modes, t, kernel="uncorrected")
    assert np.allclose(stable, -np.sin(2.0 * t) / 2.0, atol=1e-14)
    assert np.allclose(stable, uncorr, atol=1e-14)


def test_uncorrected_kernel_grows_off_axis():
    modes = ModeSet(
        theta=np.array([-4.0 + 0.4j]),
        probe_modes=np.array([[1.0 + 0j]]),
        weights=np.array([1.0 + 0j]),
        zeta1=1.0,
        recon_error=0.0,
    )
    t = np.linspace(0.0, 60.0, 600)
    stable = evaluate_impulse(modes, t)
    uncorr = evaluate_impulse(modes, t, kernel="uncorrected")
    assert np.abs(stable).max() < 0.6
    assert np.abs(uncorr).max() > 20.0 * np.abs(stable).max()


def test_evaluate_rejects_negative_times():
    modes = ModeSet(
        theta=np.array([-4.0 + 0.4j]),
        probe_modes=np.array([[1.0 + 0j]]),
        weights=np.array([1.0 + 0j]),
        zeta1=1.0,
        recon_error=0.0,
    )
    with pytest.raises(InvalidParameterError):
        evaluate_impulse(modes, np.array([-0.1, 0.5]))
    with pytest.raises(InvalidParameterError):
        evaluate_impulse(modes, np.array([0.1]), kernel="nope")


def test_convolution_against_direct_quadrature():
    dt = 0.01
    t = np.arange(400) * dt
    kern = np.exp(-t) * np.sin(3.0 * t)
    q = np.exp(-0.5 * ((t - 1.0) / 0.2) ** 2)
    got = convolve_source(kern, q, dt)
    direct = np.empty_like(t)
    for j in range(len(t)):
        integrand = q[: j + 1] * kern[j::-1]
        direct[j] = np.trapezoid(integrand, dx=dt) if j > 0 else 0.0
    assert np.max(np.abs(got[0] - direct)) < 1e-12


@pytest.mark.parametrize("shape", [(1, 588), (3, 2810), (2, 1001)])
def test_convolution_is_bitwise_fftconvolve(shape):
    rng = np.random.default_rng(shape[1])
    impulse = rng.standard_normal(shape)
    q = rng.standard_normal(shape[1])
    dt = 0.01
    full = scipy.signal.fftconvolve(impulse, q[None, :], mode="full")
    u = full[:, : shape[1]] * dt
    want = u - 0.5 * dt * (q[0] * impulse + impulse[:, :1] * q[None, :])
    assert np.array_equal(convolve_source(impulse, q, dt), want)


def test_convolution_endpoint_weights():
    # q = 1, K = 1: trapezoid gives exactly t
    dt = 0.125
    n = 50
    ones = np.ones(n)
    got = convolve_source(ones, ones, dt)
    assert np.allclose(got[0], np.arange(n) * dt, atol=1e-13)


def test_convolution_sampling_guard():
    dt = 0.1
    sig = np.ones(32)
    with pytest.raises(SamplingError):
        convolve_source(sig, sig, dt, omega_max=50.0)
    convolve_source(sig, sig, dt, omega_max=2.0)


def test_bilanczos_input_validation():
    op = _small_op()
    b, _ = op.sample_source(0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        bilanczos(op, b, 0, [0])
    with pytest.raises(InvalidParameterError):
        bilanczos(op, np.zeros(op.n), 5, [0])
    with pytest.raises(InvalidParameterError):
        bilanczos(op, b, 5, [])
    with pytest.raises(InvalidParameterError):
        bilanczos(op, b, 5, [op.n])
