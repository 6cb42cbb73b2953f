import fnmatch
import shutil
import subprocess
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.signal

import wavecast.krylov as krylov
from wavecast import _native
from wavecast.errors import (
    BranchCutError,
    BreakdownError,
    InvalidParameterError,
    NearDefectiveError,
    PrecisionError,
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

from support import diagonal_operator, invit_loop, probe_index

PACKAGE = Path(krylov.__file__).parent


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
    probes = [probe_index(op, 0.4, 0.3), probe_index(op, -0.1, -0.5)]
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
    probes = [probe_index(op, 0.4, 0.3)]
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
    probes = [probe_index(op, 0.5, -0.5)]
    long = bilanczos(op, b, 50, probes)
    short = bilanczos(op, b, 30, probes)
    cut = long.truncate(30)
    for name in ("alpha", "zeta", "delta", "w_probe"):
        assert np.array_equal(getattr(cut, name), getattr(short, name)), name
    with pytest.raises(InvalidParameterError):
        long.truncate(0)


def test_breakdown_raises():
    op = diagonal_operator([1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0])
    b = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(BreakdownError) as exc:
        bilanczos(op, b, 3, [0])
    assert exc.value.index == 1


def test_breakdown_at_second_iteration_raises():
    # A = diag(0, 1, 2), M = diag(1, -1, 1), b = (1/sqrt(3), 1, 1):
    # delta_1 = 1/3 and the second vector has w^T M w = 0, so the one
    # completed iteration leaves nothing to keep
    op = diagonal_operator([0.0, 1.0, 2.0], [1.0, -1.0, 1.0])
    b = np.array([np.sqrt(1.0 / 3.0), 1.0, 1.0])
    with pytest.raises(BreakdownError) as exc:
        bilanczos(op, b, 3, [0])
    assert exc.value.index == 2


def test_breakdown_at_third_iteration_keeps_one(monkeypatch):
    op = _small_op()
    b, _ = op.sample_source(-0.25, 0.1)
    fresh = bilanczos(op, b, 1, [0])
    ratio = np.abs(bilanczos(op, b, 3, [0]).delta) / np.abs(op.m_diag).max()
    assert ratio[2] < ratio[1] == ratio[0]
    monkeypatch.setattr(krylov, "_BREAKDOWN_TOL", 0.5 * (ratio[1] + ratio[2]))
    dec = bilanczos(op, b, 10, [0])
    assert dec.m == 1 and dec.stop == "breakdown"
    for name in ("alpha", "zeta", "delta", "w_probe"):
        assert np.array_equal(getattr(dec, name), getattr(fresh, name)), name


def test_happy_breakdown_on_invariant_start():
    # start vector equal to an eigenvector closes the subspace at m = 1
    g = build_grid2d(6)
    op = assemble_operator(g)
    a = op.a_mat.toarray().real
    lam, vec = np.linalg.eigh(a)
    b = vec[:, 3]
    dec = bilanczos(op, b, 10, [0])
    assert dec.stop == "invariant"
    assert dec.m == 1
    assert abs(dec.alpha[0] - lam[3]) < 1e-10 * abs(lam[3])


def test_near_defective_raises():
    # H = [[i, 1], [1, -i]] has a double eigenvalue with quasi-null
    # eigenvector (s^T s = 0)
    dec = LanczosDecomposition(
        m=2,
        alpha=np.array([1j, -1j]),
        zeta=np.array([1.0, 1.0]),
        delta=np.array([1.0 + 0j, 1.0 + 0j]),
        w_probe=np.ones((1, 2), dtype=complex),
        stop="m",
        drift=0.0,
    )
    # the QL iteration does not converge on it, so zgeev feeds the
    # inverse iteration
    assert krylov._ritz_values(dec.alpha, np.array([1.0 + 0j]), 1)[1] == "zgeev"
    with pytest.raises(NearDefectiveError):
        eigen_tridiag(dec)


@pytest.fixture(scope="module")
def ring1650():
    """ring-desk decomposed to its default m = 1650, via public calls;
    tests at smaller m truncate it."""
    sc = get_scenario("ring-desk")
    steps = to_continued_fraction(zolotarev_approx(sc.interval(), sc.k))
    grid = build_grid2d(sc.n_int, steps)
    op = assemble_operator(grid, MediumMap.from_function(grid, sc.medium_fn()))
    b, _ = op.sample_source(*sc.source_xy, amplitude=sc.amplitude)
    probes = [probe_index(op, x, y) for x, y in sc.probes]
    return sc, bilanczos(op, b, 1650, probes)


def _symmetrized(dec):
    """Diagonal, off-diagonal and diagonal D^{1/2} of H = D^{1/2} T D^{-1/2}."""
    sqd = np.sqrt(dec.delta)
    return dec.alpha, dec.zeta[1:] * sqd[1:] / sqd[:-1], sqd


def _mp_modes(dec):
    """Oracle modes of H in 40-digit arithmetic.

    Each eigenvalue is Newton-polished on det(H - lam) from its LAPACK
    value until the step is below 1e-24 * max |lam|; convergence is
    quadratic, so the value then holds well over 30 digits.  Its
    eigenvector s follows from the tridiagonal recurrence with s_1 = 1
    at the polished value (the recurrence amplifies the error of the
    value, so not from the Newton pass), and the mode's residues are
    (W D^{-1/2} s) s_1 / s^T s.
    """
    alpha, off, sqd = _symmetrized(dec)
    start = np.linalg.eigvals(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    tol = 1e-24 * np.abs(start).max()
    thetas, residues = [], []
    with mpmath.workdps(40):
        a = [mpmath.mpc(x) for x in alpha]
        o = [mpmath.mpc(x) for x in off]
        o2 = [x * x for x in o]
        inv_o = [1 / x for x in o]
        w = [[mpmath.mpc(x) / mpmath.mpc(d) for x, d in zip(row, sqd)]
             for row in dec.w_probe]
        for lam in map(mpmath.mpc, start):
            for _ in range(4):
                # det of the leading k x k block of H - lam, and its derivative
                p_prev, p, dp_prev, dp = 1, a[0] - lam, 0, -1
                for k in range(1, dec.m):
                    ak = a[k] - lam
                    p_prev, p, dp_prev, dp = (
                        p, ak * p - o2[k - 1] * p_prev,
                        dp, ak * dp - p - o2[k - 1] * dp_prev)
                step = p / dp
                lam -= step
                if abs(step) < tol:
                    break
            else:
                raise AssertionError(f"Newton did not converge at {lam}")
            s = [mpmath.mpc(1), (lam - a[0]) * inv_o[0]]
            for k in range(1, dec.m - 1):
                s.append(((lam - a[k]) * s[k] - o[k - 1] * s[k - 1]) * inv_o[k])
            sts = mpmath.fsum(x * x for x in s)
            residues.append([complex(mpmath.fsum(x * y for x, y in zip(row, s)) / sts)
                             for row in w])
            thetas.append(complex(lam))
    return ModeSet(theta=np.array(thetas), probe_modes=np.array(residues).T,
                   weights=np.full(dec.m, sqd[0], dtype=complex),
                   zeta1=float(dec.zeta[0]), recon_error=0.0)


def test_structured_eigensolve_matches_dense_route(ring1650):
    # m = 150 has no ghost pairs; the oracle is exact to far below the
    # bounds, which the dense eig route itself misses (its values lie
    # ~1e-14 * max |theta| off, some across the branch cut)
    sc, dec = ring1650
    dec = dec.truncate(150)
    modes = eigen_tridiag(dec)
    exact = _mp_modes(dec)
    assert modes.merged == 0
    scale = np.abs(exact.theta).max()
    alpha, off, _ = _symmetrized(dec)
    dense = np.linalg.eigvals(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    assert np.allclose(np.sort_complex(modes.theta), np.sort_complex(dense),
                       rtol=0, atol=1e-12 * scale)
    gap = np.abs(modes.theta[:, None] - exact.theta[None, :])
    assert sorted(gap.argmin(axis=1)) == list(range(dec.m))
    assert gap.min(axis=1).max() < 1e-14 * scale
    times = np.linspace(0.0, sc.t_final, 50)
    want = evaluate_impulse(exact, times)
    got = evaluate_impulse(modes, times)
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


def test_ghost_merge_matches_dense_oracle(ring1650):
    # ring-desk at m = 600 has ghost Ritz pairs straddling the branch
    # cut; unmerged, their cancelling residues leave the impulse ~2e-2 off
    sc, dec = ring1650
    dec = dec.truncate(600)
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


def test_ghost_grouping_at_large_m_matches_zgeev(ring1650, monkeypatch):
    # at m = 1650 the unpolished QL values are up to ~1e-10 * max |H|
    # off and merge 2 of the 3 ghost pairs, which moves the impulse ~1e-3;
    # a QL that reports its iteration cap hands the values to zgeev, and
    # the compiled vectors then follow those
    sc, dec = ring1650
    modes = eigen_tridiag(dec)
    monkeypatch.setattr(krylov._ritz_kernel(), "ritz_values", lambda *a: 1)
    dense = eigen_tridiag(dec)
    assert (modes.route, dense.route) == ("ql", "zgeev")
    assert modes.merged == dense.merged >= 1
    times = np.array([0.5, 1.0]) * sc.t_final
    want = evaluate_impulse(dense, times)
    got = evaluate_impulse(modes, times)
    assert np.abs(got - want).max() < 1e-6 * np.abs(want).max()


def test_weights_match_solve_oracle(ring1650):
    # the weights are S^T e_1; solving S x = e_1 with the same S is the
    # oracle (their transpose shortcut holds for the cluster-orthogonalized
    # vectors, ghost pairs included)
    _, dec = ring1650
    modes = eigen_tridiag(dec)
    alpha, off, sqd = _symmetrized(dec)
    h_scale = float(max(np.abs(alpha).max(), np.abs(off).max()))
    theta, _ = krylov._ritz_values(alpha, off, 1)
    s = krylov._ritz_vectors(alpha, off, theta, h_scale, 1)
    oracle = np.linalg.solve(s, np.eye(dec.m)[:, 0]) * sqd[0]
    keep = np.isin(theta, modes.theta)
    assert keep.sum() == modes.theta.size == dec.m - modes.merged
    assert (np.linalg.norm(modes.weights - oracle[keep])
            <= 1e-9 * np.linalg.norm(oracle[keep]))


def test_kernel_vectors_match_python_loop(ring1650):
    # the compiled inverse iteration, on one thread and on two, against
    # its Python loop of zgtsv solves, from the same starts; each vector
    # is fixed up to its sign (the sign of the near-zero pivot), and at
    # m = 150 they agree to 5e-13 apart from it
    _, dec = ring1650
    alpha, off, _ = _symmetrized(dec.truncate(150))
    h_scale = float(max(np.abs(alpha).max(), np.abs(off).max()))
    theta, _ = krylov._ritz_values(alpha, off, 1)
    want = invit_loop(alpha, off, theta, h_scale)
    for threads in (1, 2):
        got = krylov._ritz_vectors(alpha, off, theta, h_scale, threads)
        got *= np.sign((got * want).sum(axis=0).real)
        assert (np.linalg.norm(got - want, axis=0)
                <= 1e-10 * np.linalg.norm(want, axis=0)).all()


@pytest.mark.parametrize("m", [600, 1650])
def test_eigensolve_is_bitwise_the_same_on_any_thread_count(ring1650,
                                                            monkeypatch, m):
    # m = 600 merges ghost pairs; at m = 1650, 122 cluster members each
    # run after the member before them
    _, dec = ring1650
    dec = dec.truncate(m)
    runs = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(krylov, "_usable_cpus", lambda: threads)
        runs.append(eigen_tridiag(dec))
    alpha, off, _ = _symmetrized(dec)
    h_scale = float(max(np.abs(alpha).max(), np.abs(off).max()))
    theta = krylov._ritz_values(alpha, off, 1)[0]
    chained = krylov._close_groups(theta, krylov._CLUSTER_TOL * h_scale)
    assert runs[0].merged >= 1
    assert np.bincount(chained).max() >= 2
    for modes in runs[1:]:
        for field in ("theta", "probe_modes", "weights"):
            assert np.array_equal(getattr(modes, field),
                                  getattr(runs[0], field)), field
        assert modes.recon_error == runs[0].recon_error


def test_reconstruction_gate_checks_weights_identity(monkeypatch):
    # H = [[1, 1], [1, 1]] has eigenvalues 0 and 2; stretching the
    # eigenvector of 0 leaves S diag(theta) S^T e_1 = H e_1 intact, so
    # only S S^T e_1 = e_1 sees it
    dec = LanczosDecomposition(
        m=2,
        alpha=np.array([1.0 + 0j, 1.0 + 0j]),
        zeta=np.array([1.0, 1.0]),
        delta=np.array([1.0 + 0j, 1.0 + 0j]),
        w_probe=np.ones((1, 2), dtype=complex),
        stop="m",
        drift=0.0,
    )
    assert eigen_tridiag(dec).recon_error < 1e-14
    vectors = krylov._ritz_vectors

    def stretched(alpha, off, theta, h_scale, threads):
        s = vectors(alpha, off, theta, h_scale, threads)
        s[:, np.argmin(np.abs(theta))] *= 1.1
        return s

    monkeypatch.setattr(krylov, "_ritz_vectors", stretched)
    with pytest.raises(PrecisionError, match="reconstruction"):
        eigen_tridiag(dec)


def test_kernel_source_compiles_without_warnings():
    # every C source of the package, with the flags it is built with
    gcc = shutil.which("gcc")
    assert gcc is not None, "gcc is required to build the kernels"
    for name, flags in _native.FLAGS.items():
        out = subprocess.run(
            [gcc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
             *flags, str(PACKAGE / name)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, (name, out.stderr)


def test_every_kernel_source_is_built_and_shipped():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    sources = {path.name for path in PACKAGE.glob("*.c")}
    assert set(_native.FLAGS) == sources
    pyproject = tomllib.loads(
        (PACKAGE.parents[1] / "pyproject.toml").read_text())
    shipped = pyproject["tool"]["setuptools"]["package-data"]["wavecast"]
    for name in sources:
        assert any(fnmatch.fnmatch(name, glob) for glob in shipped), name


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


@pytest.mark.parametrize("kernel", ["stable", "uncorrected"])
def test_impulse_blocks_match_one_block(monkeypatch, kernel):
    op = _small_op()
    b = np.zeros(op.n)
    b[op.n // 2] = 1.0
    modes = eigen_tridiag(bilanczos(op, b, 30, [3, op.n // 2 + 2]))
    t = np.linspace(0.0, 4.0, 101)
    whole = evaluate_impulse(modes, t, kernel=kernel)
    n_modes = modes.theta.size
    # one sample per block, then 3 per block with a shorter last one;
    # BLAS may sum a narrower product in another order
    for block in (1, 3 * n_modes + 1):
        monkeypatch.setattr(krylov, "_KERNEL_BLOCK", block)
        parts = evaluate_impulse(modes, t, kernel=kernel)
        assert np.abs(parts - whole).max() <= 1e-13 * np.abs(whole).max()


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
