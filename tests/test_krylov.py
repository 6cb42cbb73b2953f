import dataclasses
import fnmatch
import shutil
import subprocess
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.signal

import wavecast.krylov as krylov
from wavecast import _native
from wavecast.errors import (
    BreakdownError,
    InvalidParameterError,
    NearDefectiveError,
    PrecisionError,
    SamplingError,
)
from wavecast.grid import build_grid2d
from wavecast.harness import _padded_times, _prepare
from wavecast.krylov import (
    LanczosDecomposition,
    ModeSet,
    bilanczos,
    convolve_source,
    eigen_tridiag,
    evaluate_impulse,
)
from wavecast.operator import MediumMap, assemble_operator
from wavecast.scenarios import get_scenario
from wavecast.zolotarev import (
    SpectralInterval,
    to_continued_fraction,
    zolotarev_approx,
)

from support import (
    diagonal_operator,
    direct_impulse,
    invit_loop,
    invit_start,
    probe_index,
    sc_resolvent_dense,
    uncorrected_impulse,
)

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


@pytest.mark.parametrize("power", [600, -600])
def test_start_vector_at_any_scale(power):
    # the recursion is linear in b: b 2^power gives bitwise the same run,
    # with zeta_1 = ||b|| scaled exactly, although ||b||^2 is out of range
    op = _small_op()
    rng = np.random.default_rng(7)
    b = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    probes = [probe_index(op, 0.5, -0.5)]
    want = bilanczos(op, b, 40, probes)
    got = bilanczos(op, np.ldexp(b.view(float), power).view(complex), 40,
                    probes)
    assert got.m == want.m == 40 and got.stop == want.stop
    for name in ("alpha", "delta", "w_probe", "drift"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.zeta[1:], want.zeta[1:])
    assert got.zeta[0] == np.ldexp(want.zeta[0], power)
    for bad in (np.nan, np.inf, -np.inf):
        b_bad = b.copy()
        b_bad[3] = bad
        with pytest.raises(InvalidParameterError, match="not finite"):
            bilanczos(op, b_bad, 5, probes)


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
    # a tolerance between |delta_3| and the smaller of |delta_1|,
    # |delta_2| makes iteration 3 the first collapse
    floor = ratio[:2].min()
    assert ratio[2] < floor
    monkeypatch.setattr(krylov, "_BREAKDOWN_TOL", 0.5 * (floor + ratio[2]))
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


def _run_of(alpha, zeta, w_probe=None):
    """A run whose H has diagonal alpha and off-diagonal zeta[1:]
    (delta = 1), and one probe row of ones unless w_probe is given."""
    m = len(alpha)
    return LanczosDecomposition(
        m=m, alpha=np.asarray(alpha, dtype=complex), zeta=np.asarray(zeta),
        delta=np.ones(m, dtype=complex), stop="m", drift=0.0, threads=1,
        w_probe=np.ones((1, m), dtype=complex) if w_probe is None else w_probe)


def _jordan_2x2(c):
    """The run of H = c [[i, 1], [1, -i]], a double eigenvalue with a
    quasi-null eigenvector (s^T s = 0) at every scale c."""
    return _run_of(c * np.array([1j, -1j]), [1.0, c])


def test_near_defective_raises():
    # the QL iteration does not converge on it
    with pytest.raises(NearDefectiveError):
        eigen_tridiag(_jordan_2x2(1.0))


@pytest.mark.parametrize("c", [1e-300, 1e-150, 1e-3, 0.3, 0.5, 1.0, 1.3, 2.0,
                               3.0, 7.0, 11.0, 1e3, 1e150, 1e300])
def test_defective_h_stops_at_any_scale(c):
    # its values either do not converge (NearDefectiveError) or come out
    # ~sqrt(eps) apart with vectors the reconstruction gate rejects
    # (PrecisionError); which of the two exit-3 gates fires depends on
    # rounding, but no scale yields modes
    with pytest.raises((NearDefectiveError, PrecisionError)):
        eigen_tridiag(_jordan_2x2(c))


def _random_tridiagonal(rng, m):
    """Diagonal and off-diagonal of a random complex symmetric tridiagonal."""
    alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    off = rng.standard_normal(m - 1) + 1j * rng.standard_normal(m - 1)
    return alpha, off


def _dense(alpha, off):
    return np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)


def _values(alpha, off):
    """The Ritz values of H (diagonal alpha, off-diagonal off) as
    eigen_tridiag finds them, through its one scaling (_h_scale)."""
    h = krylov._h_scale(alpha, off)
    return krylov._ldexp(krylov._ritz_values(h), h.exp)


def _assert_same_values(got, want, tol):
    # each value near one of the other set, both ways
    gap = np.abs(got[:, None] - want[None, :])
    assert got.size == want.size
    assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= tol


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e300, 1e-300])
@pytest.mark.parametrize("graded", [False, True])
def test_ql_values_hold_at_any_scale(scale, graded):
    # the eigensolve scales H to max |H| in [0.5, 1) by a power of two
    # (_values), so the values hold at any scale of H (its QL squares the
    # off-diagonal, which over- or underflows far from unit scale); the
    # oracle is the dense eig of the unit-scale matrix.  A graded H runs
    # from 1 to 1e-12 down the diagonal
    rng = np.random.default_rng(19)
    for _ in range(100):
        m = int(rng.integers(2, 121))
        alpha, off = _random_tridiagonal(rng, m)
        if graded:
            g = np.logspace(0.0, -6.0, m)  # H <- G H G
            alpha, off = alpha * g * g, off * g[1:] * g[:-1]
        unit = max(np.abs(alpha).max(), np.abs(off).max())
        alpha, off = alpha / unit, off / unit
        want = np.linalg.eigvals(_dense(alpha, off)) * scale
        theta = _values(alpha * scale, off * scale)
        _assert_same_values(theta, want, 1e-13 * scale)


def test_ql_values_hold_as_the_off_diagonal_falls_to_1e_150():
    # a graded H whose diagonal and off-diagonal fall geometrically from
    # 1 to 1e-150: deep in the grading a rotation's p and r = p + e^2 are
    # both tiny.  The rotation divides by each apart (p' = gamma (X / p),
    # gamma = X / r); written as X^2 / (r p), whose product under- or
    # overflows there, the kernel gave up on about one H in seven of the
    # 100 of seed 23 (40 to 120 rows).  At 10 to 15 rows (10 to 17
    # decades a row) |r|^2 or |p|^2 itself underflows, so the QL takes
    # those reciprocals through a power-of-two rescale: without it, 7 of
    # the 1 200 H of seeds 0-5 (3 to 120 rows) stop the QL
    draws = [(23, 100, 40)] + [(seed, 200, 3) for seed in range(6)]
    for seed, count, fewest in draws:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            m = int(rng.integers(fewest, 121))
            alpha, off = _random_tridiagonal(rng, m)
            g = np.logspace(0.0, -150.0, m)
            alpha, off = alpha * g, off * g[1:]
            h = _dense(alpha, off)
            _assert_same_values(_values(alpha, off), np.linalg.eigvals(h),
                                1e-13 * np.abs(h).max())


def test_ql_splits_at_exact_zero_off_diagonal():
    # a direct sum of two tridiagonals: the QL deflates at the zero
    # off-diagonal and returns the union of the blocks' values (the
    # oracle, numpy's eig of each block, is itself up to ~7e-15 max |H|
    # off at these sizes)
    rng = np.random.default_rng(5)
    blocks = [_random_tridiagonal(rng, m) for m in (17, 29)]
    alpha = np.concatenate([a for a, _ in blocks])
    off = np.concatenate([blocks[0][1], [0.0], blocks[1][1]])
    h_scale = max(np.abs(alpha).max(), np.abs(off).max())
    want = np.concatenate([np.linalg.eigvals(_dense(*b)) for b in blocks])
    theta = _values(alpha, off)
    _assert_same_values(theta, want, 1e-14 * h_scale)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e300, 1e-300])
def test_values_of_a_well_conditioned_h_the_ql_stalls_on(scale):
    # with Wilkinson shifts alone the QL cycles on this unreduced 4 x 4
    # until its iteration cap, although its values are distinct
    # (smallest gap 0.89) and its vectors far from isotropic (smallest
    # |s^T s| 0.48); the exceptional shift lets it converge, to eig's
    # values at any scale
    alpha = np.array([-2 - 2j, 2, 0, -2 + 1j])
    off = np.array([2 - 2j, 2 - 2j, -1 + 0j])
    h = _dense(alpha, off)
    theta = _values(alpha * scale, off * scale)
    _assert_same_values(theta, np.linalg.eigvals(h) * scale,
                        1e-13 * np.abs(h).max() * scale)


@pytest.mark.paper
@pytest.mark.parametrize("name", ["ring", "waveguide"])
def test_paper_values_converge_at_m_9000(name):
    # opt-in (pytest -m paper): the largest m of the convergence scans;
    # the QL, which takes at most 9 sweeps a value on these presets,
    # never reaches its exceptional shift or its cap (values only, no S)
    asm = _prepare(get_scenario(name))
    dec = bilanczos(asm.op, asm.b, 9000, asm.probe_flats)
    assert dec.m == 9000
    alpha, off, _ = _symmetrized(dec)
    theta = _values(alpha, off)
    assert theta.shape == (9000,) and np.isfinite(theta).all()


def _min_isotropy(h):
    """Smallest |s^T s| of the unit-norm eigenvectors of dense eig."""
    _, vec = np.linalg.eig(h)
    vec /= np.linalg.norm(vec, axis=0)
    return np.abs((vec * vec).sum(axis=0)).min()


def test_ql_converges_unless_h_is_defective():
    # small-integer unreduced tridiagonals are where the Wilkinson shift
    # cycles (on 5 of the 2 558 drawn here, all far from defective);
    # with the exceptional shift the kernel stops only on a numerically
    # defective H (11 of them).  There the dense eig is itself only good
    # to about eps max |H| / |s^T s|, so values the kernel does return
    # on one (2 here) are held to that
    rng = np.random.default_rng(0)
    failed = 0
    for _ in range(3000):
        m = int(rng.integers(2, 9))
        alpha, off = (rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)
                      for n in (m, m - 1))
        if not off.all():
            continue
        h = _dense(alpha, off)
        q = _min_isotropy(h)
        try:
            theta = _values(alpha, off)
        except NearDefectiveError:
            failed += 1
            assert q < 1e-6
            continue
        tol = 1e-13 if q >= 1e-6 else 10.0 * np.finfo(float).eps / q
        _assert_same_values(theta, np.linalg.eigvals(h), tol * np.abs(h).max())
    assert failed >= 1


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
    (W D^{-1/2} s) s_1 d_1^{1/2} / s^T s.
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
    return ModeSet(theta=np.array(thetas),
                   residues=np.array(residues).T * sqd[0],
                   zeta1=float(dec.zeta[0]), recon_error=0.0, merged=0)


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


def test_impulse_takes_values_near_the_cut_from_above(ring1650):
    # ring-desk at m = 600 has Ritz values on the negative real axis but
    # for rounding, some just above it and some just below; each counts
    # as lying on the cut, approached from above, so the side rounding
    # picks moves no bit of the impulse
    sc, dec = ring1650
    modes = eigen_tridiag(dec.truncate(600))
    theta = modes.theta
    window = (theta.real < 0.0) & (np.abs(theta.imag) <= krylov._CUT_TOL
                                   * np.abs(theta).max())
    below = np.signbit(theta.imag[window])
    assert window.sum() >= 40 and below.any() and not below.all()
    flipped = theta.copy()
    flipped[window] = np.conj(theta[window])
    times = np.linspace(0.0, sc.t_final, 200)
    assert np.array_equal(
        evaluate_impulse(dataclasses.replace(modes, theta=flipped), times),
        evaluate_impulse(modes, times))


def test_ghost_merge_matches_dense_oracle(ring1650):
    # ring-desk at m = 600 has ghost Ritz pairs straddling the branch
    # cut; unmerged, their cancelling residues leave the impulse ~2e-3 off
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
    # at m = 1650 the unpolished QL values are up to 3e-11 * max |H|
    # off; zgeev's (LAPACK's dense eig) lie within 1e-13 of the polished
    # ones, merge as many (7) ghost values and move the impulse by 4e-7
    # when the compiled vectors follow them
    sc, dec = ring1650
    modes = eigen_tridiag(dec)

    def dense_values(h):
        theta = np.linalg.eigvals(_dense(h.alpha, h.off))
        return theta[np.lexsort((theta.imag, theta.real))]

    monkeypatch.setattr(krylov, "_ritz_values", dense_values)
    dense = eigen_tridiag(dec)
    assert modes.merged == dense.merged >= 1
    times = np.array([0.5, 1.0]) * sc.t_final
    want = evaluate_impulse(dense, times)
    got = evaluate_impulse(modes, times)
    assert np.abs(got - want).max() < 1e-6 * np.abs(want).max()


def _streamed(s, theta, rows):
    """What the ritz_vectors kernel streams, from the vectors s (columns):
    (first, probe, hs, ss) of krylov._ritz_vectors."""
    first = s[0]
    return first, rows @ s, s @ (theta * first), s @ first


def test_weights_match_solve_oracle(ring1650):
    # the residues are the probe rows times the weights S^T e_1 and
    # d_1^{1/2}, summed over each ghost group.  The weights are streamed
    # without S; the oracle solves S x = e_1 with S from the Python loop of
    # zgtsv solves (the transpose shortcut holds for the
    # cluster-orthogonalized vectors, ghost pairs included).  Each vector is
    # fixed up to its sign, and within a cluster up to the basis of the
    # cluster's subspace (the loop's and the kernel's differ there by up to
    # 1e-4 at m = 1650): the sums over each cluster of w^2 and of w times
    # the probe row are fixed under both
    _, dec = ring1650
    modes = eigen_tridiag(dec)
    alpha, off, sqd = _symmetrized(dec)
    rows = dec.w_probe / sqd
    h = krylov._h_scale(alpha, off)
    theta = krylov._ritz_values(h)
    first, probe, _, _ = krylov._ritz_vectors(h, theta, rows)
    residues, at = probe * (first * sqd[0]), krylov._ldexp(theta, h.exp)
    ghosts = krylov._close_groups(theta, krylov._GHOST_TOL * h.h_max)
    for g in np.unique(ghosts):  # one mode each, its residues summed
        (lead,) = np.flatnonzero(np.isin(modes.theta, at[ghosts == g]))
        assert np.array_equal(modes.residues[:, lead],
                              residues[:, ghosts == g].sum(axis=1))
    s = invit_loop(h.alpha, h.off, theta, h.h_max)
    oracle = np.linalg.solve(s, np.eye(dec.m)[:, 0])
    label = krylov._close_groups(theta, krylov._CLUSTER_TOL * h.h_max)
    assert np.bincount(label).max() >= 2

    def by_cluster(x):
        x = np.atleast_2d(x)
        out = np.zeros((x.shape[0], label.max() + 1), dtype=complex)
        np.add.at(out, (slice(None), label), x)
        return out

    for got, want in ((first ** 2, oracle ** 2),
                      (probe * first, (rows @ s) * oracle)):
        got, want = by_cluster(got), by_cluster(want)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_invit_start_is_splitmix64():
    # the oracle's start vectors (the kernel's rule): the first output of
    # splitmix64 from state 0 is 0xE220A8397B1DCDAF (Steele, Lea & Flood
    # 2014, and every port of it), the counter (0, 0); each vector lies in
    # [-1, 1) and differs from one value to the next
    first = (0xE220A8397B1DCDAF >> 11) * 2.0 ** -52 - 1.0
    assert invit_start(0, 1)[0] == first
    starts = np.array([invit_start(i, 4000) for i in range(3)])
    assert (starts >= -1.0).all() and (starts < 1.0).all()
    assert abs(starts.mean()) < 0.02 and len({*starts[:, 0]}) == 3


def _assert_streams_match(got, s, theta, rows, tol):
    """The kernel's streamed outputs got against those of the vectors s,
    by products fixed under each vector's sign: first^2, probe * first and
    the sums, each within tol of its scale (|s_i|^2, |row| |s_i|^2)."""
    first, probe, hs, ss = got
    want = _streamed(s, theta, rows)
    size = np.linalg.norm(s, axis=0) ** 2
    assert (np.abs(first ** 2 - want[0] ** 2) <= tol * size).all()
    assert (np.abs(probe * first - want[1] * want[0])
            <= tol * size * np.linalg.norm(rows, axis=1)[:, None]).all()
    for sum_got, sum_want in zip((hs, ss), want[2:]):
        assert (np.linalg.norm(sum_got - sum_want)
                <= tol * np.linalg.norm(sum_want))


def test_kernel_vectors_match_python_loop(ring1650, monkeypatch):
    # the compiled inverse iteration, on one thread and on two, against
    # its Python loop of zgtsv solves, from the same starts; each vector
    # is fixed up to its sign (the sign of the near-zero pivot), and at
    # m = 150 they agree to 5e-13 apart from it
    _, dec = ring1650
    alpha, off, sqd = _symmetrized(dec.truncate(150))
    rows = dec.w_probe[:, :150] / sqd
    h = krylov._h_scale(alpha, off)
    theta = krylov._ritz_values(h)
    want = invit_loop(h.alpha, h.off, theta, h.h_max)
    for threads in (1, 2):
        monkeypatch.setattr(_native, "_usable_cpus", lambda: threads)
        got = krylov._ritz_vectors(h, theta, rows)
        _assert_streams_match(got, want, theta, rows, 1e-10)


def _ritz_runs(h, rows, theta=None):
    """(theta, first, probe, hs, ss) of the compiled eigensolve of the
    scaled H on 1, 2 and 3 threads, on the AVX2 path of the kernel's one
    lane source (where the CPU has AVX2), then on its baseline path;
    theta, when given, is used in place of the kernel's values."""
    kernel = krylov._ritz_kernel()
    runs = []
    for simd in sorted({kernel.simd, 0}, reverse=True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "simd", simd)
            for threads in (1, 2, 3):
                mp.setattr(_native, "_usable_cpus", lambda: threads)
                values = krylov._ritz_values(h) if theta is None else theta
                runs.append((values, *krylov._ritz_vectors(h, values, rows)))
    return runs


def _assert_runs_bitwise(runs):
    for got in runs[1:]:
        for a, b in zip(got, runs[0]):
            assert a.tobytes() == b.tobytes()


def test_zero_pivot_retry_inside_a_lane_group():
    # a direct sum of 1 x 1 and 2 x 2 blocks, m = 10 (not a multiple of
    # the kernel's eight lanes): at the exact value of a 1 x 1 block,
    # H - theta I has an exactly zero pivot, so that lane factors again
    # at theta + nudge while the other lanes of its group go on, with
    # bitwise the outputs they have beside no retry.  Every output
    # matches the Python loop, which retries the same way, and is
    # bitwise the same on 1, 2 and 3 threads and on either lane path
    alpha = np.array([1.0 + 0.5j, 2.0, 2.5 + 1j, 4.0 - 1j, 5.0, 5.5 + 2j,
                      7.0, 8.0 - 0.5j, 8.5, 10.0 + 1j])
    off = np.array([0.0, 0.7j, 0.0, 0.0, 1.3, 0.0, 0.0, 0.4, 0.0])
    h = krylov._h_scale(alpha, off)
    lone = h.alpha[[0, 3, 6, 9]]
    theta = krylov._ritz_values(h)
    at = np.abs(theta[:, None] - lone[None, :]).argmin(axis=0)
    theta[at] = lone  # exact, as the polish may move them by an ulp
    assert (np.diff(theta.real) > 0).all()
    rows = np.arange(20.0).reshape(2, 10) + 1j
    want = invit_loop(h.alpha, h.off, theta, h.h_max)
    runs = [run[1:] for run in _ritz_runs(h, rows, theta)]
    _assert_streams_match(runs[0], want, theta, rows, 1e-12)
    _assert_runs_bitwise(runs)
    nearby = theta.copy()
    nearby[at] *= 1.0 + 2.0 ** -40  # no zero pivot
    calm = krylov._ritz_vectors(h, nearby, rows)
    other = np.ones(theta.size, dtype=bool)
    other[at] = False
    for a, b in zip(calm[:2], runs[0][:2]):
        assert np.array_equal(a[..., other], b[..., other])


def test_ritz_paths_agree_on_short_groups():
    # n = 1 .. 9 leave every count of idle lanes in a group of eight
    # (seven down to none, and seven in the second group of n = 9), and
    # every tail of rows past the last whole block of two or four that
    # the sums are emitted in: the values and everything the vectors
    # emit are the same bits on 1, 2 and 3 threads and on either lane
    # path
    rng = np.random.default_rng(31)
    for n in range(1, 10):
        alpha, off = _random_tridiagonal(rng, n)
        rows = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        runs = _ritz_runs(krylov._h_scale(alpha, off), rows)
        assert np.isfinite(runs[0][0]).all() and np.isfinite(runs[0][2]).all()
        _assert_runs_bitwise(runs)


@pytest.fixture(scope="module", params=["homogeneous-desk", "ring-desk",
                                        "waveguide-desk"])
def desk1650(request):
    """(scenario, assembly, its decomposition at m = 1650) of a desk
    preset; tests at smaller m truncate it."""
    sc = get_scenario(request.param)
    asm = _prepare(sc)
    return sc, asm, bilanczos(asm.op, asm.b, 1650, asm.probe_flats)


@pytest.mark.parametrize("m", [150, 600, 1650])
def test_ritz_simd_and_scalar_paths_are_bitwise(desk1650, m):
    # each lane runs its value's own operations, blends in place of the
    # branches on the AVX2 path: the values, first components, probe
    # rows and sums of a desk preset are the same bits on either path and
    # on 1, 2 and 3 threads (m = 1650 has cluster chains on ring-desk)
    _, _, dec = desk1650
    alpha, off, sqd = _symmetrized(dec.truncate(m))
    _assert_runs_bitwise(_ritz_runs(krylov._h_scale(alpha, off),
                                    dec.w_probe[:, :m] / sqd))


@pytest.mark.parametrize("c", [
    1e-300, 1e-200, 1e-160, 1e160, 1e200, 1e300,
    pytest.param(2.0 ** -600, id="2^-600"),
    pytest.param(2.0 ** 600, id="2^600")])
def test_vectors_hold_at_any_scale(c):
    # the eigensolve scales H once, by a power of two (exactly), so a
    # random 6 x 6 at any scale gives finite modes that pass the
    # reconstruction gate, with the residues of the unit-scale H; at a
    # power-of-two scale every stage sees bitwise the unit-scale H, so
    # theta and zeta_1 scale exactly and the residues are the same
    rng = np.random.default_rng(6)
    alpha = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    zeta = np.abs(rng.standard_normal(6))
    w_probe = rng.standard_normal((2, 6)) + 0j

    unit, modes = (eigen_tridiag(_run_of(alpha * s, zeta * s, w_probe))
                   for s in (1.0, c))
    for field in ("theta", "residues"):
        assert np.isfinite(getattr(modes, field)).all(), field
    assert modes.recon_error <= krylov._RECON_TOL
    assert (np.abs(modes.residues - unit.residues)
            <= 1e-12 * np.abs(unit.residues).max()).all()
    if np.frexp(c)[0] == 0.5:
        assert np.array_equal(modes.theta, unit.theta * c)
        assert np.array_equal(modes.residues, unit.residues)
        assert modes.zeta1 == unit.zeta1 * c


@pytest.mark.parametrize("m", [600, 1001, 1650])
def test_eigensolve_is_bitwise_the_same_on_any_thread_count(ring1650,
                                                            monkeypatch, m):
    # m = 600 merges ghost pairs; at m = 1650, 122 cluster members each
    # run after the member before them; m = 1001 leaves a short last
    # block and lane group
    _, dec = ring1650
    dec = dec.truncate(m)
    runs = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(_native, "_usable_cpus", lambda: threads)
        runs.append(eigen_tridiag(dec))
    h = krylov._h_scale(*_symmetrized(dec)[:2])
    chained = krylov._close_groups(krylov._ritz_values(h),
                                   krylov._CLUSTER_TOL * h.h_max)
    assert runs[0].merged >= 1
    assert np.bincount(chained).max() >= 2
    for modes in runs[1:]:
        for field in ("theta", "residues"):
            assert np.array_equal(getattr(modes, field),
                                  getattr(runs[0], field)), field
        assert modes.recon_error == runs[0].recon_error


def test_reconstruction_gate_checks_weights_identity(monkeypatch):
    # H = [[1, 1], [1, 1]] has eigenvalues 0 and 2.  Stretching the
    # eigenvector of 0 leaves S diag(theta) S^T e_1 = H e_1 intact, so
    # only S S^T e_1 = e_1 sees it; a wrong theta in the first sum leaves
    # S S^T e_1 intact, so only H e_1 sees that.  The streamed outputs
    # are built from the loop's S, and the gate must reject both
    dec = _run_of([1.0, 1.0], [1.0, 1.0])
    assert eigen_tridiag(dec).recon_error < 1e-14

    def perturbed(stretch, shift):
        def vectors(h, theta, rows):
            s = invit_loop(h.alpha, h.off, theta, h.h_max)
            s[:, np.argmin(np.abs(theta))] *= stretch
            first, probe, _, ss = _streamed(s, theta, rows)
            return first, probe, s @ ((theta + shift) * first), ss
        return vectors

    for stretch, shift in ((1.1, 0.0), (1.0, 0.1)):
        monkeypatch.setattr(krylov, "_ritz_vectors", perturbed(stretch, shift))
        with pytest.raises(PrecisionError, match="reconstruction"):
            eigen_tridiag(dec)


def test_kernel_source_compiles_without_warnings(tmp_path):
    # every C source of the package, with the command it is built with:
    # gcc reports its uninitialized-use warnings only from the passes
    # that optimize, so the sources are compiled, not only parsed
    assert shutil.which(_native._CC[0]) is not None, (
        "gcc is required to build the kernels")
    for name, flags in _native.FLAGS.items():
        out = subprocess.run(
            [*_native._CC, *flags, "-std=c99", "-Wall", "-Wextra", "-Werror",
             "-c", "-o", str(tmp_path / "kernel.o"), str(PACKAGE / name)],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, (name, out.stderr)


def test_new_build_removes_stale_builds(tmp_path, monkeypatch):
    # a build of a revised source removes the builds of its earlier
    # revisions, and leaves those of the other sources
    monkeypatch.setattr(_native, "__file__", str(tmp_path / "_native.py"))
    source = tmp_path / "_fdtd.c"
    shutil.copy(PACKAGE / "_fdtd.c", source)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    other = cache / "_ritz-0123456789abcdef.so"
    for path in (cache / "_fdtd-0123456789abcdef.so", other):
        path.write_bytes(b"")
    builds = []
    for _ in range(2):
        _native.load("_fdtd.c", {})
        builds.append(sorted(cache.glob("_fdtd-*.so")))
        source.write_text(source.read_text() + "/* revised */\n")
    assert len(builds[0]) == len(builds[1]) == 1
    assert builds[0] != builds[1]
    assert other.exists()


def test_every_kernel_source_is_built_and_shipped():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    sources = {path.name for path in PACKAGE.glob("*.c")}
    assert set(_native.FLAGS) == sources
    pyproject = tomllib.loads(
        (PACKAGE.parents[1] / "pyproject.toml").read_text())
    shipped = pyproject["tool"]["setuptools"]["package-data"]["wavecast"]
    for name in sources:
        assert any(fnmatch.fnmatch(name, glob) for glob in shipped), name


def _one_mode(theta):
    """A unit mode at theta, seen by one probe."""
    return ModeSet(theta=np.array([theta]), residues=np.array([[1.0 + 0j]]),
                   zeta1=1.0, recon_error=0.0, merged=0)


def test_kernels_agree_on_real_negative_spectrum():
    modes = _one_mode(-4.0 + 0j)
    t = np.linspace(0.0, 5.0, 200)
    stable = evaluate_impulse(modes, t)
    uncorr = uncorrected_impulse(modes, t)
    assert np.allclose(stable, -np.sin(2.0 * t) / 2.0, atol=1e-14)
    assert np.allclose(stable, uncorr, atol=1e-14)


def test_uncorrected_kernel_grows_off_axis():
    modes = _one_mode(-4.0 + 0.4j)
    t = np.linspace(0.0, 60.0, 600)
    stable = evaluate_impulse(modes, t)
    uncorr = uncorrected_impulse(modes, t)
    assert np.abs(stable).max() < 0.6
    assert np.abs(uncorr).max() > 20.0 * np.abs(stable).max()


def test_impulse_is_the_same_on_any_thread_count():
    # the compiled sum takes each sample's modes in order, so its trace
    # is bitwise the same on 1, 2 and 3 threads, and within rounding of
    # numpy's product of the residues and the kernel values
    op = _small_op()
    b = np.zeros(op.n)
    b[op.n // 2] = 1.0
    modes = eigen_tridiag(bilanczos(op, b, 30, [3, op.n // 2 + 2]))
    t = np.linspace(0.0, 4.0, 101)
    sq = krylov._sqrt_from_above(modes.theta)[:, None]
    want = modes.zeta1 * (modes.residues @ (np.exp(-sq * t) / sq)).real
    runs = []
    for threads in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "_usable_cpus", lambda: threads)
            runs.append(evaluate_impulse(modes, t))
    assert np.abs(runs[0] - want).max() <= 1e-13 * np.abs(want).max()
    for got in runs[1:]:
        assert np.array_equal(got, runs[0])


def test_impulse_recurrence_matches_direct_sum(desk1650):
    # the kernel takes each mode's term exactly at every eighth sample
    # and steps it by exp(-sqrt(theta) dt) to the next seven.  At the
    # preset's m and trace times, against a direct sum of the terms, the
    # trace run writes (the impulse convolved with the source) moves by
    # at most 1e-13 of its peak, and is bitwise the same on 1, 2 and 3
    # threads.  The impulse itself moves by up to 1.9e-13 of its peak
    # (ring-desk): the recurrence samples t_j0 + s dt exactly, while each
    # t_j is rounded to an ulp of t, and at |sqrt(theta)| up to 170 and t
    # up to 18 that offset alone moves a long-double sum by 1.6e-13
    sc, asm, dec = desk1650
    modes = eigen_tridiag(dec.truncate(sc.m_default))
    times = _padded_times(sc, asm)
    want = direct_impulse(modes, times)
    runs = []
    for threads in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_native, "_usable_cpus", lambda: threads)
            runs.append(evaluate_impulse(modes, times))
    assert np.abs(runs[0] - want).max() <= 3e-13 * np.abs(want).max()
    q, dt = sc.signature()(times), times[1] - times[0]
    trace, oracle = (convolve_source(u, q, dt) for u in (runs[0], want))
    assert np.abs(trace - oracle).max() <= 1e-13 * np.abs(oracle).max()
    for got in runs[1:]:
        assert got.tobytes() == runs[0].tobytes()


def test_evaluate_rejects_a_nonuniform_grid():
    # the recurrence needs one step: times whose steps spread by more
    # than _GRID_TOL * max t are refused, while a grid of arange * dt or
    # linspace (whose rounded steps spread by up to about 2 eps max t)
    # and a single time pass
    modes = _one_mode(-4.0 + 0.4j)
    t = np.arange(600) * 0.031415926535897934
    for good in (t, np.linspace(0.0, 18.0, 588), t[7:], t[:1]):
        assert np.isfinite(evaluate_impulse(modes, good)).all()
    moved = t.copy()
    moved[300] += 8.0 * np.finfo(float).eps * t.max()
    for bad in (moved, np.array([0.0, 0.1, 0.3]), np.array([0.0, np.nan])):
        with pytest.raises(InvalidParameterError, match="uniform grid"):
            evaluate_impulse(modes, bad)


def test_evaluate_rejects_negative_times():
    modes = _one_mode(-4.0 + 0.4j)
    with pytest.raises(InvalidParameterError):
        evaluate_impulse(modes, np.array([-0.1, 0.5]))


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_evaluate_rejects_nonfinite_times(t):
    with pytest.raises(InvalidParameterError, match="finite"):
        evaluate_impulse(_one_mode(-4.0 + 0.4j), np.array([t]))


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


def test_fft_length_is_scipy_next_fast_len():
    # the padded length of convolve_source is scipy.fft's real-input rule
    for n in [*range(1, 20_001), 100_001, 131_073, 229_441, 1_000_003,
              7 ** 9]:
        assert krylov._fast_len(n) == scipy.fft.next_fast_len(n, real=True), n


def test_convolution_endpoint_weights():
    # q = 1, K = 1: trapezoid gives exactly t
    dt = 0.125
    n = 50
    ones = np.ones(n)
    got = convolve_source(ones, ones, dt)
    assert np.allclose(got[0], np.arange(n) * dt, atol=1e-13)


@pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
def test_convolution_rejects_a_bad_step(dt):
    sig = np.ones(32)
    with pytest.raises(InvalidParameterError, match="dt must be positive"):
        convolve_source(sig, sig, dt)


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
