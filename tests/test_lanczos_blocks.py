"""The compiled recursion step against exact arithmetic and the
whole-vector allocating loop.

The step's complex products follow one rule, the fused form
(_exact_fused), on every host and on its SIMD and scalar path alike;
test_products_are_exactly_fused checks it element by element.
`reference_recursion` is the recursion as first written: one
allocating whole-vector numpy or scipy pass per operation, on a single
thread, with A as a CSR matrix.  Where numpy's own complex product is
the fused form (NUMPY_FUSED: its SIMD loops on FMA hardware, as on
AVX-512 hosts with numpy 2), the compiled, matrix-free step must
reproduce it bit for bit for every row-block (thread) count, including
more blocks than the machine has cores, and on both paths.  Elsewhere
the two differ in the last bits of each product, a difference the
recursion grows by an amount not measured, so those comparisons are
skipped (fused_numpy) rather than held to a guessed tolerance.
"""

import sys
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest

import wavecast.krylov as krylov
from wavecast.errors import BreakdownError
from wavecast.grid import build_grid2d
from wavecast.harness import _prepare
from wavecast.krylov import LanczosDecomposition, bilanczos
from wavecast.operator import MediumMap, assemble_operator
from wavecast.scenarios import get_scenario
from wavecast.zolotarev import (
    SpectralInterval,
    to_continued_fraction,
    zolotarev_approx,
)

from support import diagonal_operator

FIELDS = ("m", "alpha", "zeta", "delta", "w_probe", "drift", "stop")


def _exact_fused(x, y):
    """x * y as fma(xr, yr, -xi yi) + i fma(xr, yi, xi yr), exactly
    rounded."""
    def fma(p, q, c):
        return float(Fraction(p) * Fraction(q) + Fraction(c))
    return complex(fma(x.real, y.real, -(x.imag * y.imag)),
                   fma(x.real, y.imag, x.imag * y.real))


def _numpy_product_is_fused():
    """numpy's complex product, of two arrays and of a scalar by an
    array, is _exact_fused on this host."""
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-1.0, 1.0, (2, 82)).view(complex)
    return (np.array_equal(a * b, [_exact_fused(x, y) for x, y in zip(a, b)])
            and np.array_equal(a[0] * b, [_exact_fused(a[0], y) for y in b]))


NUMPY_FUSED = _numpy_product_is_fused()
fused_numpy = pytest.mark.skipif(
    not NUMPY_FUSED, reason="numpy's complex product is not the kernel's "
    "fused form on this host, so the numpy oracle differs in the last bits")


def reference_recursion(op, b, m, probes,
                        breakdown_tol=krylov._BREAKDOWN_TOL, drift_every=500):
    """Whole-vector allocating recursion from b (the correctness oracle)."""
    a_mat = op.a_mat
    m_diag = op.m_diag
    m_scale = float(np.abs(m_diag).max())
    probes = np.asarray(probes, dtype=int)
    b = np.asarray(b, dtype=complex)

    alpha, zeta, delta, wp_cols = [], [], [], []
    zeta_cur = float(np.linalg.norm(b))
    w_prev = np.zeros(op.n, dtype=complex)
    w_cur = w_first = b / zeta_cur
    delta_prev = 1.0
    drift = 0.0
    stop = "m"
    i = 0
    while i < m:
        i += 1
        d_i = w_cur @ (m_diag * w_cur)
        if abs(d_i) < breakdown_tol * m_scale:
            if i <= 2:
                raise BreakdownError(f"collapse at {i}", index=i)
            stop = "breakdown"
            break
        aw = a_mat @ w_cur
        a_i = (w_cur @ (m_diag * aw)) / d_i
        r = aw - a_i * w_cur
        if i > 1:
            r = r - (d_i / delta_prev) * zeta_cur * w_prev
        alpha.append(a_i)
        zeta.append(zeta_cur)
        delta.append(d_i)
        wp_cols.append(w_cur[probes].copy())
        z_next = float(np.linalg.norm(r))
        if z_next < krylov._HAPPY_TOL * float(np.abs(aw).max() + abs(a_i)):
            stop = "invariant"
            w_cur = np.zeros(op.n, dtype=complex)
            break
        w_prev, w_cur = w_cur, r / z_next
        zeta_cur = z_next
        delta_prev = d_i
        if i % drift_every == 0:
            drift = max(drift, float(abs(w_cur @ (m_diag * w_first))
                                     / m_scale))
    drift = max(drift, float(abs(w_cur @ (m_diag * w_first)) / m_scale))

    # a collapse at iteration i keeps iterations 1..i-2
    keep = i - 2 if stop == "breakdown" else i
    return LanczosDecomposition(
        m=keep,
        alpha=np.array(alpha[:keep], dtype=complex),
        zeta=np.array(zeta[:keep], dtype=float),
        delta=np.array(delta[:keep], dtype=complex),
        w_probe=np.array(wp_cols[:keep], dtype=complex).T,
        stop=stop,
        drift=drift,
        threads=1,
    )


def assert_bitwise(got, want):
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert np.array_equal(g, w), name
        assert np.asarray(g).dtype == np.asarray(w).dtype, name
    assert got.w_probe.shape == want.w_probe.shape


@pytest.fixture
def force_blocks(monkeypatch):
    """Force the recursion's block count and record what it used."""
    used = []
    real_thread_count = krylov._thread_count

    def spy(ref_job, n=None):
        used.append(real_thread_count(ref_job, n))
        return used[-1]

    def force(n_blocks):
        monkeypatch.setattr(krylov, "_ROWS_PER_WORKER", 1)
        monkeypatch.setattr(krylov, "_usable_cpus", lambda: n_blocks)
        monkeypatch.setattr(krylov, "_thread_count", spy)
        return used

    return force


@pytest.fixture(scope="module", params=["homogeneous-desk", "ring-desk"])
def desk(request):
    asm = _prepare(get_scenario(request.param))
    ref = reference_recursion(asm.op, asm.b, 300, asm.probe_flats,
                              drift_every=50)
    return asm, ref


@fused_numpy
@pytest.mark.parametrize("n_blocks", [1, 3, 4])
def test_desk_run_is_bitwise_reference(desk, n_blocks, force_blocks,
                                       monkeypatch):
    asm, ref = desk
    used = force_blocks(n_blocks)
    monkeypatch.setattr(krylov, "_DRIFT_EVERY", 50)
    got = bilanczos(asm.op, asm.b, 300, asm.probe_flats)
    assert used == [n_blocks]
    assert ref.m == 300 and ref.stop == "m" and ref.drift > 0.0
    assert_bitwise(got, ref)


@fused_numpy
def test_blocks_under_fast_thread_switching(desk, force_blocks,
                                            monkeypatch):
    # more workers than cores, switching as often as the interpreter
    # allows: a block read before its phase ended would change the bits
    asm, ref = desk
    force_blocks(4)
    monkeypatch.setattr(krylov, "_DRIFT_EVERY", 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bilanczos(asm.op, asm.b, 300, asm.probe_flats)
    finally:
        sys.setswitchinterval(interval)
    assert_bitwise(got, ref)


@fused_numpy
@pytest.mark.parametrize("n_blocks", [1, 3])
def test_breakdown_retreat_is_bitwise_reference(desk, n_blocks,
                                                force_blocks, monkeypatch):
    # a tolerance just below the smallest |delta| of iterations 1..150
    # makes a later iteration i the first collapse
    asm, ref = desk
    ratio = np.abs(ref.delta) / np.abs(asm.op.m_diag).max()
    tol = ratio[:150].min()
    i = 1 + int(np.argmax(ratio < tol))
    assert 150 < i <= 300 and ratio[i - 1] < tol
    want = reference_recursion(asm.op, asm.b, 300, asm.probe_flats,
                               breakdown_tol=tol)
    fresh = bilanczos(asm.op, asm.b, i - 2, asm.probe_flats)
    used = force_blocks(n_blocks)
    monkeypatch.setattr(krylov, "_BREAKDOWN_TOL", tol)
    got = bilanczos(asm.op, asm.b, 300, asm.probe_flats)
    assert used == [n_blocks]  # one recursion run
    assert got.m == i - 2 and got.stop == "breakdown"
    assert_bitwise(got, want)
    for name in ("alpha", "zeta", "delta", "w_probe"):
        assert np.array_equal(getattr(got, name), getattr(fresh, name)), name


@pytest.mark.parametrize("n_blocks", [2, 4])
def test_breakdown_index_with_blocks(n_blocks, force_blocks):
    op = diagonal_operator([1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0])
    used = force_blocks(n_blocks)
    with pytest.raises(BreakdownError) as exc:
        bilanczos(op, np.array([1.0, 1.0, 0.0, 0.0]), 3, [0])
    assert exc.value.index == 1
    assert used == [n_blocks]


@fused_numpy
@pytest.mark.parametrize("n_blocks", [2, 3])
def test_happy_breakdown_with_blocks(n_blocks, force_blocks):
    op = assemble_operator(build_grid2d(6))
    lam, vec = np.linalg.eigh(op.a_mat.toarray().real)
    want = reference_recursion(op, vec[:, 3], 10, [0])
    force_blocks(n_blocks)
    got = bilanczos(op, vec[:, 3], 10, [0])
    assert got.stop == "invariant" and got.m == 1
    assert abs(got.alpha[0] - lam[3]) < 1e-10 * abs(lam[3])
    assert_bitwise(got, want)


def _phase_a(op, r, scale, n_blocks, simd):
    """w, A w, M w, M A w from the compiled phase A on r * scale."""
    kernel = krylov._lanczos_kernel()
    out = [np.empty(op.n, dtype=complex) for _ in range(4)]
    args = [a.ctypes.data for a in (op.cxm, op.cxp, op.cym, op.cyp,
                                     op.inv_c, op.m_diag, *out)]
    kernel.lanczos_phase_a(n_blocks, simd, *op.inv_c.shape, r.ctypes.data,
                           scale, *args)
    return out


def _phase_b(aw, w, alpha, c, w_prev, n_blocks, simd):
    """aw - alpha w - c w_prev from the compiled phase B (no c w_prev
    term when w_prev is None)."""
    r = np.empty_like(aw)
    coef = np.array([alpha, c])
    prev = w if w_prev is None else w_prev
    krylov._lanczos_kernel().lanczos_phase_b(
        n_blocks, simd, aw.size, aw.ctypes.data, w.ctypes.data,
        coef.ctypes.data, prev.ctypes.data, w_prev is not None, r.ctypes.data)
    return r


def test_products_are_exactly_fused():
    # on every host and both paths: M w, M A w and the update's alpha w
    # and c w_prev are the exactly rounded fused products
    steps = to_continued_fraction(
        zolotarev_approx(SpectralInterval(-25.0, -1.0), 2))
    grid = build_grid2d(8, steps)
    op = assemble_operator(grid, MediumMap.from_function(
        grid, lambda x, y: 1.0 + x ** 2 + 2.0 * y ** 2))
    rng = np.random.default_rng(11)
    r, w_prev = rng.uniform(-1.0, 1.0, (2, 2 * op.n)).view(complex)
    alpha, c = rng.uniform(-1.0, 1.0, 4).view(complex)
    assert np.iscomplexobj(op.cxm) and np.ptp(op.inv_c) > 0.0
    for simd in sorted({0, krylov._lanczos_kernel().simd}):
        for n_blocks in (1, 3):
            w, aw, mw, maw = _phase_a(op, r, 0.37, n_blocks, simd)
            assert np.array_equal(w, r * 0.37)
            assert np.array_equal(
                mw, [_exact_fused(m, x) for m, x in zip(op.m_diag, w)])
            assert np.array_equal(
                maw, [_exact_fused(m, x) for m, x in zip(op.m_diag, aw)])
            for prev in (None, w_prev):
                got = _phase_b(aw, w, alpha, c, prev, n_blocks, simd)
                want = aw - [_exact_fused(alpha, x) for x in w]
                if prev is not None:
                    want -= [_exact_fused(c, x) for x in prev]
                assert np.array_equal(got, want)


@fused_numpy
@pytest.mark.parametrize("name", ["homogeneous-desk", "ring-desk",
                                  "waveguide-desk"])
def test_stencil_product_is_bitwise_csr(name):
    # the matrix-free product against scipy's on the assembled matrix
    op = _prepare(get_scenario(name)).op
    rng = np.random.default_rng(7)
    r = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    w = r * 0.37
    for simd in sorted({0, krylov._lanczos_kernel().simd}):
        for n_blocks in (1, 3):
            got_w, aw, mw, maw = _phase_a(op, r, 0.37, n_blocks, simd)
            assert np.array_equal(got_w, w)
            assert np.array_equal(aw, op.a_mat @ w)
            assert np.array_equal(mw, op.m_diag * w)
            assert np.array_equal(maw, op.m_diag * aw)


@fused_numpy
def test_simd_and_scalar_paths_are_bitwise(desk, monkeypatch):
    asm, ref = desk
    kernel = krylov._lanczos_kernel()
    monkeypatch.setattr(krylov, "_DRIFT_EVERY", 50)
    runs = []
    for simd in (kernel.simd, 0):
        monkeypatch.setattr(kernel, "simd", simd)
        runs.append(bilanczos(asm.op, asm.b, 300, asm.probe_flats))
    assert_bitwise(runs[1], runs[0])
    assert_bitwise(runs[1], ref)


class _Job:
    """A reference job that is done from its (k + 1)-th look on."""

    def __init__(self, k):
        self.k, self.looks = k, 0

    def done(self):
        self.looks += 1
        return self.looks > self.k


def test_block_count_rule(monkeypatch):
    # one rule for both compiled stages: every usable CPU, one fewer
    # while the reference job runs, and for a recursion step at most
    # n // _ROWS_PER_WORKER row blocks; never fewer than one
    count = krylov._thread_count
    rows = krylov._ROWS_PER_WORKER
    running, finished = Future(), Future()
    finished.set_result(None)
    monkeypatch.setattr(krylov, "_usable_cpus", lambda: 2)
    for job in (None, finished):
        assert count(job, 18_225) == 1  # ring-desk
        assert count(job, 2 * rows - 1) == 1
        assert count(job, 2 * rows) == 2
        assert count(job, 229_441) == 2  # paper-scale ring
        assert count(job) == 2  # the eigensolve
    assert count(running, 229_441) == 1  # beside the reference
    assert count(running) == 1
    monkeypatch.setattr(krylov, "_usable_cpus", lambda: 3)
    assert count(running, 229_441) == 2
    assert count(running, 2 * rows) == 2
    assert count(running) == 2
    monkeypatch.setattr(krylov, "_usable_cpus", lambda: 1)
    for job in (None, finished, running):
        assert count(job, 229_441) == 1
        assert count(job) == 1


def test_reference_done_mid_recursion(desk, force_blocks, monkeypatch):
    # the recursion takes the reference's core at the first step after
    # the job is done (step 150 here), with the bits of a one-thread run
    asm, _ = desk
    used = force_blocks(1)
    one = bilanczos(asm.op, asm.b, 300, asm.probe_flats)
    monkeypatch.setattr(krylov, "_usable_cpus", lambda: 3)
    job = _Job(150)
    got = bilanczos(asm.op, asm.b, 300, asm.probe_flats, ref_job=job)
    assert used == [1, 2, 3] and job.looks == 151
    assert (one.threads, got.threads) == (1, 3)
    assert_bitwise(got, one)


@pytest.mark.paper
def test_paper_ring_reference_done_mid_recursion(monkeypatch):
    # opt-in (pytest -m paper): the paper-scale ring takes two row
    # blocks by its size on two CPUs, one while the reference job runs;
    # a job done at iteration 150 of 300 leaves the bits of a one-thread
    # run
    asm = _prepare(get_scenario("ring"))
    monkeypatch.setattr(krylov, "_usable_cpus", lambda: 1)
    one = bilanczos(asm.op, asm.b, 300, asm.probe_flats)
    monkeypatch.setattr(krylov, "_usable_cpus", lambda: 2)
    job = _Job(150)
    got = bilanczos(asm.op, asm.b, 300, asm.probe_flats, ref_job=job)
    assert job.looks == 151
    assert (one.threads, got.threads) == (1, 2)
    assert_bitwise(got, one)
