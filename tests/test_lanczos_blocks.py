"""The compiled recursion step against exact arithmetic, against itself
and against the whole-vector allocating loop.

Every product of the step takes one rule, the fused form (_exact_fused),
and every reduction sums one partial per grid row in element order, on
the kernel's SIMD and scalar paths alike; test_products_are_exactly_fused
checks both rules element by element and row by row.  So the kernel must
give bitwise the same run for every row-block (thread) count, including
more blocks than the machine has cores, and on both paths.

`reference_recursion` is the recursion as first written: one allocating
whole-vector numpy or scipy pass per operation, with BLAS reductions and
A as a CSR matrix.  It rounds differently, and the recursion grows any
rounding difference once orthogonality is lost (by iteration 100 the
ring-desk runs differ by 1e-2), so it is compared over the first
ORACLE_ITERS iterations only, to ORACLE_TOL.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

import wavecast.fdtd as fdtd
import wavecast.harness as harness
import wavecast.krylov as krylov
from wavecast import _native
from wavecast.cli import main
from wavecast.errors import BreakdownError
from wavecast.grid import build_grid2d
from wavecast.harness import _prepare
from wavecast.krylov import (
    LanczosDecomposition,
    bilanczos,
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

from support import diagonal_operator

FIELDS = ("m", "alpha", "zeta", "delta", "w_probe", "drift", "stop")
# iterations compared with the oracle, and the largest relative
# difference allowed there: about 10x the worst measured on the desk
# presets (1.1e-13, ring-desk's probe rows; alpha, zeta and delta agree
# to 8e-15)
ORACLE_ITERS = 50
ORACLE_TOL = 1e-12
U = 2.0 ** -53  # unit roundoff


def _gamma(k):
    """gamma_k = k u / (1 - k u), the bound on k roundings (Higham,
    Accuracy and Stability of Numerical Algorithms, 3.1)."""
    return k * U / (1.0 - k * U)


def _exact_fused(x, y):
    """x * y as fma(xr, yr, -xi yi) + i fma(xr, yi, xi yr), exactly
    rounded."""
    def fma(p, q, c):
        return float(Fraction(p) * Fraction(q) + Fraction(c))
    return complex(fma(x.real, y.real, -(x.imag * y.imag)),
                   fma(x.real, y.imag, x.imag * y.real))


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
        real_share=0.0,
    )


def assert_bitwise(got, want):
    for name in FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert np.array_equal(g, w), name
        assert np.asarray(g).dtype == np.asarray(w).dtype, name
    assert got.w_probe.shape == want.w_probe.shape


def assert_near_oracle(got, want):
    """The leading ORACLE_ITERS iterations (or all, if fewer) of two runs
    agree to ORACLE_TOL: the coefficients element by element, the probe
    rows relative to their largest entry."""
    k = min(ORACLE_ITERS, got.m, want.m)
    assert k >= min(ORACLE_ITERS, want.m)
    for name in ("alpha", "zeta", "delta"):
        g, w = getattr(got, name)[:k], getattr(want, name)[:k]
        assert (np.abs(g - w) <= ORACLE_TOL * np.abs(w)).all(), name
    g, w = got.w_probe[:, :k], want.w_probe[:, :k]
    assert np.abs(g - w).max() <= ORACLE_TOL * np.abs(w).max()


@pytest.fixture
def force_blocks(monkeypatch):
    """Force the recursion's block count and record the count each
    lanczos_run call (one chunk of steps) used."""
    used = []
    kernel = krylov._lanczos_kernel()
    real_run = kernel.lanczos_run

    def spy(n_blocks, *args):
        used.append(n_blocks)
        return real_run(n_blocks, *args)

    def force(n_blocks):
        monkeypatch.setattr(krylov, "_ROWS_PER_WORKER", 1)
        monkeypatch.setattr(_native, "_usable_cpus", lambda: n_blocks)
        monkeypatch.setattr(kernel, "lanczos_run", spy)
        return used

    return force


def on_both_paths(run):
    """run() on the kernel's SIMD path (where the CPU has one) and on its
    scalar path."""
    kernel = krylov._lanczos_kernel()
    runs = []
    for simd in sorted({kernel.simd, 0}, reverse=True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "simd", simd)
            runs.append(run())
    return runs


@pytest.fixture(scope="module", params=["homogeneous-desk", "ring-desk"])
def desk(request):
    """(assembly, the oracle's run, the kernel's run on one block and its
    default path), 300 iterations, drift sampled every 50."""
    asm = _prepare(get_scenario(request.param))
    ref = reference_recursion(asm.op, asm.b, 300, asm.probe_flats,
                              drift_every=50)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov, "_DRIFT_EVERY", 50)
        mp.setattr(_native, "_usable_cpus", lambda: 1)
        base = bilanczos(asm.op, asm.b, 300, asm.probe_flats)
    return asm, ref, base


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
def test_desk_run_is_bitwise_reference(desk, n_blocks, force_blocks,
                                       monkeypatch):
    # bitwise the one-block run on both paths, and near the oracle
    asm, ref, base = desk
    assert ref.m == 300 and ref.stop == "m" and ref.drift > 0.0
    assert_near_oracle(base, ref)
    used = force_blocks(n_blocks)
    monkeypatch.setattr(krylov, "_DRIFT_EVERY", 50)
    for got in on_both_paths(lambda: bilanczos(
            asm.op, asm.b, 300, asm.probe_flats)):
        assert_bitwise(got, base)
    assert used == [n_blocks] * len(used)


def test_blocks_under_fast_thread_switching(desk, force_blocks,
                                            monkeypatch):
    # more workers than cores, switching as often as the interpreter
    # allows: a block read before its phase ended would change the bits
    asm, _, base = desk
    force_blocks(4)
    monkeypatch.setattr(krylov, "_DRIFT_EVERY", 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = bilanczos(asm.op, asm.b, 300, asm.probe_flats)
    finally:
        sys.setswitchinterval(interval)
    assert_bitwise(got, base)


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
def test_breakdown_retreat_is_bitwise_reference(desk, n_blocks,
                                                force_blocks, monkeypatch):
    # a tolerance just below the smallest |delta| of iterations 1..150
    # makes a later iteration i the first collapse; the run keeps
    # iterations 1..i-2, bitwise those of a run asked for m = i - 2 on
    # both paths, and near the oracle's.  The tolerance is found with
    # bilanczos's own test, abs(delta_i) < tol * max |M| on the scalar,
    # since numpy's array abs may round |delta_i| one ulp the other way
    asm, ref, base = desk
    m_scale = float(np.abs(asm.op.m_diag).max())
    tol = min(abs(d) for d in base.delta[:150]) / m_scale
    while any(abs(d) < tol * m_scale for d in base.delta[:150]):
        tol = np.nextafter(tol, 0.0)
    collapsed = [abs(d) < tol * m_scale for d in base.delta]
    i = 1 + int(np.argmax(collapsed))
    assert 150 < i <= 300 and collapsed[i - 1]
    fresh = bilanczos(asm.op, asm.b, i - 2, asm.probe_flats)
    used = force_blocks(n_blocks)
    monkeypatch.setattr(krylov, "_BREAKDOWN_TOL", tol)
    runs = on_both_paths(lambda: bilanczos(
        asm.op, asm.b, 300, asm.probe_flats))
    assert used == [n_blocks] * 2  # one chunk per path
    for got in runs:
        assert got.m == i - 2 and got.stop == "breakdown"
        for name in ("alpha", "zeta", "delta", "w_probe"):
            assert np.array_equal(getattr(got, name),
                                  getattr(fresh, name)), name
        assert got.drift == runs[0].drift
    assert_near_oracle(runs[0], ref)


@pytest.mark.parametrize("n_blocks", [2, 4])
def test_breakdown_index_with_blocks(n_blocks, force_blocks):
    op = diagonal_operator([1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0])
    used = force_blocks(n_blocks)
    with pytest.raises(BreakdownError) as exc:
        bilanczos(op, np.array([1.0, 1.0, 0.0, 0.0]), 3, [0])
    assert exc.value.index == 1
    assert used == [n_blocks]


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 4])
def test_happy_breakdown_with_blocks(n_blocks, force_blocks):
    # a start on an eigenvector closes the subspace at m = 1: bitwise the
    # one-block run on both paths, and near the oracle's
    op = assemble_operator(build_grid2d(6))
    lam, vec = np.linalg.eigh(op.a_mat.toarray().real)
    want = reference_recursion(op, vec[:, 3], 10, [0])
    one = bilanczos(op, vec[:, 3], 10, [0])
    force_blocks(n_blocks)
    for got in on_both_paths(lambda: bilanczos(
            op, vec[:, 3], 10, [0])):
        assert got.stop == want.stop == "invariant" and got.m == want.m == 1
        assert abs(got.alpha[0] - lam[3]) < 1e-10 * abs(lam[3])
        assert_bitwise(got, one)
        assert_near_oracle(got, want)


def _one_step(op, r0, r1, state, n_blocks, simd):
    """One lanczos_run step, the one after state's count, on the planar
    buffers r0 and r1 (in place): its code, A w (complex), the row
    partials (2, wx) of phase A and of phase B, and the step's alpha and
    delta."""
    wx, wy = op.inv_c.shape
    aw = np.empty((2, op.n))
    dots = np.empty((2, wx), dtype=complex)
    norms = np.empty(wx)
    last = int(state[5]) + 1
    alpha, delta = np.zeros((2, last), dtype=complex)
    code = krylov._lanczos_kernel().lanczos_run(
        n_blocks, last, simd, wx, wy, r0, r1, *krylov._step_operands(op), aw,
        dots, norms, state, 1, np.zeros(1, dtype=np.intp), alpha,
        np.empty(last), delta, np.empty((last, 2, 1)))
    return code, krylov._complex(aw), dots, norms, alpha[-1], delta[-1]


def _phase_a(op, r, scale, n_blocks, simd):
    """A w and the row partials (2, wx) of w^T M w and w^T M A w from the
    compiled phase A on w = r * scale: step 1, which a breakdown limit of
    inf ends right after phase A."""
    state = np.array([scale, 0.0, 1.0, 1.0, 0.0, 0.0, np.inf, 0.0])
    code, aw, dots, *_ = _one_step(op, krylov._planar(r, (op.n,)),
                                   np.zeros((2, op.n)), state, n_blocks, simd)
    assert code == krylov._RUN_BREAKDOWN
    return aw, dots


def _phase_b(op, r, s, r_prev, s_prev, zeta, delta_prev, n_blocks, simd):
    """The compiled phase B on w = r s and w_prev = r_prev s_prev, with
    both limits 0 so that the step runs to its end: step 2 from zeta and
    delta_prev, or step 1 (no w_prev term) when r_prev is None.  Returns
    the update aw - alpha w - c w_prev, its row partials of ||.||^2, and
    the step's aw, alpha and c = (delta / delta_prev) (zeta + 0i), c
    computed here by numpy's rules as the kernel computes it."""
    r = krylov._planar(r, (op.n,))
    if r_prev is None:
        state = np.array([s, 0.0, zeta, 1.0, 0.0, 0.0, 0.0, 0.0])
        bufs = (r, np.zeros_like(r))
    else:
        state = np.array([s, s_prev, zeta, delta_prev.real, delta_prev.imag,
                          1.0, 0.0, 0.0])
        bufs = (krylov._planar(r_prev, (op.n,)), r)
    code, aw, _, norms, alpha, delta = _one_step(op, *bufs, state, n_blocks,
                                                 simd)
    assert code == 0  # the step ran to its end
    c = 0j if r_prev is None else (delta / delta_prev) * np.complex128(zeta)
    out = bufs[1] if r_prev is None else bufs[0]  # r_{i+1} over r_{i-1}
    return krylov._complex(out), norms, aw, alpha, c


# interior counts whose grids (k = 2, wy = n_int + 3) leave phase A's SIMD
# path each tail (wy - 2) mod 4 = 0, 1, 2, 3 in a row; phase B's tail,
# wy mod 4, then takes every value too
TAIL_N_INT = (7, 8, 9, 10)


def _tail_operators():
    """(tail, operator) for each SIMD tail length: a complex stencil and a
    varying inv_c."""
    steps = to_continued_fraction(
        zolotarev_approx(SpectralInterval(-25.0, -1.0), 2))
    for tail, n_int in enumerate(TAIL_N_INT):
        grid = build_grid2d(n_int, steps)
        op = assemble_operator(grid, MediumMap.from_function(
            grid, lambda x, y: 1.0 + x ** 2 + 2.0 * y ** 2))
        assert (op.inv_c.shape[1] - 2) % 4 == tail
        assert np.iscomplexobj(op.cxm) and np.ptp(op.inv_c) > 0.0
        yield tail, op


def _planes(re, im):
    """The complex array of parts re and im, signed zeros kept."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _edge_operators():
    """(label, operator) whose real rectangles put the edges of the SIMD
    path's real form where its runs of four do not: the tail operator
    with wy = 21 (runs over columns 1 to 16), its factors and M made real
    on one rectangle only, with alternating +-0 imaginary parts and
    complex elsewhere, the column span [5 + o, 13 + (o + 2) % 4) starting
    and ending at every offset o mod 4 from column 1; and the operator as
    assembled, but for one interior cym entry with an imaginary part of
    1e-300, whose column must leave the rectangle."""
    steps = to_continued_fraction(
        zolotarev_approx(SpectralInterval(-25.0, -1.0), 2))
    grid = build_grid2d(18, steps)
    op = assemble_operator(grid, MediumMap.from_function(
        grid, lambda x, y: 1.0 + x ** 2 + 2.0 * y ** 2))
    wx, wy = op.inv_c.shape
    assert wy == 21

    def real_on(f, inside):
        zeros = np.where(np.arange(f.size) % 2, -0.0, 0.0)
        return _planes(f.real, np.where(inside, zeros, 0.25 * f.real))

    for o in range(4):
        ix0, ix1 = 2 + o % 2, wx - 2 - o // 2
        iy0, iy1 = 5 + o, 13 + (o + 2) % 4
        rows, cols = np.arange(wx), np.arange(wy)
        in_rows = (ix0 <= rows) & (rows < ix1)
        in_cols = (iy0 <= cols) & (cols < iy1)
        zeros = np.where(np.arange(op.n) % 3, 0.0, -0.0)
        edge = dataclasses.replace(
            op, cxm=real_on(op.cxm, in_rows), cxp=real_on(op.cxp, in_rows),
            cym=real_on(op.cym, in_cols), cyp=real_on(op.cyp, in_cols),
            m_diag=_planes(op.m_diag.real, zeros))
        assert krylov._real_rectangle(edge) == (ix0, ix1, iy0, iy1)
        assert np.signbit(edge.cym.imag[in_cols]).any()
        yield f"span {iy0}:{iy1}", edge
    iy = wy // 2
    cym = op.cym.copy()
    assert cym.imag[iy] == 0.0
    cym.imag[iy] = 1e-300
    tiny = dataclasses.replace(op, cym=cym)
    ix0, ix1, iy0, iy1 = krylov._real_rectangle(tiny)
    assert ix1 > ix0 and iy1 > iy0 and not iy0 <= iy < iy1
    yield "cym 1e-300i", tiny


def _rule_operators():
    """The tail operators, then the edge operators."""
    yield from _tail_operators()
    yield from _edge_operators()


def _rows(x, wy):
    return [x[k:k + wy] for k in range(0, x.size, wy)]


def _exact(z):
    return Fraction(z.real), Fraction(z.imag)


def _exact_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _abs1(x):
    """|Re x| + |Im x|, exactly."""
    return abs(Fraction(x.real)) + abs(Fraction(x.imag))


def test_products_are_exactly_fused():
    # on every host, both paths, every SIMD tail length and every edge of
    # the SIMD path's real form (_edge_operators): the update's
    # alpha w and c w_prev are the exactly rounded fused products of
    # alpha and c with w = r s and w_prev = r_prev s_prev (numpy's r * s),
    # and each row partial is its terms added from +0.0 in element order,
    # a dot term being the fused product a_j (m_j b_j).  Against exact
    # sums, with |x|_1 = |Re x| + |Im x| and gamma_k the bound on k
    # roundings:
    # - a fused product errs by at most gamma_2 |x|_1 |y|_1 per
    #   component, so a dot term by at most gamma_5 T_j, T_j = |a_j|_1
    #   |m_j|_1 |b_j|_1, and its row partial, after wy - 1 additions, by
    #   at most gamma_(wy + 5) sum_j T_j;
    # - a norm term rr rr + ri ri takes 3 roundings, so a norm partial
    #   errs by at most gamma_(wy + 2) sum_j |r_j|^2.
    rng = np.random.default_rng(11)
    kernel = krylov._lanczos_kernel()
    for tail, op in _rule_operators():
        wy = op.inv_c.shape[1]
        r, r_prev = rng.uniform(-1.0, 1.0, (2, 2 * op.n)).view(complex)
        zeta = rng.uniform(0.5, 1.0)
        delta_prev = rng.uniform(-1.0, 1.0, 2).view(complex)[0]
        w, w_prev = r * 0.37, r_prev * 0.61
        dot_bound, norm_bound = _gamma(wy + 5), _gamma(wy + 2)

        def check_dot(got, a, m, b):
            s = 0j
            exact_re = exact_im = size = Fraction(0)
            for aj, mj, bj in zip(a, m, b):
                s += _exact_fused(aj, _exact_fused(mj, bj))
                re, im = _exact_mul(_exact(aj), _exact_mul(_exact(mj),
                                                           _exact(bj)))
                exact_re += re
                exact_im += im
                size += _abs1(aj) * _abs1(mj) * _abs1(bj)
            assert got == s, tail
            assert abs(Fraction(got.real) - exact_re) <= dot_bound * size
            assert abs(Fraction(got.imag) - exact_im) <= dot_bound * size

        def check_norm(got, row):
            s = 0.0
            exact = Fraction(0)
            for x in row:
                s += x.real * x.real + x.imag * x.imag
                exact += Fraction(x.real) ** 2 + Fraction(x.imag) ** 2
            assert got == s, tail
            assert abs(Fraction(got) - exact) <= norm_bound * exact

        for simd in sorted({0, kernel.simd}):
            for n_blocks in (1, 3):
                aw, dots = _phase_a(op, r, 0.37, n_blocks, simd)
                rows = zip(*(_rows(x, wy) for x in (op.m_diag, w, aw)))
                for ix, (m, w_row, aw_row) in enumerate(rows):
                    check_dot(dots[0, ix], w_row, m, w_row)
                    check_dot(dots[1, ix], w_row, m, aw_row)
                for prev in (None, r_prev):
                    got, norms, aw_b, alpha, c = _phase_b(
                        op, r, 0.37, prev, 0.61, zeta, delta_prev, n_blocks,
                        simd)
                    assert np.array_equal(aw_b, aw)
                    want = aw - [_exact_fused(alpha, x) for x in w]
                    if prev is not None:
                        want -= [_exact_fused(c, x) for x in w_prev]
                    assert np.array_equal(got, want), (tail, simd)
                    for ix, row in enumerate(_rows(got, wy)):
                        check_norm(norms[ix], row)


def test_stencil_product_follows_its_rule():
    # on every host, both paths, every SIMD tail length and every edge of
    # the SIMD path's real form (_edge_operators), A w is
    # element by element its documented rule: each term is the fused
    # product of the coefficient (f_re inv_c, f_im inv_c) with w_k = r_k *
    # scale, the centre factor is -(cxm + cxp) - (cym + cyp), and the
    # terms are added from +0.0 in column order (west, south, centre,
    # north, east), those past the grid's edge left out
    rng = np.random.default_rng(13)
    scale = 0.37
    for tail, op in _rule_operators():
        wx, wy = op.inv_c.shape
        r = rng.uniform(-1.0, 1.0, 2 * op.n).view(complex)
        want = np.empty(op.n, dtype=complex)
        for ix in range(wx):
            fx, gx = op.cxm[ix], op.cxp[ix]
            for iy in range(wy):
                fy, gy = op.cym[iy], op.cyp[iy]
                sx = complex(-(fx.real + gx.real), -(fx.imag + gx.imag))
                centre = complex(sx.real - (fy.real + gy.real),
                                 sx.imag - (fy.imag + gy.imag))
                j, ic = ix * wy + iy, op.inv_c[ix, iy]
                s = 0j
                for f, k, edge in ((fx, j - wy, ix > 0), (fy, j - 1, iy > 0),
                                   (centre, j, True),
                                   (gy, j + 1, iy < wy - 1),
                                   (gx, j + wy, ix < wx - 1)):
                    if edge:
                        s += _exact_fused(complex(f.real * ic, f.imag * ic),
                                          r[k] * scale)
                want[j] = s
        for simd in sorted({0, krylov._lanczos_kernel().simd}):
            for n_blocks in (1, 3):
                aw, _ = _phase_a(op, r, scale, n_blocks, simd)
                assert np.array_equal(aw, want), (tail, simd, n_blocks)


def test_start_norm_follows_its_rule():
    # zeta_1 = ||b||, on every SIMD tail length and a desk preset, for
    # dense b with signed zeros over 1e+-3: on r = b 2^-e (the largest
    # component in [0.5, 1)) each grid row adds its rr rr + ri ri from
    # +0.0 in element order, np.sum adds the rows, and the root is
    # scaled back by 2^e
    rng = np.random.default_rng(43)
    ops = [op for _, op in _tail_operators()]
    ops.append(_prepare(get_scenario("ring-desk")).op)
    for op in ops:
        wy = op.inv_c.shape[1]
        parts = rng.standard_normal(2 * op.n) * 10.0 ** rng.uniform(
            -3, 3, 2 * op.n)
        parts[rng.random(2 * op.n) < 0.1] = 0.0
        parts[rng.random(2 * op.n) < 0.1] = -0.0
        e = int(np.frexp(np.abs(parts).max())[1])
        r = np.ldexp(parts, -e).view(complex).tolist()
        rows = []
        for k in range(0, op.n, wy):
            s = 0.0
            for x in r[k:k + wy]:
                s += x.real * x.real + x.imag * x.imag
            rows.append(s)
        want = float(np.ldexp(np.sqrt(np.sum(rows)), e))
        got = bilanczos(op, parts.view(complex), 1, [0]).zeta[0]
        assert _bits(got) == _bits(want), op.n


@pytest.mark.parametrize("name", ["homogeneous-desk", "ring-desk",
                                  "waveguide-desk"])
def test_stencil_product_is_bitwise_csr(name):
    # the matrix-free product: bitwise the same for any block count and
    # on both paths, and near scipy's product with the assembled matrix.
    # Both sum the same coefficients times w in the same column order;
    # a real part is 10 real products summed, each rounded at most 3
    # times before 4 rounded additions (the first adds to +0.0), so each
    # side errs by at most gamma_7 B per component, B its sum of
    # |products|, and they differ by at most 2 gamma_7 B
    op = _prepare(get_scenario(name)).op
    a_mat = op.a_mat
    rng = np.random.default_rng(7)
    r = rng.standard_normal(op.n) + 1j * rng.standard_normal(op.n)
    w = r * 0.37
    want = a_mat @ w
    are, aim = abs(a_mat.real), abs(a_mat.imag)
    wre, wim = np.abs(w.real), np.abs(w.imag)
    bound = 2.0 * _gamma(7) * (are @ wre + aim @ wim + 1j * (are @ wim
                                                             + aim @ wre))
    first = None
    for simd in sorted({0, krylov._lanczos_kernel().simd}):
        for n_blocks in (1, 3):
            aw, _ = _phase_a(op, r, 0.37, n_blocks, simd)
            first = aw if first is None else first
            assert np.array_equal(aw, first)
    assert (np.abs(first.real - want.real) <= bound.real).all()
    assert (np.abs(first.imag - want.imag) <= bound.imag).all()


def test_simd_and_scalar_paths_are_bitwise(desk, monkeypatch):
    asm, _, base = desk
    monkeypatch.setattr(krylov, "_DRIFT_EVERY", 50)
    runs = on_both_paths(lambda: bilanczos(
        asm.op, asm.b, 300, asm.probe_flats))
    for got in runs:
        assert_bitwise(got, base)


def _real_form_control(name, m, force_blocks):
    """Runs of preset name to m, on both paths and on one and three row
    blocks, each with the derived real rectangle and with none."""
    asm = _prepare(get_scenario(name))
    ix0, ix1, iy0, iy1 = krylov._real_rectangle(asm.op)
    assert (ix1 - ix0) * (iy1 - iy0) > asm.op.n // 2
    runs = []
    for rect in (krylov._real_rectangle, lambda op: (0, 0, 0, 0)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(krylov, "_real_rectangle", rect)
            for n_blocks in (1, 3):
                force_blocks(n_blocks)
                runs += on_both_paths(lambda: bilanczos(
                    asm.op, asm.b, m, asm.probe_flats))
    return runs


@pytest.mark.parametrize("name", ["homogeneous-desk", "ring-desk",
                                  "waveguide-desk"])
def test_real_form_is_bitwise_the_complex_form(name, force_blocks):
    # the SIMD path's real form on the rectangle where the stencil factors
    # and M are real leaves every bit of a 300-step run as the complex
    # form everywhere (the rectangle forced empty) has it, on both paths
    # and for one and three row blocks
    runs = _real_form_control(name, 300, force_blocks)
    assert runs[0].m == 300
    for got in runs[1:]:
        assert_bitwise(got, runs[0])


@pytest.mark.paper
def test_paper_ring_real_form_is_bitwise_the_complex_form(force_blocks):
    # opt-in (pytest -m paper): the same control on the paper-scale ring,
    # over 100 steps
    runs = _real_form_control("ring", 100, force_blocks)
    assert runs[0].m == 100
    for got in runs[1:]:
        assert_bitwise(got, runs[0])


def _brute_rectangle(real):
    """The first largest all-True block of the 2-D mask real, in the
    order of (ix0, ix1, iy0, iy1), by trying every block."""
    wx, wy = real.shape
    best, rect = 0, (0, 0, 0, 0)
    for ix0 in range(wx):
        for ix1 in range(ix0 + 1, wx + 1):
            for iy0 in range(wy):
                for iy1 in range(iy0 + 1, wy + 1):
                    area = (ix1 - ix0) * (iy1 - iy0)
                    if area > best and real[ix0:ix1, iy0:iy1].all():
                        best, rect = area, (ix0, ix1, iy0, iy1)
    return rect


def test_real_rectangle_is_the_largest():
    # the derived rectangle is the brute-force search's on random masks,
    # banded (as the stretching makes them) and not, and empty when no
    # unknown is real
    rng = np.random.default_rng(37)

    def parts(real):  # real where real, else complex; signed zeros
        zeros = np.where(rng.random(real.shape) < 0.5, -0.0, 0.0)
        return _planes(rng.standard_normal(real.shape),
                       np.where(real, zeros, rng.standard_normal(real.shape)))

    def operator(rows, cols, m_real):
        wx, wy = m_real.shape
        return dataclasses.replace(
            diagonal_operator(np.ones(wx), np.ones(wx)),
            cxm=parts(rows[0]), cxp=parts(rows[1]), cym=parts(cols[0]),
            cyp=parts(cols[1]), inv_c=np.ones((wx, wy)),
            m_diag=parts(m_real).ravel())

    for trial in range(60):
        wx, wy = rng.integers(1, 9, 2)
        rows, cols = rng.random((2, wx)) < 0.85, rng.random((2, wy)) < 0.85
        m_real = rng.random((wx, wy)) < 0.8
        if trial % 2:  # three bands of equal rows
            bands = [wx // 3, wx // 3, wx - 2 * (wx // 3)]
            rows = np.repeat(rng.random((2, 3)) < 0.85, bands, axis=1)
            m_real = np.repeat(rng.random((3, wy)) < 0.8, bands, axis=0)
        op = operator(rows, cols, m_real)
        mask = m_real & (rows[0] & rows[1])[:, None] & (cols[0] & cols[1])
        assert krylov._real_rectangle(op) == _brute_rectangle(mask), trial
    no_m = operator(np.ones((2, 4), bool), np.ones((2, 5), bool),
                    np.zeros((4, 5), bool))
    assert krylov._real_rectangle(no_m) == (0, 0, 0, 0)


@pytest.mark.parametrize("name", ["homogeneous-desk", "ring-desk",
                                  "waveguide-desk"])
def test_report_records_real_share(name, tmp_path):
    # report.json's lanczos_real_share is the real rectangle's area over n
    sc = get_scenario(name)
    harness.run_study(sc, (100,), out_dir=tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    op = _prepare(sc).op
    ix0, ix1, iy0, iy1 = krylov._real_rectangle(op)
    share = report["metadata"]["lanczos_real_share"]
    assert share == (ix1 - ix0) * (iy1 - iy0) / op.n
    assert 0.6 < share < 1.0


def _kernel_sum(a):
    """The kernel's sum of a 1-D float or complex array (lanczos_sum)."""
    a = np.ascontiguousarray(a)
    out = np.empty(2)
    krylov._lanczos_kernel().lanczos_sum(a.size, a.dtype == complex,
                                         a.view(float), out)
    return complex(*out) if a.dtype == complex else out[0]


def _bits(x):
    return np.asarray(x).tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_kernel_sums_as_np_sum(dtype):
    # the compiled loop adds a step's row partials by numpy's pairwise
    # rule, so each sum is bitwise np.sum's: every length to 700 (past
    # several of its splits) and the row counts of ring-desk (135) and
    # paper ring (479), on terms spread over 1e+-5, with signed zeros
    # among them and on their own
    rng = np.random.default_rng(29)
    width = 2 if dtype is complex else 1
    for n in (*range(1, 701), 135, 479):
        x = rng.standard_normal(width * n) * 10.0 ** rng.uniform(-5, 5,
                                                               width * n)
        x[rng.random(width * n) < 0.1] = 0.0
        x[rng.random(width * n) < 0.1] = -0.0
        zeros = np.where(rng.random(width * n) < 0.5, -0.0, 0.0)
        for a in (x, zeros):
            a = a.view(dtype)
            assert _bits(_kernel_sum(a)) == _bits(np.sum(a)), n


def test_kernel_divides_as_numpy():
    # alpha_i and the c coefficient divide by numpy's complex128 rule
    # (Smith's algorithm), so each quotient is bitwise numpy's scalar
    # one: 1e5 pairs over 1e+-8, a fifth of the divisors with a zero
    # real or imaginary part of either sign
    rng = np.random.default_rng(31)
    k = 100_000
    a, b = (rng.standard_normal(2 * k) * 10.0 ** rng.uniform(-8, 8, 2 * k)
            for _ in range(2))
    a, b = a.view(complex), b.view(complex)
    b.real[:k // 20], b.real[k // 20:k // 10] = 0.0, -0.0
    b.imag[k // 10:3 * k // 20], b.imag[3 * k // 20:k // 5] = 0.0, -0.0
    got = np.empty(k, dtype=complex)
    krylov._lanczos_kernel().lanczos_div(k, a, b, got)
    want = np.array([x / y for x, y in zip(a, b)])
    assert _bits(got) == _bits(want)


def test_block_count_rule(monkeypatch):
    # one CPU rule: the Krylov route's compiled stages take every usable
    # CPU, a recursion step at most n // _ROWS_PER_WORKER row blocks and
    # never fewer than one.  Only the march yields to the other route: one
    # row block until the Krylov route has ended, then every usable CPU
    assert krylov._ROWS_PER_WORKER == 500
    op = assemble_operator(build_grid2d(12))
    b = np.zeros(op.n)
    b[op.n // 2] = 1.0
    used = {}
    for kernel, names in ((krylov._lanczos_kernel(), ("lanczos_run",)),
                          (krylov._ritz_kernel(),
                           ("ritz_values", "ritz_vectors", "impulse"))):
        for name in names:
            def spy(nt, *args, name=name, run=getattr(kernel, name)):
                used.setdefault(name, set()).add(nt)
                return run(nt, *args)
            monkeypatch.setattr(kernel, name, spy)
    beside, alone = threading.Event(), threading.Event()
    alone.set()
    half = op.n // 2
    for cpus, rows, steps in ((2, 1, 2), (2, half, 2), (2, half + 1, 1),
                              (2, op.n + 1, 1), (3, 1, 3), (3, half, 2),
                              (1, 1, 1)):
        monkeypatch.setattr(_native, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(krylov, "_ROWS_PER_WORKER", rows)
        used.clear()
        modes = eigen_tridiag(bilanczos(op, b, 12, [0, half]))
        evaluate_impulse(modes, np.linspace(0.0, 1.0, 20))
        assert used == {"lanczos_run": {steps}, "ritz_values": {cpus},
                        "ritz_vectors": {cpus}, "impulse": {cpus}}
        march = fdtd._march_blocks
        assert (march(beside), march(alone), march(None)) == (1, cpus, cpus)


def _run_alone(monkeypatch, name, m):
    """The decomposition run_study makes for preset name at m, which
    must start while the study has started no reference (no worker
    thread); the study's report."""
    runs, before = [], threading.active_count()

    def alone(*args):
        assert threading.active_count() == before
        runs.append(bilanczos(*args))
        return runs[-1]

    monkeypatch.setattr(harness, "bilanczos", alone)
    report, _ = harness.run_study(get_scenario(name), (m,))
    return runs[0], report


def test_recursion_runs_alone(desk, force_blocks, monkeypatch, request):
    # run_study starts the reference only once the recursion has
    # returned, so every step of the recursion runs on every usable CPU
    # (three row blocks here), with the bits of a one-block run
    asm, _, _ = desk
    used = force_blocks(1)
    one = bilanczos(asm.op, asm.b, 300, asm.probe_flats)
    monkeypatch.setattr(_native, "_usable_cpus", lambda: 3)
    got, report = _run_alone(monkeypatch, request.node.callspec.params["desk"],
                             300)
    assert used[:2] == [1, 3]  # one chunk per run
    assert (one.threads, got.threads) == (1, 3)
    assert report.metadata["lanczos_threads"] == 3
    assert_bitwise(got, one)


def test_recursion_runs_in_chunks(desk, monkeypatch):
    # one kernel call runs the steps up to each drift sample
    asm, _, base = desk
    kernel = krylov._lanczos_kernel()
    calls = []
    real = kernel.lanczos_run
    monkeypatch.setattr(kernel, "lanczos_run",
                        lambda *a: calls.append(a[1]) or real(*a))
    monkeypatch.setattr(krylov, "_DRIFT_EVERY", 50)
    monkeypatch.setattr(_native, "_usable_cpus", lambda: 1)
    assert_bitwise(bilanczos(asm.op, asm.b, 300, asm.probe_flats), base)
    assert calls == list(range(50, 301, 50))


# `wavecast run ring-desk --out DIR` in a fresh interpreter, which also
# pickles the run's LanczosDecomposition to DIR/decomp.pkl
_RUN_RING_DESK = """
import pickle, sys
import wavecast.harness as harness
from wavecast.cli import main
runs = []
real = harness.bilanczos
harness.bilanczos = lambda *a, **k: runs.append(real(*a, **k)) or runs[-1]
assert main(["run", "ring-desk", "--out", sys.argv[1]]) == 0
with open(sys.argv[1] + "/decomp.pkl", "wb") as f:
    pickle.dump(runs[0], f)
"""


def test_run_is_independent_of_blas_threads(tmp_path):
    # no stage of the run goes through the BLAS after the set-up: the
    # recursion's reductions are its kernel's, and the eigensolve and the
    # impulse are compiled sums in a fixed order; so the BLAS thread
    # count leaves the decomposition, the trace and the error alone
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-c", _RUN_RING_DESK, str(out)],
            capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                 "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        decomp = pickle.loads((out / "decomp.pkl").read_bytes())
        report = json.loads((out / "report.json").read_text())
        runs.append((decomp, (out / "lanczos.csv").read_bytes(),
                     report["probe_errors"]))
    (one, csv_one, err_one), (two, csv_two, err_two) = runs
    assert one.m == 1650
    for name in FIELDS:
        assert np.array_equal(getattr(one, name), getattr(two, name)), name
    assert csv_one == csv_two
    assert err_one == err_two


@pytest.mark.parametrize("name", ["ring-desk", "waveguide-desk"])
def test_run_is_independent_of_cpu_count(tmp_path, monkeypatch, name):
    # every compiled stage of the run splits its work by the usable CPU
    # count, and none of them moves a bit by it: the recursion's row
    # blocks, the eigensolve's and the impulse's threads, and the
    # march's row blocks, whose count changes between chunks when the
    # Krylov route ends mid-march
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_native, "_usable_cpus", lambda: cpus)
        out = tmp_path / str(cpus)
        assert main(["run", name, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metadata"]["lanczos_threads"] == cpus
        runs.append([(out / f).read_bytes()
                     for f in ("lanczos.csv", "reference.csv")]
                    + [report["probe_errors"]])
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.paper
def test_paper_ring_recursion_runs_alone(monkeypatch):
    # opt-in (pytest -m paper): in run_study the paper-scale ring's
    # recursion takes two row blocks by its size on two CPUs, before the
    # reference starts, with the bits of a one-thread run
    asm = _prepare(get_scenario("ring"))
    monkeypatch.setattr(_native, "_usable_cpus", lambda: 1)
    one = bilanczos(asm.op, asm.b, 300, asm.probe_flats)
    monkeypatch.setattr(_native, "_usable_cpus", lambda: 2)
    got, _ = _run_alone(monkeypatch, "ring", 300)
    assert (one.threads, got.threads) == (1, 2)
    assert_bitwise(got, one)
