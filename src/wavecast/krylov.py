"""Short-recurrence field evaluation for the stretched wave operator.

The operator A is complex symmetric under the weight M (see operator
module), which admits a two-sided Lanczos process whose left vectors
are the M-images of the right ones.  Running the recursion with
unit-Euclidean-norm vectors keeps it stable even though the bilinear
form w^T M w is indefinite:

    zeta_{i+1} w_{i+1} = A w_i - alpha_i w_i - (delta_i/delta_{i-1})
                                               zeta_i w_{i-1}

with delta_i = w_i^T M w_i, alpha_i = w_i^T M A w_i / delta_i and
zeta_{i+1} = ||r|| > 0 real.  The projected matrix is the complex
tridiagonal T_m with diagonal alpha, subdiagonal zeta_{i+1} and
superdiagonal (delta_{i+1}/delta_i) zeta_{i+1}.

Field values at probe nodes follow from the spectral decomposition of
the symmetrized T_m and the stability-corrected exponent kernel

    f(t, a) = exp(-sqrt(a) t) / sqrt(a)

with the principal square root (branch approached from above on the
negative real axis): u(t) = zeta_1 * Re[W f(t, T_m) e_1] stays bounded
for spectra anywhere off the branch cut, unlike the naive
sin(sqrt(-a) t)/sqrt(-a) kernel, which diverges off the real axis.
In the Ritz values theta_i and their residues r it is the spectral
form u_p(t) = zeta_1 Re sum_i r_{p,i} f(t, theta_i) (ModeSet).

The decomposition is structured (eigen_tridiag) and O(m^2) throughout,
with no m x m array: the eigenvectors are streamed.  A small C kernel
(_ritz.c) gives the eigenvalues of the symmetrized tridiagonal H,
scaled once by a power of two (_h_scale) -- a root-free implicit QL
(complex-orthogonal rotations on the squared off-diagonal, no square
root per rotation), then Ehrlich-Aberth sweeps that polish every value
to rounding level -- and one eigenvector s_i per value, by three steps
of inverse iteration on one pivoted tridiagonal LU of H - theta I, from
which it keeps only what the residues and the reconstruction gate need:
s_i[0] (S^T e_1 is S^-1 e_1 for bilinearly orthonormal vectors), the
probe rows and two running sums.  Values that do not converge mark a
numerically defective H (NearDefectiveError).  Close Ritz values are
handled explicitly: clusters get bilinearly orthogonalized vectors, and
the residues of ghost copies of one mode are summed.  The polish sweeps,
the inverse iteration and the impulse sum work value by value (sample
by sample) on OpenMP threads, with bitwise the same result for any
thread count; the QL is serial.  One rule, _thread_count, sets the
threads of the compiled stages (the recursion applies it before each
step), not the BLAS or OpenMP thread settings.

Each recursion step runs on preallocated vectors in two passes of a
second C kernel (_lanczos.c), each with its own reductions.  The
recursion keeps the unscaled r_i = zeta_i w_i, and each pass forms
w_i = r_i s_i, s_i = 1 / zeta_i, where it reads it:

    A: aw = A w_i, delta_i = w^T M w, alpha_i = w^T M aw / delta_i
    B: r_{i+1} = aw - alpha_i w_i - (delta_i/delta_{i-1}) zeta_i w_{i-1},
       zeta_{i+1} = ||r_{i+1}||, written over r_{i-1}

Phase A is matrix-free: A w comes from the operator's five-point
stencil factors, not from an assembled matrix.  Each pass computes
everything that reads the same rows, so that w, M w and M aw are never
stored and a step moves 120 bytes per unknown.  The vectors are
planar, a (2, n) array of real parts then imaginary parts, so the SIMD
path's complex products take no shuffles.  Both passes split the grid
rows into contiguous blocks (one below 2 * _ROWS_PER_WORKER unknowns),
one OpenMP thread each, inside one ctypes call that releases the GIL;
their pointer arguments are computed once per run, for either role of
the two r buffers.  Every element follows one fixed rule (in
_lanczos.c): a stencil coefficient, factor times inv_c, is two real
products, every complex product takes the fused form fma(ar, br,
-(ai bi)) + i fma(ar, bi, ai br), the stencil sum adds its terms in
column order, and each reduction sums one partial per grid row in
element order, which bilanczos adds up with np.sum (pairwise, in a
fixed order).  ||b||, and so zeta_1, comes from the same row rule, on
b scaled by a power of two (exact, so any finite b has a norm).  So
the run is bitwise identical for every block count, even one that
changes between steps, on the kernel's SIMD and scalar paths, and for
any BLAS thread count: no reduction of the recursion, the eigensolve or
the impulse goes through the BLAS.  The SIMD path (AVX2/FMA, four unknowns per
vector) is 1.9 - 2.6x faster per iteration than the scalar one on the
desk presets and paper ring.  The happy-breakdown test takes max |aw|
only on the rare steps where zeta_{i+1} is below _HAPPY_TOL of its
bound zeta_{i+1} + |alpha_i| + |c| on ||aw||.

Both kernels are compiled with gcc on first use (never at import) and
cached in this package's __pycache__ (see _native); gcc is required,
and a kernel that cannot be built or loaded is a ConfigurationError.

bilanczos runs the recursion once, from b.  A collapse of the bilinear
form at iteration i > 2 ends the run there and hands back its first
i - 2 iterations, with bitwise the coefficients and probe rows of a
run asked for m = i - 2; every smaller m is likewise a truncation of
the one run.
"""

import ctypes
import dataclasses
import functools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _native
from .errors import (
    BreakdownError,
    InvalidParameterError,
    NearDefectiveError,
    PrecisionError,
    SamplingError,
)


def _sqrt_from_above(z):
    """Principal sqrt with the negative real axis approached from above."""
    z = np.asarray(z, dtype=complex)
    out = np.sqrt(z)
    flip = (z.imag == 0.0) & (z.real < 0.0) & (out.imag < 0.0)
    return np.where(flip, -out, out)


@dataclass
class LanczosDecomposition:
    """Coefficients and probe rows of a recursion run, or of its leading
    iterations (truncate); arrays are sized by the iteration count m.
    threads is the row-block count of the run's last step."""

    m: int
    alpha: np.ndarray
    zeta: np.ndarray          # zeta_1 .. zeta_m (zeta_1 = ||b||)
    delta: np.ndarray
    w_probe: np.ndarray       # (n_probes, m)
    stop: str                 # why it ended: "m", "invariant", "breakdown"
    drift: float              # max |w_j^T M w_1| / max |M| observed
    threads: int

    def truncate(self, m_new):
        """Decomposition of the leading m_new iterations."""
        if not 1 <= m_new <= self.m:
            raise InvalidParameterError(
                f"cannot truncate length-{self.m} run to {m_new}"
            )
        if m_new == self.m:
            return self
        return dataclasses.replace(
            self,
            m=m_new,
            alpha=self.alpha[:m_new],
            zeta=self.zeta[:m_new],
            delta=self.delta[:m_new],
            w_probe=self.w_probe[:, :m_new],
        )


# Fewest unknowns per worker thread of a recursion step.  Measured on a
# 2-core x86-64 VM with the planar step (medians of 11 or 21 alternated
# 400-step runs in one process, one to three processes per size): two
# blocks against one take 1.06 - 1.09x the time per step at n = 1 024
# and 1 296, 1.00 - 1.26x at 1 936, 0.92 - 1.08x at 2 209 and 2 500,
# 0.87 - 0.89x at 3 136, 0.83 - 0.94x at 4 096 to 7 056, 0.66 - 0.83x
# at 15 376 and 0.70x at 33 856.  They break even between n = 2 000
# and 3 000, where this rule switches (two blocks from n = 2 000), and
# differ there by less than these runs' noise.  A thread that shares a
# core with the reference holds up every pass at its barrier (see
# _thread_count).
_ROWS_PER_WORKER = 1_000
# the bilinear form has collapsed when |delta_i| < _BREAKDOWN_TOL * max |M|
_BREAKDOWN_TOL = 1e-14
# an invariant subspace has closed when zeta_{i+1} < _HAPPY_TOL *
# (max |A w_i| + |alpha_i|)
_HAPPY_TOL = 1e-14
# steps between samples of the orthogonality drift (also sampled at the
# end of every run)
_DRIFT_EVERY = 500


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _thread_count(ref_job, n=None):
    """Threads of a compiled stage: every usable CPU, one fewer while
    ref_job (the reference route beside it, a Future, or None) is not
    done, since a thread that shares its core holds up every pass at
    its barrier (on two cores, paper-scale run ring took 19.4 - 20.7 s
    with two Lanczos threads beside its FDTD march, 13.1 - 13.3 s with
    one);
    for a recursion step on n unknowns at most n // _ROWS_PER_WORKER;
    at least one."""
    cpus = _usable_cpus() - (ref_job is not None and not ref_job.done())
    if n is not None:
        cpus = min(cpus, n // _ROWS_PER_WORKER)
    return max(1, cpus)


@functools.cache
def _lanczos_kernel():
    """The compiled recursion step (_lanczos.c), with `simd` (the CPU
    runs its AVX2/FMA path) set on the library."""
    c_int, c_double = ctypes.c_int, ctypes.c_double
    ptr = ctypes.c_void_p
    kernel = _native.load("_lanczos.c", {
        "lanczos_simd": (c_int, []),
        "lanczos_phase_a": (c_int, [c_int, c_double, c_int, c_int, c_int,
                                    *[ptr] * 9]),
        "lanczos_phase_b": (c_int, [c_int, c_int, c_int, c_int, c_int,
                                    *[ptr] * 5]),
    })
    kernel.simd = kernel.lanczos_simd()
    return kernel


def _planar(a, shape):
    """a as a C-contiguous (2, *shape) float array: its real parts, then
    its imaginary parts."""
    a = np.asarray(a, dtype=complex)
    if a.shape != shape:
        raise InvalidParameterError(
            f"operator array of shape {a.shape}, need {shape}")
    return np.stack((a.real, a.imag))


def _step_operands(op):
    """Phase A's operator arrays, as the kernel reads them: the planar
    stencil factors cxm, cxp, cym, cyp, inv_c and the planar M diagonal."""
    wx, wy = op.inv_c.shape
    return [*(_planar(f, (size,)) for f, size in (
        (op.cxm, wx), (op.cxp, wx), (op.cym, wy), (op.cyp, wy))),
        np.ascontiguousarray(op.inv_c, dtype=float),
        _planar(op.m_diag, (op.n,))]


def _complex(x):
    """The complex array of planar x (x[0] real parts, x[1] imaginary)."""
    z = np.empty(x.shape[1:], dtype=complex)
    z.real, z.imag = x
    return z


def bilanczos(op, b, m, probe_indices, ref_job=None):
    """Run up to m iterations of the renormalized two-sided recursion.

    b is the start vector (the sampled source); probe_indices are the
    unknown indices whose basis components are retained for field
    evaluation.  The run ends early in two cases, recorded in `stop`:
    an invariant subspace closes ("invariant"), or the bilinear form
    collapses at iteration i ("breakdown"), which leaves iterations
    1..i-1 and keeps 1..i-2, with the coefficients and probe rows of a
    run asked for m = i - 2.  A collapse at i <= 2 leaves nothing and
    raises BreakdownError.

    Each step runs the phases of the module docstring on
    _thread_count(ref_job, n) threads, with bitwise the same result for
    any thread count: ref_job is the reference route beside the
    recursion (None without one), looked at before each step.  The
    decomposition records the thread count of the last step.
    """
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    b = np.asarray(b, dtype=complex)
    n = op.n
    if b.shape != (n,):
        raise InvalidParameterError("start vector length mismatch")
    probes = np.asarray(probe_indices, dtype=int)
    if probes.size == 0:
        raise InvalidParameterError("need at least one probe index")
    if probes.min() < 0 or probes.max() >= n:
        raise InvalidParameterError("probe index out of range")

    wx, wy = op.inv_c.shape
    m_diag = np.asarray(op.m_diag, dtype=complex)
    m_scale = float(np.abs(m_diag).max())
    kernel = _lanczos_kernel()
    n_blocks = _thread_count(ref_job, n)

    alpha = np.empty(m, dtype=complex)
    zeta = np.empty(m, dtype=float)
    delta = np.empty(m, dtype=complex)
    probe_rows = np.empty((m, 2, probes.size))  # planar w_i[probes]

    # planar buffers: r (r_i = zeta_i w_i), r_prev (r_{i-1}, then r_{i+1}
    # in place) and aw; the two r buffers swap roles every step
    r = _planar(b, (n,))
    # r = b 2^-e in place, its largest component in [0.5, 1): exact, and
    # ||r|| neither over- nor underflows for any finite b; 2^e goes back
    # into zeta_1 alone, so the run is the same for b at any scale
    big = max(r.max(), -r.min())
    if not np.isfinite(big):
        raise InvalidParameterError("start vector is not finite")
    if big == 0.0:
        raise InvalidParameterError("start vector is zero")
    b_exp = int(np.frexp(big)[1])
    np.ldexp(r, -b_exp, out=r)
    r_prev = np.zeros((2, n))
    aw = np.empty((2, n))
    dots = np.empty((2, wx), dtype=complex)  # row partials of d_i, a_i d_i
    norms = np.empty(wx)  # row partials of ||r_{i+1}||^2
    # alpha_i and c_prev (re, im), then the scales s_i and s_{i-1}
    coef = np.zeros(6)
    # the kernels' arguments after the thread count and the scalar that
    # follows it, for each role of the two r buffers: step i reads r_i
    # from buffer (i - 1) % 2
    consts = _step_operands(op)  # kept alive while the kernel reads them
    p_r, p_prev, p_aw, p_dots, p_norms, p_coef, *p_consts = (
        a.ctypes.data for a in (r, r_prev, aw, dots, norms, coef, *consts))
    fixed = (kernel.simd, wx, wy)
    args_a = [(*fixed, x, *p_consts, p_aw, p_dots) for x in (p_r, p_prev)]
    args_b = [(*fixed, p_aw, x, y, p_coef, p_norms)
              for x, y in ((p_r, p_prev), (p_prev, p_r))]

    # ||r|| by the same rule: with alpha = 0 and s = 1, phase B leaves r
    coef[4] = 1.0
    kernel.lanczos_phase_b(n_blocks, False, *fixed, p_r, p_r, p_r, p_coef,
                           p_norms)
    norm_r = float(np.sqrt(norms.sum()))
    scale, scale_prev = 1.0 / norm_r, 0.0  # w_i = r_i * scale
    # zeta_i, the norm that produced w_i: zeta_1 = ||b||
    zeta_cur = float(np.ldexp(norm_r, b_exp))
    delta_prev = 1.0

    # w_1 = r * scale, component by component as the kernel forms it
    m_w_first = m_diag * _complex(r * scale)  # for the drift samples

    def drift_sample(x, s):
        # global two-sided orthogonality drift of w = x * s against the
        # first vector, in one temporary; purely diagnostic
        w = _complex(x)
        w.real *= s
        w.imag *= s
        w *= m_w_first
        return float(abs(w.sum()) / m_scale)

    drift = 0.0
    stop = "m"
    i = 0
    while i < m:
        i += 1
        if ref_job is not None and ref_job.done():
            ref_job, n_blocks = None, _thread_count(None, n)
        parity = (i - 1) % 2
        kernel.lanczos_phase_a(n_blocks, scale, *args_a[parity])
        d_i = dots[0].sum()
        if abs(d_i) < _BREAKDOWN_TOL * m_scale:
            if i <= 2:
                raise BreakdownError(
                    f"bilinear form collapsed at iteration {i}: "
                    f"|delta| = {abs(d_i):.3e}",
                    index=i,
                )
            stop = "breakdown"
            drift = max(drift, drift_sample(r, scale))
            break
        a_i = dots[1].sum() / d_i
        c_prev = (d_i / delta_prev) * zeta_cur if i > 1 else 0j
        coef[:] = (a_i.real, a_i.imag, c_prev.real, c_prev.imag, scale,
                   scale_prev)
        # r_{i+1} into r_prev's buffer
        kernel.lanczos_phase_b(n_blocks, i > 1, *args_b[parity])
        z_next = float(np.sqrt(norms.sum()))
        alpha[i - 1] = a_i
        zeta[i - 1] = zeta_cur
        delta[i - 1] = d_i
        np.multiply(r[:, probes], scale, out=probe_rows[i - 1])
        r, r_prev = r_prev, r
        delta_prev = d_i
        # happy when z_next < _HAPPY_TOL (max |aw| + |a_i|); since
        # max |aw| <= ||aw|| <= z_next + |a_i| + |c_prev| for unit
        # w's, the max pass runs only when z_next is below _HAPPY_TOL of
        # that
        if (z_next < _HAPPY_TOL * (z_next + abs(a_i) + abs(c_prev))
                and z_next < _HAPPY_TOL * (np.hypot(*aw).max()
                                           + abs(a_i))):
            stop = "invariant"  # w_{i+1} = 0 adds no drift
            break
        scale, scale_prev = 1.0 / z_next, scale
        zeta_cur = z_next
        if i % _DRIFT_EVERY == 0 or i == m:
            drift = max(drift, drift_sample(r, scale))

    m_run = i - 1 if stop == "breakdown" else i
    decomp = LanczosDecomposition(
        m=m_run,
        alpha=alpha[:m_run],
        zeta=zeta[:m_run],
        delta=delta[:m_run],
        w_probe=_complex(probe_rows[:m_run].transpose(1, 2, 0)),
        stop=stop,
        drift=drift,
        threads=n_blocks,
    )
    # keep one iteration of margin before the collapse
    return decomp.truncate(i - 2) if stop == "breakdown" else decomp


# Ritz values closer than _CLUSTER_TOL * max |H| form one cluster for the
# inverse iteration: each member is bilinearly orthogonalized against the
# members computed before it, so the cluster gets independent vectors.
_CLUSTER_TOL = 1e-8
# Ritz values closer than _GHOST_TOL * max |H| are one mode (ghost copies
# from lost orthogonality); their residues are summed onto one member.
# Worst probe impulse at t_final/2 and t_final on ring-desk against a
# dense sqrtm/expm oracle of H, relative to the oracle's peak, with two
# BLAS threads (with one, the oracle itself moves by 7e-5 at m = 1650):
#   m = 600:  1e-14 to 1e-12 merge 2, 1e-11 and 1e-10 merge 3, all 2e-9;
#             no merge, 2e-3
#   m = 1650: 1e-14 merges 3, 1e-13 7, 1e-12 21, 1e-10 35, all 3e-8;
#             no merge, 7e-3
# Unmerged ghost pairs straddling the branch cut carry huge cancelling
# residues whose kernels differ across the cut.
_GHOST_TOL = 1e-13
# inverse-iteration solves per Ritz value: each shrinks the admixture of
# a neighbour theta_j by ~eps * max |H| / |theta_i - theta_j|, so a pair
# just outside _GHOST_TOL is separated to ~(eps / _GHOST_TOL)^3 = 1e-8
_INVIT_STEPS = 3
# largest ||S diag(theta) S^T e_1 - H e_1|| / max |H|, and largest
# ||S S^T e_1 - e_1||, the eigensolve accepts
_RECON_TOL = 1e-8
# smallest |s^T s| of a unit-norm eigenvector (quasi-isotropic below)
_DEFECT_TOL = 1e-12


@dataclass(frozen=True)
class ModeSet:
    """Spectral form of a projected run: field at probe p is

        u_p(t) = zeta_1 * Re sum_i residues[p, i] * f(t, theta[i]),

    residues[p, i] = (W D^{-1/2} s_i)_p s_i[0] d_1^{1/2} (see
    eigen_tridiag), summed over the ghost copies of a mode.  merged
    counts the ghost Ritz values folded into another mode and threads
    the thread count of eigen_tridiag's per-value stages, which
    evaluate_impulse takes too.
    """

    theta: np.ndarray
    residues: np.ndarray      # (n_probes, modes)
    zeta1: float
    recon_error: float
    merged: int
    threads: int


def _close_groups(theta, tol):
    """Labels of the groups that chain Ritz values closer than tol.

    theta is sorted by real part, so the close partners of a value
    follow it within a window found by bisection; no m x m distance
    matrix is formed.  Values in one group share a label.
    """
    label = np.arange(theta.size)
    ends = np.searchsorted(theta.real, theta.real + tol, side="right")
    for i in np.flatnonzero(ends > label + 1):
        for j in range(i + 1, ends[i]):
            if abs(theta[j] - theta[i]) <= tol:
                label[label == label[j]] = label[i]
    return label


@functools.cache
def _ritz_kernel():
    """The compiled Ritz kernels (_ritz.c): the library, with
    ritz_values, ritz_vectors and impulse set up."""
    cplx = np.ctypeslib.ndpointer(np.complex128, flags="C_CONTIGUOUS")
    real = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.intc, flags="C_CONTIGUOUS")
    c_int, c_double = ctypes.c_int, ctypes.c_double
    return _native.load("_ritz.c", {
        "ritz_values": (c_int, [c_int, c_int, cplx, cplx, cplx, cplx, ints]),
        "ritz_vectors": (c_int, [c_int, c_int, cplx, cplx, cplx, ints, ints,
                                 c_double, c_int, c_double, c_int, cplx, cplx,
                                 cplx, cplx, cplx]),
        "impulse": (None, [c_int, c_int, c_int, cplx, cplx, c_int, real,
                           real]),
    })


def _ldexp(z, k):
    """Complex z * 2^k, componentwise (exact unless it over- or
    underflows)."""
    return np.ldexp(z.view(float), k).view(complex)


class _ScaledH(NamedTuple):
    """H (diagonal alpha, off-diagonal off) times 2^-exp (_h_scale)."""

    alpha: np.ndarray
    off: np.ndarray
    h_max: float
    exp: int


def _h_scale(alpha, off):
    """H scaled by the power of two 2^-exp that puts max |H| in [0.5, 1)
    (exp = 0 when max |H| is zero or not finite): the one scaling of the
    eigensolve.  It is exact, and the QL squares the off-diagonal and
    tests its shifts and deflations accurately only near unit scale."""
    alpha = np.ascontiguousarray(alpha, dtype=complex)
    off = np.ascontiguousarray(off, dtype=complex)
    if alpha.ndim != 1 or alpha.size == 0 or off.shape != (alpha.size - 1,):
        raise InvalidParameterError("tridiagonal needs m >= 1 and m - 1 "
                                    "off-diagonal entries")
    h_max = float(max(np.abs(alpha).max(), np.abs(off).max(initial=0.0)))
    exp = int(np.frexp(h_max)[1]) if 0.0 < h_max < np.inf else 0
    return _ScaledH(_ldexp(alpha, -exp), _ldexp(off, -exp),
                    float(np.ldexp(h_max, -exp)), exp)


def _norm(x):
    """The 2-norm of complex x, summed by numpy (not the BLAS)."""
    return float(np.sqrt(np.sum(x.real ** 2 + x.imag ** 2)))


def _ritz_values(h, threads):
    """Eigenvalues of the scaled H (a _ScaledH), in its units, sorted by
    real, then imaginary part, from the compiled kernel, its polish on
    `threads` threads.  Values that do not converge raise
    NearDefectiveError: with the QL's exceptional shift, only a
    numerically defective H has been seen to stop it."""
    theta = np.empty_like(h.alpha)
    if _ritz_kernel().ritz_values(threads, theta.size, h.alpha, h.off, theta,
                                  np.empty_like(theta),
                                  np.empty(theta.size, dtype=np.intc)):
        raise NearDefectiveError(
            "eigenvalues of the projected matrix did not converge: it is "
            "numerically defective")
    return theta[np.lexsort((theta.imag, theta.real))]


def _singular(sigma):
    return PrecisionError(
        f"shifted tridiagonal stays singular near {sigma:.6e}"
    )


def _defective(quasi):
    return NearDefectiveError(
        "projected matrix is numerically defective: an "
        f"eigenvector is quasi-isotropic (|s^T s| = {abs(quasi):.2e})"
    )


def _ritz_vectors(h, theta, rows, threads):
    """The eigenvectors s_i (scaled to s^T s = 1) of the scaled H (a
    _ScaledH) for its sorted Ritz values theta, streamed through the
    compiled ritz_vectors kernel on `threads` threads (see
    eigen_tridiag).  No vector is kept: returns (first, probe, hs, ss),
    first[i] = s_i[0], probe[p, i] = rows[p] . s_i, hs = S diag(theta)
    S^T e_1 and ss = S S^T e_1."""
    m = theta.size
    theta, rows = (np.ascontiguousarray(a, dtype=complex)
                   for a in (theta, rows))
    if h.alpha.shape != (m,) or rows.ndim != 2 or rows.shape[1] != m:
        raise InvalidParameterError("tridiagonal, Ritz values and probe "
                                    "rows differ in size")
    label = _close_groups(theta, _CLUSTER_TOL * h.h_max)
    # prev[i], next[i]: the member of i's cluster just before, just
    # after it, or -1
    order = np.argsort(label, kind="stable")
    prev = np.full(m, -1, dtype=np.intc)
    nxt = np.full(m, -1, dtype=np.intc)
    same = label[order[1:]] == label[order[:-1]]
    prev[order[1:][same]] = order[:-1][same]
    nxt[order[:-1][same]] = order[1:][same]
    first = np.empty(m, dtype=complex)
    probe = np.empty_like(rows)
    sums = np.empty(2 * m, dtype=complex)
    bad = np.empty(1, dtype=complex)
    code = _ritz_kernel().ritz_vectors(
        threads, m, h.alpha, h.off, theta, prev, nxt,
        4.0 * np.finfo(float).eps * h.h_max, _INVIT_STEPS, _DEFECT_TOL,
        rows.shape[0], rows, first, probe, sums, bad)
    if code == 1:
        raise _singular(_ldexp(bad, h.exp)[0])  # sigma in H's own units
    if code == 2:
        raise _defective(bad[0])
    if code == 3:
        raise MemoryError("no memory for the inverse iteration's workspace")
    return first, probe, sums[:m], sums[m:]


def _merge_ghosts(theta, residues, tol):
    """Fold Ritz values closer than tol into one mode each: the group's
    residues are summed onto its member with the largest residue.
    Returns (theta, residues, merged)."""
    label = _close_groups(theta, tol)
    keep = np.ones(theta.size, dtype=bool)
    for g in np.flatnonzero(np.bincount(label) > 1):
        members = np.flatnonzero(label == g)
        lead = members[np.argmax(np.abs(residues[:, members]).max(axis=0))]
        residues[:, lead] = residues[:, members].sum(axis=1)
        keep[members] = False
        keep[lead] = True
    return theta[keep], residues[:, keep], int(theta.size - keep.sum())


def eigen_tridiag(decomp, ref_job=None):
    """Diagonalize the projected tridiagonal for field evaluation.

    Works on the symmetrized H = D^{1/2} T D^{-1/2} (complex symmetric;
    the branch choices in D^{1/2} cancel), scaled once by _h_scale, and
    exactly: every step below runs in those units and theta is scaled
    back at the end, so H at any power-of-two scale has the same modes
    but for theta.  In four steps:

    - Eigenvalues only, sorted by real, then imaginary part, from the
      compiled kernel: a complex QL with Wilkinson shifts (Cullum &
      Willoughby 1996) and one late exceptional shift, in the root-free
      form of LAPACK's xSTERF, on the squared off-diagonal, whose values
      are good to 1e-11 to 1e-10 of max |H|, then Jacobi-style
      Ehrlich-Aberth sweeps (Bini, Gemignani & Tisseur 2005) with the
      Newton quotient from the ratio form of the three-term recurrence.
      The first sweep moves every value, later ones those whose last
      step exceeded 1e-12 of max |H|; the polish is what keeps ghost
      grouping at _GHOST_TOL right.  Both stages are O(m^2).  Values
      that do not converge (as on a Jordan-like H) raise
      NearDefectiveError.
    - One eigenvector per Ritz value theta_i by _INVIT_STEPS steps of
      inverse iteration, x <- (H - sigma I)^{-1} x / ||x||, in the same
      kernel (ritz_vectors): one pivoted tridiagonal LU of H - sigma I
      per value, O(m) each.  Each start vector is a fixed counter hash of
      (value index, component), as LAPACK's xSTEIN fixes its ISEED, so
      the result is deterministic.  Ritz values within _CLUSTER_TOL *
      max |H| form a cluster: each member is orthogonalized in the
      bilinear form s_j^T x (the one complex symmetric eigenvectors
      satisfy) against the members before it, and its shift sigma is
      moved a few ulps of max |H| from theirs.  A zero pivot moves sigma
      by the same step and factors again.  Each vector is scaled to
      s^T s = 1; NearDefectiveError if |s^T s| of the unit-norm vector
      is below _DEFECT_TOL.
    - Streamed, not stored: the kernel keeps no vector past its value
      (but the earlier members of an open cluster chain) and emits
      s_i[0] (S^T e_1, the first row of S: with bilinearly orthonormal
      vectors S^T = S^-1, and the cluster orthogonalization keeps that
      true of close and ghost pairs too), the probe rows (W D^{-1/2})
      s_i, and the sums S diag(theta) S^T e_1 and S S^T e_1, added in
      fixed blocks of values and the blocks in order.  PrecisionError
      unless the first reproduces H e_1 to _RECON_TOL * max |H| and the
      second e_1 to _RECON_TOL; recon_error is the larger of the two
      (relative) residuals.  Mode i's residues are its probe rows times
      s_i[0] d_1^{1/2}.
    - Ghost merge: Ritz values within _GHOST_TOL * max |H| are one mode,
      whose residues are summed onto the member with the largest residue
      (window measured at the constant).  The returned ModeSet has
      m - merged modes.

    The polish sweeps and the inverse iteration run on
    _thread_count(ref_job) threads, ref_job being the reference route
    beside the eigensolve (None without one), with bitwise the same
    result for any thread count.  Everything is O(m^2) in time; memory
    beyond O(m) is the kernel's block partials, 2 m values per 64
    values (1.4 MB at m = 1 650).
    """
    sqd = np.sqrt(decomp.delta)
    h = _h_scale(decomp.alpha, decomp.zeta[1:] * sqd[1:] / sqd[:-1])
    threads = _thread_count(ref_job)
    theta = _ritz_values(h, threads)
    first, probe, hs, ss = _ritz_vectors(
        h, theta, decomp.w_probe / sqd[None, :], threads)
    hs[0] -= h.alpha[0]  # the residuals against H e_1 and e_1
    hs[1:2] -= h.off[:1]
    ss[0] -= 1.0
    recon = max(_norm(hs / h.h_max), _norm(ss))
    if not recon <= _RECON_TOL:
        raise PrecisionError(
            f"eigendecomposition failed reconstruction: relative residual "
            f"{recon:.2e} exceeds {_RECON_TOL:.0e}"
        )
    theta, residues, merged = _merge_ghosts(
        theta, probe * (first * sqd[0]), _GHOST_TOL * h.h_max)
    return ModeSet(theta=_ldexp(theta, h.exp), residues=residues,
                   zeta1=float(decomp.zeta[0]), recon_error=recon,
                   merged=merged, threads=threads)


def evaluate_impulse(modes, times):
    """Impulse response at the probes for t >= 0, by the stable kernel
    exp(-sqrt(a) t)/sqrt(a): u_p(t_j) = zeta_1 Re sum_i g_{p,i}
    exp(-sqrt(theta_i) t_j), g = residues / sqrt(theta), summed by the
    compiled impulse kernel on modes.threads threads, with no array
    beyond the trace.
    """
    times = np.ascontiguousarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InvalidParameterError("times must be a nonempty 1D array")
    if np.any(times < 0.0):
        raise InvalidParameterError("impulse response is causal: t >= 0")
    sq = _sqrt_from_above(modes.theta)
    g = np.ascontiguousarray(modes.residues / sq)
    if g.ndim != 2 or g.shape[1] != sq.size:
        raise InvalidParameterError("residues must be (probes, modes)")
    u = np.empty((g.shape[0], times.size))
    _ritz_kernel().impulse(modes.threads, sq.size, g.shape[0], sq, g,
                           times.size, times, u)
    return modes.zeta1 * u


# fewest samples per shortest period 2 pi / omega_max that the trapezoid
# convolution accepts
MIN_SAMPLES_PER_PERIOD = 8


def _fast_len(n):
    """The smallest 5-smooth integer >= n >= 1 (2^a 3^b 5^c), the FFT
    length scipy.fft.next_fast_len(n, real=True) gives."""
    best = 1 << (n - 1).bit_length()  # the smallest power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve_source(impulse, q_samples, dt, omega_max=None):
    """Convolve probe impulse responses with a source history.

    u(t_j) = integral_0^{t_j} q(tau) K(t_j - tau) dtau by trapezoid on
    the shared uniform step dt (FFT convolution plus endpoint
    correction).  If omega_max is given, dt must resolve the band with
    at least MIN_SAMPLES_PER_PERIOD samples per shortest period.
    """
    impulse = np.atleast_2d(np.asarray(impulse, dtype=float))
    q = np.asarray(q_samples, dtype=float)
    if q.ndim != 1 or q.size != impulse.shape[1]:
        raise InvalidParameterError(
            "source history must match the impulse sample count"
        )
    if dt <= 0.0:
        raise InvalidParameterError("dt must be positive")
    if omega_max is not None:
        dt_max = 2.0 * np.pi / (MIN_SAMPLES_PER_PERIOD * omega_max)
        if dt > dt_max:
            raise SamplingError(
                f"dt = {dt:.3e} undersamples the band: need dt <= "
                f"{dt_max:.3e} ({MIN_SAMPLES_PER_PERIOD} points per shortest "
                "period)"
            )
    nt = q.size
    # zero-padded real FFTs of the full 2 nt - 1 product at the length
    # scipy.signal.fftconvolve picks (_fast_len); numpy >= 2.0 runs the
    # same pocketfft as scipy.fft, so the result is bitwise fftconvolve's.
    # Only the causal first nt samples are kept
    nfft = _fast_len(2 * nt - 1)
    spec = np.fft.rfft(impulse, nfft) * np.fft.rfft(q, nfft)
    u = np.fft.irfft(spec, nfft)[:, :nt] * dt
    # trapezoid endpoint weights (1/2 at tau = 0 and tau = t)
    u = u - 0.5 * dt * (q[0] * impulse + impulse[:, :1] * q[None, :])
    return u
