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
the residues of ghost copies of one mode are summed.  The polish sweeps
and the inverse iteration work value by value on OpenMP threads, eight
values in lockstep (one source on GCC vector types, compiled into an
AVX2 path of four-wide vectors and a baseline path of two-wide ones,
each lane its value's own operations, so bitwise the same on either
path), and the impulse sum works in blocks of eight
samples, stepping each mode's term from the block's first sample by
exp(-sqrt(theta) dt); both give bitwise the same result for any thread
count.  The QL is serial, each rotation written so that its two
reciprocals run side by side.  Every compiled stage runs on every
usable CPU (_native._usable_cpus, not the BLAS or OpenMP thread
settings), a recursion step on at most n // _ROWS_PER_WORKER row
blocks; none depends on the reference route, which yields to them
instead (fdtd._march_blocks).

The recursion runs in a second C kernel (_lanczos.c), on preallocated
vectors, a chunk of steps per GIL-free call, up to the next drift
sample (every _DRIFT_EVERY steps and at the end), which stays in
Python.  A step is two passes, each with its own reductions, and the
sums between them, in one OpenMP region.  The recursion keeps the
unscaled r_i = zeta_i w_i, and each pass forms w_i = r_i s_i,
s_i = 1 / zeta_i, where it reads it:

    A: aw = A w_i, delta_i = w^T M w, alpha_i = w^T M aw / delta_i
    B: r_{i+1} = aw - alpha_i w_i - (delta_i/delta_{i-1}) zeta_i w_{i-1},
       zeta_{i+1} = ||r_{i+1}||, written over r_{i-1}

Phase A is matrix-free: A w comes from the operator's five-point
stencil factors, not from an assembled matrix.  Each pass computes
everything that reads the same rows, so that w, M w and M aw are never
stored and a step moves 120 bytes per unknown (112 in the real form
below).  The vectors are planar, a (2, n) array of real parts then
imaginary parts, so the SIMD path's complex products take no shuffles.
Both passes split the grid rows into contiguous blocks (one below
2 * _ROWS_PER_WORKER unknowns), one OpenMP thread each.  Every element
follows one fixed rule (in _lanczos.c): a stencil coefficient, factor
times inv_c, is two real products, every complex product takes the
fused form fma(ar, br, -(ai bi)) + i fma(ar, bi, ai br), the stencil
sum adds its terms in column order, and each reduction sums one partial
per grid row in element order.  The paper's stretching is purely
imaginary, so the stencil factors and M are real on most of the grid:
on the rectangle _real_rectangle finds, the SIMD path drops every
product with a +-0 imaginary part (the real form), which changes at
most the sign of an exact zero that a sum from +0.0 then loses, so the
bits are the complex form's.  The kernel adds up the row partials by
np.sum's pairwise rule and forms alpha_i and the previous vector's
coefficient by numpy's complex division and product, so a step's
numbers are those of the numpy loop it replaced, bit for bit.  ||b||,
and so zeta_1, is taken by numpy in bilanczos by phase B's row rule
(np.cumsum along each row, np.sum over the rows), on b scaled by a
power of two (exact, so any finite b has a norm).  So the run is bitwise
identical for every block count, even one that changes between steps,
on the kernel's SIMD and scalar paths, and for any BLAS thread count:
no reduction of the recursion, the eigensolve or the impulse goes
through the BLAS.  The happy-breakdown test takes max |aw| only on the
rare steps where zeta_{i+1} is below _HAPPY_TOL of its bound
zeta_{i+1} + |alpha_i| + |c| on ||aw||.

Both kernels are built, loaded and called as _native sets out; gcc is
required, and a kernel that cannot be built or loaded is a
ConfigurationError.

bilanczos runs the recursion once, from b.  A collapse of the bilinear
form at iteration i > 2 ends the run there and hands back its first
i - 2 iterations, with bitwise the coefficients and probe rows of a
run asked for m = i - 2; every smaller m is likewise a truncation of
the one run.
"""

import ctypes
import dataclasses
import functools
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


def _sqrt_from_above(z, tol=0.0):
    """Principal sqrt with the negative real axis approached from above;
    a value of negative real part within tol of that axis counts as
    lying on it."""
    z = np.asarray(z, dtype=complex)
    on_cut = (z.real < 0.0) & (np.abs(z.imag) <= tol)
    return np.sqrt(np.where(on_cut, z.real + 0j, z))


@dataclass
class LanczosDecomposition:
    """Coefficients and probe rows of a recursion run, or of its leading
    iterations (truncate); arrays are sized by the iteration count m.
    threads is the row-block count of the run's last step, real_share
    the share of the unknowns in _real_rectangle (the SIMD path's real
    form)."""

    m: int
    alpha: np.ndarray
    zeta: np.ndarray          # zeta_1 .. zeta_m (zeta_1 = ||b||)
    delta: np.ndarray
    w_probe: np.ndarray       # (n_probes, m)
    stop: str                 # why it ended: "m", "invariant", "breakdown"
    drift: float              # max |w_j^T M w_1| / max |M| observed
    threads: int
    real_share: float

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
# 2-core x86-64 VM with the real-form step (medians of 11 or 21
# alternated 400-step runs in one process, one to three processes per
# size): two blocks against one take 1.12 - 1.15x the time per step at
# n = 400, 1.03 - 1.11x at 576, 0.95 - 1.02x at 784, 0.81 - 0.95x at
# 1 024, 0.82 - 0.86x at 1 296, 0.72 - 0.84x at 1 936, 0.76 - 0.79x at
# 2 209 and 2 500, 0.60 - 0.67x at 3 136 to 7 056 and 0.63 - 0.64x at
# 15 376 and 33 856.  They break even near n = 800, where this rule
# switches (two blocks from n = 1 000), and differ there by less than
# these runs' noise.
_ROWS_PER_WORKER = 500
# the bilinear form has collapsed when |delta_i| < _BREAKDOWN_TOL * max |M|
_BREAKDOWN_TOL = 1e-14
# an invariant subspace has closed when zeta_{i+1} < _HAPPY_TOL *
# (max |A w_i| + |alpha_i|)
_HAPPY_TOL = 1e-14
# steps between samples of the orthogonality drift (also sampled at the
# end of every run); the recursion's chunks end at the samples
_DRIFT_EVERY = 500


@functools.cache
def _lanczos_kernel():
    """The compiled recursion (_lanczos.c), with `simd` (the CPU runs its
    AVX2/FMA path) set on the library."""
    c_int, c_long = ctypes.c_int, ctypes.c_long
    real, cplx = _native.REAL, _native.CPLX
    return _native.load("_lanczos.c", {
        # r0, r1, the stencil factors, inv_c and m_diag (planar), then
        # real, aw, dots, norms and state; np, then probes, alpha, zeta,
        # delta and probe_rows
        "lanczos_run": (c_int, [*[c_int] * 5, *[real] * 8, _native.INTS,
                                real, cplx, real, real, c_int, _native.LONGS,
                                cplx, real, cplx, real]),
        "lanczos_sum": (None, [c_long, c_int, real, real]),
        "lanczos_div": (None, [c_long, cplx, cplx, cplx]),
    })


# lanczos_run's early endings (0: the chunk ran to its last step): the
# bilinear form collapsed, an invariant subspace closed
_RUN_BREAKDOWN, _RUN_INVARIANT = 1, 2


def _planar(a, shape):
    """a as a C-contiguous (2, *shape) float array: its real parts, then
    its imaginary parts."""
    a = np.asarray(a, dtype=complex)
    if a.shape != shape:
        raise InvalidParameterError(
            f"operator array of shape {a.shape}, need {shape}")
    return np.stack((a.real, a.imag))


def _real_rectangle(op):
    """(ix0, ix1, iy0, iy1): the rows [ix0, ix1) and columns [iy0, iy1) of
    the largest block of unknowns on which the row factors cxm, cxp, the
    column factors cym, cyp and M's diagonal all have a zero imaginary
    part (+-0); of several, the first by ix0, then ix1, then iy0; all 0
    when no unknown is real.  Rows of the same pattern are merged first,
    so that the search runs over the few row bands the stretching makes."""
    wx, wy = op.inv_c.shape
    real = ((op.m_diag.imag == 0).reshape(wx, wy)
            & ((op.cxm.imag == 0) & (op.cxp.imag == 0))[:, None]
            & ((op.cym.imag == 0) & (op.cyp.imag == 0))[None, :])
    # bands of equal rows: a largest block's rows are whole bands
    starts = np.flatnonzero(np.r_[True, (real[1:] != real[:-1]).any(1)])
    ends = np.r_[starts[1:], wx]
    best, rect = 0, (0, 0, 0, 0)
    for i, ix0 in enumerate(starts):
        cols = real[ix0]
        for ix1 in ends[i:]:
            cols = cols & real[ix1 - 1]
            # the longest run of real columns, the first of equal runs
            edges = np.flatnonzero(np.diff(np.r_[0, cols.view(np.int8), 0]))
            if edges.size == 0:
                break
            lengths = edges[1::2] - edges[::2]
            k = int(np.argmax(lengths))
            area = int(lengths[k]) * int(ix1 - ix0)
            if area > best:
                best = area
                rect = (int(ix0), int(ix1), int(edges[2 * k]),
                        int(edges[2 * k + 1]))
    return rect


def _step_operands(op):
    """Phase A's operator arrays, as the kernel reads them: the planar
    stencil factors cxm, cxp, cym, cyp, inv_c, the planar M diagonal and
    the bounds of _real_rectangle, where the kernel's SIMD path takes its
    real form."""
    wx, wy = op.inv_c.shape
    return [*(_planar(f, (size,)) for f, size in (
        (op.cxm, wx), (op.cxp, wx), (op.cym, wy), (op.cyp, wy))),
        np.ascontiguousarray(op.inv_c, dtype=float),
        _planar(op.m_diag, (op.n,)),
        np.array(_real_rectangle(op), dtype=np.intc)]


def _complex(x):
    """The complex array of planar x (x[0] real parts, x[1] imaginary)."""
    z = np.empty(x.shape[1:], dtype=complex)
    z.real, z.imag = x
    return z


def bilanczos(op, b, m, probe_indices):
    """Run up to m iterations of the renormalized two-sided recursion.

    b is the start vector (the sampled source); probe_indices are the
    unknown indices whose basis components are retained for field
    evaluation.  The run ends early in two cases, recorded in `stop`:
    an invariant subspace closes ("invariant"), or the bilinear form
    collapses at iteration i ("breakdown"), which leaves iterations
    1..i-1 and keeps 1..i-2, with the coefficients and probe rows of a
    run asked for m = i - 2.  A collapse at i <= 2 leaves nothing and
    raises BreakdownError.

    Each step runs the phases of the module docstring on every usable
    CPU, at most n // _ROWS_PER_WORKER threads and at least one, with
    bitwise the same result for any thread count.  The steps run in the
    kernel's chunks (lanczos_run), up to each drift sample; an interrupt
    is seen when a chunk returns.  The decomposition records the thread
    count and the real form's share of the unknowns.
    """
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    b = np.asarray(b, dtype=complex)
    n = op.n
    if b.shape != (n,):
        raise InvalidParameterError("start vector length mismatch")
    probes = np.ascontiguousarray(probe_indices, dtype=np.intp)
    if probes.size == 0:
        raise InvalidParameterError("need at least one probe index")
    if probes.min() < 0 or probes.max() >= n:
        raise InvalidParameterError("probe index out of range")

    wx, wy = op.inv_c.shape
    m_diag = np.asarray(op.m_diag, dtype=complex)
    m_scale = float(np.abs(m_diag).max())
    kernel = _lanczos_kernel()
    operands = _step_operands(op)
    ix0, ix1, iy0, iy1 = operands[-1].tolist()  # the real rectangle
    n_blocks = max(1, min(_native._usable_cpus(), n // _ROWS_PER_WORKER))

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
    # ||r|| by phase B's rule: each row adds its |r_j|^2 in element order,
    # and np.sum adds the rows
    sq = (r[0] * r[0] + r[1] * r[1]).reshape(wx, wy)
    norm_r = float(np.sqrt(np.sum(np.cumsum(sq, axis=1)[:, -1])))
    r_prev = np.zeros((2, n))
    aw = np.empty((2, n))
    dots = np.empty((2, wx), dtype=complex)  # row partials of d_i, a_i d_i
    norms = np.empty(wx)  # row partials of ||r_{i+1}||^2
    # the state lanczos_run carries from chunk to chunk: the scales s_i
    # and s_{i-1} (w_i = r_i s_i), zeta_i (zeta_1 = ||b||), delta_{i-1}
    # (re, im), the steps done, and the two limits
    state = np.array([1.0 / norm_r, 0.0, float(np.ldexp(norm_r, b_exp)),
                      1.0, 0.0, 0.0, _BREAKDOWN_TOL * m_scale, _HAPPY_TOL])
    # lanczos_run's arguments after the thread count and the chunk's last
    # step; step i reads r_i from buffer (i - 1) % 2 (r, then r_prev)
    args = (kernel.simd, wx, wy, r, r_prev, *operands, aw, dots, norms,
            state, probes.size, probes, alpha, zeta, delta, probe_rows)

    # w_1 = r * s_1, component by component as the kernel forms it
    m_w_first = m_diag * _complex(r * state[0])  # for the drift samples

    def drift_sample(x):
        # global two-sided orthogonality drift of w = x * s against the
        # first vector, in one temporary; purely diagnostic
        w = _complex(x)
        w.real *= state[0]
        w.imag *= state[0]
        w *= m_w_first
        return float(abs(w.sum()) / m_scale)

    drift = 0.0
    stop = "m"
    i = 0
    while i < m:
        last = min(m, (i // _DRIFT_EVERY + 1) * _DRIFT_EVERY)
        code = kernel.lanczos_run(n_blocks, last, *args)
        i = int(state[5])
        if code == _RUN_BREAKDOWN:
            if i <= 2:
                raise BreakdownError(
                    f"bilinear form collapsed at iteration {i}: "
                    f"|delta| = {abs(complex(*state[3:5])):.3e}",
                    index=i,
                )
            stop = "breakdown"
            drift = max(drift, drift_sample((r, r_prev)[(i - 1) % 2]))
            break
        if code == _RUN_INVARIANT:
            stop = "invariant"  # w_{i+1} = 0 adds no drift
            break
        if i % _DRIFT_EVERY == 0 or i == m:
            drift = max(drift, drift_sample((r, r_prev)[i % 2]))

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
        real_share=(ix1 - ix0) * (iy1 - iy0) / n,
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
# Ritz values of negative real part within _CUT_TOL * max |theta| of the
# real axis lie on the branch cut (evaluate_impulse): their imaginary
# parts are rounding, and a side picked by rounding flips sqrt(theta)
_CUT_TOL = 4.0 * np.finfo(float).eps
# widest spread of the steps of evaluate_impulse's times, relative to
# max t: the samples of a uniform grid are rounded, so its steps differ
# by up to about 2 eps max t
_GRID_TOL = 4.0 * np.finfo(float).eps
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
    counts the ghost Ritz values folded into another mode.
    """

    theta: np.ndarray
    residues: np.ndarray      # (n_probes, modes)
    zeta1: float
    recon_error: float
    merged: int


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
    ritz_values, ritz_vectors and impulse set up, and `simd` set on it:
    1 when the CPU runs the AVX2 path of the lanes' one source, 0 for
    its baseline path."""
    cplx, real, ints = _native.CPLX, _native.REAL, _native.INTS
    c_int, c_double = ctypes.c_int, ctypes.c_double
    return _native.load("_ritz.c", {
        "ritz_values": (c_int, [c_int, c_int, c_int, cplx, cplx, c_double,
                                cplx, cplx, ints]),
        "ritz_vectors": (c_int, [c_int, c_int, c_int, cplx, cplx, cplx, ints,
                                 ints, c_double, c_int, c_double, c_int, cplx,
                                 cplx, cplx, cplx, cplx]),
        "impulse": (None, [c_int, c_int, c_int, cplx, cplx, cplx, c_int,
                           real, real]),
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


def _ritz_values(h):
    """Eigenvalues of the scaled H (a _ScaledH), in its units, sorted by
    real, then imaginary part, from the compiled kernel: the serial QL,
    then the polish on every usable CPU, its tolerances set by h.h_max.
    Values that do not converge raise NearDefectiveError: with the QL's
    exceptional shift, only a numerically defective H has been seen to
    stop it."""
    theta = np.empty_like(h.alpha)
    kernel = _ritz_kernel()
    if kernel.ritz_values(_native._usable_cpus(), kernel.simd, theta.size,
                          h.alpha, h.off, h.h_max, theta,
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


def _ritz_vectors(h, theta, rows):
    """The eigenvectors s_i (scaled to s^T s = 1) of the scaled H (a
    _ScaledH) for its sorted Ritz values theta, streamed through the
    compiled ritz_vectors kernel on every usable CPU (see
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
    kernel = _ritz_kernel()
    code = kernel.ritz_vectors(
        _native._usable_cpus(), kernel.simd, m, h.alpha, h.off, theta,
        prev, nxt, 4.0 * np.finfo(float).eps * h.h_max, _INVIT_STEPS,
        _DEFECT_TOL, rows.shape[0], rows, first, probe, sums, bad)
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


def eigen_tridiag(decomp):
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

    The polish sweeps and the inverse iteration each run on every usable
    CPU, with bitwise the same result for any thread count; the polish
    joins its threads once per sweep, and the inverse iteration hands
    out blocks of values dynamically and joins once.  Everything is
    O(m^2) in time; memory beyond O(m) is the kernel's block partials,
    2 m values per 64 values (1.4 MB at m = 1 650).
    """
    sqd = np.sqrt(decomp.delta)
    h = _h_scale(decomp.alpha, decomp.zeta[1:] * sqd[1:] / sqd[:-1])
    theta = _ritz_values(h)
    first, probe, hs, ss = _ritz_vectors(
        h, theta, decomp.w_probe / sqd[None, :])
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
                   merged=merged)


def evaluate_impulse(modes, times):
    """Impulse response at the probes for t >= 0, by the stable kernel
    exp(-sqrt(a) t)/sqrt(a): u_p(t_j) = zeta_1 Re sum_i g_{p,i}
    exp(-sqrt(theta_i) t_j), g = residues / sqrt(theta), summed by the
    compiled impulse kernel in one static loop over blocks of samples on
    every usable CPU, bitwise the same for any count, with no array
    beyond the trace.

    times must be one uniform grid (steps within _GRID_TOL * max t of
    each other): the kernel takes each mode's term exactly at every
    eighth sample and steps it to the next seven by the factor
    exp(-sqrt(theta_i) dt), dt the grid's mean step.
    """
    times = np.ascontiguousarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InvalidParameterError("times must be a nonempty 1D array")
    if np.any(times < 0.0):
        raise InvalidParameterError("impulse response is causal: t >= 0")
    steps = np.diff(times)
    if steps.size and not np.ptp(steps) <= _GRID_TOL * times.max():
        raise InvalidParameterError("times must be one uniform grid")
    if not np.isfinite(times).all():
        raise InvalidParameterError("times must be finite")
    dt = (times[-1] - times[0]) / max(steps.size, 1)
    sq = _sqrt_from_above(modes.theta,
                          _CUT_TOL * np.abs(modes.theta).max(initial=0.0))
    g = np.ascontiguousarray(modes.residues / sq)
    if g.ndim != 2 or g.shape[1] != sq.size:
        raise InvalidParameterError("residues must be (probes, modes)")
    u = np.empty((g.shape[0], times.size))
    _ritz_kernel().impulse(_native._usable_cpus(), sq.size, g.shape[0],
                           sq, np.exp(-sq * dt), g, times.size, times, u)
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
    if not 0.0 < dt < np.inf:
        raise InvalidParameterError("dt must be positive and finite")
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
