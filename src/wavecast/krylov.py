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

The decomposition is structured (eigen_tridiag) and O(m^2) throughout,
with no m x m array but the eigenvectors.  A small C kernel (_ritz.c)
gives the eigenvalues of the symmetrized tridiagonal H -- an implicit QL
with complex-orthogonal rotations, then Ehrlich-Aberth sweeps that
polish every value to rounding level -- and one eigenvector per value,
by three steps of inverse iteration on one pivoted tridiagonal LU of
H - theta I.  When the QL does not converge, LAPACK's dense zgeev,
O(m^3), gives the values.  The mode weights are S^T e_1, the first row
of the eigenvector matrix S, which is S^-1 e_1 for bilinearly
orthonormal vectors.  Close Ritz values are handled explicitly:
clusters get bilinearly orthogonalized vectors, and ghost copies of one
mode are merged.  The polish sweeps and the inverse iteration work
value by value, on every usable CPU (one fewer while a reference runs
beside them), with bitwise the same result for any thread count; the
QL is serial.

Each recursion step runs on preallocated vectors in two passes of a
second C kernel (_lanczos.c), separated by the scalar reductions:

    A: w_i = r_i * (1 / zeta_i), aw = A w_i, M w_i, M aw
       (numpy: delta_i = w^T M w, alpha_i = w^T M aw / delta_i)
    B: r_{i+1} = aw - alpha_i w_i - (delta_i/delta_{i-1}) zeta_i w_{i-1}
       (numpy: zeta_{i+1} = ||r_{i+1}||)

Phase A is matrix-free: A w comes from the operator's five-point
stencil factors, not from an assembled matrix, and the previous step's
scale is applied to r as each value is read, so w is never a pass of
its own.  Each pass fuses the products that read the same rows, since
at paper scale the step is bound by memory traffic: about 57 MB per
step at n = 229 441, against 125 MB for the separate numpy and CSR
passes it replaces.  The dots and the norm stay single whole-vector
numpy (BLAS) calls, whose summation order the bits depend on.  Both
passes split the rows into min(usable CPUs, n // _ROWS_PER_WORKER)
contiguous blocks (one below 2 * _ROWS_PER_WORKER rows; one CPU fewer
while the FDTD reference runs beside the recursion), one OpenMP
thread each, inside one ctypes call that releases the GIL.  Every
element is the same operations on the same operands as in
whole-vector numpy passes and scipy's product with the assembled CSR
matrix (the rules are in _lanczos.c; the form of numpy's complex
product is probed when the kernel is loaded, see _numpy_cmul_form),
so the run is bitwise identical for every block count and on the
kernel's SIMD and scalar paths, wherever the probe finds one of the
two forms it knows.  The SIMD path (AVX2/FMA, two unknowns per
vector) is 1.4 - 1.8x faster per iteration than the scalar one.  The
block count does not read the BLAS or OpenMP thread settings.  The
happy-breakdown test takes max |aw| only on the rare steps where
zeta_{i+1} is below 1e-14 of its bound zeta_{i+1} + |alpha_i| + |c|
on ||aw||.

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

import numpy as np
import scipy.fft
import scipy.linalg

from . import _native
from .errors import (
    BranchCutError,
    BreakdownError,
    InvalidParameterError,
    NearDefectiveError,
    PrecisionError,
    SamplingError,
)


def sctde_scalar(t, a):
    """Stability-corrected exponent kernel exp(-sqrt(a) t)/sqrt(a).

    Principal square root; a on the closed negative real axis sits on
    the branch cut and is rejected (matrix routines use the limit from
    above instead, taking real parts afterwards).
    """
    a = complex(a)
    if a.imag == 0.0 and a.real <= 0.0:
        raise BranchCutError(
            f"argument {a} lies on the branch cut (-inf, 0]"
        )
    sq = np.sqrt(a)
    return np.exp(-sq * np.asarray(t)) / sq


def _sqrt_from_above(z):
    """Principal sqrt with the negative real axis approached from above."""
    z = np.asarray(z, dtype=complex)
    out = np.sqrt(z)
    flip = (z.imag == 0.0) & (z.real < 0.0) & (out.imag < 0.0)
    return np.where(flip, -out, out)


def sc_resolvent_dense(lam, a_dense):
    """Stability-corrected resolvent of a dense matrix.

    f(lam, A) = 1/2 A^{-1/2} (sqrt(lam) I + sqrt(A))^{-1}
              + 1/2 conj(A^{-1/2}) (sqrt(lam) I + conj(sqrt(A)))^{-1}

    with sqrt(lam) = i sqrt(|lam|) for lam < 0 (limit from above).  Its
    real part equals Re (A - lam I)^{-1} for lam on the negative axis.
    lam is a scalar, or a 1-D array of shifts that share one sqrt(A);
    the result is then the stack f[k] = f(lam[k], A).  Dense reference
    implementation for small systems.
    """
    a_dense = np.asarray(a_dense, dtype=complex)
    n = a_dense.shape[0]
    sqlam = _sqrt_from_above(lam)[..., None, None]
    sqa = scipy.linalg.sqrtm(a_dense).astype(complex)
    inv_sqa = np.linalg.inv(sqa)
    eye = np.eye(n)
    term1 = inv_sqa @ np.linalg.inv(sqlam * eye + sqa)
    term2 = np.conj(inv_sqa) @ np.linalg.inv(sqlam * eye + np.conj(sqa))
    return 0.5 * (term1 + term2)


@dataclass
class LanczosDecomposition:
    """Coefficients and probe rows of a recursion run, or of its leading
    iterations (truncate); arrays are sized by the iteration count m."""

    m: int
    alpha: np.ndarray
    zeta: np.ndarray          # zeta_1 .. zeta_m (zeta_1 = ||b||)
    delta: np.ndarray
    w_probe: np.ndarray       # (n_probes, m)
    stop: str                 # why it ended: "m", "invariant", "breakdown"
    drift: float              # max |w_j^T M w_1| / max |M| observed

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


# Fewest rows per worker thread.  Measured on a 2-core x86-64 VM, with
# a Python thread pool around the numpy passes two blocks broke even
# with one at n = 27 000 - 38 000; the OpenMP passes win from n = 5 000
# (8 %; 17 % at 19 881, 20 % at 63 001) when they run alone.  A thread
# that shares a core with the FDTD march holds up every pass at its
# barrier (see bilanczos' cpus_busy).
_ROWS_PER_WORKER = 20_000
# the bilinear form has collapsed when |delta_i| < _BREAKDOWN_TOL * max |M|
_BREAKDOWN_TOL = 1e-14
# steps between samples of the orthogonality drift (also sampled at the
# end of every run)
_DRIFT_EVERY = 500


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _block_count(n, cpus_busy=0):
    """Row blocks (threads) for one recursion step on n unknowns, with
    cpus_busy usable CPUs held by other work."""
    return max(1, min(_usable_cpus() - cpus_busy, n // _ROWS_PER_WORKER))


def _eig_threads(cpus_busy):
    """Threads of the eigensolve's per-value stages, with cpus_busy
    usable CPUs held by other work."""
    return max(1, _usable_cpus() - cpus_busy)


def _numpy_cmul_form(kernel):
    """The form of numpy's complex product on the running host: "fused"
    when np.multiply(a, b) gives fma(ar, br, -(ai bi)) + i fma(ar, bi,
    ai br), "plain" when it gives (ar br - ai bi) + i (ar bi + ai br),
    each for every operand layout the recursion's products take (two
    arrays, a scalar first operand, and a broadcast factor, of zero
    inner or outer stride, times a real array as in the stencil
    coefficients); "other" when it gives neither, and the kernel, which
    then takes the plain form, does not match numpy bit for bit."""
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-1.0, 1.0, (2, 286)).view(complex)
    f = rng.uniform(-1.0, 1.0, 26).view(complex)
    real = rng.uniform(0.5, 2.0, (13, 11))
    column = np.broadcast_to(f[:, None], real.shape)
    row = np.broadcast_to(f[None, :11], real.shape)
    cases = [  # (a, a_step, b, numpy's a * b)
        (x, 1, y, x * y),
        (x, 0, y, x[0] * y),
        (column.ravel(), 1, real.ravel() + 0j, (column * real).ravel()),
        (row.ravel(), 1, real.ravel() + 0j, (row * real).ravel()),
    ]
    for form, fused in (("fused", 1), ("plain", 0)):
        for a, a_step, b, want in cases:
            got = np.empty_like(b)
            kernel.lanczos_cmul(b.size, fused, a, a_step, b, got)
            if not np.array_equal(got, want):
                break
        else:
            return form
    return "other"


@functools.cache
def _lanczos_kernel():
    """The compiled recursion step (_lanczos.c), with `simd` (the CPU
    runs its AVX2/FMA path), `form` (numpy's complex product form, see
    _numpy_cmul_form) and `fused` (form is "fused") set on the
    library."""
    c_int, c_long, c_double = ctypes.c_int, ctypes.c_long, ctypes.c_double
    ptr = ctypes.c_void_p
    vec = np.ctypeslib.ndpointer(np.complex128, ndim=1, flags="C_CONTIGUOUS")
    kernel = _native.load("_lanczos.c", {
        "lanczos_simd": (c_int, []),
        "lanczos_phase_a": (c_int, [c_int, c_int, c_int, c_int, c_int, ptr,
                                    c_double, *[ptr] * 10]),
        "lanczos_phase_b": (c_int, [c_int, c_int, c_int, c_long, ptr, ptr,
                                    ptr, ptr, c_int, ptr]),
        "lanczos_cmul": (c_int, [c_long, c_int, vec, c_int, vec, vec]),
    })
    kernel.simd = kernel.lanczos_simd()
    kernel.form = _numpy_cmul_form(kernel)
    kernel.fused = int(kernel.form == "fused")
    return kernel


def _complex_array(a, shape):
    a = np.ascontiguousarray(a, dtype=complex)
    if a.shape != shape:
        raise InvalidParameterError(
            f"operator array of shape {a.shape}, need {shape}")
    return a


def bilanczos(op, b, m, probe_indices, cpus_busy=0):
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
    min(usable CPUs - cpus_busy, n // _ROWS_PER_WORKER) threads (at
    least one), with bitwise the same result for any thread count.
    cpus_busy counts the CPUs that other work holds for the whole run:
    run_study passes 1 while the FDTD march runs beside the recursion.
    A thread that shares a core with the march holds up every pass at
    its barrier: the paper-scale ring ran 10.6 - 10.8 ms per iteration
    on two threads beside its reference, and 6.3 on one.
    """
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    b = np.asarray(b, dtype=complex)
    n = op.n
    if b.shape != (n,):
        raise InvalidParameterError("start vector length mismatch")
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        raise InvalidParameterError("start vector is zero")
    probes = np.asarray(probe_indices, dtype=int)
    if probes.size == 0:
        raise InvalidParameterError("need at least one probe index")
    if probes.min() < 0 or probes.max() >= n:
        raise InvalidParameterError("probe index out of range")

    wx, wy = op.inv_c.shape
    m_diag = _complex_array(op.m_diag, (n,))
    stencil = [_complex_array(f, (size,)) for f, size in (
        (op.cxm, wx), (op.cxp, wx), (op.cym, wy), (op.cyp, wy))]
    stencil.append(np.ascontiguousarray(op.inv_c, dtype=float))
    m_scale = float(np.abs(m_diag).max())
    kernel = _lanczos_kernel()
    n_blocks = _block_count(n, cpus_busy)
    phase_a = functools.partial(
        kernel.lanczos_phase_a, n_blocks, kernel.simd, kernel.fused, wx, wy)
    phase_b = functools.partial(
        kernel.lanczos_phase_b, n_blocks, kernel.simd, kernel.fused, n)
    consts = [a.ctypes.data for a in (*stencil, m_diag)]

    alpha = np.empty(m, dtype=complex)
    zeta = np.empty(m, dtype=float)
    delta = np.empty(m, dtype=complex)
    w_probe = np.empty((m, probes.size), dtype=complex)

    # rotating basis buffers: r (w_i before its scale), w_cur (w_i, once
    # phase A has written it) and w_prev (w_{i-1}, then r_{i+1} in place)
    r = b / norm_b
    scale = 1.0  # w_i = r * scale
    w_cur = np.empty(n, dtype=complex)
    w_prev = np.zeros(n, dtype=complex)
    aw = np.empty(n, dtype=complex)
    mw = np.empty(n, dtype=complex)  # M w
    maw = np.empty(n, dtype=complex)  # M A w
    scalars = np.empty(2, dtype=complex)  # alpha_i, c_prev for phase B
    zeta_cur = norm_b  # zeta_i, the norm that produced w_i
    delta_prev = 1.0
    m_w_first = m_diag * r  # for the drift samples

    def drift_sample(w):
        # global two-sided orthogonality drift against the first vector;
        # purely diagnostic
        return float(abs(w @ m_w_first) / m_scale)

    def scaled_r():
        # w_{i+1} = r * scale into the free buffer, as phase A writes it
        np.multiply(r.view(float), scale, out=w_cur.view(float))
        return w_cur

    drift = 0.0
    stop = "m"
    i = 0
    while i < m:
        i += 1
        phase_a(r.ctypes.data, scale, *consts, w_cur.ctypes.data,
                aw.ctypes.data, mw.ctypes.data, maw.ctypes.data)
        d_i = w_cur @ mw
        if abs(d_i) < _BREAKDOWN_TOL * m_scale:
            if i <= 2:
                raise BreakdownError(
                    f"bilinear form collapsed at iteration {i}: "
                    f"|delta| = {abs(d_i):.3e}",
                    index=i,
                )
            stop = "breakdown"
            drift = max(drift, drift_sample(w_cur))
            break
        a_i = (w_cur @ maw) / d_i
        c_prev = (d_i / delta_prev) * zeta_cur if i > 1 else 0.0
        scalars[:] = a_i, c_prev
        # r_{i+1} into w_prev's buffer, element by element
        phase_b(aw.ctypes.data, w_cur.ctypes.data, scalars.ctypes.data,
                w_prev.ctypes.data, i > 1, w_prev.ctypes.data)
        r, w_prev, w_cur = w_prev, w_cur, r
        alpha[i - 1] = a_i
        zeta[i - 1] = zeta_cur
        delta[i - 1] = d_i
        np.take(w_prev, probes, out=w_probe[i - 1])
        z_next = float(np.linalg.norm(r))
        delta_prev = d_i
        # happy when z_next < 1e-14 (max |aw| + |a_i|); since
        # max |aw| <= ||aw|| <= z_next + |a_i| + |c_prev| for unit
        # w's, the max pass runs only when z_next is below 1e-14 of that
        if (z_next < 1e-14 * (z_next + abs(a_i) + abs(c_prev))
                and z_next < 1e-14 * (np.abs(aw).max() + abs(a_i))):
            stop = "invariant"  # w_{i+1} = 0 adds no drift
            break
        # numpy's complex division by z_next + 0j multiplies by the same
        # reciprocal
        scale = 1.0 / z_next
        zeta_cur = z_next
        if i % _DRIFT_EVERY == 0 or i == m:
            drift = max(drift, drift_sample(scaled_r()))

    m_run = i - 1 if stop == "breakdown" else i
    decomp = LanczosDecomposition(
        m=m_run,
        alpha=alpha[:m_run],
        zeta=zeta[:m_run],
        delta=delta[:m_run],
        w_probe=w_probe[:m_run].T,
        stop=stop,
        drift=drift,
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
# dense sqrtm/expm oracle of H, relative to the oracle's peak:
#   m = 600:  1e-14 and 1e-13 merge 2 pairs, 9e-9 (dense eigenvector
#             route 1e-6); 1e-12 also merges a distinct pair 3e-13 apart
#             across the branch cut, 1e-6; no merge, 2e-2
#   m = 1650: 1e-14 to 1e-12 merge 3-4, 3e-6 (as the dense eigenvector
#             route); 1e-10 merges 65 distinct modes, 5e-3; no merge, 9e-3
# Unmerged ghost pairs straddling the branch cut carry huge cancelling
# residues whose kernels differ across the cut.
_GHOST_TOL = 1e-13
# inverse-iteration solves per Ritz value: each shrinks the admixture of
# a neighbour theta_j by ~eps * max |H| / |theta_i - theta_j|, so a pair
# just outside _GHOST_TOL is separated to ~(eps / _GHOST_TOL)^3 = 1e-8
_INVIT_STEPS = 3
# fixed seed of the inverse-iteration start vectors (as LAPACK's xSTEIN
# fixes ISEED), so the eigenvectors are deterministic
_INVIT_SEED = 4
# largest ||S diag(theta) S^T e_1 - H e_1|| / max |H|, and largest
# ||S S^T e_1 - e_1||, the eigensolve accepts
_RECON_TOL = 1e-8
# smallest |s^T s| of a unit-norm eigenvector (quasi-isotropic below)
_DEFECT_TOL = 1e-12


@dataclass(frozen=True)
class ModeSet:
    """Spectral form of a projected run: field at probe p is

        u_p(t) = zeta_1 * Re sum_i probe_modes[p, i] * weights[i]
                                  * f(t, theta[i]).

    merged counts the ghost Ritz values folded into another mode; route
    names the eigenvalue route of eigen_tridiag ("ql" or "zgeev"), None
    for modes built otherwise.
    """

    theta: np.ndarray
    probe_modes: np.ndarray
    weights: np.ndarray
    zeta1: float
    recon_error: float
    merged: int = 0
    route: str | None = None


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
    ritz_values and ritz_vectors set up."""
    vec = np.ctypeslib.ndpointer(np.complex128, ndim=1, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.intc, ndim=1, flags="C_CONTIGUOUS")
    starts = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS")
    cols = np.ctypeslib.ndpointer(np.complex128, ndim=2, flags="F_CONTIGUOUS")
    c_int, c_double = ctypes.c_int, ctypes.c_double
    return _native.load("_ritz.c", {
        "ritz_values": (c_int, [c_int, c_int, vec, vec, vec, vec]),
        "ritz_vectors": (c_int, [c_int, c_int, vec, vec, vec, ints, ints,
                                 c_int, c_int, starts, c_double, c_int,
                                 c_double, cols, vec, ints, vec]),
    })


def _zgeev_values(alpha, off):
    """Eigenvalues of the tridiagonal H from LAPACK's zgeev on the dense
    matrix, O(m^3): the route when the QL kernel does not converge."""
    m = alpha.size
    h = np.zeros((m, m), dtype=complex, order="F")
    h[np.arange(m), np.arange(m)] = alpha
    h[np.arange(m - 1), np.arange(1, m)] = off
    h[np.arange(1, m), np.arange(m - 1)] = off
    # default workspace: it selects LAPACK's unblocked Hessenberg
    # reduction, which skips the zero columns of a tridiagonal (6 s
    # against 10 s with the blocked one at m = 1650, one thread)
    theta, _, _, info = scipy.linalg.lapack.zgeev(
        h, compute_vl=0, compute_vr=0, overwrite_a=1)
    if info != 0:
        raise PrecisionError(
            f"eigenvalues of the projected matrix did not converge "
            f"(zgeev info = {info})"
        )
    return theta


def _ritz_values(alpha, off, threads):
    """Eigenvalues of the symmetric tridiagonal H (diagonal alpha,
    off-diagonal off), sorted by real, then imaginary part, and the
    route that computed them: "ql" (the compiled kernel, its polish on
    `threads` threads) or "zgeev"."""
    alpha = np.ascontiguousarray(alpha, dtype=complex)
    off = np.ascontiguousarray(off, dtype=complex)
    if alpha.ndim != 1 or alpha.size == 0 or off.shape != (alpha.size - 1,):
        raise InvalidParameterError("tridiagonal needs m >= 1 and m - 1 "
                                    "off-diagonal entries")
    theta = np.empty_like(alpha)
    if _ritz_kernel().ritz_values(threads, alpha.size, alpha, off, theta,
                                  np.empty_like(alpha)) == 0:
        route = "ql"
    else:
        theta, route = _zgeev_values(alpha, off), "zgeev"
    return theta[np.lexsort((theta.imag, theta.real))], route


def _singular(sigma):
    return PrecisionError(
        f"shifted tridiagonal stays singular near {sigma:.6e}"
    )


def _defective(quasi):
    return NearDefectiveError(
        "projected matrix is numerically defective: an "
        f"eigenvector is quasi-isotropic (|s^T s| = {abs(quasi):.2e})"
    )


# start vectors drawn, and columns computed, per call of the compiled
# inverse iteration (1.7 MB of starts at m = 1650)
_START_BLOCK = 128


def _ritz_vectors(alpha, off, theta, h_scale, threads):
    """Eigenvectors of H for the sorted Ritz values, as columns scaled to
    s^T s = 1, by inverse iteration in the compiled ritz_vectors kernel
    on `threads` threads (see eigen_tridiag)."""
    m = theta.size
    rng = np.random.default_rng(_INVIT_SEED)
    nudge = 4.0 * np.finfo(float).eps * h_scale
    label = _close_groups(theta, _CLUSTER_TOL * h_scale)
    kernel = _ritz_kernel()
    alpha, off, theta = (np.ascontiguousarray(a, dtype=complex)
                         for a in (alpha, off, theta))
    if alpha.shape != (m,) or off.shape != (m - 1,):
        raise InvalidParameterError("tridiagonal and Ritz values differ "
                                    "in size")
    # prev[i], next[i]: the member of i's cluster just before, just
    # after it, or -1
    order = np.argsort(label, kind="stable")
    prev = np.full(m, -1, dtype=np.intc)
    nxt = np.full(m, -1, dtype=np.intc)
    same = label[order[1:]] == label[order[:-1]]
    prev[order[1:][same]] = order[:-1][same]
    nxt[order[:-1][same]] = order[1:][same]
    s = np.empty((m, m), dtype=complex, order="F")
    work = np.empty(6 * m * threads, dtype=complex)
    piv = np.empty(m * threads, dtype=np.intc)
    bad = np.empty(1, dtype=complex)
    for i0 in range(0, m, _START_BLOCK):
        count = min(_START_BLOCK, m - i0)
        # the same draws, in the same order, as one m-vector per value
        start = rng.uniform(-1.0, 1.0, (count, m))
        code = kernel.ritz_vectors(threads, m, alpha, off, theta, prev, nxt,
                                   i0, count, start, nudge, _INVIT_STEPS,
                                   _DEFECT_TOL, s, work, piv, bad)
        if code:
            raise (_singular if code == 1 else _defective)(bad[0])
    return s


def _merge_ghosts(theta, probe_modes, weights, tol):
    """Fold Ritz values closer than tol into one mode each: the group's
    residues (probe_modes * weights) are summed onto its member with the
    largest residue.  Returns (theta, probe_modes, weights, merged)."""
    label = _close_groups(theta, tol)
    residues = probe_modes * weights
    keep = np.ones(theta.size, dtype=bool)
    for g in np.flatnonzero(np.bincount(label) > 1):
        members = np.flatnonzero(label == g)
        lead = members[np.argmax(np.abs(residues[:, members]).max(axis=0))]
        probe_modes[:, lead] = residues[:, members].sum(axis=1) / weights[lead]
        keep[members] = False
        keep[lead] = True
    return (theta[keep], probe_modes[:, keep], weights[keep],
            int(theta.size - keep.sum()))


def eigen_tridiag(decomp, cpus_busy=0):
    """Diagonalize the projected tridiagonal for field evaluation.

    Works on the symmetrized H = D^{1/2} T D^{-1/2} (complex symmetric;
    the branch choices in D^{1/2} cancel), in four steps:

    - Eigenvalues only, sorted by real, then imaginary part, from the
      compiled kernel (route "ql"): a complex QL with Wilkinson shifts
      (Cullum & Willoughby 1996), whose values are good to 1e-11 to
      1e-10 of max |H|, then Jacobi-style Ehrlich-Aberth sweeps (Bini,
      Gemignani & Tisseur 2005) with the Newton quotient from the ratio
      form of the three-term recurrence.  The first sweep moves every value,
      later ones those whose last step exceeded 1e-12 of max |H|; the
      polish is what keeps ghost grouping at _GHOST_TOL right.  Both
      stages are O(m^2).  When its iteration cap is hit (as on a
      Jordan-like H), LAPACK's zgeev on the dense H gives the values
      (route "zgeev"); ModeSet.route records which.
    - One eigenvector per Ritz value theta_i by _INVIT_STEPS steps of
      inverse iteration, x <- (H - sigma I)^{-1} x / ||x||, in the same
      kernel (ritz_vectors): one pivoted tridiagonal LU of H - sigma I
      per value, O(m) each.  Start vectors come from a generator with a
      fixed seed (_INVIT_SEED, as LAPACK's xSTEIN fixes its ISEED), so
      the result is deterministic.  Ritz values within _CLUSTER_TOL *
      max |H| form a cluster: each member is orthogonalized in the
      bilinear form s_j^T x (the one complex symmetric eigenvectors
      satisfy) against the members before it, and its shift sigma is
      moved a few ulps of max |H| from theirs.  A zero pivot moves sigma
      by the same step and factors again.  Each vector is scaled to
      s^T s = 1; NearDefectiveError if |s^T s| of the unit-norm vector
      is below _DEFECT_TOL.
    - Mode weights S^T e_1, the first row of S: with bilinearly
      orthonormal vectors S^T = S^-1, and the cluster orthogonalization
      keeps that true of close and ghost pairs too.  PrecisionError
      unless both S diag(theta) S^T e_1 reproduces H e_1 to _RECON_TOL *
      max |H| and S S^T e_1 reproduces e_1 to _RECON_TOL; recon_error is
      the larger of the two (relative) residuals.
    - Ghost merge: Ritz values within _GHOST_TOL * max |H| are one mode,
      whose residues (probe_modes * weights) are summed onto the member
      with the largest residue (window measured at the constant).  The
      returned ModeSet has m - merged modes.

    The polish sweeps and the inverse iteration run on _eig_threads(
    cpus_busy) threads (every usable CPU not held by other work;
    run_study passes 1 while a reference runs beside it), with bitwise
    the same result for any thread count.  Everything is O(m^2); memory
    beyond O(m) is S, m x m (and the dense H on the zgeev route).
    """
    alpha, zeta, delta = decomp.alpha, decomp.zeta, decomp.delta
    sqd = np.sqrt(delta)
    off = zeta[1:] * sqd[1:] / sqd[:-1]
    h_scale = float(max(np.abs(alpha).max(), np.abs(off).max(initial=0.0)))
    threads = _eig_threads(cpus_busy)
    theta, route = _ritz_values(alpha, off, threads)
    s = _ritz_vectors(alpha, off, theta, h_scale, threads)
    coeff = s[0].copy()  # S^T e_1
    h_col = np.zeros(decomp.m, dtype=complex)  # H e_1
    h_col[0] = alpha[0]
    h_col[1:2] = off[:1]
    recon = float(np.linalg.norm(s @ (theta * coeff) - h_col)) / h_scale
    ident = s @ coeff
    ident[0] -= 1.0
    recon = max(recon, float(np.linalg.norm(ident)))
    if not recon <= _RECON_TOL:
        raise PrecisionError(
            f"eigendecomposition failed reconstruction: relative residual "
            f"{recon:.2e} exceeds {_RECON_TOL:.0e}"
        )
    probe_modes = (decomp.w_probe / sqd[None, :]) @ s
    theta, probe_modes, weights, merged = _merge_ghosts(
        theta, probe_modes, coeff * sqd[0], _GHOST_TOL * h_scale)
    return ModeSet(
        theta=theta,
        probe_modes=probe_modes,
        weights=weights,
        zeta1=float(decomp.zeta[0]),
        recon_error=recon,
        merged=merged,
        route=route,
    )


# most kernel values (modes x samples) evaluate_impulse holds at once,
# 64 MiB of complex128; ring-desk at its default m needs 970 200
_KERNEL_BLOCK = 2 ** 22


def evaluate_impulse(modes, times, kernel="stable"):
    """Impulse response at the probes for t >= 0.

    kernel "stable" uses exp(-sqrt(a) t)/sqrt(a); kernel "uncorrected"
    uses -sin(sqrt(-a) t)/sqrt(-a), which is exact on the real negative
    spectrum but blows up off it (kept as a negative control).  The
    kernel is evaluated in blocks of samples of at most _KERNEL_BLOCK
    values, so memory stays bounded for long traces at large m.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InvalidParameterError("times must be a nonempty 1D array")
    if np.any(times < 0.0):
        raise InvalidParameterError("impulse response is causal: t >= 0")
    if kernel == "stable":
        sq = _sqrt_from_above(modes.theta)
        fvals = lambda t: np.exp(-sq[:, None] * t) / sq[:, None]
    elif kernel == "uncorrected":
        sq = _sqrt_from_above(-modes.theta)
        fvals = lambda t: -np.sin(sq[:, None] * t) / sq[:, None]
    else:
        raise InvalidParameterError(f"unknown kernel {kernel!r}")
    residues = modes.probe_modes * modes.weights[None, :]
    width = max(1, _KERNEL_BLOCK // sq.size)
    u = np.hstack([(residues @ fvals(times[None, lo:lo + width])).real
                   for lo in range(0, times.size, width)])
    return modes.zeta1 * u


# fewest samples per shortest period 2 pi / omega_max that the trapezoid
# convolution accepts
MIN_SAMPLES_PER_PERIOD = 8


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
    # zero-padded real FFTs at the length scipy.signal.fftconvolve picks
    # for the full 2 nt - 1 product; only the causal first nt are kept
    nfft = scipy.fft.next_fast_len(2 * nt - 1, real=True)
    spec = scipy.fft.rfft(impulse, nfft) * scipy.fft.rfft(q, nfft)
    u = scipy.fft.irfft(spec, nfft)[:, :nt] * dt
    # trapezoid endpoint weights (1/2 at tau = 0 and tau = t)
    u = u - 0.5 * dt * (q[0] * impulse + impulse[:, :1] * q[None, :])
    return u
