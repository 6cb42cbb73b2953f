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

Each recursion step runs in place on preallocated vectors, in three
row-parallel phases separated by the scalar reductions:

    A: aw = A w, M w, M aw and max |aw| per row block
       (serial: delta_i = w^T M w, alpha_i = w^T M aw / delta_i)
    B: r = aw - alpha_i w - (delta_i/delta_{i-1}) zeta_i w_{i-1}
       (serial: zeta_{i+1} = ||r||)
    C: w_{i+1} = r / zeta_{i+1}

The rows are split into min(usable CPUs, n // _ROWS_PER_WORKER)
contiguous CSR blocks (one below 2 * _ROWS_PER_WORKER rows).  The
calling thread takes block 0 and a thread pool, alive only during the
call, the rest; the sparse product and the ufuncs release the GIL.
Every element is computed by the same operation on the same operands
as in a whole-vector pass, max is exact under any grouping, and the
dots and norms stay whole-vector and serial, so the run is bitwise
identical for every block count.  The block count does not read the
BLAS thread settings.
"""

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.linalg
# the kernel behind csr_matrix @ vector, called directly so the product
# lands in a preallocated buffer
from scipy.sparse._sparsetools import csr_matvec

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
    Dense reference implementation for small systems.
    """
    a_dense = np.asarray(a_dense, dtype=complex)
    n = a_dense.shape[0]
    sqlam = complex(_sqrt_from_above(complex(lam)))
    sqa = scipy.linalg.sqrtm(a_dense).astype(complex)
    inv_sqa = np.linalg.inv(sqa)
    eye = np.eye(n)
    term1 = inv_sqa @ np.linalg.inv(sqlam * eye + sqa)
    term2 = np.conj(inv_sqa) @ np.linalg.inv(sqlam * eye + np.conj(sqa))
    return 0.5 * (term1 + term2)


@dataclass
class LanczosDecomposition:
    """State of a (possibly truncated) recursion run.

    Arrays are sized by the completed iteration count m; w_probe holds
    the probe rows of every basis vector, and the two trailing basis
    vectors allow the recursion to be extended later.
    """

    n: int
    m: int
    alpha: np.ndarray
    zeta: np.ndarray          # zeta_1 .. zeta_m (zeta_1 = ||b||)
    delta: np.ndarray
    zeta_next: float
    probe_indices: np.ndarray
    w_probe: np.ndarray       # (n_probes, m)
    w_last: np.ndarray        # w_m
    w_next: np.ndarray        # w_{m+1} (unit norm), meaningless if happy
    happy: bool               # recursion closed an invariant subspace
    drift: float              # max |w_j^T M w_1| observed at checks

    def truncate(self, m_new):
        """Decomposition of the leading m_new iterations (no restart
        capability: trailing vectors are not retained)."""
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
            zeta_next=float(abs(self.zeta[m_new])) if m_new < self.m else self.zeta_next,
            w_probe=self.w_probe[:, :m_new],
            w_last=np.empty(0, dtype=complex),
            w_next=np.empty(0, dtype=complex),
            happy=False,
        )

    @property
    def can_extend(self):
        return self.w_last.size == self.n and not self.happy

    def save(self, path):
        np.savez(
            path,
            n=self.n,
            m=self.m,
            alpha=self.alpha,
            zeta=self.zeta,
            delta=self.delta,
            zeta_next=self.zeta_next,
            probe_indices=self.probe_indices,
            w_probe=self.w_probe,
            w_last=self.w_last,
            w_next=self.w_next,
            happy=self.happy,
            drift=self.drift,
        )

    @staticmethod
    def load(path):
        d = np.load(path)
        return LanczosDecomposition(
            n=int(d["n"]),
            m=int(d["m"]),
            alpha=d["alpha"],
            zeta=d["zeta"],
            delta=d["delta"],
            zeta_next=float(d["zeta_next"]),
            probe_indices=d["probe_indices"],
            w_probe=d["w_probe"],
            w_last=d["w_last"],
            w_next=d["w_next"],
            happy=bool(d["happy"]),
            drift=float(d["drift"]),
        )


# Fewest rows per worker thread for which splitting an iteration's
# vector passes into row blocks pays for the hand-offs between threads.
# Measured on a 2-core x86-64 VM: two blocks break even with one at
# n = 27 000 - 38 000 and win by 14 % at n = 42 025, 30 % at 65 025.
_ROWS_PER_WORKER = 20_000


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _block_count(n):
    """Row blocks (threads) for one recursion step on n unknowns."""
    return max(1, min(_usable_cpus(), n // _ROWS_PER_WORKER))


def _row_blocks(a_mat, n_blocks):
    """Contiguous row blocks of a CSR matrix.

    Each block is (rows, indptr, indices, data) in CSR form over all
    columns; indices and data are views into a_mat's arrays (a
    csr_matrix built from them would copy views this small), so the
    blocks cost no memory beyond their row pointers.
    """
    bounds = [a_mat.shape[0] * k // n_blocks for k in range(n_blocks + 1)]
    blocks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        start, stop = a_mat.indptr[lo], a_mat.indptr[hi]
        blocks.append((slice(lo, hi), a_mat.indptr[lo:hi + 1] - start,
                       a_mat.indices[start:stop], a_mat.data[start:stop]))
    return blocks


def _run_recursion(op, state, m_target, breakdown_tol, check_every):
    """Advance the recursion in `state` up to m_target iterations."""
    n = state.n
    m0 = state.m
    m_diag = op.m_diag
    m_scale = float(np.abs(m_diag).max())
    probes = state.probe_indices
    n_blocks = _block_count(n)
    blocks = _row_blocks(op.a_mat.tocsr(), n_blocks)

    alpha = np.empty(m_target, dtype=complex)
    zeta = np.empty(m_target, dtype=float)
    delta = np.empty(m_target, dtype=complex)
    w_probe = np.empty((m_target, probes.size), dtype=complex)
    alpha[:m0], zeta[:m0], delta[:m0] = state.alpha, state.zeta, state.delta
    w_probe[:m0] = state.w_probe.T

    # rotating basis buffers; the copies leave the caller's vectors alone
    if m0 == 0:
        w_prev = np.zeros(n, dtype=complex)
        delta_prev = 1.0
    else:
        w_prev = np.array(state.w_last, dtype=complex)
        delta_prev = delta[m0 - 1]
    w_cur = np.array(state.w_next, dtype=complex)  # b/||b|| when fresh
    w_spare = np.empty(n, dtype=complex)  # r, then w_next in place
    aw = np.empty(n, dtype=complex)
    mw = np.empty(n, dtype=complex)  # M w, then scratch for phase B
    maw = np.empty(n, dtype=complex)  # M A w
    abs_aw = np.empty(n, dtype=float)
    zeta_cur = state.zeta_next  # zeta_i, the norm that produced w_i
    # M w_first for the drift check (w_first: first vector of this run)
    m_w_first = m_diag * w_cur if check_every else None

    def phase_a(k):
        """aw = A w, M w, M aw on block k; returns its max |aw|."""
        rows, indptr, indices, data = blocks[k]
        aw_k = aw[rows]
        aw_k.fill(0.0)
        csr_matvec(aw_k.size, n, indptr, indices, data, w_cur, aw_k)
        np.multiply(m_diag[rows], w_cur[rows], out=mw[rows])
        np.multiply(m_diag[rows], aw_k, out=maw[rows])
        return np.abs(aw_k, out=abs_aw[rows]).max()

    def phase_b(k, a_i, c_prev):
        """r = aw - a_i w - c_prev w_prev on block k (into w_spare)."""
        rows = blocks[k][0]
        r, tmp = w_spare[rows], mw[rows]
        np.multiply(a_i, w_cur[rows], out=tmp)
        np.subtract(aw[rows], tmp, out=r)
        if c_prev is not None:
            np.multiply(c_prev, w_prev[rows], out=tmp)
            np.subtract(r, tmp, out=r)

    def phase_c(k, z_next):
        """w_next = r / z_next on block k, in place."""
        r = w_spare[blocks[k][0]]
        np.divide(r, z_next, out=r)

    drift = state.drift
    happy = False
    i = m0
    with ThreadPoolExecutor(max_workers=max(1, n_blocks - 1)) as pool:

        def on_blocks(phase, *args):
            # block 0 runs on this thread, the others on the pool
            futures = [pool.submit(phase, k, *args)
                       for k in range(1, n_blocks)]
            try:
                first = phase(0, *args)
            finally:
                rest = [f.result() for f in futures]
            return [first, *rest]

        while i < m_target:
            i += 1
            aw_max = max(on_blocks(phase_a))
            d_i = w_cur @ mw
            if abs(d_i) < breakdown_tol * m_scale:
                raise BreakdownError(
                    f"bilinear form collapsed at iteration {i}: "
                    f"|delta| = {abs(d_i):.3e}",
                    index=i,
                )
            a_i = (w_cur @ maw) / d_i
            c_prev = (d_i / delta_prev) * zeta_cur if i > 1 else None
            on_blocks(phase_b, a_i, c_prev)
            alpha[i - 1] = a_i
            zeta[i - 1] = zeta_cur
            delta[i - 1] = d_i
            np.take(w_cur, probes, out=w_probe[i - 1])
            z_next = float(np.linalg.norm(w_spare))
            delta_prev = d_i
            if z_next < 1e-14 * float(aw_max + abs(a_i)):
                happy = True
                w_spare.fill(0.0)
                w_prev, w_cur = w_cur, w_spare
                zeta_cur = 0.0
                break
            on_blocks(phase_c, z_next)
            w_prev, w_cur, w_spare = w_cur, w_spare, w_prev
            zeta_cur = z_next
            if check_every and i % check_every == 0:
                # global two-sided orthogonality drift against the first
                # vector; purely diagnostic
                drift = max(drift, float(abs(w_cur @ m_w_first) / m_scale))

    return LanczosDecomposition(
        n=n,
        m=i,
        alpha=alpha[:i],
        zeta=zeta[:i],
        delta=delta[:i],
        zeta_next=float(zeta_cur),
        probe_indices=probes,
        w_probe=w_probe[:i].T,
        w_last=w_prev,
        w_next=w_cur,
        happy=happy,
        drift=drift,
    )


def bilanczos(op, b, m, probe_indices, breakdown_tol=1e-14,
              check_every=500):
    """Run m iterations of the renormalized two-sided recursion.

    b is the start vector (the sampled source); probe_indices are the
    unknown indices whose basis components are retained for field
    evaluation.  Raises BreakdownError if the bilinear form collapses;
    stops early (happy = True) if an invariant subspace closes.

    Each step runs the phases of the module docstring over
    min(usable CPUs, n // _ROWS_PER_WORKER) row blocks (at least one),
    with bitwise the same result for any block count.
    """
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    b = np.asarray(b, dtype=complex)
    if b.shape != (op.n,):
        raise InvalidParameterError("start vector length mismatch")
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        raise InvalidParameterError("start vector is zero")
    probes = np.asarray(probe_indices, dtype=int)
    if probes.size == 0:
        raise InvalidParameterError("need at least one probe index")
    if probes.min() < 0 or probes.max() >= op.n:
        raise InvalidParameterError("probe index out of range")
    state = LanczosDecomposition(
        n=op.n,
        m=0,
        alpha=np.empty(0, dtype=complex),
        zeta=np.empty(0, dtype=float),
        delta=np.empty(0, dtype=complex),
        zeta_next=norm_b,
        probe_indices=probes,
        w_probe=np.zeros((probes.size, 0), dtype=complex),
        w_last=np.empty(0, dtype=complex),
        w_next=b / norm_b,
        happy=False,
        drift=0.0,
    )
    return _run_recursion(op, state, m, breakdown_tol, check_every)


def extend_bilanczos(op, decomp, m_target, breakdown_tol=1e-14,
                     check_every=500):
    """Continue a saved recursion to m_target iterations."""
    if not decomp.can_extend:
        raise InvalidParameterError(
            "decomposition does not carry the trailing vectors needed "
            "to extend (it was truncated or closed an invariant "
            "subspace)"
        )
    if decomp.n != op.n:
        raise InvalidParameterError("operator size mismatch")
    if m_target <= decomp.m:
        raise InvalidParameterError(
            f"target m {m_target} does not exceed current {decomp.m}"
        )
    return _run_recursion(op, decomp, m_target, breakdown_tol,
                          check_every)


@dataclass(frozen=True)
class ModeSet:
    """Spectral form of a projected run: field at probe p is

        u_p(t) = zeta_1 * Re sum_i probe_modes[p, i] * weights[i]
                                  * f(t, theta[i]).
    """

    theta: np.ndarray
    probe_modes: np.ndarray
    weights: np.ndarray
    zeta1: float
    recon_error: float


def eigen_tridiag(decomp, recon_tol=1e-8, defect_tol=1e-12):
    """Diagonalize the projected tridiagonal for field evaluation.

    Works on the symmetrized H = D^{1/2} T D^{-1/2} (complex symmetric;
    the branch choices in D^{1/2} cancel).  Mode weights come from
    solving S x = e_1 rather than trusting S^T ~= S^{-1}: ghost modes
    from orthogonality loss at large m leave the solve-based weights
    accurate when the transpose shortcut fails badly.
    """
    m = decomp.m
    alpha, zeta, delta = decomp.alpha, decomp.zeta, decomp.delta
    sqd = np.sqrt(delta)
    h = np.zeros((m, m), dtype=complex)
    h[np.arange(m), np.arange(m)] = alpha
    if m > 1:
        off = zeta[1:] * sqd[1:] / sqd[:-1]
        h[np.arange(m - 1), np.arange(1, m)] = off
        h[np.arange(1, m), np.arange(m - 1)] = off
    theta, s = np.linalg.eig(h)
    quasi = np.sum(s * s, axis=0)
    if np.min(np.abs(quasi)) < defect_tol:
        raise NearDefectiveError(
            "projected matrix is numerically defective: an eigenvector "
            f"is quasi-isotropic (|s^T s| = {np.min(np.abs(quasi)):.2e})"
        )
    s = s / np.sqrt(quasi)[None, :]
    e1 = np.zeros(m, dtype=complex)
    e1[0] = 1.0
    coeff = np.linalg.solve(s, e1)
    h_scale = float(np.abs(h).max())
    recon = float(np.linalg.norm(s @ (theta * coeff) - h[:, 0]))
    if recon > recon_tol * h_scale:
        raise PrecisionError(
            f"eigendecomposition failed reconstruction: residual {recon:.2e}"
            f" exceeds {recon_tol:.0e} * {h_scale:.2e}"
        )
    probe_modes = (decomp.w_probe / sqd[None, :]) @ s
    weights = coeff * sqd[0]
    return ModeSet(
        theta=theta,
        probe_modes=probe_modes,
        weights=weights,
        zeta1=float(decomp.zeta[0]),
        recon_error=recon / h_scale,
    )


def evaluate_impulse(modes, times, kernel="stable"):
    """Impulse response at the probes for t >= 0.

    kernel "stable" uses exp(-sqrt(a) t)/sqrt(a); kernel "uncorrected"
    uses -sin(sqrt(-a) t)/sqrt(-a), which is exact on the real negative
    spectrum but blows up off it (kept as a negative control).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise InvalidParameterError("times must be a nonempty 1D array")
    if np.any(times < 0.0):
        raise InvalidParameterError("impulse response is causal: t >= 0")
    if kernel == "stable":
        sq = _sqrt_from_above(modes.theta)
        fvals = np.exp(-sq[:, None] * times[None, :]) / sq[:, None]
    elif kernel == "uncorrected":
        sq = _sqrt_from_above(-modes.theta)
        fvals = -np.sin(sq[:, None] * times[None, :]) / sq[:, None]
    else:
        raise InvalidParameterError(f"unknown kernel {kernel!r}")
    u = (modes.probe_modes * modes.weights[None, :]) @ fvals
    return modes.zeta1 * u.real


def convolve_source(impulse, q_samples, dt, omega_max=None):
    """Convolve probe impulse responses with a source history.

    u(t_j) = integral_0^{t_j} q(tau) K(t_j - tau) dtau by trapezoid on
    the shared uniform step dt (FFT convolution plus endpoint
    correction).  If omega_max is given, dt must resolve the band:
    dt <= pi / (4 omega_max), i.e. at least 8 samples per shortest
    period.
    """
    impulse = np.atleast_2d(np.asarray(impulse, dtype=float))
    q = np.asarray(q_samples, dtype=float)
    if q.ndim != 1 or q.size != impulse.shape[1]:
        raise InvalidParameterError(
            "source history must match the impulse sample count"
        )
    if dt <= 0.0:
        raise InvalidParameterError("dt must be positive")
    if omega_max is not None and dt > np.pi / (4.0 * omega_max):
        raise SamplingError(
            f"dt = {dt:.3e} undersamples the band: need dt <= "
            f"{np.pi / (4.0 * omega_max):.3e} (8 points per shortest period)"
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
