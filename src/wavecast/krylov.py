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

The decomposition is structured (eigen_tridiag): LAPACK's zgeev
computes only the eigenvalues of the symmetrized tridiagonal H, the one
O(m^3) step, and each eigenvector comes from at most three steps of
inverse iteration with a pivoted tridiagonal solve (zgtsv), O(m) each.
Close Ritz values are handled explicitly: clusters get bilinearly
orthogonalized vectors, and ghost copies of one mode are merged.

Each recursion step runs in place on preallocated vectors, in three
row-parallel phases separated by the scalar reductions:

    A: aw = A w, M w, M aw
       (serial: delta_i = w^T M w, alpha_i = w^T M aw / delta_i)
    B: r = aw - alpha_i w - (delta_i/delta_{i-1}) zeta_i w_{i-1}
       (serial: zeta_{i+1} = ||r||)
    C: w_{i+1} = r * (1 / zeta_{i+1})

The rows are split into min(usable CPUs, n // _ROWS_PER_WORKER)
contiguous CSR blocks (one below 2 * _ROWS_PER_WORKER rows).  The
calling thread takes block 0 and a thread pool, alive only during the
call, the rest; the sparse product and the ufuncs release the GIL.
Every element is computed by the same operation on the same operands
as in a whole-vector pass, and the dots and norms stay whole-vector
and serial, so the run is bitwise identical for every block count.
The block count does not read the BLAS thread settings.  The
happy-breakdown test takes max |aw| only on the rare steps where
zeta_{i+1} is below 1e-14 of its bound zeta_{i+1} + |alpha_i| + |c|
on ||aw||.
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
    zeta_cur = state.zeta_next  # zeta_i, the norm that produced w_i
    # M w_first for the drift check (w_first: first vector of this run)
    m_w_first = m_diag * w_cur if check_every else None

    def phase_a(k):
        """aw = A w, M w, M aw on block k."""
        rows, indptr, indices, data = blocks[k]
        aw_k = aw[rows]
        aw_k.fill(0.0)
        csr_matvec(aw_k.size, n, indptr, indices, data, w_cur, aw_k)
        np.multiply(m_diag[rows], w_cur[rows], out=mw[rows])
        np.multiply(m_diag[rows], aw_k, out=maw[rows])

    def phase_b(k, a_i, c_prev):
        """r = aw - a_i w - c_prev w_prev on block k (into w_spare)."""
        rows = blocks[k][0]
        r, tmp = w_spare[rows], mw[rows]
        np.multiply(a_i, w_cur[rows], out=tmp)
        np.subtract(aw[rows], tmp, out=r)
        if c_prev is not None:
            np.multiply(c_prev, w_prev[rows], out=tmp)
            np.subtract(r, tmp, out=r)

    def phase_c(k, inv_z):
        """w_next = r / z_next on block k, in place, as a real multiply
        by inv_z = 1 / z_next on the float view: numpy's complex division
        by z_next + 0j multiplies by the same reciprocal."""
        r = w_spare[blocks[k][0]].view(float)
        np.multiply(r, inv_z, out=r)

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
            on_blocks(phase_a)
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
            # happy when z_next < 1e-14 (max |aw| + |a_i|); since
            # max |aw| <= ||aw|| <= z_next + |a_i| + |c_prev| for unit
            # w's, the max pass runs only when z_next is below 1e-14 of that
            c_abs = abs(c_prev) if c_prev is not None else 0.0
            if (z_next < 1e-14 * (z_next + abs(a_i) + c_abs)
                    and z_next < 1e-14 * (np.abs(aw).max() + abs(a_i))):
                happy = True
                w_spare.fill(0.0)
                w_prev, w_cur = w_cur, w_spare
                zeta_cur = 0.0
                break
            on_blocks(phase_c, 1.0 / z_next)
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
    """Continue an untruncated recursion run to m_target iterations."""
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


@dataclass(frozen=True)
class ModeSet:
    """Spectral form of a projected run: field at probe p is

        u_p(t) = zeta_1 * Re sum_i probe_modes[p, i] * weights[i]
                                  * f(t, theta[i]).

    merged counts the ghost Ritz values folded into another mode.
    """

    theta: np.ndarray
    probe_modes: np.ndarray
    weights: np.ndarray
    zeta1: float
    recon_error: float
    merged: int = 0


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


def _ritz_values(alpha, off):
    """Eigenvalues of the symmetric tridiagonal H (diagonal alpha,
    off-diagonal off), sorted by real, then imaginary part."""
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
    return theta[np.lexsort((theta.imag, theta.real))]


def _shifted_solve(alpha, off, sigma, y, nudge):
    """(H - sigma I)^{-1} y by pivoted tridiagonal elimination, moving
    sigma by nudge off an exactly singular pivot; returns (x, sigma)."""
    for _ in range(3):
        *_, x, info = scipy.linalg.lapack.zgtsv(off, alpha - sigma, off, y)
        if info == 0:
            return x, sigma
        sigma += nudge
    raise PrecisionError(
        f"shifted tridiagonal stays singular near {sigma:.6e}"
    )


def _ritz_vectors(alpha, off, theta, h_scale, defect_tol):
    """Eigenvectors of H for the sorted Ritz values, as columns scaled to
    s^T s = 1, by inverse iteration (see eigen_tridiag)."""
    m = theta.size
    if m == 1:  # zgtsv takes no empty off-diagonal
        return np.ones((1, 1), dtype=complex)
    s = np.empty((m, m), dtype=complex, order="F")
    rng = np.random.default_rng(_INVIT_SEED)
    nudge = 4.0 * np.finfo(float).eps * h_scale
    label = _close_groups(theta, _CLUSTER_TOL * h_scale)
    earlier = {}  # cluster label -> columns already computed
    for i in range(m):
        group = earlier.setdefault(label[i], [])
        sigma = theta[i] + len(group) * nudge
        x = rng.uniform(-1.0, 1.0, m).astype(complex)
        for _ in range(_INVIT_STEPS):
            y = x / np.linalg.norm(x)
            x, sigma = _shifted_solve(alpha, off, sigma, y, nudge)
            if group:
                prev = s[:, group]
                x -= prev @ (prev.T @ x)
        x /= np.linalg.norm(x)
        quasi = x @ x
        if abs(quasi) < defect_tol:
            raise NearDefectiveError(
                "projected matrix is numerically defective: an "
                f"eigenvector is quasi-isotropic (|s^T s| = {abs(quasi):.2e})"
            )
        s[:, i] = x / np.sqrt(quasi)
        group.append(i)
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


def eigen_tridiag(decomp, recon_tol=1e-8, defect_tol=1e-12):
    """Diagonalize the projected tridiagonal for field evaluation.

    Works on the symmetrized H = D^{1/2} T D^{-1/2} (complex symmetric;
    the branch choices in D^{1/2} cancel), in four steps:

    - Eigenvalues only, from LAPACK's zgeev, sorted by real, then
      imaginary part.
    - One eigenvector per Ritz value theta_i by up to _INVIT_STEPS steps
      of inverse iteration, x <- (H - sigma I)^{-1} x / ||x||, with
      LAPACK's pivoted tridiagonal solver zgtsv.  Start vectors come
      from a generator with a fixed seed (_INVIT_SEED, as LAPACK's
      xSTEIN fixes its ISEED), so the result is deterministic.  Ritz
      values within _CLUSTER_TOL * max |H| form a cluster: each member
      is orthogonalized in the bilinear form s_j^T x (the one complex
      symmetric eigenvectors satisfy) against the members before it,
      and its shift sigma is moved a few ulps of max |H| from theirs.
      A zero pivot moves sigma by the same step and solves again.  Each
      vector is scaled to s^T s = 1; NearDefectiveError if |s^T s| of
      the unit-norm vector is below defect_tol.
    - Mode weights from solving S x = e_1 rather than trusting
      S^T ~= S^{-1}: ghost modes from orthogonality loss at large m
      leave the solve-based weights accurate when the transpose
      shortcut fails badly.  PrecisionError unless S diag(theta) x
      reproduces H e_1 to recon_tol * max |H|.
    - Ghost merge: Ritz values within _GHOST_TOL * max |H| are one mode,
      whose residues (probe_modes * weights) are summed onto the member
      with the largest residue (window measured at the constant).  The
      returned ModeSet has m - merged modes.

    Memory beyond O(m) is H (freed after zgeev) and S, m x m each.
    """
    m = decomp.m
    alpha, zeta, delta = decomp.alpha, decomp.zeta, decomp.delta
    sqd = np.sqrt(delta)
    off = zeta[1:] * sqd[1:] / sqd[:-1]
    h_scale = float(max(np.abs(alpha).max(), np.abs(off).max(initial=0.0)))
    theta = _ritz_values(alpha, off)
    s = _ritz_vectors(alpha, off, theta, h_scale, defect_tol)
    e1 = np.zeros(m, dtype=complex)
    e1[0] = 1.0
    coeff = np.linalg.solve(s, e1)
    h_col = np.zeros(m, dtype=complex)  # H e_1
    h_col[0] = alpha[0]
    h_col[1:2] = off[:1]
    recon = float(np.linalg.norm(s @ (theta * coeff) - h_col))
    if recon > recon_tol * h_scale:
        raise PrecisionError(
            f"eigendecomposition failed reconstruction: residual {recon:.2e}"
            f" exceeds {recon_tol:.0e} * {h_scale:.2e}"
        )
    probe_modes = (decomp.w_probe / sqd[None, :]) @ s
    theta, probe_modes, weights, merged = _merge_ghosts(
        theta, probe_modes, coeff * sqd[0], _GHOST_TOL * h_scale)
    return ModeSet(
        theta=theta,
        probe_modes=probe_modes,
        weights=weights,
        zeta1=float(decomp.zeta[0]),
        recon_error=recon / h_scale,
        merged=merged,
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
