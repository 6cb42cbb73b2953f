"""Helpers shared by the tests that the package itself does not need."""

import numpy as np
import scipy.linalg
import scipy.sparse

import wavecast.krylov as krylov
from wavecast.errors import DegenerateInputError
from wavecast.operator import WaveOperator


def probe_index(op, x, y):
    """Unknown index of the interior node of op's grid nearest (x, y)."""
    ix, iy, _, _ = op.grid.nearest_interior_node(x, y)
    return op.grid.node_index(ix, iy)


def diagonal_operator(diag, m_diag):
    """A stand-in operator with A = diag(diag) and weight M = diag(m_diag):
    one column of unknowns (wy = 1, so no north or south neighbour), zero
    east and west factors, and the centre -(0 + 0) - (-1 + 0) = 1 times
    inv_c = diag."""
    n = len(diag)
    zeros = np.zeros(n, dtype=complex)
    return WaveOperator(
        grid=None, cxm=zeros, cxp=zeros,
        cym=np.array([-1.0 + 0j]), cyp=np.zeros(1, dtype=complex),
        inv_c=np.asarray(diag, dtype=float).reshape(n, 1),
        m_diag=np.asarray(m_diag, dtype=complex),
    )


def weighted(op):
    """M A of op as a sparse matrix (complex symmetric)."""
    return scipy.sparse.diags(op.m_diag) @ op.a_mat


def symmetry_defect(op):
    """max |(M A) - (M A)^T| over all entries."""
    s = weighted(op)
    d = s - s.T
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def arrival_time(wf, probe=0, frac=0.5):
    """First time |u| crosses frac * max |u|, linearly interpolated."""
    u = np.abs(wf.values[probe])
    peak = u.max()
    if peak == 0.0:
        raise DegenerateInputError("trace is identically zero")
    thr = frac * peak
    above = np.where(u >= thr)[0]
    j = above[0]
    if j == 0:
        return float(wf.times[0])
    t0, t1 = wf.times[j - 1], wf.times[j]
    u0, u1 = u[j - 1], u[j]
    return float(t0 + (thr - u0) / (u1 - u0) * (t1 - t0))


def invit_loop(alpha, off, theta, h_scale):
    """Eigenvectors of the symmetric tridiagonal (alpha, off) for the
    sorted Ritz values theta by the inverse iteration of the compiled
    ritz_vectors kernel, as a Python loop of LAPACK zgtsv solves from the
    same start vectors: the oracle of krylov._ritz_vectors (m >= 2, since
    zgtsv takes no empty off-diagonal)."""
    m = theta.size
    rng = np.random.default_rng(krylov._INVIT_SEED)
    nudge = 4.0 * np.finfo(float).eps * h_scale
    label = krylov._close_groups(theta, krylov._CLUSTER_TOL * h_scale)
    s = np.empty((m, m), dtype=complex, order="F")
    earlier = {}  # cluster label -> columns already computed
    for i in range(m):
        group = earlier.setdefault(label[i], [])
        sigma = theta[i] + len(group) * nudge
        x = rng.uniform(-1.0, 1.0, m).astype(complex)
        for _ in range(krylov._INVIT_STEPS):
            y = x / np.linalg.norm(x)
            for _ in range(3):  # a zero pivot moves sigma and solves again
                *_, x, info = scipy.linalg.lapack.zgtsv(off, alpha - sigma,
                                                        off, y)
                if info == 0:
                    break
                sigma += nudge
            else:
                raise krylov._singular(sigma)
            if group:
                prev = s[:, group]
                x -= prev @ (prev.T @ x)
        x /= np.linalg.norm(x)
        quasi = x @ x
        if abs(quasi) < krylov._DEFECT_TOL:
            raise krylov._defective(quasi)
        s[:, i] = x / np.sqrt(quasi)
        group.append(i)
    return s
