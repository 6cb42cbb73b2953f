"""Helpers shared by the tests that the package itself does not need."""

import numpy as np
import scipy.sparse

from wavecast.errors import DegenerateInputError


def probe_index(op, x, y):
    """Unknown index of the interior node of op's grid nearest (x, y)."""
    ix, iy, _, _ = op.grid.nearest_interior_node(x, y)
    return op.grid.node_index(ix, iy)


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
