"""Helpers shared by the tests that the package itself does not need."""

import numpy as np
import scipy.linalg
import scipy.sparse

import wavecast.krylov as krylov
from wavecast.errors import DegenerateInputError
from wavecast.fdtd import FdtdResult, yee_setup
from wavecast.operator import WaveOperator
from wavecast.signals import Waveform


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


def sc_resolvent_dense(lam, a_dense):
    """Stability-corrected resolvent of a dense matrix, the oracle of
    criterion 04.

    f(lam, A) = 1/2 A^{-1/2} (sqrt(lam) I + sqrt(A))^{-1}
              + 1/2 conj(A^{-1/2}) (sqrt(lam) I + conj(sqrt(A)))^{-1}

    with sqrt(lam) = i sqrt(|lam|) for lam < 0 (limit from above).  Its
    real part equals Re (A - lam I)^{-1} for lam on the negative axis.
    lam is a scalar, or a 1-D array of shifts that share one sqrt(A);
    the result is then the stack f[k] = f(lam[k], A).
    """
    a_dense = np.asarray(a_dense, dtype=complex)
    n = a_dense.shape[0]
    sqlam = krylov._sqrt_from_above(lam)[..., None, None]
    sqa = scipy.linalg.sqrtm(a_dense).astype(complex)
    inv_sqa = np.linalg.inv(sqa)
    eye = np.eye(n)
    term1 = inv_sqa @ np.linalg.inv(sqlam * eye + sqa)
    term2 = np.conj(inv_sqa) @ np.linalg.inv(sqlam * eye + np.conj(sqa))
    return 0.5 * (term1 + term2)


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


def uncorrected_impulse(modes, times):
    """krylov.evaluate_impulse with the uncorrected kernel
    -sin(sqrt(-a) t)/sqrt(-a) in place of the stable one: exact on the
    real negative spectrum, growing off it (the negative control of
    criterion 07)."""
    sq = krylov._sqrt_from_above(-modes.theta)[:, None]
    return modes.zeta1 * (modes.residues @ (-np.sin(sq * times) / sq)).real


def direct_impulse(modes, times):
    """krylov.evaluate_impulse as a direct sum: each term g_i
    exp(-sqrt(theta_i) t_j) computed from t_j itself, with the same
    branch of sqrt(theta) (the oracle of the kernel's recurrence over
    the samples)."""
    sq = krylov._sqrt_from_above(
        modes.theta, krylov._CUT_TOL * np.abs(modes.theta).max(initial=0.0))
    terms = np.exp(-sq[:, None] * np.asarray(times, dtype=float)[None, :])
    return modes.zeta1 * ((modes.residues / sq) @ terms).real


def invit_start(i, m):
    """The start vector of value i in the compiled inverse iteration
    (_ritz.c's start_component): splitmix64 of the counter (i, k) for
    k < m, its top 53 bits mapped to [-1, 1)."""
    u64 = np.uint64
    z = (u64(i) << u64(32) | np.arange(m, dtype=u64)) + u64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> u64(30))) * u64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> u64(27))) * u64(0x94D049BB133111EB)
    z ^= z >> u64(31)
    return (z >> u64(11)).astype(float) * 2.0 ** -52 - 1.0


def invit_loop(alpha, off, theta, h_scale):
    """Eigenvectors of the symmetric tridiagonal (alpha, off) for the
    sorted Ritz values theta by the inverse iteration of the compiled
    ritz_vectors kernel, as a Python loop of LAPACK zgtsv solves from the
    same start vectors: the oracle of krylov._ritz_vectors (m >= 2, since
    zgtsv takes no empty off-diagonal)."""
    m = theta.size
    nudge = 4.0 * np.finfo(float).eps * h_scale
    label = krylov._close_groups(theta, krylov._CLUSTER_TOL * h_scale)
    s = np.empty((m, m), dtype=complex, order="F")
    earlier = {}  # cluster label -> columns already computed
    for i in range(m):
        group = earlier.setdefault(label[i], [])
        sigma = theta[i] + len(group) * nudge
        x = invit_start(i, m).astype(complex)
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


def fdtd_oracle(n_int, probes, source_xy, signature, t_final,
                medium_fn=None, amplitude=1.0, n_pml=10, track_energy=False,
                initial_ez=None):
    """The reference march of fdtd.run_fdtd as whole-array numpy steps,
    with the history of Q from one vector signature call: the oracle of
    the compiled march.  Returns (FdtdResult, energy).

    initial_ez(x, y) seeds Ez at t = 0 with H = 0, so conservation can be
    checked on a source-free closed box (n_pml = 0); track_energy records
    the staggered quadratic form after each step (else energy is None).
    """
    yee = yee_setup(n_int, probes, source_xy, signature, t_final,
                    medium_fn, n_pml)
    nodes, delta, dt, n_steps = yee.nodes, yee.delta, yee.dt, yee.n_steps
    nn = nodes.size
    ca_x = ca_y = yee.ca  # per x-row for Ezx, per y-column for Ezy
    cb_x = cb_y = yee.cb
    da_x = da_y = yee.da  # at x-midpoints for Hy, at y-midpoints for Hx
    db_x = db_y = yee.db
    eps = yee.eps

    ezx = np.zeros((nn, nn))
    ezy = np.zeros((nn, nn))
    hx = np.zeros((nn, nn - 1))
    hy = np.zeros((nn - 1, nn))
    if initial_ez is not None:
        gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
        ezy[1:-1, 1:-1] = np.asarray(initial_ez(gx, gy), dtype=float)[1:-1, 1:-1]

    traces = np.zeros((len(yee.probes), n_steps + 1))
    for p, (ix, iy) in enumerate(yee.probes):
        traces[p, 0] = ezx[ix, iy] + ezy[ix, iy]
    energy = np.zeros(n_steps) if track_energy else None

    inv_eps = 1.0 / eps
    inv_delta = 1.0 / delta
    src_scale = amplitude / delta ** 2
    if yee.source is not None:
        # Q at t_{n+1/2}, midpoint accumulation
        q_accum = np.cumsum(dt * signature(np.arange(n_steps) * dt))

    for step in range(n_steps):
        ez = ezx + ezy
        ez_prev = ez if track_energy else None

        # H updates to t_{n+1/2}
        hx = da_y[None, :] * hx - db_y[None, :] * (
            (ez[:, 1:] - ez[:, :-1]) * inv_delta
        )
        hy = da_x[:, None] * hy + db_x[:, None] * (
            (ez[1:, :] - ez[:-1, :]) * inv_delta
        )

        # E updates to t_{n+1}; outermost nodes stay at zero (PEC)
        curl_x = (hy[1:, 1:-1] - hy[:-1, 1:-1]) * inv_delta
        curl_y = (hx[1:-1, 1:] - hx[1:-1, :-1]) * inv_delta
        ezx[1:-1, 1:-1] = (
            ca_x[1:-1, None] * ezx[1:-1, 1:-1]
            + cb_x[1:-1, None] * inv_eps[1:-1, 1:-1] * curl_x
        )
        ezy[1:-1, 1:-1] = (
            ca_y[None, 1:-1] * ezy[1:-1, 1:-1]
            - cb_y[None, 1:-1] * inv_eps[1:-1, 1:-1] * curl_y
        )
        if yee.source is not None:
            ezy[yee.source] -= dt * src_scale * q_accum[step]

        ez = ezx + ezy
        for p, (ix, iy) in enumerate(yee.probes):
            traces[p, step + 1] = ez[ix, iy]

        if track_energy:
            # conserved staggered quadratic form (lossless closed box)
            energy[step] = 0.5 * delta ** 2 * (
                np.sum(eps * ez * ez_prev)
                + np.sum(hx ** 2)
                + np.sum(hy ** 2)
            )

    times = np.arange(n_steps + 1) * dt
    result = FdtdResult(waveform=Waveform(times=times, values=traces),
                        n_steps=n_steps, threads=1)
    return result, energy
