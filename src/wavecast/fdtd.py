"""Finite-difference time-domain reference solver (TMz).

Independent route to the same fields: standard Yee leapfrog on
[-1, 1]^2 padded by a graded split-field absorbing frame, with the Ez
nodes of the interior placed exactly on the primary nodes of the
stretched-grid solver (spacing 2/n_int), so traces from the two
solvers sample identical physical locations and the same medium
rasterization.

The solved system is eps Ez_tt = Lap Ez - dJ/dt with the line current
J = amplitude * eps_src * Q(t) / cell_area at the source node,
Q(t) = integral of q, making the second-order form match
u_tt = A u - q(t) b of the stretched solver (the eps_src cancels in
the update).

Units: c0 = 1, mu = 1; eps is the squared slowness map.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .signals import Waveform

# time step as a fraction of the 2D Yee stability limit delta / sqrt(2)
COURANT = 0.95


@dataclass(frozen=True)
class FdtdResult:
    waveform: Waveform
    dt: float
    n_steps: int
    source_coords: tuple | None
    probe_coords: tuple
    energy: np.ndarray | None = None


def _sigma_profile(positions, delta, n_pml, r0, order):
    """Graded conductivity at the given coordinates (c0 = eta = 1)."""
    depth_max = n_pml * delta
    sigma_max = -(order + 1.0) * np.log(r0) / (2.0 * depth_max)
    depth = np.maximum(np.abs(positions) - 1.0, 0.0) / depth_max
    return sigma_max * np.clip(depth, 0.0, 1.0) ** order


def run_fdtd(
    n_int,
    probes,
    source_xy,
    signature,
    t_final,
    medium_fn=None,
    amplitude=1.0,
    courant=COURANT,
    n_pml=10,
    r0=1e-5,
    profile_order=3,
    track_energy=False,
    initial_ez=None,
):
    """March the reference solver and record Ez at the probe nodes.

    probes: list of (x, y) inside (-1, 1); snapped to the nearest
    interior Ez node.  medium_fn(x, y) is sampled on Ez nodes strictly
    inside the interior square (1 elsewhere), matching the stretched
    solver's rasterization.  n_pml = 0 gives a closed reflecting box
    (used by the energy-conservation diagnostic).

    source_xy=None disables injection (signature is then unused);
    initial_ez(x, y) seeds Ez at t = 0 with H = 0 so conservation can
    be checked on a source-free closed box.  The snapped node
    coordinates come back on the result so references can be evaluated
    at the positions actually sampled.
    """
    if n_int < 4:
        raise InvalidParameterError(f"need n_int >= 4, got {n_int}")
    if not 0.0 < courant < 1.0 + 1e-12:
        raise InvalidParameterError("courant fraction must be in (0, 1]")
    delta = 2.0 / n_int
    n_cells = n_int + 2 * n_pml
    nodes = np.linspace(
        -1.0 - n_pml * delta, 1.0 + n_pml * delta, n_cells + 1
    )
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    nn = nodes.size

    eps = np.ones((nn, nn))
    if medium_fn is not None:
        gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
        inside = (np.abs(gx) < 1.0 - 1e-12) & (np.abs(gy) < 1.0 - 1e-12)
        sampled = np.asarray(medium_fn(gx, gy), dtype=float)
        eps[inside] = sampled[inside]
        if np.any(eps <= 0.0):
            raise InvalidParameterError("medium must be positive")

    dt = courant * delta / np.sqrt(2.0)
    n_steps = int(np.ceil(t_final / dt))

    def snap(x, y):
        ix = int(np.argmin(np.abs(nodes - x)))
        iy = int(np.argmin(np.abs(nodes - y)))
        if not (np.abs(nodes[ix]) < 1.0 - 1e-12
                and np.abs(nodes[iy]) < 1.0 - 1e-12):
            raise InvalidParameterError(
                f"point ({x}, {y}) does not snap to an interior node"
            )
        return ix, iy

    if source_xy is not None:
        if signature is None:
            raise InvalidParameterError("source needs a signature")
        src_i, src_j = snap(*source_xy)
        src_coords = (nodes[src_i], nodes[src_j])
    else:
        src_i = src_j = None
        src_coords = None
    probe_idx = [snap(x, y) for (x, y) in probes]
    probe_coords = tuple((nodes[ix], nodes[iy]) for ix, iy in probe_idx)

    if n_pml > 0:
        sig_ex = _sigma_profile(nodes, delta, n_pml, r0, profile_order)
        sig_ey = sig_ex.copy()
        sig_hx = _sigma_profile(mids, delta, n_pml, r0, profile_order)
        sig_hy = sig_hx.copy()
    else:
        sig_ex = sig_ey = np.zeros(nn)
        sig_hx = sig_hy = np.zeros(nn - 1)

    # semi-implicit loss coefficients
    def loss(sig):
        den = 1.0 + 0.5 * dt * sig
        return (1.0 - 0.5 * dt * sig) / den, dt / den

    ca_x, cb_x = loss(sig_ex)    # per x-row, applies to Ezx
    ca_y, cb_y = loss(sig_ey)    # per y-col, applies to Ezy
    da_x, db_x = loss(sig_hy)    # at x-midpoints, applies to Hy
    da_y, db_y = loss(sig_hx)    # at y-midpoints, applies to Hx

    ezx = np.zeros((nn, nn))
    ezy = np.zeros((nn, nn))
    hx = np.zeros((nn, nn - 1))
    hy = np.zeros((nn - 1, nn))
    if initial_ez is not None:
        gx, gy = np.meshgrid(nodes, nodes, indexing="ij")
        ezy[1:-1, 1:-1] = np.asarray(initial_ez(gx, gy), dtype=float)[1:-1, 1:-1]

    traces = np.zeros((len(probe_idx), n_steps + 1))
    for p, (ix, iy) in enumerate(probe_idx):
        traces[p, 0] = ezx[ix, iy] + ezy[ix, iy]
    energy = np.zeros(n_steps) if track_energy else None

    inv_eps = 1.0 / eps
    q_accum = 0.0  # Q at t_{n+1/2}, midpoint accumulation
    src_scale = amplitude / delta ** 2

    for step in range(n_steps):
        t_n = step * dt
        ez = ezx + ezy
        ez_prev = ez if track_energy else None

        # H updates to t_{n+1/2}
        hx = da_y[None, :] * hx - db_y[None, :] * (
            (ez[:, 1:] - ez[:, :-1]) / delta
        )
        hy = da_x[:, None] * hy + db_x[:, None] * (
            (ez[1:, :] - ez[:-1, :]) / delta
        )

        # E updates to t_{n+1}; outermost nodes stay at zero (PEC)
        curl_x = (hy[1:, 1:-1] - hy[:-1, 1:-1]) / delta
        curl_y = (hx[1:-1, 1:] - hx[1:-1, :-1]) / delta
        ezx[1:-1, 1:-1] = (
            ca_x[1:-1, None] * ezx[1:-1, 1:-1]
            + cb_x[1:-1, None] * inv_eps[1:-1, 1:-1] * curl_x
        )
        ezy[1:-1, 1:-1] = (
            ca_y[None, 1:-1] * ezy[1:-1, 1:-1]
            - cb_y[None, 1:-1] * inv_eps[1:-1, 1:-1] * curl_y
        )
        if src_i is not None:
            q_accum += dt * signature(t_n)  # Q at t_{n+1/2}
            ezy[src_i, src_j] -= dt * src_scale * q_accum

        ez = ezx + ezy
        for p, (ix, iy) in enumerate(probe_idx):
            traces[p, step + 1] = ez[ix, iy]

        if track_energy:
            # conserved staggered quadratic form (lossless closed box)
            energy[step] = 0.5 * delta ** 2 * (
                np.sum(eps * ez * ez_prev)
                + np.sum(hx ** 2)
                + np.sum(hy ** 2)
            )

    times = np.arange(n_steps + 1) * dt
    names = tuple(f"probe{i + 1}" for i in range(len(probe_idx)))
    wf = Waveform(times=times, values=traces, probe_names=names)
    return FdtdResult(
        waveform=wf,
        dt=dt,
        n_steps=n_steps,
        source_coords=src_coords,
        probe_coords=probe_coords,
        energy=energy,
    )
