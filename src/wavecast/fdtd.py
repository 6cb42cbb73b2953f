"""Finite-difference time-domain reference solver (TMz).

Independent route to the same fields: standard Yee leapfrog on
[-1, 1]^2 padded by a graded split-field absorbing frame.  The interior
Ez nodes, the medium on them and the snapping of source and probes are
taken from a stretched grid without layers (grid.build_grid2d,
operator.MediumMap), so both solvers sample the same physical
locations and the same medium, node for node and bit for bit.

The solved system is eps Ez_tt = Lap Ez - dJ/dt with the line current
J = amplitude * eps_src * Q(t) / cell_area at the source node,
Q(t) = integral of q, making the second-order form match
u_tt = A u - q(t) b of the stretched solver (the eps_src cancels in
the update).

The march is compiled (_fdtd.c, built on first use like the other
kernels, see _native): each ctypes call runs _CHUNK_STEPS steps with
the GIL released, so the march holds one CPU and no Python lock while
the Krylov route runs beside it, and a cancel is seen between chunks.
The source term comes from the history of Q computed before the march
(_source_kicks).  Each difference is multiplied by one reciprocal
1 / delta, not divided by delta, and the step has an AVX2 path chosen at
run time (`simd` on the loaded library); the whole-array numpy march
that the kernel reproduces bit for bit on either path, with the same
reciprocal, is the oracle of the tests (tests/support.py).

Units: c0 = 1, mu = 1; eps is the squared slowness map.
"""

import ctypes
import functools
from concurrent.futures import CancelledError
from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import InvalidParameterError
from .grid import build_grid2d
from .operator import MediumMap
from .signals import Waveform

# time step as a fraction of the 2D Yee stability limit of the fastest
# wave speed, delta * sqrt(min eps) / sqrt(2)
COURANT = 0.95
# reflection coefficient and polynomial order of the graded frame
_R0 = 1e-5
_PROFILE_ORDER = 3
# steps per call of the compiled march, between two looks at cancel
# (about 10 ms at ring-desk, 0.3 s at the paper presets)
_CHUNK_STEPS = 256


def time_step(n_int, eps_min):
    """Leapfrog step on the grid of spacing 2 / n_int whose smallest
    eps is eps_min: COURANT of the 2D Yee stability limit of the
    fastest wave speed."""
    return COURANT * (2.0 / n_int) * np.sqrt(eps_min) / np.sqrt(2.0)


@dataclass(frozen=True)
class FdtdResult:
    waveform: Waveform
    n_steps: int


@dataclass(frozen=True)
class Yee:
    """The fixed data of one march: node coordinates along either axis
    (frame included), spacing, step and step count, eps on the nodes,
    the semi-implicit loss coefficients, and the snapped source node
    (None without a source) and probe nodes, as (row, column) indices.
    The frame is square, so one coefficient pair per node index serves
    Ezx (by row) and Ezy (by column), and one per midpoint Hy (by row)
    and Hx (by column)."""

    nodes: np.ndarray
    delta: float
    dt: float
    n_steps: int
    eps: np.ndarray
    ca: np.ndarray  # at the nodes
    cb: np.ndarray
    da: np.ndarray  # at the midpoints
    db: np.ndarray
    source: tuple | None
    probes: tuple


def _sigma_profile(positions, delta, n_pml):
    """Graded conductivity at the given coordinates (c0 = eta = 1)."""
    depth_max = n_pml * delta
    sigma_max = -(_PROFILE_ORDER + 1.0) * np.log(_R0) / (2.0 * depth_max)
    depth = np.maximum(np.abs(positions) - 1.0, 0.0) / depth_max
    return sigma_max * np.clip(depth, 0.0, 1.0) ** _PROFILE_ORDER


def yee_setup(n_int, probes, source_xy, signature, t_final, medium_fn,
              n_pml):
    """The Yee data of a march with run_fdtd's arguments."""
    if n_int < 4:
        raise InvalidParameterError(f"need n_int >= 4, got {n_int}")
    delta = 2.0 / n_int
    n_cells = n_int + 2 * n_pml
    nodes = np.linspace(
        -1.0 - n_pml * delta, 1.0 + n_pml * delta, n_cells + 1
    )
    # the nodes strictly inside are the grid's unknowns, bit for bit
    grid = build_grid2d(n_int)
    inner = slice(n_pml + 1, n_pml + n_int)
    nodes[inner] = grid.axis_x.unknown_coords.real
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    nn = nodes.size

    eps = np.ones((nn, nn))
    if medium_fn is not None:
        medium = MediumMap.from_function(grid, medium_fn)
        medium.validate(grid)
        eps[inner, inner] = medium.values

    dt = time_step(n_int, eps.min())
    n_steps = int(np.ceil(t_final / dt))

    def snap(x, y):
        ix, iy, _, _ = grid.nearest_interior_node(x, y)
        return inner.start + ix, inner.start + iy

    if source_xy is not None:
        if signature is None:
            raise InvalidParameterError("source needs a signature")
        source = snap(*source_xy)
    else:
        source = None

    if n_pml > 0:
        sig_node = _sigma_profile(nodes, delta, n_pml)
        sig_mid = _sigma_profile(mids, delta, n_pml)
    else:
        sig_node, sig_mid = np.zeros(nn), np.zeros(nn - 1)

    # semi-implicit loss coefficients
    def loss(sig):
        den = 1.0 + 0.5 * dt * sig
        return (1.0 - 0.5 * dt * sig) / den, dt / den

    ca, cb = loss(sig_node)
    da, db = loss(sig_mid)
    return Yee(
        nodes=nodes, delta=delta, dt=dt, n_steps=n_steps, eps=eps,
        ca=ca, cb=cb, da=da, db=db, source=source,
        probes=tuple(snap(x, y) for (x, y) in probes),
    )


def _source_kicks(yee, signature, amplitude):
    """The source term of each step n, dt * (amplitude / delta^2) * Q at
    t_{n+1/2}, with Q the running sum of dt * signature(t_n)."""
    dt = yee.dt
    q = np.cumsum(dt * signature(np.arange(yee.n_steps) * dt))
    return dt * (amplitude / yee.delta ** 2) * q


@functools.cache
def _fdtd_kernel():
    """The compiled march (_fdtd.c), with `simd` (the CPU runs its AVX2
    step) set on the library."""
    c_int, c_long, c_double = ctypes.c_int, ctypes.c_long, ctypes.c_double
    ptr = ctypes.c_void_p
    kernel = _native.load("_fdtd.c", {
        "fdtd_simd": (c_int, []),
        "fdtd_march": (c_int, [c_int, c_int, c_double, *[ptr] * 9, c_long,
                               ptr, c_int, ptr, ptr, c_long, ptr, c_int]),
    })
    kernel.simd = kernel.fdtd_simd()
    return kernel


def run_fdtd(
    n_int,
    probes,
    source_xy,
    signature,
    t_final,
    medium_fn=None,
    amplitude=1.0,
    n_pml=10,
    cancel=None,
):
    """March the reference solver and record Ez at the probe nodes.

    probes: list of (x, y) inside (-1, 1); snapped, like the source, to
    the nearest interior Ez node by Grid2D.nearest_interior_node.
    medium_fn(x, y) is rasterized by MediumMap.from_function on the
    interior nodes (1 on the frame).  The step is time_step(n_int, min
    eps).  The absorbing frame is n_pml cells deep, graded to the
    reflection _R0 with order _PROFILE_ORDER; n_pml = 0 gives a closed
    reflecting box.

    source_xy=None disables injection (signature is then unused).  The
    march runs in the compiled kernel, _CHUNK_STEPS steps per call; once
    the threading.Event cancel is set, the next chunk raises
    CancelledError.
    """
    yee = yee_setup(n_int, probes, source_xy, signature, t_final,
                    medium_fn, n_pml)
    kernel = _fdtd_kernel()
    nn, n_steps = yee.nodes.size, yee.n_steps
    ezx = np.zeros((nn, nn))
    ezy = np.zeros((nn, nn))
    hx = np.zeros((nn, nn - 1))
    hy = np.zeros((nn - 1, nn))
    traces = np.zeros((len(yee.probes), n_steps + 1))  # from zero fields
    if yee.source is None:
        src, kicks = -1, np.zeros(n_steps)
    else:
        src = yee.source[0] * nn + yee.source[1]
        kicks = _source_kicks(yee, signature, amplitude)
    probe_flats = np.array([i * nn + j for i, j in yee.probes],
                           dtype=ctypes.c_long)
    inv_eps = 1.0 / yee.eps
    arrays = [a.ctypes.data for a in (yee.ca, yee.cb, yee.da, yee.db,
                                      inv_eps, ezx, ezy, hx, hy)]
    work = np.empty(2 * nn)
    for start in range(0, n_steps, _CHUNK_STEPS):
        if cancel is not None and cancel.is_set():
            raise CancelledError(f"FDTD march cancelled at step {start}")
        count = min(_CHUNK_STEPS, n_steps - start)
        kernel.fdtd_march(
            nn, count, yee.delta, *arrays, src,
            kicks.ctypes.data + kicks.itemsize * start,
            probe_flats.size, probe_flats.ctypes.data,
            traces.ctypes.data + traces.itemsize * (start + 1),
            n_steps + 1, work.ctypes.data, kernel.simd)

    times = np.arange(n_steps + 1) * yee.dt
    return FdtdResult(
        waveform=Waveform(times=times, values=traces),
        n_steps=n_steps,
    )
