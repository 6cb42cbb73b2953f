"""Closed-form reference traces for a point source in free space.

For the homogeneous medium (c = 1) the 2D field of
u_tt = Lap u - amplitude * q(t) * delta(x - x_s) at distance r is the
retarded integral

    u(r, t) = -(amplitude / 2 pi) *
              int_0^{arccosh(t/r)} q(t - r cosh xi) d xi     (t > r)

and exactly zero before the arrival t = r.  The cosh substitution
removes the inverse-square-root singularity of the naive form, leaving
a smooth integrand handled by Gauss-Legendre panels with doubling
until convergence.
"""

import functools

import numpy as np

from .errors import InvalidParameterError, PrecisionError
from .signals import Waveform

# successive Gauss-Legendre doublings agree to this, relative to
# 1 + |integral|
_REL_TOL = 1e-10


@functools.cache
def _leggauss(n):
    # looked up on first use: numpy.polynomial stays out of start-up
    return np.polynomial.legendre.leggauss(n)


def _tail_integral(signature, r, t):
    """int_0^{arccosh(t/r)} q(t - r cosh(xi)) dxi by GL doubling."""
    xi_max = np.arccosh(t / r)
    prev = None
    n = 32
    while n <= 16384:
        xs, ws = _leggauss(n)
        xi = 0.5 * xi_max * (xs + 1.0)
        val = 0.5 * xi_max * np.sum(ws * signature(t - r * np.cosh(xi)))
        if prev is not None and abs(val - prev) <= _REL_TOL * (
            1.0 + abs(val)
        ):
            return val
        prev = val
        n *= 2
    raise PrecisionError(
        f"retarded integral did not converge at t = {t}, r = {r}"
    )


def analytic_homogeneous(source_xy, probes, signature, times, amplitude=1.0):
    """Waveform of free-space reference traces at several receivers."""
    times = np.asarray(times, dtype=float)
    vals = np.zeros((len(probes), times.size))
    for p, probe_xy in enumerate(probes):
        r = float(np.hypot(probe_xy[0] - source_xy[0],
                           probe_xy[1] - source_xy[1]))
        if r == 0.0:
            raise InvalidParameterError("probe coincides with the source")
        for j, t in enumerate(times):
            if t > r:
                vals[p, j] = -(amplitude / (2.0 * np.pi)) * _tail_integral(
                    signature, r, t)
    return Waveform(times=times, values=vals)
