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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, PrecisionError
from .signals import Waveform

_LEGENDRE_CACHE = {}
# successive Gauss-Legendre doublings agree to this, relative to
# 1 + |integral|
_REL_TOL = 1e-10


def _leggauss(n):
    if n not in _LEGENDRE_CACHE:
        _LEGENDRE_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _LEGENDRE_CACHE[n]


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


@dataclass(frozen=True)
class AnalyticProbe:
    """Free-space reference at one receiver."""

    source_xy: tuple
    probe_xy: tuple
    amplitude: float = 1.0

    @property
    def r(self):
        dx = self.probe_xy[0] - self.source_xy[0]
        dy = self.probe_xy[1] - self.source_xy[1]
        r = float(np.hypot(dx, dy))
        if r == 0.0:
            raise InvalidParameterError("probe coincides with the source")
        return r

    def evaluate(self, signature, times):
        times = np.asarray(times, dtype=float)
        r = self.r
        out = np.zeros(times.size)
        for j, t in enumerate(times):
            if t > r:
                out[j] = -(self.amplitude / (2.0 * np.pi)) * _tail_integral(
                    signature, r, t)
        return out


def analytic_homogeneous(source_xy, probes, signature, times, amplitude=1.0):
    """Waveform of free-space reference traces at several receivers."""
    times = np.asarray(times, dtype=float)
    vals = np.vstack(
        [
            AnalyticProbe(tuple(source_xy), tuple(p), amplitude).evaluate(
                signature, times)
            for p in probes
        ]
    )
    return Waveform(times=times, values=vals)
