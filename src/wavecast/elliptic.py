"""Complete elliptic integrals and Jacobi elliptic functions.

Only the small slice needed by the rational-impedance construction:
K via the arithmetic-geometric mean, from the complementary parameter
1 - kappa**2, and sn/cn via the descending Landen transformation.
Modulus convention throughout (kappa, not the parameter m = kappa**2).
"""

import math

from .errors import InvalidParameterError, PrecisionError

_EPS = 2.220446049250313e-16


def agm(a, b):
    """Arithmetic-geometric mean of two positive numbers."""
    if a <= 0.0 or b <= 0.0:
        raise InvalidParameterError("agm requires positive arguments")
    while abs(a - b) > 4.0 * _EPS * abs(a):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def ellip_km1(m1):
    """K(sqrt(1 - m1)) from the complementary parameter m1 = 1 - kappa^2.

    Avoids the cancellation in forming 1 - kappa^2 when the modulus is
    near 1 and the complement is known exactly.
    """
    if not 0.0 < m1 <= 1.0:
        raise InvalidParameterError(
            f"complementary parameter must lie in (0, 1], got {m1}"
        )
    return math.pi / (2.0 * agm(1.0, math.sqrt(m1)))


def jacobi_sn_cn(u, kappa, m1):
    """Jacobi sn(u, kappa) and cn(u, kappa) for real u, modulus in [0, 1).

    Descending Landen (AGM) ladder: build c_i = (a_i - b_i)/2 down to
    roundoff, unwind the amplitude with
    phi_{i-1} = (phi_i + asin(clip(c_i/a_i * sin phi_i)))/2,
    then sn = sin phi_0, cn = cos phi_0.

    m1 is the complementary parameter 1 - kappa^2, given exactly: its
    recomputation from kappa cancels for moduli near 1.
    """
    if not 0.0 <= kappa < 1.0:
        raise InvalidParameterError(f"modulus must lie in [0, 1), got {kappa}")
    a = [1.0]
    b = math.sqrt(m1)
    c = [kappa]
    n = 0
    while abs(c[n]) > _EPS * abs(a[n]):
        a.append(0.5 * (a[n] + b))
        c.append(0.5 * (a[n] - b))
        b = math.sqrt(a[n] * b)
        n += 1
        if n > 64:
            raise PrecisionError("Landen ladder failed to converge")
    phi = (2.0 ** n) * a[n] * u
    for i in range(n, 0, -1):
        s = c[i] / a[i] * math.sin(phi)
        s = max(-1.0, min(1.0, s))
        phi = 0.5 * (phi + math.asin(s))
    return math.sin(phi), math.cos(phi)
