"""Optimal rational impedance for absorbing boundary layers.

A half-space absorber is characterized by how well a rational function
phi_k approximates the boundary impedance 1/sqrt(s) over the operative
spectral interval.  This module builds the minimax (equioscillating)
approximant of type [k-1/k] in closed form from Jacobi elliptic
functions, converts it to the step sizes of an equivalent staggered
two-point grid (a Stieltjes continued fraction), and evaluates both
representations.

Conventions
-----------
The wave-operator interval is [s_min, s_max] with s_min < s_max < 0 and
condition ratio chi = |s_min| / |s_max|.  All optimization is carried
out on the magnitude axis x = |s|, rescaled to [1/chi, 1]; the stored
poles are real and negative, the residues real and positive, and the
grid steps real and positive.  The physically absorbing grid uses the
same steps multiplied by the imaginary unit, which rotates the
approximation onto the negative real axis with the lower-edge branch of
the square root; the real parts taken by the time-domain exponent make
the two branch choices equivalent.

Rescaling s -> c*s maps poles theta -> c*theta and residues
y -> sqrt(c)*y, which is how results on the normalized interval are
transported to physical units.
"""

from dataclasses import dataclass, field

import numpy as np

from .elliptic import ellip_km1, jacobi_sn_cn
from .errors import (
    DegenerateInputError,
    InvalidParameterError,
    PoleProximityError,
    PrecisionError,
)

_MACHINE_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SpectralInterval:
    """Operative interval [s_min, s_max] on the negative real axis."""

    s_min: float
    s_max: float

    def __post_init__(self):
        if not (self.s_min <= self.s_max < 0.0):
            raise InvalidParameterError(
                f"need s_min <= s_max < 0, got [{self.s_min}, {self.s_max}]"
            )

    @property
    def chi(self):
        """Condition ratio |s_min| / |s_max| >= 1."""
        return self.s_min / self.s_max

    @property
    def x_lo(self):
        return -self.s_max

    @property
    def x_hi(self):
        return -self.s_min


def compute_interval(omega_min, omega_max, mu=0.1):
    """Spectral interval covered by a band [omega_min, omega_max].

    mu in (0, 1] extends the interval toward zero so that waves hitting
    the layer at oblique incidence (longitudinal wavenumber down to
    mu*omega_min) remain inside the operative range.
    """
    if omega_min <= 0.0 or omega_max <= 0.0 or omega_max < omega_min:
        raise InvalidParameterError(
            f"need 0 < omega_min <= omega_max, got ({omega_min}, {omega_max})"
        )
    if not 0.0 < mu <= 1.0:
        raise InvalidParameterError(f"need 0 < mu <= 1, got {mu}")
    return SpectralInterval(-(omega_max ** 2), -((mu * omega_min) ** 2))


@dataclass(frozen=True)
class RationalImpedance:
    """phi(s) = sum_i residues[i] / (s - poles[i]), approximating 1/sqrt(s).

    Poles are real, negative and distinct; residues are real and
    positive; max_error is the equioscillation level of
    |1 - sqrt(x) phi(x)| over the magnitude interval.
    """

    k: int
    poles: np.ndarray
    residues: np.ndarray
    max_error: float
    interval: SpectralInterval = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.poles, dtype=float)
        r = np.asarray(self.residues, dtype=float)
        if p.shape != (self.k,) or r.shape != (self.k,):
            raise InvalidParameterError("poles/residues must have length k")
        if not np.all(p < 0.0):
            raise InvalidParameterError("poles must be negative")
        if not np.all(r > 0.0):
            raise InvalidParameterError("residues must be positive")
        if self.k > 1 and np.min(np.diff(np.sort(p))) <= 0.0:
            raise DegenerateInputError("poles must be distinct")
        object.__setattr__(self, "poles", p)
        object.__setattr__(self, "residues", r)

    def __call__(self, s):
        """Evaluate the partial-fraction form at s (scalar or array)."""
        s = np.asarray(s)
        return np.sum(
            self.residues / (s[..., None] - self.poles), axis=-1
        )

    @property
    def zeros(self):
        """Roots of the numerator polynomial (k-1 of them, negative)."""
        if self.k == 1:
            return np.array([])
        coeffs = np.zeros(self.k)
        for i in range(self.k):
            others = np.delete(self.poles, i)
            coeffs = coeffs + self.residues[i] * np.poly(others)
        return np.sort(np.roots(coeffs))


@dataclass(frozen=True)
class PmlSteps:
    """Step magnitudes of the absorbing grid.

    The staggered grid realizing the impedance uses primary steps
    h_l = 1j*gamma[l] and dual steps 1j*gamma_hat[l]; the magnitudes
    stored here are the positive solutions of the Stieltjes
    identification for the real-axis problem.
    """

    k: int
    gamma: np.ndarray
    gamma_hat: np.ndarray
    roundtrip_error: float

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        gh = np.asarray(self.gamma_hat, dtype=float)
        if g.shape != (self.k,) or gh.shape != (self.k,):
            raise InvalidParameterError("gamma/gamma_hat must have length k")
        if not (np.all(g > 0.0) and np.all(gh > 0.0)):
            raise InvalidParameterError("step magnitudes must be positive")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "gamma_hat", gh)

    @property
    def complex_steps(self):
        """(primary, dual) steps of the absorbing grid."""
        return 1j * self.gamma, 1j * self.gamma_hat


def _refine_extrema(fun, xs, values=None):
    """Locate and polish local extrema of fun on the sampled grid xs.

    Returns (x_ext, f_ext) including both endpoints.  Interior extrema
    are refined by golden-section search between their grid neighbours.
    """
    f = fun(xs) if values is None else values
    # one-sided non-strict comparison so an extremum landing exactly
    # between two grid points (a two-sample plateau) is still caught
    ix = np.where((f[1:-1] >= f[:-2]) & (f[1:-1] > f[2:]))[0] + 1
    im = np.where((f[1:-1] <= f[:-2]) & (f[1:-1] < f[2:]))[0] + 1
    out_x = [xs[0]]
    out_f = [f[0]]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for i in np.sort(np.concatenate([ix, im])):
        sign = 1.0 if i in ix else -1.0
        a, b = np.log(xs[i - 1]), np.log(xs[i + 1])
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc = sign * fun(np.exp(c))
        fd = sign * fun(np.exp(d))
        for _ in range(60):
            if b - a < 1e-14 * max(1.0, abs(a)):
                break
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = sign * fun(np.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = sign * fun(np.exp(d))
        xstar = np.exp(0.5 * (a + b))
        out_x.append(xstar)
        out_f.append(fun(xstar))
    out_x.append(xs[-1])
    out_f.append(f[-1])
    return np.asarray(out_x), np.asarray(out_f)


def _magnitude_ratio(poles, zeros, x):
    """sqrt(x) * prod(x - zeros) / prod(x - poles) via log accumulation."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lg = 0.5 * np.log(x)
    if zeros.size:
        lg = lg + np.sum(np.log(x[:, None] - zeros[None, :]), axis=1)
    lg = lg - np.sum(np.log(x[:, None] - poles[None, :]), axis=1)
    out = np.exp(lg)
    return out if out.size > 1 else out[0]


def _normalized_zolotarev(chi, k, samples):
    """Poles, residues and error level on the normalized interval [1/chi, 1]."""
    eps = 1.0 / chi
    kappa_c = np.sqrt(1.0 - eps)  # complementary modulus
    big_kc = ellip_km1(eps)
    big_k = ellip_km1(1.0 - eps)
    # closed-form level 4*exp(-2*pi*k*K/K'); used only for feasibility
    exponent = 2.0 * np.pi * k * big_k / big_kc
    if k > 1 and exponent > -np.log(25.0 * _MACHINE_EPS):
        k_max = int(np.floor(-np.log(25.0 * _MACHINE_EPS) * big_kc
                             / (2.0 * np.pi * big_k)))
        raise PrecisionError(
            f"equioscillation level underflows double precision at k={k}; "
            f"largest resolvable order for chi={chi:g} is k={max(k_max, 1)}"
        )
    mags = np.empty(2 * k - 1)
    for i in range(1, 2 * k):
        sn, cn = jacobi_sn_cn(i * big_kc / (2.0 * k), kappa_c, m1=eps)
        mags[i - 1] = eps * (sn / cn) ** 2
    poles = -mags[0::2]
    zeros = -mags[1::2]
    xs = np.geomspace(eps, 1.0, samples)
    _, g_ext = _refine_extrema(
        lambda x: _magnitude_ratio(poles, zeros, x), xs
    )
    g_hi, g_lo = float(np.max(g_ext)), float(np.min(g_ext))
    scale = 2.0 / (g_hi + g_lo)
    level = (g_hi - g_lo) / (g_hi + g_lo)
    res = np.empty(k)
    for j in range(k):
        num = np.prod(poles[j] - zeros) if zeros.size else 1.0
        den = np.prod(poles[j] - np.delete(poles, j)) if k > 1 else 1.0
        res[j] = scale * num / den
    return poles, res, level


def _pf_error(poles, residues, x):
    """Signed error 1 - sqrt(x) * phi(x) of a partial-fraction impedance."""
    x = np.asarray(x, dtype=float)
    phi = np.sum(residues / (x[..., None] - poles), axis=-1)
    return 1.0 - np.sqrt(x) * phi


def _equioscillation_references(poles, residues, eps, samples=20000):
    """Refined extrema of the signed error on [eps, 1]."""
    xs = np.geomspace(eps, 1.0, samples)
    return _refine_extrema(lambda x: _pf_error(poles, residues, x), xs)


def zolotarev_approx(interval, k, samples=8192):
    """Best [k-1/k] relative approximation of 1/sqrt(s) on the interval.

    Parameters
    ----------
    interval : SpectralInterval
    k : int
        Number of poles (absorbing layers).
    samples : int
        Density of the scan used to locate the equioscillation extrema.

    Returns
    -------
    RationalImpedance
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidParameterError(f"k must be a positive integer, got {k}")
    chi = interval.chi
    x_hi = interval.x_hi
    if chi == 1.0:
        if k > 1:
            raise DegenerateInputError(
                "degenerate single-point interval admits only k = 1"
            )
        # exact interpolation at the single point x_hi
        return RationalImpedance(
            k=1,
            poles=np.array([-x_hi]),
            residues=np.array([2.0 * np.sqrt(x_hi)]),
            max_error=0.0,
            interval=interval,
        )
    poles_n, res_n, level = _normalized_zolotarev(chi, k, samples)
    return RationalImpedance(
        k=k,
        poles=poles_n * x_hi,
        residues=res_n * np.sqrt(x_hi),
        max_error=float(level),
        interval=interval,
    )


def impedance_error(imp, interval, samples=20000):
    """max |1 - sqrt(x) phi(x)| over log-spaced magnitudes of the interval.

    Independent of the stored equioscillation level: the partial
    fraction is re-evaluated on a dense grid.
    """
    if samples < 2:
        raise InvalidParameterError("need at least two sample points")
    xs = np.geomspace(interval.x_lo, interval.x_hi, samples)
    err = 1.0 - np.sqrt(xs) * imp(xs)
    return float(np.max(np.abs(err)))


def to_continued_fraction(imp, roundtrip_tol=1e-10):
    """Stieltjes step sizes realizing a partial-fraction impedance.

    Runs a fully reorthogonalized symmetric Lanczos process on
    diag(poles) with start vector sqrt(residues / sum(residues)); the
    Jacobi matrix entries identify the dual and primary step sizes via

        gamma_hat_1 = 1 / sum(y_i)
        a_i = -(1/gamma_hat_i) (1/gamma_{i-1} + 1/gamma_i)
        b_i = 1 / (gamma_i * sqrt(gamma_hat_i * gamma_hat_{i+1}))

    The result is verified by rebuilding the impedance from the step
    grid (eigen-decomposition of the equivalent symmetric tridiagonal)
    and comparing poles and residues.
    """
    k = imp.k
    theta = imp.poles
    y = imp.residues
    scale = np.max(np.abs(theta))
    if k > 1 and np.min(np.diff(np.sort(theta))) < 1e-13 * scale:
        raise DegenerateInputError("cannot convert: poles nearly coincide")
    v = np.sqrt(y / np.sum(y))
    basis = np.zeros((k, k))
    a = np.zeros(k)
    b = np.zeros(max(k - 1, 0))
    basis[:, 0] = v
    for j in range(k):
        r = theta * basis[:, j]
        a[j] = basis[:, j] @ r
        r = r - a[j] * basis[:, j]
        if j > 0:
            r = r - b[j - 1] * basis[:, j - 1]
        # full reorthogonalization; k is tiny so the cost is irrelevant
        r = r - basis[:, : j + 1] @ (basis[:, : j + 1].T @ r)
        if j < k - 1:
            b[j] = np.linalg.norm(r)
            if b[j] < 1e-14 * scale:
                raise DegenerateInputError(
                    "Lanczos breakdown: impedance is numerically degenerate"
                )
            basis[:, j + 1] = r / b[j]
    gamma_hat = np.zeros(k)
    gamma = np.zeros(k)
    gamma_hat[0] = 1.0 / np.sum(y)
    inv_prev = 0.0
    for i in range(k):
        inv_g = -a[i] * gamma_hat[i] - inv_prev
        if inv_g <= 0.0:
            raise DegenerateInputError(
                "Stieltjes identification produced a non-positive step"
            )
        gamma[i] = 1.0 / inv_g
        if i < k - 1:
            gamma_hat[i + 1] = 1.0 / (b[i] ** 2 * gamma[i] ** 2 * gamma_hat[i])
        inv_prev = inv_g
    rt = _roundtrip_error(gamma, gamma_hat, theta, y)
    if rt > roundtrip_tol:
        raise PrecisionError(
            f"continued-fraction round trip error {rt:.3e} exceeds "
            f"tolerance {roundtrip_tol:.3e}"
        )
    return PmlSteps(k=k, gamma=gamma, gamma_hat=gamma_hat, roundtrip_error=rt)


def _roundtrip_error(gamma, gamma_hat, theta, y):
    """Max relative mismatch after rebuilding (theta, y) from the steps."""
    k = len(gamma)
    tri = np.zeros((k, k))
    for i in range(k):
        tri[i, i] = -(1.0 / gamma_hat[i]) * (
            (0.0 if i == 0 else 1.0 / gamma[i - 1]) + 1.0 / gamma[i]
        )
    for i in range(k - 1):
        tri[i, i + 1] = tri[i + 1, i] = 1.0 / (
            gamma[i] * np.sqrt(gamma_hat[i] * gamma_hat[i + 1])
        )
    vals, vecs = np.linalg.eigh(tri)
    y_back = vecs[0, :] ** 2 / gamma_hat[0]
    i1, i2 = np.argsort(vals), np.argsort(theta)
    err_t = np.max(np.abs(vals[i1] - theta[i2]) / np.abs(theta[i2]))
    err_y = np.max(np.abs(y_back[i1] - y[i2]) / np.abs(y[i2]))
    return float(max(err_t, err_y))


def eval_impedance_cf(steps, s):
    """Evaluate the nested continued fraction at s (scalar or array).

    phi(s) = 1/(gh_1 s + 1/(g_1 + 1/(gh_2 s + ... + 1/(gh_k s + 1/g_k))))

    with the real step magnitudes; by construction this equals the
    generating partial fraction wherever both are finite.
    """
    g, gh = steps.gamma, steps.gamma_hat
    k = steps.k
    s = np.asarray(s, dtype=complex)
    guard = 1e-13

    def _checked_sum(a, b):
        # cancellation of the two summands to below guard * magnitude
        # means s sits numerically on a pole of the fraction
        out = a + b
        if np.any(np.abs(out) < guard * (np.abs(a) + np.abs(b))):
            raise PoleProximityError(
                "evaluation point is numerically on a pole of the "
                "continued fraction"
            )
        return out

    f = _checked_sum(gh[k - 1] * s, 1.0 / g[k - 1])
    for l in range(k - 2, -1, -1):
        inner = _checked_sum(np.asarray(g[l], dtype=complex), 1.0 / f)
        f = _checked_sum(gh[l] * s, 1.0 / inner)
    out = 1.0 / f
    return out if out.ndim else complex(out)
