"""Source wavelets, sampled traces, and trace comparison utilities."""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    InvalidParameterError,
    SamplingError,
)

FLOOR_DB = -30.0  # wavelet spectrum at the band edges, dB below its peak


@dataclass(frozen=True)
class SourceSignature:
    """Modulated Gaussian source q(t) = cos(wc (t - t0)) G(t - t0).

    G is the unit-peak Gaussian exp(-tau^2 / (2 sigma^2)).  The Fourier
    transform (e^{-i omega t} convention) is two Gaussian lobes of
    width 1/sigma centred at +-wc.
    """

    omega_c: float
    sigma: float
    t0: float

    def __call__(self, t):
        tau = np.asarray(t, dtype=float) - self.t0
        return np.cos(self.omega_c * tau) * np.exp(
            -(tau ** 2) / (2.0 * self.sigma ** 2)
        )

    def spectrum(self, omega):
        """Exact transform: both lobes, including the t0 phase."""
        w = np.asarray(omega, dtype=float)
        lobe = lambda wc: np.exp(-0.5 * self.sigma ** 2 * (w - wc) ** 2)
        mag = (
            0.5
            * np.sqrt(2.0 * np.pi)
            * self.sigma
            * (lobe(self.omega_c) + lobe(-self.omega_c))
        )
        return mag * np.exp(-1j * w * self.t0)


def make_wavelet(omega_min, omega_max, floor_db=FLOOR_DB):
    """Band-covering wavelet: centre at the band midpoint, width set so
    the single-lobe spectrum is floor_db down at both band edges, and
    delay t0 = 6 sigma so switching on at t = 0 truncates the envelope
    at the e^{-18} level.  A floor_db that is not negative, or whose
    sigma rounds to 0 or overflows, raises InvalidParameterError."""
    if not 0.0 < omega_min < omega_max:
        raise InvalidParameterError(
            f"need 0 < omega_min < omega_max, got ({omega_min}, {omega_max})"
        )
    if not floor_db < 0.0:  # before the power, which overflows above
        raise InvalidParameterError("floor_db must be negative")
    half = 0.5 * (omega_max - omega_min)
    target = 10.0 ** (floor_db / 20.0)
    with np.errstate(divide="ignore"):
        sigma = np.sqrt(-2.0 * np.log(target)) / half
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise InvalidParameterError(
            f"floor_db = {floor_db:g} gives wavelet width sigma = {sigma:g}")
    return SourceSignature(
        omega_c=0.5 * (omega_min + omega_max), sigma=sigma, t0=6.0 * sigma
    )


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled multi-probe trace."""

    times: np.ndarray
    values: np.ndarray  # (n_probes, nt)
    probe_names: tuple = field(default=())

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if t.ndim != 1 or v.shape[1] != t.size:
            raise InvalidParameterError("times/values shape mismatch")
        # a step between finite times can overflow to inf (-1.7e308 to
        # 1.7e308), and inf - inf is nan, which no comparison rejects
        with np.errstate(over="ignore", invalid="ignore"):
            dt = np.diff(t)
        if not (np.isfinite(t).all() and np.isfinite(dt).all()) or (
                dt.size and (dt.min() <= 0.0
                             or dt.max() - dt.min() > 1e-9 * dt.max())):
            raise InvalidParameterError("times must be uniform increasing")
        names = self.probe_names or tuple(
            f"probe{i + 1}" for i in range(v.shape[0])
        )
        if len(names) != v.shape[0]:
            raise InvalidParameterError("probe name count mismatch")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probe_names", tuple(names))

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    @property
    def n_probes(self):
        return self.values.shape[0]

    def to_csv(self, path):
        header = ",".join(["t", *self.probe_names])
        data = np.column_stack([self.times, self.values.T])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header,
                   comments="")

    @staticmethod
    def from_csv(path):
        """Read a to_csv file; a file that is missing, unreadable, empty
        or not a finite numeric trace raises ConfigurationError."""
        try:
            with open(path) as fh:
                lines = fh.read().strip().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(
                f"cannot read trace {path}: {exc}"
            ) from None
        names = lines[0].split(",") if lines else []
        if len(names) < 2 or names[0] != "t" or len(lines) < 3:
            raise ConfigurationError(
                f"trace {path} needs a t,<probe>... header and two samples"
            )
        try:
            data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigurationError(
                f"trace {path} is not numeric: {exc}"
            ) from None
        if not np.isfinite(data).all():
            raise ConfigurationError(
                f"trace {path} has a value that is not finite"
            )
        return Waveform(
            times=data[:, 0],
            values=data[:, 1:].T,
            probe_names=tuple(names[1:]),
        )


# half the resampler's window (2 HALF_WINDOW + 1 = 65 taps), in source
# samples: the guard a resampled trace needs at each end of its span
HALF_WINDOW = 32
_BETA = 14.0


def resample_waveform(wf, new_times):
    """Band-limited resampling onto arbitrary times inside the span.

    Windowed-sinc interpolation (Kaiser beta = 14, 65 taps) on the
    uniform source grid; the signal is treated as zero outside its
    span, so keep a guard of half a window away from the edges for
    full accuracy.
    """
    new_times = np.asarray(new_times, dtype=float)
    if new_times.min() < wf.times[0] - 1e-12 or (
        new_times.max() > wf.times[-1] + 1e-12
    ):
        raise SamplingError("requested times fall outside the sampled span")
    dt = wf.dt
    pos = (new_times - wf.times[0]) / dt
    base = np.floor(pos).astype(int)
    nt = wf.times.size
    offsets = np.arange(-HALF_WINDOW, HALF_WINDOW + 1)
    idx = base[:, None] + offsets[None, :]
    frac = pos[:, None] - idx
    valid = (idx >= 0) & (idx < nt)
    idx_c = np.clip(idx, 0, nt - 1)
    window = np.i0(_BETA * np.sqrt(np.clip(
        1.0 - (frac / (HALF_WINDOW + 1)) ** 2, 0.0, None
    ))) / np.i0(_BETA)
    taps = np.sinc(frac) * window * valid
    out = np.empty((wf.n_probes, new_times.size))
    for p in range(wf.n_probes):
        out[p] = np.sum(wf.values[p][idx_c] * taps, axis=1)
    return Waveform(times=new_times, values=out, probe_names=wf.probe_names)


def compare_traces(test_wf, ref_wf, t_lo=None, t_hi=None):
    """Per-probe relative L2 mismatch over the common time range.

    The reference is resampled onto the test grid; a guard of half an
    interpolation window is trimmed from both ends of the overlap.
    Returns (rel, used_lo, used_hi) with rel of shape (n_probes,).
    """
    if test_wf.n_probes != ref_wf.n_probes:
        raise InvalidParameterError("probe count mismatch")
    guard = HALF_WINDOW * ref_wf.dt
    lo = max(test_wf.times[0], ref_wf.times[0] + guard)
    hi = min(test_wf.times[-1], ref_wf.times[-1] - guard)
    if t_lo is not None:
        lo = max(lo, t_lo)
    if t_hi is not None:
        hi = min(hi, t_hi)
    sel = (test_wf.times >= lo) & (test_wf.times <= hi)
    if hi <= lo or not sel.any():
        raise InvalidParameterError("no usable time overlap")
    times = test_wf.times[sel]
    test_values = test_wf.values[:, sel]
    # both traces in units of their largest magnitude, a power of two so
    # the scaling is exact: finite values above ~1e154 would overflow
    # the norms (and near the top of the range, the resampler's sums)
    _, exp = np.frexp(max(np.abs(test_values).max(),
                          np.abs(ref_wf.values).max()))
    ref_scaled = Waveform(times=ref_wf.times,
                          values=np.ldexp(ref_wf.values, -exp),
                          probe_names=ref_wf.probe_names)
    ref_on_test = resample_waveform(ref_scaled, times).values
    diff = np.ldexp(test_values, -exp) - ref_on_test
    denom = np.linalg.norm(ref_on_test, axis=1)
    if np.any(denom == 0.0):
        raise DegenerateInputError("reference trace vanishes on overlap")
    rel = np.linalg.norm(diff, axis=1) / denom
    return rel, float(lo), float(hi)

