"""Source wavelets, sampled traces, and trace comparison utilities."""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    InvalidParameterError,
    SamplingError,
)


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

    def lobe_level(self, omega):
        """Single-lobe envelope level relative to the peak at omega_c."""
        w = np.asarray(omega, dtype=float)
        return np.exp(-0.5 * self.sigma ** 2 * (w - self.omega_c) ** 2)


def make_wavelet(omega_min, omega_max, floor_db=-30.0):
    """Band-covering wavelet: centre at the band midpoint, width set so
    the single-lobe spectrum is floor_db down at both band edges, and
    delay t0 = 6 sigma so switching on at t = 0 truncates the envelope
    at the e^{-18} level."""
    if not 0.0 < omega_min < omega_max:
        raise InvalidParameterError(
            f"need 0 < omega_min < omega_max, got ({omega_min}, {omega_max})"
        )
    if floor_db >= 0.0:
        raise InvalidParameterError("floor_db must be negative")
    half = 0.5 * (omega_max - omega_min)
    target = 10.0 ** (floor_db / 20.0)
    sigma = np.sqrt(-2.0 * np.log(target)) / half
    sig = SourceSignature(
        omega_c=0.5 * (omega_min + omega_max), sigma=sigma, t0=6.0 * sigma
    )
    # construction identity: lobe level at the band edges is the floor
    for edge in (omega_min, omega_max):
        level = float(sig.lobe_level(edge))
        if abs(level - target) > 0.01 * target:
            raise InvalidParameterError(
                f"wavelet does not meet the band floor at {edge}: "
                f"{level:.4e} vs {target:.4e}"
            )
    return sig


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
        if t.size >= 2:
            dt = np.diff(t)
            if dt.min() <= 0.0 or (dt.max() - dt.min()) > 1e-9 * dt.max():
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
        or not a numeric trace raises ConfigurationError."""
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
        return Waveform(
            times=data[:, 0],
            values=data[:, 1:].T,
            probe_names=tuple(names[1:]),
        )


_TAPS = 65
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
    half = _TAPS // 2
    pos = (new_times - wf.times[0]) / dt
    base = np.floor(pos).astype(int)
    nt = wf.times.size
    offsets = np.arange(-half, half + 1)
    idx = base[:, None] + offsets[None, :]
    frac = pos[:, None] - idx
    valid = (idx >= 0) & (idx < nt)
    idx_c = np.clip(idx, 0, nt - 1)
    window = np.i0(_BETA * np.sqrt(np.clip(
        1.0 - (frac / (half + 1)) ** 2, 0.0, None
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
    guard = (_TAPS // 2) * ref_wf.dt
    lo = max(test_wf.times[0], ref_wf.times[0] + guard)
    hi = min(test_wf.times[-1], ref_wf.times[-1] - guard)
    if t_lo is not None:
        lo = max(lo, t_lo)
    if t_hi is not None:
        hi = min(hi, t_hi)
    if hi <= lo:
        raise InvalidParameterError("no usable time overlap")
    sel = (test_wf.times >= lo) & (test_wf.times <= hi)
    times = test_wf.times[sel]
    ref_on_test = resample_waveform(ref_wf, times)
    diff = test_wf.values[:, sel] - ref_on_test.values
    denom = np.linalg.norm(ref_on_test.values, axis=1)
    if np.any(denom == 0.0):
        raise DegenerateInputError("reference trace vanishes on overlap")
    rel = np.linalg.norm(diff, axis=1) / denom
    return rel, float(lo), float(hi)


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
