import io

import numpy as np
import pytest

from wavecast.errors import (
    DegenerateInputError,
    InvalidParameterError,
    SamplingError,
)
from wavecast.signals import (
    SourceSignature,
    Waveform,
    compare_traces,
    make_wavelet,
    resample_waveform,
)

from support import arrival_time


def test_wavelet_band_floor():
    sig = make_wavelet(2.0, 18.0, floor_db=-30.0)
    assert abs(sig.omega_c - 10.0) < 1e-12
    target = 10.0 ** (-30.0 / 20.0)
    # single-lobe envelope level relative to the peak at omega_c
    for edge in (2.0, 18.0):
        level = np.exp(-0.5 * sig.sigma ** 2 * (edge - sig.omega_c) ** 2)
        assert abs(level - target) < 1e-10
    assert sig.t0 == 6.0 * sig.sigma
    # switch-on truncation is at the e^{-18} level
    assert abs(sig(0.0)) <= np.exp(-18.0)


def test_wavelet_spectrum_matches_fft():
    sig = make_wavelet(3.0, 9.0)
    dt = 2.0 * np.pi / 9.0 / 40.0
    t = np.arange(0.0, sig.t0 + 14.0 * sig.sigma, dt)
    q = sig(t)
    n = 8 * len(t)
    spec = np.fft.rfft(q, n) * dt
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, dt)
    band = (omega > 3.0) & (omega < 9.0)
    exact = sig.spectrum(omega[band])
    assert np.max(np.abs(spec[band] - exact)) < 1e-6 * np.abs(exact).max()


def test_wavelet_validation():
    with pytest.raises(InvalidParameterError):
        make_wavelet(5.0, 2.0)
    with pytest.raises(InvalidParameterError):
        make_wavelet(1.0, 2.0, floor_db=3.0)
    # a width that overflows, and one that rounds to 0
    for floor_db in (-1e5, -1e-300):
        with pytest.raises(InvalidParameterError, match="width"):
            make_wavelet(1.0, 2.0, floor_db=floor_db)


def test_waveform_csv_roundtrip(tmp_path):
    t = np.arange(20) * 0.1
    vals = np.vstack([np.sin(t), np.cos(t)])
    wf = Waveform(times=t, values=vals, probe_names=("a", "b"))
    path = tmp_path / "trace.csv"
    wf.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "t,a,b"
    back = Waveform.from_csv(path)
    assert back.probe_names == ("a", "b")
    assert np.array_equal(back.times, t)
    assert np.array_equal(back.values, vals)


def test_waveform_csv_full_precision(tmp_path):
    t = np.arange(3) * (1.0 / 3.0)
    vals = np.array([[np.pi, np.e, 1.0 / 7.0]])
    wf = Waveform(times=t, values=vals)
    path = tmp_path / "p.csv"
    wf.to_csv(path)
    back = Waveform.from_csv(path)
    assert np.array_equal(back.values, vals)


def test_waveform_validation():
    with pytest.raises(InvalidParameterError):
        Waveform(times=np.array([0.0, 0.1, 0.3]), values=np.zeros((1, 3)))
    with pytest.raises(InvalidParameterError):
        Waveform(times=np.array([0.0, 0.1]), values=np.zeros((1, 3)))


def test_resample_reconstructs_bandlimited_signal():
    # a signal well inside the Nyquist band is reproduced to high
    # accuracy at off-grid times
    dt = 0.02
    t = np.arange(0.0, 40.0, dt)
    f = lambda x: np.sin(2.0 * np.pi * 3.1 * x) + 0.5 * np.cos(
        2.0 * np.pi * 7.3 * x
    )
    wf = Waveform(times=t, values=f(t)[None, :])
    newt = np.arange(2.0, 38.0, 0.0317)
    out = resample_waveform(wf, newt)
    assert np.max(np.abs(out.values[0] - f(newt))) < 2e-6


def test_resample_shift_recovers_samples():
    # resampling a pure shift by an integer number of steps is exact
    dt = 0.05
    t = np.arange(0.0, 30.0, dt)
    y = np.sin(1.7 * t) * np.exp(-0.05 * t)
    wf = Waveform(times=t, values=y[None, :])
    newt = t[100:-100]
    out = resample_waveform(wf, newt)
    assert np.max(np.abs(out.values[0] - y[100:-100])) < 1e-12


def test_resample_span_guard():
    wf = Waveform(times=np.arange(10) * 0.1, values=np.zeros((1, 10)))
    with pytest.raises(SamplingError):
        resample_waveform(wf, np.array([-0.1]))
    with pytest.raises(SamplingError):
        resample_waveform(wf, np.array([1.2]))


def test_compare_traces_identical_and_scaled():
    t = np.arange(0.0, 20.0, 0.01)
    y = np.sin(3.0 * t) * np.exp(-0.1 * t)
    a = Waveform(times=t, values=y[None, :])
    rel, lo, hi = compare_traces(a, a)
    assert rel[0] < 1e-12
    b = Waveform(times=t, values=(1.02 * y)[None, :])
    rel, _, _ = compare_traces(b, a)
    assert abs(rel[0] - 0.02) < 1e-3


def test_compare_traces_different_grids():
    f = lambda x: np.sin(2.0 * np.pi * 1.3 * x) * np.exp(-0.2 * x)
    ta = np.arange(0.0, 15.0, 0.013)
    tb = np.arange(0.0, 14.0, 0.007)
    a = Waveform(times=ta, values=f(ta)[None, :])
    b = Waveform(times=tb, values=f(tb)[None, :])
    rel, lo, hi = compare_traces(a, b)
    assert rel[0] < 1e-6
    assert lo >= tb[0] and hi <= tb[-1]


def test_compare_traces_errors():
    t = np.arange(200) * 0.1
    a = Waveform(times=t, values=np.zeros((1, 200)))
    b = Waveform(times=t, values=np.zeros((2, 200)))
    with pytest.raises(InvalidParameterError):
        compare_traces(a, b)
    with pytest.raises(DegenerateInputError):
        compare_traces(a, a)
    short = Waveform(times=t[:10], values=np.zeros((1, 10)))
    with pytest.raises(InvalidParameterError):
        compare_traces(short, short)


def test_arrival_time_interpolates():
    t = np.arange(0.0, 10.0, 0.05)
    pulse = np.exp(-0.5 * ((t - 4.0) / 0.3) ** 2)
    wf = Waveform(times=t, values=pulse[None, :])
    # half-max crossing of a unit Gaussian: t_peak - sigma sqrt(2 ln 2)
    expect = 4.0 - 0.3 * np.sqrt(2.0 * np.log(2.0))
    assert abs(arrival_time(wf) - expect) < 0.05
    with pytest.raises(DegenerateInputError):
        arrival_time(Waveform(times=t, values=np.zeros((1, t.size))))
