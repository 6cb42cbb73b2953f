"""Reference-route tests: FDTD solver and free-space closed form."""

import numpy as np
import pytest
import scipy.special

import wavecast.analytic
import wavecast.fdtd
from wavecast.analytic import analytic_homogeneous
from wavecast.errors import InvalidParameterError
from wavecast.fdtd import run_fdtd, yee_setup
from wavecast.harness import _prepare
from wavecast.scenarios import PRESETS, get_scenario
from wavecast.signals import compare_traces, make_wavelet

from support import arrival_time, fdtd_oracle


BAND = (6.0, 30.0)


def _snapped(yee):
    """The (x, y) of the Ez nodes that a march's probes snap onto."""
    return tuple((yee.nodes[i], yee.nodes[j]) for i, j in yee.probes)


def _hankel_synthesis(r, signature, times, amplitude=1.0):
    """Independent frequency-domain route: outgoing Hankel kernel under
    the e^{-i omega t} transform, synthesized by irfft."""
    dt = times[1] - times[0]
    n = int(2 ** np.ceil(np.log2(8 * times.size)))
    omega = 2.0 * np.pi * np.fft.rfftfreq(n, dt)
    qhat = signature.spectrum(omega)
    kernel = np.zeros_like(qhat)
    kernel[1:] = 0.25j * scipy.special.hankel2(0, omega[1:] * r)
    u = np.fft.irfft(amplitude * qhat * kernel, n) / dt
    return u[: times.size]


def test_analytic_causality_and_smoothness():
    sig = make_wavelet(*BAND)
    t = np.linspace(0.0, 3.0, 900)
    (u,) = analytic_homogeneous((0.0, 0.0), [(0.4, 0.0)], sig, t).values
    # exactly zero before arrival at r = 0.4
    assert np.all(u[t <= 0.4] == 0.0)
    assert np.abs(u).max() > 0.0
    assert np.all(np.isfinite(u))


def test_analytic_matches_hankel_route():
    sig = make_wavelet(*BAND)
    r = 0.55
    dt = 2.0 * np.pi / BAND[1] / 24.0
    t = np.arange(0.0, 6.0, dt)
    (quad,) = analytic_homogeneous((0.0, 0.0), [(r, 0.0)], sig, t,
                                   amplitude=1.7).values
    hank = _hankel_synthesis(r, sig, t, amplitude=1.7)
    scale = np.abs(quad).max()
    assert np.max(np.abs(quad - hank)) < 1e-3 * scale


def test_analytic_quadrature_tolerance(monkeypatch):
    sig = make_wavelet(*BAND)
    t = np.linspace(0.8, 2.0, 7)

    def trace():
        return analytic_homogeneous((0.1, -0.2), [(0.5, 0.3)], sig, t).values

    monkeypatch.setattr(wavecast.analytic, "_REL_TOL", 1e-6)
    coarse = trace()
    monkeypatch.setattr(wavecast.analytic, "_REL_TOL", 1e-12)
    fine = trace()
    assert np.max(np.abs(coarse - fine)) < 1e-5 * np.abs(fine).max()


def test_analytic_validation():
    with pytest.raises(InvalidParameterError):
        analytic_homogeneous((0.0, 0.0), [(0.0, 0.0)], make_wavelet(*BAND),
                             np.array([0.5]))


def test_fdtd_energy_conservation_closed_box():
    # source-free lossless closed box, seeded by an initial Ez bump:
    # the staggered quadratic form is conserved to roundoff.  (A driven
    # run is not a fair conservation check: the wavelet keeps a tiny dc
    # component, so its integrated current never quite switches off.)
    res, energy = fdtd_oracle(
        n_int=40,
        probes=[(0.25, 0.25)],
        source_xy=None,
        signature=None,
        t_final=340.0,
        n_pml=0,
        track_energy=True,
        initial_ez=lambda x, y: np.exp(
            -((x - 0.1) ** 2 + (y + 0.05) ** 2) / (2.0 * 0.15 ** 2)
        ),
    )
    assert res.n_steps >= 10000
    e = energy
    assert e[0] > 0.0
    assert np.max(np.abs(e - e[0])) < 1e-10 * e[0]


def test_fdtd_energy_conservation_with_dielectric():
    res, energy = fdtd_oracle(
        n_int=36,
        probes=[(0.25, 0.25)],
        source_xy=None,
        signature=None,
        t_final=380.0,
        medium_fn=lambda x, y: 1.0 + 3.0 * ((x + 0.3) ** 2 + y ** 2 < 0.09),
        n_pml=0,
        track_energy=True,
        initial_ez=lambda x, y: np.exp(
            -((x - 0.3) ** 2 + (y - 0.2) ** 2) / (2.0 * 0.12 ** 2)
        ),
    )
    assert res.n_steps >= 10000
    e = energy
    assert np.max(np.abs(e - e[0])) < 1e-10 * e[0]


def test_fdtd_energy_conservation_below_unit_contrast():
    # eps = 0.2 in the disk: a wave speed above 1, which sets the step
    _, energy = fdtd_oracle(
        n_int=36,
        probes=[(0.25, 0.25)],
        source_xy=None,
        signature=None,
        t_final=60.0,
        medium_fn=lambda x, y: 1.0 - 0.8 * ((x + 0.3) ** 2 + y ** 2 < 0.09),
        n_pml=0,
        track_energy=True,
        initial_ez=lambda x, y: np.exp(
            -((x - 0.3) ** 2 + (y - 0.2) ** 2) / (2.0 * 0.12 ** 2)
        ),
    )
    e = energy
    assert np.max(np.abs(e - e[0])) < 1e-10 * e[0]


def _assert_march_matches_oracle(**kw):
    got = run_fdtd(**kw)
    want, _ = fdtd_oracle(**kw)
    assert got.n_steps == want.n_steps
    assert np.array_equal(got.waveform.times, want.waveform.times)
    assert np.array_equal(got.waveform.values, want.waveform.values)


def _preset_march(name, steps):
    """run_fdtd's arguments for the reference of preset name, as
    run_study passes them, over its first `steps` steps; the source node
    is a probe too, so the traces are not zero from the first step."""
    sc = get_scenario(name)
    asm = _prepare(sc)
    return dict(
        n_int=sc.n_int,
        probes=[asm.src_coords, *asm.probe_coords],
        source_xy=asm.src_coords,
        signature=sc.signature(),
        t_final=steps * wavecast.fdtd.time_step(sc.n_int, asm.eps_min),
        medium_fn=sc.medium_fn(),
        amplitude=sc.amplitude,
    )


_FDTD_PRESETS = sorted(n for n in PRESETS
                       if PRESETS[n]().reference == "fdtd")


@pytest.mark.parametrize("name", _FDTD_PRESETS)
def test_march_matches_numpy_oracle(name):
    # the compiled march gives the numpy march's bits: over 400 steps at
    # desk scale (past the wavelet's peak at the source), 40 at paper
    # scale
    _assert_march_matches_oracle(**_preset_march(
        name, 400 if name.endswith("-desk") else 40))


def _closed_box():
    """run_fdtd's arguments for a box without absorbing frame, with a
    dielectric disk, a source and a probe, in a window long enough for
    the walls to echo."""
    return dict(
        n_int=36,
        probes=[(0.25, 0.25), (-0.6, 0.1)],
        source_xy=(-0.1, 0.05),
        signature=make_wavelet(*BAND),
        t_final=6.0,
        medium_fn=lambda x, y: 1.0 + 3.0 * ((x + 0.3) ** 2 + y ** 2 < 0.09),
        amplitude=1.3,
        n_pml=0,
    )


def test_march_matches_numpy_oracle_closed_box():
    _assert_march_matches_oracle(**_closed_box())


@pytest.mark.parametrize("case", ["ring-desk", "closed box"])
def test_march_paths_are_bitwise(case, monkeypatch):
    # the AVX2 step (where the CPU has it) and the scalar one are the
    # same operations, so the whole ring-desk reference window (1 700
    # steps) and the closed box give the same bits on either path
    kw = _closed_box() if case == "closed box" else _preset_march(case, 1700)
    kernel = wavecast.fdtd._fdtd_kernel()
    runs = []
    for simd in sorted({kernel.simd, 0}, reverse=True):
        monkeypatch.setattr(kernel, "simd", simd)
        runs.append(run_fdtd(**kw).waveform.values)
    assert np.abs(runs[0]).max() > 0.0
    for got in runs[1:]:
        assert np.array_equal(got, runs[0])


@pytest.mark.paper
def test_paper_ring_march_matches_numpy_oracle():
    # opt-in (pytest -m paper): the first 300 steps of the paper-scale
    # ring reference
    _assert_march_matches_oracle(**_preset_march("ring", 300))


def test_fdtd_matches_analytic_and_pml_absorbs():
    # one fine homogeneous run: direct pulse matches the closed form,
    # and after it passes, the trace keeps following the infinite-
    # domain solution (no wall echo) while a closed box diverges
    sig = make_wavelet(*BAND)
    r = 0.4
    t_final = 2.6
    common = dict(
        n_int=200,
        probes=[(r, 0.0)],
        source_xy=(0.0, 0.0),
        signature=sig,
        t_final=t_final,
    )
    res = run_fdtd(**common)
    ana = analytic_homogeneous(
        (0.0, 0.0), [(r, 0.0)], sig, res.waveform.times
    )
    peak = np.abs(ana.values).max()
    err_pml = np.abs(res.waveform.values - ana.values).max()
    # honest dispersion level at ~21 points per minimum wavelength
    assert err_pml < 1e-2 * peak
    # closed box: echoes wreck the late window
    res_box = run_fdtd(**common, n_pml=0)
    err_box = np.abs(res_box.waveform.values - ana.values).max()
    assert err_box > 20.0 * err_pml


def test_fdtd_second_order_convergence():
    sig = make_wavelet(*BAND)
    # r chosen on-grid for every resolution so all runs probe the same
    # physical point; resolutions all inside the asymptotic range
    # (>= 10 points per minimum wavelength)
    r = 0.36
    errs = []
    for n in (100, 200, 400):
        res = run_fdtd(
            n_int=n,
            probes=[(r, 0.0)],
            source_xy=(0.0, 0.0),
            signature=sig,
            t_final=2.0,
        )
        yee = yee_setup(n, [(r, 0.0)], (0.0, 0.0), sig, 2.0, None, 10)
        assert _snapped(yee)[0] == pytest.approx((r, 0.0), abs=1e-12)
        ana = analytic_homogeneous(
            (0.0, 0.0), [(r, 0.0)], sig, res.waveform.times
        )
        errs.append(
            np.abs(res.waveform.values - ana.values).max()
            / np.abs(ana.values).max()
        )
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert 1.7 <= order1 <= 2.3
    assert 1.7 <= order2 <= 2.3


def test_fdtd_arrival_matches_analytic():
    sig = make_wavelet(*BAND)
    r = 0.5
    res = run_fdtd(
        n_int=120,
        probes=[(r, 0.0)],
        source_xy=(0.0, 0.0),
        signature=sig,
        t_final=2.2,
    )
    ana = analytic_homogeneous((0.0, 0.0), [(r, 0.0)], sig, res.waveform.times)
    t_f = arrival_time(res.waveform)
    t_a = arrival_time(ana)
    assert abs(t_f - t_a) <= 2.0 * res.waveform.dt


def test_fdtd_amplitude_linearity():
    sig = make_wavelet(*BAND)
    kw = dict(
        n_int=40,
        probes=[(0.3, 0.1)],
        source_xy=(0.0, 0.0),
        signature=sig,
        t_final=1.0,
    )
    one = run_fdtd(**kw, amplitude=1.0)
    big = run_fdtd(**kw, amplitude=2.3)
    assert np.allclose(
        big.waveform.values, 2.3 * one.waveform.values, atol=1e-14
    )


def test_fdtd_slower_medium_delays_arrival():
    sig = make_wavelet(*BAND)
    kw = dict(
        n_int=80,
        probes=[(0.5, 0.0)],
        source_xy=(0.0, 0.0),
        signature=sig,
        t_final=3.0,
    )
    fast = run_fdtd(**kw)
    slow = run_fdtd(**kw, medium_fn=lambda x, y: np.full_like(x, 4.0))
    # eps = 4 halves the speed: the extra travel time over r = 0.5 is
    # 0.5/0.5 - 0.5/1 = 0.5 (arrival picks share the source delay t0,
    # so compare differences, not ratios)
    t_fast = arrival_time(fast.waveform)
    t_slow = arrival_time(slow.waveform)
    assert 0.38 < t_slow - t_fast < 0.68


def test_fdtd_validation():
    sig = make_wavelet(*BAND)
    with pytest.raises(InvalidParameterError):
        run_fdtd(2, [(0.1, 0.1)], (0.0, 0.0), sig, 1.0)
    with pytest.raises(InvalidParameterError):
        run_fdtd(40, [(1.5, 0.0)], (0.0, 0.0), sig, 1.0)
    with pytest.raises(InvalidParameterError):
        run_fdtd(40, [(0.1, 0.0)], (0.0, 0.0), None, 1.0)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_fdtd_and_operator_solve_one_medium(name):
    # the reference marches on the operator's medium and samples its
    # nodes, bit for bit: the interior eps (as the 1/eps both updates
    # use) and the snapped source and probe coordinates
    sc = get_scenario(name)
    asm = _prepare(sc)
    n_pml = 10  # run_fdtd's frame
    yee = yee_setup(sc.n_int, [sc.source_xy, *sc.probes], None, None, 1e-9,
                    sc.medium_fn(), n_pml)  # probes snapped as the source
    inner, k = slice(n_pml + 1, n_pml + sc.n_int), sc.k
    assert np.array_equal(1.0 / yee.eps[inner, inner],
                          asm.op.inv_c[k:-k, k:-k])
    assert _snapped(yee) == (asm.src_coords, *asm.probe_coords)
