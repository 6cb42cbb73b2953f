"""Acceptance gate: ten numbered guarantees, one test each.

`pytest tests/test_acceptance.py -v` gives one PASS/FAIL line per
guarantee; add `-s` to see the measured numbers behind each verdict.
The whole module runs in about a minute, dominated by the three
convergence studies.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from wavecast.analytic import analytic_homogeneous
from wavecast.fdtd import run_fdtd
from wavecast.grid import build_grid2d
from wavecast.krylov import (
    bilanczos,
    convolve_source,
    eigen_tridiag,
    evaluate_impulse,
)
from wavecast.harness import run_study
from wavecast.operator import MediumMap, assemble_operator
from wavecast.scenarios import get_scenario
from wavecast.signals import make_wavelet
from wavecast.zolotarev import (
    SpectralInterval,
    impedance_error,
    to_continued_fraction,
    zolotarev_approx,
)

from support import probe_index, sc_resolvent_dense, uncorrected_impulse


def _study(name):
    sc = get_scenario(name)
    return run_study(sc, sc.m_list)[0]


def _verdict(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def hom_study():
    return _study("homogeneous-desk")


@pytest.fixture(scope="module")
def ring_study():
    return _study("ring-desk")


@pytest.fixture(scope="module")
def waveguide_study():
    return _study("waveguide-desk")


@pytest.fixture(scope="module")
def ring_modes():
    """Ring scenario decomposed at its default order, via public calls."""
    sc = get_scenario("ring-desk")
    steps = to_continued_fraction(zolotarev_approx(sc.interval(), sc.k))
    grid = build_grid2d(sc.n_int, steps)
    medium = MediumMap.from_function(grid, sc.medium_fn())
    op = assemble_operator(grid, medium)
    b, _ = op.sample_source(*sc.source_xy, amplitude=sc.amplitude)
    probes = [probe_index(op, x, y) for x, y in sc.probes]
    dec = bilanczos(op, b, sc.m_default, probes)
    return sc, eigen_tridiag(dec)


def _entry_errors(report):
    return [(e["m"], max(e["errors"])) for e in report.convergence]


# ------------------------------------------------------------ the gate


def test_criterion_01_rational_error_level():
    iv = SpectralInterval(-1e4, -1.0)
    t0 = time.perf_counter()
    imp = zolotarev_approx(iv, 9)
    sampled = impedance_error(imp, iv)[1].max()
    elapsed = time.perf_counter() - t0
    lo, hi = 0.8 * 1.4568e-6, 1.2 * 1.4568e-6
    ok = (
        lo <= imp.max_error <= hi
        and lo <= sampled <= hi
        and abs(sampled - imp.max_error) <= 1e-2 * imp.max_error
        and elapsed < 1.0
    )
    _verdict(
        1,
        ok,
        f"chi=1e4 k=9: analytic {imp.max_error:.6e}, sampled "
        f"{sampled:.6e}, band [{lo:.3e}, {hi:.3e}], {elapsed:.2f} s < 1 s",
    )


def test_criterion_02_error_decay_rate():
    iv = SpectralInterval(-1e4, -1.0)
    ks = np.arange(5, 13)
    t0 = time.perf_counter()
    errs = [zolotarev_approx(iv, int(k)).max_error for k in ks]
    elapsed = time.perf_counter() - t0
    rate = -np.polyfit(ks, np.log(errs), 1)[0]
    target = np.pi**2 / (2.0 * np.log10(1e4))
    ok = target / 2.0 <= rate <= 2.0 * target and elapsed < 5.0
    _verdict(
        2,
        ok,
        f"fitted decay {rate:.4f} per order vs pi^2/(2 log10 chi) = "
        f"{target:.4f} (factor {rate / target:.3f}, allowed 0.5..2), "
        f"{elapsed:.2f} s < 5 s",
    )


def test_criterion_03_ladder_round_trip():
    iv = SpectralInterval(-1e4, -1.0)
    worst = 0.0
    positive = True
    for k in range(1, 16):
        steps = to_continued_fraction(zolotarev_approx(iv, k))
        worst = max(worst, steps.roundtrip_error)
        positive = positive and np.all(steps.gamma > 0.0) and np.all(
            steps.gamma_hat > 0.0
        )
    ok = worst <= 1e-10 and positive
    _verdict(
        3,
        ok,
        f"k = 1..15: worst pole/residue round trip {worst:.3e} <= 1e-10, "
        f"all ladder steps positive: {positive}",
    )


def test_criterion_04_resolvent_real_part_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 101))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = g + g.T
        d = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-1.0, 1.0, n))
        a = c / d[:, None]  # diag(d) a symmetric: weighted symmetry
        # keep the spectrum clear of the branch cut (-inf, 0]
        ev = np.linalg.eigvals(a)
        strip = np.abs(ev.imag) < 0.5
        lo = ev.real[strip].min() if strip.any() else 1.0
        if lo < 0.5:
            a = a + (0.5 - lo) * np.eye(n)
        b = rng.standard_normal(n)
        nb = np.linalg.norm(b)
        lams = -np.geomspace(1e-3, 1e3, 20)
        # one call per matrix: the 20 shifts share one sqrt(A)
        for lam, got in zip(lams, (sc_resolvent_dense(lams, a) @ b).real):
            ref = np.linalg.solve(a - lam * np.eye(n), b).real
            worst = max(worst, np.linalg.norm(got - ref) / nb)
    ok = worst <= 1e-9
    _verdict(
        4,
        ok,
        f"20 weighted-symmetric matrices x 20 shifts in [-1e3, -1e-3]: "
        f"worst |Re f(lam, A) b - Re (A - lam I)^-1 b| / |b| = "
        f"{worst:.3e} <= 1e-9",
    )


def _energy_gap(w, dt):
    """Relative gap between time energy and the half-axis quadrature of
    the squared real spectrum (valid for causal real signals)."""
    lhs = np.trapezoid(w * w, dx=dt)
    pad = 1 << int(np.ceil(np.log2(w.size * 8)))
    fre = (np.fft.rfft(w, n=pad) * dt).real
    dw = 2.0 * np.pi / (pad * dt)
    rhs = (2.0 / np.pi) * np.trapezoid(fre * fre, dx=dw)
    return abs(lhs - rhs) / lhs


def test_criterion_05_causal_energy_identity():
    sig = make_wavelet(2.0, 8.0)
    dt = 0.005
    t = np.arange(0.0, sig.t0 + 8.0 * sig.sigma, dt)
    gaps = [_energy_gap(np.asarray(sig(t)), dt)]
    t = np.arange(0.0, 50.0, 0.002)
    gaps.append(_energy_gap(t * np.exp(-t) * np.sin(5.0 * t), 0.002))
    t = np.arange(0.0, 30.0, 0.002)
    gaps.append(_energy_gap(t**2 * np.exp(-2.0 * t) * np.cos(3.0 * t), 0.002))
    # control: an even pulse straddling t = 0 must break the identity
    t = np.arange(0.0, 40.0, 0.005)
    w = np.exp(-0.5 * (t - 20.0) ** 2) * np.cos(4.0 * (t - 20.0))
    lhs = np.trapezoid(w * w, dx=0.005)
    pad = 1 << int(np.ceil(np.log2(w.size * 8)))
    om = np.arange(pad // 2 + 1) * 2.0 * np.pi / (pad * 0.005)
    fre = (np.fft.rfft(w, n=pad) * 0.005 * np.exp(1j * om * 20.0)).real
    control = abs(lhs - (2.0 / np.pi) * np.trapezoid(fre**2, dx=om[1])) / lhs
    ok = max(gaps) <= 1e-3 and control > 0.5
    _verdict(
        5,
        ok,
        f"three causal signals: worst gap {max(gaps):.3e} <= 1e-3; "
        f"acausal control gap {control:.3f} > 0.5",
    )


def test_criterion_06_full_order_matches_dense():
    steps = to_continued_fraction(
        zolotarev_approx(SpectralInterval(-25.0, -1.0), 2)
    )

    def disk(x, y):
        return 1.0 + 1.5 * (((x - 0.3) ** 2 + (y + 0.2) ** 2) < 0.35**2)

    def blob(x, y):
        return 1.0 + 0.8 * np.exp(-((x + 0.4) ** 2 + (y - 0.1) ** 2) / 0.1)

    times = np.linspace(0.0, 3.0, 25)
    worst = 0.0
    for fn in (None, disk, blob):
        grid = build_grid2d(7, steps)  # (7 + 2*2 - 1)^2 = 100 unknowns
        medium = MediumMap.from_function(grid, fn) if fn else None
        op = assemble_operator(grid, medium)
        b, _ = op.sample_source(-0.25, 0.1)
        probes = [probe_index(op, 0.4, 0.3), probe_index(op, -0.1, -0.5)]
        modes = eigen_tridiag(bilanczos(op, b, op.n, probes))
        mine = evaluate_impulse(modes, times)
        a = op.a_mat.toarray()
        s = scipy.linalg.sqrtm(a).astype(complex)
        sb = np.linalg.solve(s, b.astype(complex))
        oracle = np.empty_like(mine)
        for j, t in enumerate(times):
            oracle[:, j] = (scipy.linalg.expm(-s * t) @ sb)[probes].real
        worst = max(
            worst, np.linalg.norm(mine - oracle) / np.linalg.norm(oracle)
        )
    ok = worst <= 1e-8
    _verdict(
        6,
        ok,
        f"three media at n = m = 100: worst trace mismatch vs dense "
        f"matrix-function oracle {worst:.3e} <= 1e-8",
    )


def test_criterion_07_long_window_stability(ring_modes):
    sc, modes = ring_modes
    dt = 2.0 * np.pi / sc.omega_max / sc.samples_per_period
    times = np.arange(0.0, 10.0 * sc.t_final + dt, dt)
    q = np.asarray(sc.signature()(times))
    u = convolve_source(evaluate_impulse(modes, times), q, dt, sc.omega_max)
    early = np.abs(u[:, times <= sc.t_final]).max()
    full = np.abs(u).max()
    ok_stable = np.isfinite(u).all() and full <= 10.0 * early
    # negative control: the growing kernel, on a grid capped per mode so
    # exp stays under float64 overflow (budget e^600 ~ 3.8e260)
    root = np.sqrt(modes.theta.astype(complex))
    amp = np.log(
        np.abs(modes.zeta1 * modes.residues[0] / root)
        + 1e-300
    )
    t_cap = float(np.min((600.0 - amp) / root.real))
    tc = np.arange(0.0, min(t_cap, 10.0 * sc.t_final), dt)
    ku = uncorrected_impulse(modes, tc)
    head = max(np.abs(ku[:, : max(2, tc.size // 10)]).max(), 1e-300)
    growth = np.abs(ku).max() / head
    ok_control = np.isfinite(ku).all() and growth > 1e3
    _verdict(
        7,
        ok_stable and ok_control,
        f"stable trace on [0, {10.0 * sc.t_final:g}]: max/early-peak "
        f"{full / early:.3f} <= 10; uncorrected kernel growth "
        f"{growth:.3e} > 1e3 (grid capped at t = {tc[-1]:.2f})",
    )


def test_criterion_08_homogeneous_accuracy(hom_study):
    sc = get_scenario("homogeneous-desk")
    ppw = np.pi * sc.n_int / sc.omega_max
    errs = _entry_errors(hom_study)
    final = max(hom_study.probe_errors)
    # monotone after the transient: allow 10% oscillation between entries
    tail = [e for _, e in errs]
    start = next(i for i, e in enumerate(tail) if e < 0.5)
    monotone = all(
        tail[i + 1] <= 1.1 * tail[i] for i in range(start, len(tail) - 1)
    )
    ok = ppw >= 18.0 and final <= 0.02 and monotone
    curve = ", ".join(f"m={m}: {e:.3e}" for m, e in errs)
    _verdict(
        8,
        ok,
        f"{ppw:.1f} points per min wavelength >= 18; final error "
        f"{final:.3e} <= 2e-2 vs closed form; curve [{curve}] "
        f"monotone within 10% after the transient: {monotone}",
    )


def test_criterion_09_structured_media_vs_reference(
    ring_study, waveguide_study
):
    details = []
    ok = True
    for report in (ring_study, waveguide_study):
        errs = _entry_errors(report)
        m_conv = next((m for m, e in errs if e <= 0.05), None)
        final = max(report.probe_errors)
        good = (
            final <= 0.05
            and m_conv is not None
            and m_conv < report.fdtd_steps
        )
        ok = ok and good
        details.append(
            f"{report.scenario}: final {final:.3e} <= 5e-2, "
            f"m_conv {m_conv} < {report.fdtd_steps} marching steps, "
            f"wall clock {report.timings}"
        )
    _verdict(9, ok, "; ".join(details))


def test_criterion_10_reference_refinement_order():
    sig = make_wavelet(np.pi, 4.0 * np.pi)
    errs = []
    for n in (100, 200):
        res = run_fdtd(
            n_int=n,
            probes=[(0.36, 0.0)],
            source_xy=(0.0, 0.0),
            signature=sig,
            t_final=2.0,
        )
        ana = analytic_homogeneous(
            (0.0, 0.0), [(0.36, 0.0)], sig, res.waveform.times
        )
        errs.append(
            np.abs(res.waveform.values - ana.values).max()
            / np.abs(ana.values).max()
        )
    order = np.log2(errs[0] / errs[1])
    ok = 1.7 <= order <= 2.3
    _verdict(
        10,
        ok,
        f"marching reference vs closed form, n = 100 -> 200: observed "
        f"order {order:.2f} in [1.7, 2.3]",
    )
