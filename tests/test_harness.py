"""Experiment driver tests on a small free-space scenario."""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import wavecast.fdtd
import wavecast.harness
import wavecast.krylov as krylov
from wavecast import _native
from wavecast.errors import BreakdownError, ConfigurationError, PrecisionError
from wavecast.harness import ComparisonReport, _csv_units, _git_hash, run_study
from wavecast.krylov import bilanczos
from wavecast.scenarios import Scenario
from wavecast.signals import Waveform


def _mini(**overrides):
    fields = dict(
        name="mini",
        omega_min=np.pi,
        omega_max=4.0 * np.pi,
        n_int=40,
        k=3,
        t_final=6.0,
        source_xy=(0.0, 0.0),
        probes=((0.3, 0.0),),
        reference="analytic",
        m_default=160,
        m_list=(40, 100, 160),
    )
    fields.update(overrides)
    return Scenario(**fields).validate()


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini-run")
    sc = _mini()
    report, waveforms = run_study(sc, (sc.m_default,), out_dir=out)
    return report, waveforms, out


@pytest.fixture(scope="module")
def mini_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini-study")
    sc = _mini()
    report, waveforms = run_study(sc, sc.m_list, out_dir=out)
    return report, waveforms, out


def test_run_report_fields(mini_run):
    report, waveforms, _ = mini_run
    assert report.scenario == "mini"
    assert report.m == 160
    assert report.probe_names == ("probe1",)
    assert report.fdtd_steps is None
    assert set(waveforms) == {"lanczos", "reference"}
    assert len(report.probe_errors) == 1


def test_run_matches_analytic(mini_run):
    report, _, _ = mini_run
    # 10 points per minimum wavelength: dispersion floor is a few percent
    assert max(report.probe_errors) < 0.1


def test_run_artifacts(mini_run):
    _, _, out = mini_run
    for name in ("lanczos.csv", "reference.csv", "report.json"):
        assert (out / name).exists()
    payload = json.loads((out / "report.json").read_text())
    assert payload["metadata"]["config"]["omega_max"] == pytest.approx(4 * np.pi)
    assert payload["metadata"]["n_unknown"] == (40 + 2 * 3 - 1) ** 2
    assert payload["timings"]["lanczos_s"] > 0.0
    timings = payload["timings"]
    assert 0.0 < timings["eigensolve_s"] <= timings["evaluate_s"]
    assert 0.0 <= payload["metadata"]["recon_error"] < 1e-8
    assert payload["metadata"]["modes_merged"] >= 0
    assert payload["metadata"]["m_requested"] == 160
    assert payload["metadata"]["lanczos_stop"] == "m"
    assert 0.0 < payload["metadata"]["lanczos_drift"] < 1e-6
    # this process's peak, taken at the end of the run, by the same
    # counter (VmHWM; ru_maxrss may hold a parent's larger peak or, with
    # its rounding, a smaller one)
    peak_now = wavecast.harness._peak_rss_mb()
    assert 0.0 < payload["metadata"]["peak_rss_mb"] <= peak_now
    # run is a study of one m
    assert [e["m"] for e in payload["convergence"]] == [160]
    assert payload["convergence"][0]["errors"] == payload["probe_errors"]


def test_run_trace_covers_window(mini_run):
    _, waveforms, _ = mini_run
    wf = waveforms["lanczos"]
    # padded past t_final so the comparison guard stays off the window
    assert wf.times[0] == 0.0
    assert wf.times[-1] > 6.0


def test_run_without_reference(tmp_path):
    sc = _mini(reference="none")
    report, waveforms = run_study(sc, (sc.m_default,), out_dir=tmp_path)
    assert report.probe_errors is None
    assert report.convergence == ()
    assert "reference" not in waveforms
    assert not (tmp_path / "reference.csv").exists()
    assert (tmp_path / "lanczos.csv").exists()


def test_study_entries(mini_study):
    report, _, _ = mini_study
    ms = [e["m"] for e in report.convergence]
    assert ms == [40, 100, 160]
    errs = [e["errors"][0] for e in report.convergence]
    assert errs[-1] < errs[0]
    assert report.probe_errors == tuple(report.convergence[-1]["errors"])


def test_study_artifacts(mini_study):
    _, _, out = mini_study
    payload = json.loads((out / "report.json").read_text())
    assert len(payload["convergence"]) == 3
    assert (out / "lanczos.csv").exists()
    assert (out / "reference.csv").exists()
    timings = payload["timings"]
    assert 0.0 < timings["eigensolve_s"] <= timings["evaluate_s"]
    assert 0.0 <= payload["metadata"]["recon_error"] < 1e-8
    assert payload["metadata"]["modes_merged"] >= 0
    assert payload["metadata"]["m_requested"] == 160
    assert payload["metadata"]["lanczos_stop"] == "m"
    assert 0.0 < payload["metadata"]["lanczos_drift"] < 1e-6


def test_study_single_mode_is_useless():
    report, _ = run_study(_mini(), (1, 60))
    first = report.convergence[0]
    assert first["m"] == 1
    assert first["errors"][0] > 0.5


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(ms=()), "nonempty"),
        (dict(ms=(100, 100)), "increasing"),
        (dict(ms=(100, 50)), "increasing"),
        (dict(ms=(0, 20)), ">= 1"),
    ],
)
def test_study_rejects_bad_m_list(kwargs, needle):
    with pytest.raises(ConfigurationError, match=needle):
        run_study(_mini(), **kwargs)


def test_csv_units_seconds():
    wf = Waveform(
        times=np.array([0.0, 1.0, 2.0]),
        values=np.zeros((1, 3)),
        probe_names=("probe1",),
    )
    sc = _mini(l_ref=2.0)
    out = _csv_units(sc, wf)
    np.testing.assert_allclose(out.times, wf.times * 2.0 / 299792458.0)
    sc_plain = _mini()
    assert _csv_units(sc_plain, wf) is wf


# On _mini(), |delta_i| / max |M| first drops below 3e-6 at i = 70, and
# is 7.3e-4 at i = 1.
_COLLAPSE_AT_70 = 3e-6


def _count_bilanczos(monkeypatch):
    """Record the m of every recursion run the harness starts."""
    calls = []

    def counted(op, b, m, probe_indices):
        calls.append(m)
        return bilanczos(op, b, m, probe_indices)

    monkeypatch.setattr(wavecast.harness, "bilanczos", counted)
    return calls


def test_breakdown_retreat(monkeypatch):
    clean, clean_wf = run_study(_mini(), (68,))
    calls = _count_bilanczos(monkeypatch)
    monkeypatch.setattr(krylov, "_BREAKDOWN_TOL", _COLLAPSE_AT_70)
    report, waveforms = run_study(_mini(), (160,))
    assert calls == [160]  # the recursion runs once
    assert report.m == 68
    assert report.metadata["m_requested"] == 160
    assert report.metadata["lanczos_stop"] == "breakdown"
    assert clean.metadata["lanczos_stop"] == "m"
    # the trace is the one a request for m = 68 gives
    assert np.array_equal(waveforms["lanczos"].values,
                          clean_wf["lanczos"].values)
    assert report.probe_errors == clean.probe_errors
    assert max(report.probe_errors) < 0.3


@pytest.mark.parametrize("reference, ends, threads", [
    pytest.param("fdtd", "after-eigensolve", (4, 4, 4), id="fdtd-4"),
    pytest.param("fdtd", "before-eigensolve", (4, 4, 1), id="fdtd-4-done"),
    pytest.param("analytic", "before-eigensolve", (4, 4, None),
                 id="analytic-4"),
    pytest.param("none", None, (4, 4, None), id="none-4"),
])
def test_fdtd_reference_holds_a_cpu(monkeypatch, reference, ends, threads):
    # (lanczos_threads, eig_threads, reference_threads): the recursion
    # runs alone on every CPU, and so do the polish, the inverse
    # iteration and the impulse, whether a reference runs beside them or
    # not.  Only the march yields: it runs on one row block until the
    # last trace is evaluated, then on every CPU.  The reference is held
    # until the eigensolve returns and the harness sets alone, or it ends
    # before the eigensolve starts
    monkeypatch.setattr(_native, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(krylov, "_ROWS_PER_WORKER", 1)
    jobs, release = [], threading.Event()
    stages, ritz = [], krylov._ritz_kernel()
    for name in ("ritz_polish", "ritz_vectors", "impulse"):
        def spy(nt, *args, run=getattr(ritz, name)):
            stages.append(nt)
            return run(nt, *args)
        monkeypatch.setattr(ritz, name, spy)

    class Pool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            jobs.append(super().submit(*args, **kwargs))
            return jobs[-1]

    reference_waveform = wavecast.harness._reference_waveform
    eigen = wavecast.harness.eigen_tridiag

    def held_reference(*args):
        assert release.wait(timeout=60.0)
        if ends == "after-eigensolve":
            assert args[-1].wait(timeout=60.0)  # alone
        return reference_waveform(*args)

    def eigen_between(*args, **kwargs):
        if ends == "before-eigensolve":
            release.set()
            for job in jobs:
                job.result(timeout=60.0)
        modes = eigen(*args, **kwargs)
        release.set()
        return modes

    monkeypatch.setattr(wavecast.harness, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(wavecast.harness, "_reference_waveform",
                        held_reference)
    monkeypatch.setattr(wavecast.harness, "eigen_tridiag", eigen_between)
    report, _ = run_study(_mini(reference=reference), (40,))
    assert (report.metadata["lanczos_threads"],
            report.metadata["eig_threads"],
            report.metadata["reference_threads"]) == threads
    assert stages == [4, 4, 4]


def test_march_starts_after_the_recursion(monkeypatch):
    # the reference is submitted once bilanczos has returned, so the
    # march never shares a core with the recursion
    events = []
    lanczos, fdtd = wavecast.harness.bilanczos, wavecast.harness.run_fdtd

    def recursion(*args):
        events.append("recursion starts")
        decomp = lanczos(*args)
        events.append("recursion returns")
        return decomp

    def march(**kw):
        events.append("march starts")
        return fdtd(**kw)

    monkeypatch.setattr(wavecast.harness, "bilanczos", recursion)
    monkeypatch.setattr(wavecast.harness, "run_fdtd", march)
    run_study(_mini(reference="fdtd"), (40,))
    assert events == ["recursion starts", "recursion returns", "march starts"]


def test_breakdown_without_index_propagates(monkeypatch):
    # bilanczos always sets the index; an error without one must still
    # reach the caller unchanged
    def dead(op, b, m, probe_indices):
        raise BreakdownError("no usable prefix")

    monkeypatch.setattr(wavecast.harness, "bilanczos", dead)
    with pytest.raises(BreakdownError) as exc:
        run_study(_mini(), (160,))
    assert exc.value.index is None


def test_breakdown_at_start_propagates(monkeypatch):
    calls = _count_bilanczos(monkeypatch)
    monkeypatch.setattr(krylov, "_BREAKDOWN_TOL", 1e-2)
    with pytest.raises(BreakdownError) as exc:
        run_study(_mini(), (160,))
    assert exc.value.index == 1
    assert calls == [160]


def test_study_clamps_m_list_after_retreat(monkeypatch):
    calls = _count_bilanczos(monkeypatch)
    monkeypatch.setattr(krylov, "_BREAKDOWN_TOL", _COLLAPSE_AT_70)
    sc = _mini()
    report, _ = run_study(sc, sc.m_list)
    assert calls == [160]
    # 100 and 160 fell past the retreat point (m = 68), so only the
    # surviving entry runs
    assert [e["m"] for e in report.convergence] == [40]
    assert report.m == 40
    assert report.metadata["lanczos_stop"] == "breakdown"


def test_reference_wait_is_reported(mini_run):
    timings = mini_run[0].timings
    assert 0.0 <= timings["reference_wait_s"] <= timings["reference_s"]


def _fail(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


# (stage that fails on the Krylov route, error the run must raise when
# the reference fails too): the error of a run that takes one stage
# after another, where the reference comes after Lanczos and before any
# eigensolve
_FAILURES = [
    (None, ConfigurationError),
    ("bilanczos", BreakdownError),
    ("eigen_tridiag", ConfigurationError),
]


@pytest.mark.parametrize("stage, expected", _FAILURES)
def test_failed_routes_raise_in_stage_order(monkeypatch, stage, expected):
    monkeypatch.setattr(wavecast.harness, "_reference_waveform",
                        _fail(ConfigurationError("reference failed")))
    if stage == "bilanczos":
        monkeypatch.setattr(wavecast.harness, stage,
                            _fail(BreakdownError("krylov failed", index=1)))
    elif stage == "eigen_tridiag":
        monkeypatch.setattr(wavecast.harness, stage,
                            _fail(PrecisionError("krylov failed")))
    with pytest.raises(expected):
        run_study(_mini(), (40,))


@pytest.mark.parametrize("stage", ["bilanczos", "eigen_tridiag", None])
def test_run_study_leaves_no_thread_behind(monkeypatch, stage):
    before = threading.active_count()
    if stage is None:
        run_study(_mini(), (40,))
    else:
        monkeypatch.setattr(wavecast.harness, stage,
                            _fail(PrecisionError("krylov failed")))
        with pytest.raises(PrecisionError):
            run_study(_mini(), (40,))
    assert threading.active_count() == before


@pytest.mark.parametrize("stage, error, stops", [
    ("bilanczos", KeyboardInterrupt("ctrl-c"), True),
    ("bilanczos", BreakdownError("krylov failed", index=1), True),
    ("eigen_tridiag", PrecisionError("krylov failed"), False),
    ("eigen_tridiag", KeyboardInterrupt("ctrl-c"), True),
])
def test_krylov_failure_stops_the_march(monkeypatch, tmp_path, stage, error,
                                        stops):
    # a failed or interrupted recursion starts no march, and an
    # interrupt during the eigensolve stops the march within a chunk of
    # steps; either way no reference is written.  An eigensolve failure
    # still waits for the whole march, whose error would go first.  The
    # chunks here are 4 steps and take 1 ms each, about 0.45 s in all.
    late, outcome, cancels = [], [], []
    marching = threading.Event()
    fdtd = wavecast.harness.run_fdtd
    kernel = wavecast.fdtd._fdtd_kernel()

    class CountingKernel:
        simd = kernel.simd

        @staticmethod
        def fdtd_march(*args):  # called once per chunk
            if cancels[0].is_set():
                late.append(args)
            marching.set()
            time.sleep(1e-3)
            return kernel.fdtd_march(*args)

    def counting_fdtd(**kw):
        cancels.append(kw["cancel"])
        try:
            res = fdtd(**kw)
        except CancelledError:
            outcome.append("cancelled")
            raise
        outcome.append("finished")
        return res

    monkeypatch.setattr(wavecast.fdtd, "_fdtd_kernel", CountingKernel)
    monkeypatch.setattr(wavecast.fdtd, "_CHUNK_STEPS", 4)

    def fail(*args, **kwargs):
        if stage == "eigen_tridiag":
            assert marching.wait(timeout=60.0)
        raise error

    monkeypatch.setattr(wavecast.harness, "run_fdtd", counting_fdtd)
    monkeypatch.setattr(wavecast.harness, stage, fail)
    with pytest.raises(type(error)):
        run_study(_mini(reference="fdtd", t_final=60.0), (40,),
                  out_dir=tmp_path)
    if stage == "bilanczos":
        assert not cancels
    elif stops:
        assert outcome == ["cancelled"] and len(late) <= 1
    else:
        assert outcome == ["finished"] and not late
    assert (tmp_path / "reference.csv").exists() == (not stops)


def test_report_json_round_trip(tmp_path):
    report = ComparisonReport(
        scenario="x",
        m=10,
        probe_names=("probe1",),
        probe_errors=(0.5,),
        convergence=({"m": 10, "errors": [0.5]},),
        fdtd_steps=None,
        timings={"lanczos_s": 1.0},
        metadata={"chi": 100.0},
    )
    path = tmp_path / "r.json"
    report.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["scenario"] == "x"
    assert payload["probe_errors"] == [0.5]


def test_git_hash_is_the_package_checkout(tmp_path, monkeypatch):
    # the hash of the checkout the package runs from, whatever the
    # working directory: outside any repository, or inside another one
    package = Path(wavecast.harness.__file__).parent
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=package, capture_output=True, text=True)
    except OSError:
        pytest.skip("git is not installed")
    if out.returncode != 0:
        pytest.skip("the sources are not a git checkout")
    want = out.stdout.strip()
    monkeypatch.chdir(tmp_path)
    assert _git_hash() == want
    git = ["git", "-c", "user.name=x", "-c", "user.email=x@x",
           "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "other"],
                   cwd=tmp_path, check=True)
    assert _git_hash() == want


def test_git_hash_timeout_is_unknown(monkeypatch):
    def hung(command, **kwargs):
        raise subprocess.TimeoutExpired(command, kwargs["timeout"])

    monkeypatch.setattr(wavecast.harness.subprocess, "run", hung)
    assert _git_hash() == "unknown"


_RUN_PAPER_RING = """
import dataclasses, sys
from wavecast.harness import run_study
from wavecast.scenarios import get_scenario
sc = dataclasses.replace(get_scenario("ring"), reference="none")
run_study(sc, (5000,), out_dir=sys.argv[1])
"""


@pytest.mark.paper
def test_paper_ring_peak_stays_below_the_eigenvector_matrix(tmp_path):
    # opt-in (pytest -m paper): paper ring at m = 5 000, without a
    # reference, in a fresh process; the eigensolve streams its vectors,
    # so the run's peak stays below the 400 MB that the m x m
    # eigenvector matrix alone would take (it read 425 MB with it)
    subprocess.run(
        [sys.executable, "-c", _RUN_PAPER_RING, str(tmp_path)],
        capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    metadata = json.loads((tmp_path / "report.json").read_text())["metadata"]
    assert metadata["m"] == 5000
    assert metadata["peak_rss_mb"] < 400.0
