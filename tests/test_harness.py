"""Experiment driver tests on a small free-space scenario."""

import json

import numpy as np
import pytest

import wavecast.harness
from wavecast.errors import BreakdownError, ConfigurationError
from wavecast.harness import ComparisonReport, _csv_units, run_study
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
    assert report.worst_error == max(report.probe_errors)


def test_run_matches_analytic(mini_run):
    report, _, _ = mini_run
    # 10 points per minimum wavelength: dispersion floor is a few percent
    assert report.worst_error < 0.1


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
    assert 0.0 <= payload["metadata"]["lanczos_drift"] < 1e-6
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
    assert report.worst_error is None
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
    assert 0.0 <= payload["metadata"]["lanczos_drift"] < 1e-6


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


def test_breakdown_retreat(monkeypatch):
    real = bilanczos
    calls = []

    def flaky(op, b, m, probe_indices=None, **kw):
        calls.append(m)
        if len(calls) == 1:
            raise BreakdownError("synthetic collapse", index=120)
        return real(op, b, m, probe_indices=probe_indices, **kw)

    monkeypatch.setattr(wavecast.harness, "bilanczos", flaky)
    report, _ = run_study(_mini(), (160,))
    assert calls == [160, 118]
    assert report.m == 118
    assert report.metadata["m_requested"] == 160
    assert report.worst_error < 0.3


def test_breakdown_without_index_propagates(monkeypatch):
    def dead(op, b, m, probe_indices=None, **kw):
        raise BreakdownError("no usable prefix")

    monkeypatch.setattr(wavecast.harness, "bilanczos", dead)
    with pytest.raises(BreakdownError):
        run_study(_mini(), (160,))


def test_breakdown_at_start_propagates(monkeypatch):
    def dead(op, b, m, probe_indices=None, **kw):
        raise BreakdownError("collapse at the first step", index=2)

    monkeypatch.setattr(wavecast.harness, "bilanczos", dead)
    with pytest.raises(BreakdownError):
        run_study(_mini(), (160,))


def test_study_clamps_m_list_after_retreat(monkeypatch):
    real = bilanczos
    calls = []

    def flaky(op, b, m, probe_indices=None, **kw):
        calls.append(m)
        if len(calls) == 1:
            raise BreakdownError("synthetic collapse", index=120)
        return real(op, b, m, probe_indices=probe_indices, **kw)

    monkeypatch.setattr(wavecast.harness, "bilanczos", flaky)
    sc = _mini()
    report, _ = run_study(sc, sc.m_list)
    # 160 fell past the retreat point, so only the surviving entries run
    assert [e["m"] for e in report.convergence] == [40, 100]
    assert report.m == 100


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
