"""Command-line interface: artifacts, exit codes, file formats."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import wavecast.harness
from wavecast.cli import main
from wavecast.errors import BreakdownError
from wavecast.signals import Waveform

MINI_CFG = """
[scenario]
name = mini
reference = analytic
t_final = 6.0
l_ref = 2.0e-6

[band]
omega_min = 3.14159265358979
omega_max = 12.5663706143592

[discretization]
n_int = 40

[solvers]
k = 3
m = 160
m_list = 60, 120, 160

[source]
x = 0.0
y = 0.0

[probes]
probe1 = 0.3, 0.0
"""


@pytest.fixture()
def mini_cfg(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_CFG, encoding="utf-8")
    return path


def test_run_writes_artifacts(mini_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(mini_cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "rel_error" in text
    for name in ("lanczos.csv", "reference.csv", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "mini"
    assert report["m"] == 160
    assert report["probe_errors"][0] < 0.1
    # config echoed with defaults resolved
    assert report["metadata"]["config"]["mu"] == 0.1
    wf = Waveform.from_csv(out / "lanczos.csv")
    assert wf.probe_names == ("probe1",)
    # the time column is in seconds (l_ref = 2 um scale)
    assert 0.0 < wf.times[-1] < 1.0e-9


def test_run_is_deterministic(mini_cfg, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", str(mini_cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(mini_cfg), "--out", str(out_b)]) == 0
    assert (out_a / "lanczos.csv").read_bytes() == (
        out_b / "lanczos.csv"
    ).read_bytes()
    assert (out_a / "reference.csv").read_bytes() == (
        out_b / "reference.csv"
    ).read_bytes()


def test_converge_reports_decreasing_errors(mini_cfg, tmp_path, capsys):
    out = tmp_path / "conv"
    assert main(["converge", str(mini_cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    ms = [e["m"] for e in report["convergence"]]
    errs = [e["errors"][0] for e in report["convergence"]]
    assert ms == [60, 120, 160]
    assert errs[-1] < errs[0]
    assert "m=" in capsys.readouterr().out


def test_converge_m_override(mini_cfg, tmp_path):
    out = tmp_path / "conv2"
    assert main(["converge", str(mini_cfg), "--m", "50,100",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [e["m"] for e in report["convergence"]] == [50, 100]


def test_converge_bad_m_list(mini_cfg, tmp_path):
    assert main(["converge", str(mini_cfg), "--m", "ten,20",
                 "--out", str(tmp_path / "x")]) == 2


def test_converge_needs_reference(tmp_path, capsys):
    cfg = tmp_path / "free.cfg"
    text = MINI_CFG.replace("reference = analytic", "reference = none")
    cfg.write_text(text, encoding="utf-8")
    assert main(["converge", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "reference" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "old, new",
    [
        ("n_int = 40", "n_int = 40\nsamples_per_period = 0"),
        ("n_int = 40", "n_int = 40\nsamples_per_period = 1"),
        ("t_final = 6.0", "t_final = inf"),
        ("t_final = 6.0", "t_final = nan"),
        ("probe1 = 0.3, 0.0", "probe1 = nan, 0.0"),
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, old, new):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINI_CFG.replace(old, new), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_scenario_is_config_error(capsys):
    assert main(["run", "no-such-thing"]) == 2
    assert "error:" in capsys.readouterr().err


def test_broken_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nt_final = 1.0\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_breakdown_maps_to_exit_3(mini_cfg, tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise BreakdownError("synthetic collapse", index=1)

    monkeypatch.setattr(wavecast.harness, "bilanczos", explode)
    assert main(["run", str(mini_cfg), "--out", str(tmp_path / "x")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_pml_report(tmp_path, capsys):
    out = tmp_path / "pml"
    assert main(["pml-report", "--chi", "1e4", "--k", "9",
                 "--samples", "400", "--out", str(out)]) == 0
    assert "max_error" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["chi"] == 1.0e4 and summary["k"] == 9
    assert len(summary["gamma"]) == 9
    assert len(summary["gamma_hat"]) == 9
    assert all(g > 0.0 for g in summary["gamma"] + summary["gamma_hat"])
    table = np.loadtxt(out / "error.csv", delimiter=",", skiprows=1)
    assert table.shape == (400, 2)
    assert np.all(table[:, 0] < 0.0)  # spectral coordinate
    assert np.max(table[:, 1]) == pytest.approx(
        summary["sampled_max_error"]
    )
    assert summary["sampled_max_error"] <= 1.1 * summary["max_error"]


def test_pml_report_rejects_bad_chi(tmp_path):
    assert main(["pml-report", "--chi", "0.5", "--k", "4",
                 "--out", str(tmp_path / "x")]) == 2


def test_compare_and_assert(tmp_path):
    t = np.linspace(0.0, 10.0, 801)
    a = Waveform(times=t, values=np.sin(2.0 * np.pi * t)[None, :])
    shifted = np.sin(2.0 * np.pi * (t - t[1]))[None, :]
    b = Waveform(times=t, values=shifted)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.to_csv(pa)
    b.to_csv(pb)
    assert main(["compare", str(pa), str(pa), "--assert", "1e-12"]) == 0
    # one-sample shift at fine dt: small but nonzero
    assert main(["compare", str(pa), str(pb)]) == 0
    assert main(["compare", str(pa), str(pb), "--assert", "1e-6"]) == 4


def test_compare_probe_mismatch(tmp_path):
    t = np.linspace(0.0, 1.0, 101)
    one = Waveform(times=t, values=np.sin(t)[None, :])
    two = Waveform(times=t, values=np.vstack([np.sin(t), np.cos(t)]))
    pa, pb = tmp_path / "one.csv", tmp_path / "two.csv"
    one.to_csv(pa)
    two.to_csv(pb)
    assert main(["compare", str(pa), str(pb)]) == 2


@pytest.mark.parametrize(
    "kind", ["missing", "directory", "binary", "empty", "header-only", "text"]
)
def test_compare_bad_trace_file(tmp_path, capsys, kind):
    good = tmp_path / "good.csv"
    t = np.linspace(0.0, 1.0, 11)
    Waveform(times=t, values=np.sin(t)[None, :]).to_csv(good)
    bad = tmp_path / "bad.csv"
    if kind == "directory":
        bad.mkdir()
    elif kind == "binary":
        bad.write_bytes(b"\xff\xfe\x00\x81" * 16)
    elif kind != "missing":
        bad.write_text({"empty": "", "header-only": "t,probe1\n",
                        "text": "t,probe1\n0,one\n1,two\n"}[kind])
    assert main(["compare", str(bad), str(good)]) == 2
    assert main(["compare", str(good), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_grid_dump(mini_cfg, tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["grid-dump", str(mini_cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "axis,kind,index,re,im"
    rows = [ln.split(",") for ln in lines[1:]]
    # primary: n_int + 2k + 1 nodes per axis; dual: one fewer
    n_primary = 40 + 2 * 3 + 1
    assert sum(r[0] == "x" and r[1] == "primary" for r in rows) == n_primary
    assert sum(r[0] == "y" and r[1] == "dual" for r in rows) == n_primary - 1
    ims = np.array([float(r[4]) for r in rows])
    assert np.any(ims != 0.0)  # stretched layer present


def test_cli_import_is_lean():
    # scipy.signal (and scipy.stats behind it) cost about a second of
    # start-up; importing the CLI must not start threads either
    code = (
        "import sys, threading, wavecast.cli; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') "
        "if m in sys.modules), threading.active_count())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.split() == ["[]", "1"]
