"""Command-line interface: artifacts, exit codes, file formats."""

import json
import os
import resource
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wavecast._native
import wavecast.cli
import wavecast.fdtd
import wavecast.harness
import wavecast.krylov
from wavecast.cli import main
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


def test_run_is_the_same_at_any_amplitude(tmp_path, capsys):
    # the problem is linear in the source: amplitudes from 1e-200 to
    # 1e160 give amplitude 1's error (||b||^2 used to over- or underflow,
    # exiting 3 or 2 with a wrong diagnosis), and 1e308, whose sampled
    # source is not finite, is a configuration error, found without a
    # warning before anything is written
    errors = []
    for amplitude in ("1", "1e152", "1e160", "1e-170", "1e-200", "1e308"):
        cfg = tmp_path / f"{amplitude}.cfg"
        cfg.write_text(MINI_CFG.replace(
            "t_final = 6.0", f"t_final = 6.0\namplitude = {amplitude}"))
        out = tmp_path / amplitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if amplitude == "1e308":
            assert code == 2 and "source is not finite" in err
            assert not out.exists()
            continue
        assert code == 0, err
        report = json.loads((out / "report.json").read_text())
        errors.append(report["probe_errors"][0])
    assert errors == pytest.approx([errors[0]] * 5, rel=1e-12, abs=0.0)


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
        ("t_final = 6.0", "t_final = 1e300"),
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, old, new):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINI_CFG.replace(old, new), encoding="utf-8")
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_unknown_scenario_is_config_error(capsys):
    assert main(["run", "no-such-thing"]) == 2
    assert "error:" in capsys.readouterr().err


def test_broken_config_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nt_final = 1.0\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_breakdown_maps_to_exit_3(mini_cfg, tmp_path, monkeypatch, capsys):
    # |w^T M w| <= max |M| for a unit w, so the form collapses at once
    monkeypatch.setattr(wavecast.krylov, "_BREAKDOWN_TOL", 2.0)
    assert main(["run", str(mini_cfg), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "iteration 1" in err
    assert "Traceback" not in err


def test_interrupt_exits_130(mini_cfg, tmp_path, monkeypatch, capsys):
    # Ctrl-C: one line on stderr and a documented exit code, not a
    # traceback
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(wavecast.cli, "run_study", interrupted)
    assert main(["run", str(mini_cfg), "--out", str(tmp_path / "x")]) == 130
    err = capsys.readouterr().err
    assert err.splitlines() == ["interrupted"]
    assert "Traceback" not in err


def test_fast_medium_gives_finite_artifacts(tmp_path):
    # eps_r = 0.2 in the disk: waves there outrun the exterior, and the
    # reference's time step must follow them
    cfg = tmp_path / "fast.cfg"
    text = MINI_CFG.replace("reference = analytic", "reference = fdtd")
    cfg.write_text(text + "\n[geometry]\nd = disk 0 0 0.5 0.2\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    for name in ("lanczos.csv", "reference.csv"):
        assert np.isfinite(Waveform.from_csv(out / name).values).all()
    report = json.loads((out / "report.json").read_text())
    assert report["probe_errors"][0] < 0.1  # 3.6e-2 at m = 160


def test_nonfinite_trace_exits_3(mini_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(wavecast.harness, "evaluate_impulse",
                        lambda modes, times: np.full((1, times.size), np.nan))
    out = tmp_path / "x"
    assert main(["run", str(mini_cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "not finite" in err and "Traceback" not in err
    assert not (out / "lanczos.csv").exists()


def test_nonfinite_reference_exits_3(mini_cfg, tmp_path, monkeypatch,
                                     capsys):
    # the reference runs on a worker thread; its failure still ends the
    # run with the documented exit code
    def nan_fdtd(**kwargs):
        n = 50
        wf = Waveform(times=np.linspace(0.0, kwargs["t_final"], n),
                      values=np.full((1, n), np.nan))
        return SimpleNamespace(waveform=wf, n_steps=n - 1)

    cfg = tmp_path / "fdtd.cfg"
    cfg.write_text(MINI_CFG.replace("reference = analytic",
                                    "reference = fdtd"), encoding="utf-8")
    monkeypatch.setattr(wavecast.harness, "run_fdtd", nan_fdtd)
    out = tmp_path / "x"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "fdtd trace is not finite" in err and "Traceback" not in err
    assert not (out / "reference.csv").exists()


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


@pytest.mark.parametrize("command", [
    ["run", "{cfg}"],
    ["converge", "{cfg}"],
    ["pml-report", "--chi", "100", "--k", "4"],
    ["grid-dump", "{cfg}"],
])
def test_unwritable_output_exits_2(mini_cfg, tmp_path, capsys, command):
    # a file where the output directory goes, a directory where
    # grid-dump's output file goes
    taken = tmp_path / "taken"
    if command[0] == "grid-dump":
        taken.mkdir()
    else:
        taken.write_text("")
    argv = [a.format(cfg=mini_cfg) for a in command] + ["--out", str(taken)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_compare_and_assert(tmp_path, capsys):
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
    # a tolerance that is nan or negative is a configuration error, named
    # before either trace is read (nan used to exit 4: "exceeds nan")
    for tolerance in ("nan", "-0.001"):
        for path in (pa, tmp_path / "missing.csv"):
            capsys.readouterr()
            assert main(["compare", str(path), str(path),
                         "--assert", tolerance]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "--assert" in err


def test_compare_probe_mismatch(tmp_path):
    t = np.linspace(0.0, 1.0, 101)
    one = Waveform(times=t, values=np.sin(t)[None, :])
    two = Waveform(times=t, values=np.vstack([np.sin(t), np.cos(t)]))
    pa, pb = tmp_path / "one.csv", tmp_path / "two.csv"
    one.to_csv(pa)
    two.to_csv(pb)
    assert main(["compare", str(pa), str(pb)]) == 2


@pytest.mark.parametrize(
    "kind", ["missing", "directory", "binary", "empty", "header-only", "text",
             "nonfinite"]
)
def test_compare_bad_trace_file(tmp_path, capsys, kind):
    good = tmp_path / "good.csv"
    # long enough that good compares against itself
    t = np.linspace(0.0, 10.0, 101)
    Waveform(times=t, values=np.sin(t)[None, :]).to_csv(good)
    bad = tmp_path / "bad.csv"
    if kind == "directory":
        bad.mkdir()
    elif kind == "binary":
        bad.write_bytes(b"\xff\xfe\x00\x81" * 16)
    elif kind == "nonfinite":
        values = np.sin(t)
        values[50] = np.nan
        Waveform(times=t, values=values[None, :]).to_csv(bad)
    elif kind != "missing":
        bad.write_text({"empty": "", "header-only": "t,probe1\n",
                        "text": "t,probe1\n0,one\n1,two\n"}[kind])
    assert main(["compare", str(bad), str(good)]) == 2
    assert main(["compare", str(good), str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_compare_overflowed_step_exits_2(tmp_path):
    # finite times whose step overflows to inf: the step's spread was nan,
    # which passed the uniformity test, and numpy's overflow warnings
    # reached stderr before the error line
    path = tmp_path / "huge.csv"
    path.write_text("t,p1\n-1.7e308,0\n1.7e308,1\n")
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from wavecast.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "compare", str(path), str(path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        "error: times must be uniform increasing"]


# a parent that holds 256 MB, then runs the CLI with argv[1:] as a child
_RUN_FROM_BIG_PARENT = """
import resource, subprocess, sys
held = b"\\x01" * (256 << 20)
assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >= 256 << 10
subprocess.run([sys.executable, "-c", "import sys; from wavecast.cli import "
                "main; sys.exit(main(sys.argv[1:]))", *sys.argv[1:]],
               check=True)
"""


def test_peak_rss_is_the_runs_own(mini_cfg, tmp_path):
    # Linux carries ru_maxrss across exec, so a run spawned by a large
    # process read its parent's peak; report.json gives the run's own
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-c", _RUN_FROM_BIG_PARENT, "run", str(mini_cfg),
         "--out", str(out)],
        capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    report = json.loads((out / "report.json").read_text())
    assert 0.0 < report["metadata"]["peak_rss_mb"] < 256.0


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


def _python_out(code):
    """The standard output of code run in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout


# a fresh interpreter's preamble: every import of scipy or a scipy
# submodule fails, and is recorded in `tried`
_BLOCK_SCIPY = """
import sys
tried = []

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            tried.append(name)
            raise ModuleNotFoundError(f"{name} is blocked", name=name)

sys.meta_path.insert(0, BlockScipy())
"""


def test_cli_import_is_lean(tmp_path):
    # scipy is a test-only dependency (it also cost 0.5 - 1.5 s of
    # start-up): with every scipy import made to fail, each command
    # runs, none tries to import scipy, and the traces are byte for byte
    # those of a run that could import it.  Importing the CLI starts no
    # thread, and no run loads numpy.random (about 18 ms).
    for reference in ("fdtd", "analytic"):
        cfg = tmp_path / f"{reference}.cfg"
        cfg.write_text(MINI_CFG.replace("reference = analytic",
                                        f"reference = {reference}"),
                       encoding="utf-8")
    code = _BLOCK_SCIPY + f"""
import json, os, threading
from wavecast.cli import main
codes = {{"threads": threading.active_count()}}
os.chdir({str(tmp_path)!r})
for ref in ("fdtd", "analytic"):
    for command in ("run", "converge"):
        codes[command + "-" + ref] = main(
            [command, ref + ".cfg", "--out", command + "-" + ref])
codes["pml-report"] = main(["pml-report", "--chi", "100", "--k", "4",
                            "--out", "pml"])
codes["grid-dump"] = main(["grid-dump", "fdtd.cfg", "--out", "grid.csv"])
codes["compare"] = main(["compare", "run-fdtd/lanczos.csv",
                         "run-fdtd/reference.csv"])
codes["numpy.random"] = "numpy.random" in sys.modules
codes["tried"] = tried
print("codes", json.dumps(codes))
"""
    lines = [line for line in _python_out(code).splitlines()
             if line.startswith("codes ")]
    assert len(lines) == 1
    assert json.loads(lines[0].removeprefix("codes ")) == {
        "threads": 1, "run-fdtd": 0, "converge-fdtd": 0, "run-analytic": 0,
        "converge-analytic": 0, "pml-report": 0, "grid-dump": 0,
        "compare": 0, "numpy.random": False, "tried": []}
    for reference in ("fdtd", "analytic"):
        for command in ("run", "converge"):
            name = f"{command}-{reference}"
            assert main([command, str(tmp_path / f"{reference}.cfg"),
                         "--out", str(tmp_path / "free" / name)]) == 0
            for trace in ("lanczos.csv", "reference.csv"):
                assert ((tmp_path / name / trace).read_bytes()
                        == (tmp_path / "free" / name / trace).read_bytes())


_NUMBER = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def _trace_text(draw):
    """A "t,<probe>..." header and rows, mostly of the header's width and
    on a uniform time grid, so that generated files also reach the
    comparison, not just the reader."""
    names = draw(st.lists(st.sampled_from(["p1", "p2", ""]),
                          min_size=1, max_size=2))
    # the comparison trims 32 samples from each end of the overlap
    n_rows = draw(st.sampled_from([0, 1, 2, 3, 70, 100]))
    t0, dt = draw(st.sampled_from([(0.0, 0.5), (0.0, 1e-300), (-1.0, 2.0),
                                   (1e300, 1e300), (0.0, 0.0)]))
    times = draw(st.one_of(
        st.just([repr(t0 + k * dt) for k in range(n_rows)]),
        st.lists(_NUMBER, min_size=n_rows, max_size=n_rows)))
    width = len(names) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    rows = [[t, *draw(st.lists(_NUMBER, min_size=width, max_size=width))]
            for t in times]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "1e999", "", "x"]))
    return "\n".join([",".join(["t", *names])] + [",".join(r) for r in rows])


_TRACE_FILE = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(str.encode),
    _trace_text().map(str.encode),
    _trace_text().map(str.encode),
)


# pinned inputs that each ended in a traceback: a nan in the time
# column, and an overlap window that holds no sample of the test trace
_UNIFORM_TRACE = b"t,p1\n0,0\n0.5,0\n"
_NAN_TIMES = b"t,p1\n0,0\n0,0\nnan,0\n"
_TINY_STEP = b"t,p1\n" + b"".join(b"%r,0\n" % (k * 1e-300) for k in range(70))


def _trace_pair(scale):
    """Two 101-sample traces 1 % apart, their values scaled by scale."""
    t = np.linspace(0.0, 5.0, 101)
    a = np.sin(3.0 * t)
    return tuple(
        b"t,p1\n" + b"".join(b"%r,%r\n" % (float(ti), float(vi) * scale)
                             for ti, vi in zip(t, v))
        for v in (a + 0.01 * np.cos(5.0 * t), a)
    )


# a finite pair above ~1e154: the norms overflowed and compare printed
# rel_error=nan with exit 0
_HUGE_A, _HUGE_B = _trace_pair(1e200)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(a=_TRACE_FILE, b=_TRACE_FILE)
@example(a=_NAN_TIMES, b=_UNIFORM_TRACE)
@example(a=_UNIFORM_TRACE, b=_TINY_STEP)
@example(a=_HUGE_A, b=_HUGE_B)
def test_compare_exit_code_on_any_input(tmp_path, capsys, a, b):
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    pa.write_bytes(a)
    pb.write_bytes(b)
    capsys.readouterr()
    code = main(["compare", str(pa), str(pb)])
    assert code in (0, 2, 3, 4)
    if code == 0:  # a comparison took place, and its errors are numbers
        assert np.isfinite(_printed_errors(capsys.readouterr().out)).all()


def _printed_errors(text):
    return [float(line.split("rel_error=")[1])
            for line in text.splitlines() if "rel_error=" in line]


def test_compare_is_scale_invariant(tmp_path, capsys):
    errors = []
    for scale in (1.0, 1e200):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        for path, data in zip((pa, pb), _trace_pair(scale)):
            path.write_bytes(data)
        assert main(["compare", str(pa), str(pb)]) == 0
        errors.append(_printed_errors(capsys.readouterr().out))
    assert errors[0] == errors[1]
    assert 0.001 < errors[0][0] < 0.1


def test_kernel_build_failure_exits_2(tmp_path, monkeypatch, capsys):
    # a kernel that cannot be built stops the run before either route
    # starts: one line on stderr and no trace written.  Without a
    # compiler the eigensolve kernel fails first; a bad flag of the
    # Lanczos kernel, or of the FDTD march, fails that one alone.
    kernels = (wavecast.krylov._ritz_kernel, wavecast.krylov._lanczos_kernel,
               wavecast.fdtd._fdtd_kernel)
    for broken, want in (("_CC", "/nonexistent/cc"), ("FLAGS", "_lanczos.c"),
                         ("FLAGS", "_fdtd.c")):
        with monkeypatch.context() as patch:
            if broken == "_CC":
                patch.setattr(wavecast._native, "_CC",
                              ("/nonexistent/cc", "-shared"))
            else:
                patch.setitem(wavecast._native.FLAGS, want,
                              ("-fno-such-flag",))
            for kernel in kernels:
                kernel.cache_clear()
            try:
                code = main(["run", "ring-desk", "--out", str(tmp_path / "x")])
            finally:
                for kernel in kernels:
                    kernel.cache_clear()
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert want in err and "__pycache__" in err
        assert not (tmp_path / "x").exists()


def test_m_above_operator_size_exits_2(tmp_path, capsys):
    # rejected before either route starts and before anything is
    # written, not left to fail allocating the recursion's arrays
    out = tmp_path / "x"
    code = main(["run", "ring-desk", "--m", "1" + "0" * 20, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "n = 18225" in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, want", [
    # the closed form has no value at r = 0
    ("probe1 = 0.3, 0.0", "probe1 = 0.004, 0.0", "snaps onto the source"),
    # the comparison trims HALF_WINDOW reference steps from the start:
    # 0.8 of the closed form's trace step, 1.075 past the FDTD's
    ("t_final = 6.0", "t_final = 0.7", "guard of 32 reference steps"),
    ("reference = analytic\nt_final = 6.0", "reference = fdtd\nt_final = 0.9",
     "guard of 32 reference steps"),
])
def test_run_that_cannot_compare_exits_2(tmp_path, capsys, old, new, want):
    # rejected before either route starts and before anything is
    # written, not after the Krylov route has run
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINI_CFG.replace(old, new), encoding="utf-8")
    out = tmp_path / "x"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and want in err
    assert not out.exists()


@pytest.mark.parametrize("command, want", [
    (["pml-report", "--chi", "inf", "--k", "4"], "--chi must be finite"),
    (["pml-report", "--chi", "nan", "--k", "4"], "--chi must be finite"),
    # chi = (omega_max / (mu omega_min))^2 = 1e18, where sqrt(1 - 1/chi)
    # rounds to 1
    (["run", "{cfg}"], "chi = 1e+18 is too large"),
])
def test_chi_out_of_range_is_named(tmp_path, capsys, command, want):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(MINI_CFG.replace("omega_min = 3.14159265358979",
                                    "omega_min = 1e-8\nmu = 1")
                   .replace("omega_max = 12.5663706143592", "omega_max = 10"),
                   encoding="utf-8")
    out = tmp_path / "x"
    argv = [a.format(cfg=cfg) for a in command] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and want in err
    assert not out.exists()


def test_default_section_is_rejected(tmp_path, capsys):
    # its keys would otherwise join every section: a probe "extra" here
    path = tmp_path / "defaults.cfg"
    path.write_text("[DEFAULT]\nextra = 0.5, 0.5\n" + MINI_CFG)
    assert main(["run", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "[DEFAULT]" in err


@pytest.fixture
def address_space_cap():
    # caps the process's address space at 256 GiB, so that a 745 GiB
    # allocation fails at once on any host, overcommitting or not
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 256 << 30
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


_HUGE, _HUGER = "1" + "0" * 11, "1" + "0" * 20


@pytest.mark.parametrize("command", [
    ["run", _HUGE],
    ["grid-dump", _HUGE],
    ["pml-report", "--chi", "100", "--k", "4", "--samples", _HUGE],
    ["run", _HUGER],
    ["grid-dump", _HUGER],
    ["pml-report", "--chi", "100", "--k", "4", "--samples", _HUGER],
])
def test_input_too_large_to_allocate_exits_2(tmp_path, capsys, command,
                                             address_space_cap):
    # n_int = 1e11 and 1e11 samples each ask for 745 GiB at once; 1e20
    # is past the largest array numpy can make at all (it raised a
    # ValueError, with a traceback)
    size, argv = command[-1], list(command)
    if command[0] != "pml-report":  # the size is the config's n_int
        argv[-1] = tmp_path / "huge.cfg"
        argv[-1].write_text(MINI_CFG.replace("n_int = 40", f"n_int = {size}"))
    out = tmp_path / "x"
    assert main([*map(str, argv), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if size == _HUGE:
        assert "GiB" in err  # the rows that reach an allocation
    assert not out.exists()


# every (section, key) load_config reads, with a valid value where
# MINI_CFG sets the key and None where it leaves it out
_CFG_VALID = {
    ("scenario", "name"): "mini", ("scenario", "reference"): "analytic",
    ("scenario", "t_final"): "6.0", ("scenario", "l_ref"): "2.0e-6",
    ("scenario", "amplitude"): None, ("band", "omega_min"): "3.14159",
    ("band", "omega_max"): "12.5664", ("band", "mu"): None,
    ("band", "floor_db"): None, ("discretization", "n_int"): "40",
    ("discretization", "samples_per_period"): None, ("solvers", "k"): "3",
    ("solvers", "m"): "160", ("solvers", "m_list"): "60, 120, 160",
    ("source", "x"): "0.0", ("source", "y"): "0.0",
    ("probes", "probe1"): "0.3, 0.0", ("probes", "probe2"): None,
    ("geometry", "g1"): None, ("geometry", "g2"): None,
}
_TOKEN = st.one_of(
    _NUMBER,
    st.integers().map(str),
    st.sampled_from(["nan", "inf", "-1", "0", "1e999", "1" + "0" * 400,
                     "%", "50%", "%(x)s", "x", "fdtd", "none", "disk",
                     "annulus", "lattice", "removed=1:1", "removed=x:1"]),
    st.text(max_size=6),
)
_VALUE = st.lists(_TOKEN, max_size=6).map(" ".join)


@st.composite
def _config_text(draw):
    """MINI_CFG with a few keys dropped or set to drawn tokens, so that
    most files are parsed and many reach validation."""
    entries = {k: v for k, v in _CFG_VALID.items() if v is not None}
    for _ in range(draw(st.integers(0, 4))):
        key = draw(st.sampled_from(sorted(_CFG_VALID)))
        if draw(st.integers(0, 4)):
            entries[key] = draw(_VALUE)
        else:
            entries.pop(key, None)
    sections = {}
    for (section, key), value in entries.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                   for section, lines in sections.items())


# pinned inputs that each ended in a traceback: a % in a value, a
# lattice field that is not a number, an int beyond the float range, and
# a file that is not UTF-8
_PERCENT = MINI_CFG.replace("name = mini", "name = mini%")
_BAD_LATTICE = MINI_CFG + "\n[geometry]\nrods = lattice 0.2 abc 4.0 2 2\n"
_BAD_ROWS = MINI_CFG + "\n[geometry]\nrods = lattice 0.2 0.04 4.0 x 2\n"
_HUGE_N = MINI_CFG.replace("n_int = 40", "n_int = 1" + "0" * 400)
_DEFAULT_KEYS = "[DEFAULT]\nnote = 1\n" + MINI_CFG
# pinned inputs whose powers overflowed: the band floor, the band top
_HOT_FLOOR = MINI_CFG.replace("[band]\n", "[band]\nfloor_db = 1e4\n")
_HUGE_BAND = MINI_CFG.replace("omega_max = 12.5663706143592",
                              "omega_max = 1e200")


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(_config_text().map(str.encode),
                     _config_text().map(str.encode),
                     st.text(max_size=200).map(str.encode),
                     st.binary(max_size=200)))
@example(data=_PERCENT.encode())
@example(data=_BAD_LATTICE.encode())
@example(data=_BAD_ROWS.encode())
@example(data=_HUGE_N.encode())
@example(data=b"\x80")
@example(data=_DEFAULT_KEYS.encode())
@example(data=_HOT_FLOOR.encode())
@example(data=_HUGE_BAND.encode())
def test_run_exit_code_on_any_config(tmp_path, monkeypatch, capsys, data):
    # load_config validates, and the pipeline after it is stubbed out
    def validated(sc, ms, out_dir=None):
        report = SimpleNamespace(scenario=sc.name, m=ms[-1],
                                 probe_errors=None,
                                 metadata={"n_unknown": 0, "chi": 0.0})
        return report, {}

    monkeypatch.setattr(wavecast.cli, "run_study", validated)
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(data)
    capsys.readouterr()
    code = main(["run", str(path), "--out", str(tmp_path / "x")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
