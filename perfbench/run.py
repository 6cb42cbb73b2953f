"""Stage benchmark of wavecast.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's wavecast command (`wavecast.cli.main`, sources from
`src/`) in fresh single-threaded processes for about S seconds, checks
every command's outputs, and prints one JSON object as the last line of
standard output.  With --trace 0 it reports the end-to-end metrics of
untraced commands, their times scaled to a reference host speed (see
HostCalibration); with --trace 1 it alternates untraced and traced
commands and reports the per-layer metrics of the traced ones.  The
exit code is 0 only when every output check passed.  See README.md in
this directory for the workloads, metrics and baseline.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

# BLAS/OpenMP threads of every benchmarked process, this one included
# (it runs the host calibration).  Traces depend on it through the
# summation order (ring-desk rel_error is 0.00808 with one thread and
# 0.00828 with two), so it is fixed, not taken from the host.
BLAS_THREADS = 1
os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"),
    str(BLAS_THREADS)))

import numpy as np  # noqa: E402  (after the thread pinning above)
import scipy.sparse  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 2

# ring-paper-trace: the paper-scale ring preset at a fixed m, without a
# reference route.  Its window is cut to what m = 400 resolves; over the
# preset's full window the m = 400 trace differs from m = 800 by 300 %
# and from itself by 3 % when BLAS threads change, so it cannot be checked.
RING_PAPER_M = 400
RING_PAPER_T_FINAL = 1.2
RING_PAPER_REFERENCE_M = 1200
RING_PAPER_REFERENCE = BENCH / "ring-paper-trace-m1200.csv"


@dataclass(frozen=True)
class Workload:
    """A wavecast command line and the check its outputs must pass.

    max_rel_error bounds the worst per-probe relative L2 error against
    the reference: the one the command itself reports, or, when
    reference_csv is set, the committed trace in that file.  An argument
    "{config}" is replaced by a config file that write_config writes.
    """

    argv: tuple
    max_rel_error: float
    reference_csv: Path | None = None
    write_config: object = None


def write_ring_paper_config(path):
    """Config file of the paper-scale ring preset, as ring-paper-trace
    runs it; checked to load back as exactly that scenario."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from wavecast.scenarios import get_scenario, load_config

    sc = dataclasses.replace(
        get_scenario("ring"),
        name="ring-paper-trace",
        t_final=RING_PAPER_T_FINAL,
        reference="none",
        m_default=RING_PAPER_M,
        m_list=(),
    )
    (ring,) = sc.shapes
    (probe,) = sc.probes
    path.write_text(
        "[band]\n"
        f"omega_min = {sc.omega_min!r}\n"
        f"omega_max = {sc.omega_max!r}\n"
        f"mu = {sc.mu!r}\n"
        f"floor_db = {sc.floor_db!r}\n"
        "[discretization]\n"
        f"n_int = {sc.n_int}\n"
        f"samples_per_period = {sc.samples_per_period}\n"
        "[solvers]\n"
        f"k = {sc.k}\n"
        f"m = {sc.m_default}\n"
        "[scenario]\n"
        f"name = {sc.name}\n"
        f"t_final = {sc.t_final!r}\n"
        f"amplitude = {sc.amplitude!r}\n"
        f"l_ref = {sc.l_ref!r}\n"
        f"reference = {sc.reference}\n"
        "[source]\n"
        f"x = {sc.source_xy[0]!r}\n"
        f"y = {sc.source_xy[1]!r}\n"
        "[probes]\n"
        f"p1 = {probe[0]!r} {probe[1]!r}\n"
        "[geometry]\n"
        f"ring = annulus {ring.cx!r} {ring.cy!r} {ring.r_inner!r} "
        f"{ring.r_outer!r} {ring.eps_r!r}\n"
    )
    if load_config(path) != sc:
        raise RuntimeError(f"{path} does not load back as the ring preset")
    return sc


WORKLOADS = {
    "ring-desk-run": Workload(("run", "ring-desk"), max_rel_error=0.05),
    "ring-paper-trace": Workload(
        ("run", "{config}"),
        max_rel_error=0.05,
        reference_csv=RING_PAPER_REFERENCE,
        write_config=write_ring_paper_config,
    ),
}

END_TO_END_UNITS = {
    "command_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rel_error": "rel",
}

PER_LAYER_UNITS = {
    "zolotarev.s": "s",
    "grid.s": "s",
    "operator.s": "s",
    "operator.n": "count",
    "operator.nnz": "count",
    "krylov.lanczos.s": "s",
    "krylov.lanczos.ms_per_iter": "ms",
    "krylov.lanczos.calls": "count",
    "krylov.lanczos.iters_run": "count",
    "krylov.lanczos.iters_kept": "count",
    "krylov.lanczos.kept_ratio": "ratio",
    "krylov.lanczos.drift": "rel",
    "krylov.eig.s": "s",
    "krylov.eig.calls": "count",
    "krylov.eig.m_sum": "count",
    "krylov.eig.flops_computed": "flop",
    "krylov.eig.recon_error": "rel",
    "krylov.kernel.s": "s",
    "krylov.kernel.evals": "count",
    "krylov.convolve.s": "s",
    "fdtd.s": "s",
    "fdtd.steps": "count",
    "fdtd.ms_per_step": "ms",
    "fdtd.bytes_per_step_computed": "B",
    "signals.compare.s": "s",
    "signals.csv.s": "s",
    "signals.csv.bytes": "B",
    "harness.self_s": "s",
    "trace.overhead_s": "s",
}

# span name (see child.py) -> layer
LAYER_OF = {
    "zolotarev_approx": "zolotarev",
    "to_continued_fraction": "zolotarev",
    "build_grid2d": "grid",
    "MediumMap.from_function": "grid",
    "assemble_operator": "operator",
    "bilanczos": "krylov.lanczos",
    "eigen_tridiag": "krylov.eig",
    "evaluate_impulse": "krylov.kernel",
    "convolve_source": "krylov.convolve",
    "run_fdtd": "fdtd",
    "compare_traces": "signals.compare",
    "Waveform.to_csv": "signals.csv",
}

# Real flops of one eigen_tridiag call per m^3, computed from the matrix
# size: dense complex eig with eigenvectors (25 m^3, Golub & Van Loan)
# plus the LU solve for the weights (2/3 m^3), at 4 real flops per
# complex one (the LAPACK convention).
EIG_FLOPS_PER_M3 = 4.0 * (25.0 + 2.0 / 3.0)


class HostCalibration:
    """Times a fixed kernel mix to track the host's speed.

    The shared host has fast and slow phases of seconds to minutes in
    which the same code runs up to 1.5x slower; runs of a minute cannot
    average them out.  A phase slows the wavecast kernels and this mix
    alike (over 30-s windows the dense-eig and sparse-matvec times
    correlate at 0.96), so a run's median wall time times
    REFERENCE_S / (the run's median time of the mix) is its time at the
    reference speed.  The mix is a complex dense eig (the eigensolve's
    kernel) and complex 5-point sparse matvecs (Lanczos's kernel), on
    fixed inputs, single-threaded like the commands.  It does not slow
    exactly as the commands do, so on a calm host the scaled times
    spread more than the raw ones (README.md has both).
    """

    # The mix's time on the reference host (a shared 2-core x86-64 VM)
    # in a fast phase: the scale of the reported times, nothing else.
    REFERENCE_S = 0.5
    EIG_M = 400
    GRID = 480
    MATVECS = 40
    # A single timing is sometimes twice as slow as its neighbours;
    # the median of three is not moved by one such outlier.
    REPEATS = 3

    def __init__(self):
        rng = np.random.default_rng(20240229)
        m = self.EIG_M
        self.dense = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        lap = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1],
                                 shape=(self.GRID, self.GRID))
        eye = scipy.sparse.eye(self.GRID)
        self.sparse = (scipy.sparse.kron(lap, eye) + scipy.sparse.kron(eye, lap)
                       ).tocsr().astype(complex)
        self.vector = rng.standard_normal(self.GRID ** 2) + 0j
        self._time_mix()  # warm-up: first-call and page-fault costs

    def _time_mix(self):
        t0 = _monotonic()
        np.linalg.eig(self.dense)
        x = self.vector
        for _ in range(self.MATVECS):
            x = self.sparse @ x
            x *= 1.0 / np.linalg.norm(x)
        return _monotonic() - t0

    def measure(self):
        """Seconds the mix takes now (median of REPEATS timings)."""
        return statistics.median(self._time_mix() for _ in range(self.REPEATS))


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def spawn(argv, workdir, flags=()):
    """Run child.py on a wavecast command line; returns (record, error).

    The record holds setup_s (spawn to the child's set-up stamp) and
    what the child reported: exit_code, command_s, peak_rss_mb, spans.
    """
    result_path = workdir / "child.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path),
           *flags, "--", *argv]
    t_spawn = _monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    try:
        record = json.loads(result_path.read_text())
    except (OSError, ValueError):
        record = {}
    if proc.returncode != 0 or "t_ready" not in record:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"child exited {proc.returncode}: {' | '.join(tail)}"
    record["setup_s"] = record["t_ready"] - t_spawn
    return record, None


def _read_trace(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ValueError(f"{path.name} holds no trace")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path.name} has non-finite values")
    return data


def rel_error_against(trace, reference):
    """Worst per-probe relative L2 gap of trace to reference, on the
    reference's samples (trace interpolated; exact on a shared grid)."""
    if trace.shape[1] != reference.shape[1]:
        raise ValueError("probe count differs from the committed trace")
    if trace[-1, 0] < reference[-1, 0]:
        raise ValueError("trace ends before the committed trace")
    worst = 0.0
    for p in range(1, reference.shape[1]):
        ref = reference[:, p]
        got = np.interp(reference[:, 0], trace[:, 0], trace[:, p])
        worst = max(worst, float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    return worst


def check_outputs(spec, out_dir, record):
    """rel_error of one finished command, or raise ValueError."""
    if record["exit_code"] != 0:
        raise ValueError(f"wavecast exited {record['exit_code']}")
    trace = _read_trace(out_dir / "lanczos.csv")
    if (out_dir / "reference.csv").exists():
        _read_trace(out_dir / "reference.csv")
    if spec.reference_csv is not None:
        rel = rel_error_against(trace, _read_trace(spec.reference_csv))
    else:
        report = json.loads((out_dir / "report.json").read_text())
        rel = max(report["probe_errors"])
    if not rel <= spec.max_rel_error:
        raise ValueError(f"rel_error {rel:.6g} exceeds {spec.max_rel_error}")
    return rel


def self_times(spans):
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced command (all but trace.overhead_s)."""
    self_s = self_times(spans)
    m = dict.fromkeys(PER_LAYER_UNITS, 0)
    del m["trace.overhead_s"]
    for s in spans:
        c = s.get("counts", {})
        if s["name"] == "command":
            m["harness.self_s"] += self_s[s["id"]]
            continue
        layer = LAYER_OF[s["name"]]
        m[f"{layer}.s"] += self_s[s["id"]]
        if layer == "operator":
            m["operator.n"] = c.get("n", 0)
            m["operator.nnz"] = c.get("nnz", 0)
        elif layer == "krylov.lanczos":
            m["krylov.lanczos.calls"] += 1
            m["krylov.lanczos.iters_run"] += c["iters_run"]
            m["krylov.lanczos.iters_kept"] += c["iters_kept"]
            m["krylov.lanczos.drift"] = max(m["krylov.lanczos.drift"],
                                            c.get("drift", 0.0))
        elif layer == "krylov.eig":
            m["krylov.eig.calls"] += 1
            m["krylov.eig.m_sum"] += c["m"]
            m["krylov.eig.flops_computed"] += EIG_FLOPS_PER_M3 * c["m"] ** 3
            m["krylov.eig.recon_error"] = max(m["krylov.eig.recon_error"],
                                              c.get("recon_error", 0.0))
        elif layer == "krylov.kernel":
            m["krylov.kernel.evals"] += c["evals"]
        elif layer == "fdtd":
            m["fdtd.steps"] += c["steps"]
            m["fdtd.bytes_per_step_computed"] = c["bytes_per_step_computed"]
        elif layer == "signals.csv":
            m["signals.csv.bytes"] += c["bytes"]
    if m["krylov.lanczos.iters_run"]:
        m["krylov.lanczos.ms_per_iter"] = (
            1e3 * m["krylov.lanczos.s"] / m["krylov.lanczos.iters_run"])
        m["krylov.lanczos.kept_ratio"] = (
            m["krylov.lanczos.iters_kept"] / m["krylov.lanczos.iters_run"])
    if m["fdtd.steps"]:
        m["fdtd.ms_per_step"] = 1e3 * m["fdtd.s"] / m["fdtd.steps"]
    return m


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, spec, seconds, trace, seed):
    """Measure one workload for about `seconds`.

    Returns the result (correct, attempted, failed, metrics) and the
    per-command samples behind it.
    """
    workdir = WORK / name
    out_dir = workdir / "out"
    workdir.mkdir(parents=True, exist_ok=True)
    argv = spec.argv
    if spec.write_config is not None:
        config = workdir / f"{name}.ini"
        spec.write_config(config)
        argv = tuple(a.replace("{config}", str(config)) for a in argv)
    command = (*argv, "--out", str(out_dir))

    failures = []
    commands = []  # (traced, record, rel_error) of commands that passed
    setups = []  # setup_s of the set-up-only processes
    host = HostCalibration()
    calibrations = [host.measure()]

    def calibrated_spawn(argv, flags):
        """spawn, then a calibration, so the calibrations sample the host
        speed evenly over the run."""
        record, error = spawn(argv, workdir, flags)
        calibrations.append(host.measure())
        return record, error

    def one_command(traced):
        shutil.rmtree(out_dir, ignore_errors=True)  # no stale outputs
        record, error = calibrated_spawn(command,
                                         ("--trace",) if traced else ())
        if record is not None:
            try:
                commands.append((traced, record,
                                 check_outputs(spec, out_dir, record)))
                return
            except (OSError, ValueError, KeyError, TypeError) as exc:
                error = str(exc)
        failures.append(error)
        print(f"check failed: {error}", file=sys.stderr)

    start = _monotonic()
    if trace:
        # untraced and traced commands in pairs, order alternating from
        # the seed, so the traced run's overhead is measured in place
        first_traced = bool(seed % 2)
        while True:
            t0 = _monotonic()
            one_command(first_traced)
            one_command(not first_traced)
            first_traced = not first_traced
            if _monotonic() - start + (_monotonic() - t0) > seconds:
                break
    else:
        # set-up probes first: they also warm the file cache for the
        # commands' imports
        for _ in range(SETUP_PROBES):
            record, error = calibrated_spawn(argv, ("--setup-only",))
            if record is None:
                failures.append(f"set-up probe: {error}")
                break
            setups.append(record["setup_s"])
        while not failures:
            t0 = _monotonic()
            one_command(False)
            if _monotonic() - start + (_monotonic() - t0) > seconds:
                break

    untraced = [r for t, r, _ in commands if not t]
    traced = [r for t, r, _ in commands if t]
    if trace:
        per_command = [layer_metrics(r["spans"]) for r in traced]
        values = {k: _median([pc[k] for pc in per_command])
                  for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            _median([r["command_s"] for r in traced])
            - _median([r["command_s"] for r in untraced]))
        units = PER_LAYER_UNITS
    else:
        scale = HostCalibration.REFERENCE_S / _median(calibrations)
        values = {
            "command_s": scale * _median([r["command_s"] for r in untraced]),
            "setup_s": scale * _median(setups
                                       + [r["setup_s"] for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
            "rel_error": _median([rel for _, _, rel in commands]),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not failures,
        "attempted": len(commands) + len(failures),
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    samples = {
        "commands": [
            {"traced": t, "rel_error": rel,
             **{k: r[k] for k in ("command_s", "setup_s", "peak_rss_mb")}}
            for t, r, rel in commands
        ],
        "setup_probes_s": setups,
        "calibrations_s": calibrations,
        "failures": failures,
    }
    return result, samples


def _git_hash():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_version(module):
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        return None


def environment():
    """What the numbers depend on besides the code."""
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "wavecast").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np),
        "scipy_openblas": _blas_version(scipy),
        "git": _git_hash(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "wavecast" / "cli.py").is_file():
        print(f"error: no wavecast sources under {SRC}", file=sys.stderr)
        return 2

    result, samples = run_workload(args.workload, WORKLOADS[args.workload],
                                   args.seconds, bool(args.trace), args.seed)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              **result, "samples": samples}
    (WORK / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
