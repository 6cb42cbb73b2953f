"""Experiment pipeline: assemble a scenario, run the Krylov route,
compare against the designated reference, and write artifacts.

One pipeline serves `wavecast run` (a single m) and `wavecast
converge` (an m list), in stages: prepare -> decompose, on every core;
then two routes side by side -- the reference on a worker thread, and
eigensolve and trace per m on the calling thread -- then compare per
m -> artifacts.  Every m is a truncation of one recursion run at the
largest; a run that ends early (an invariant subspace, or the breakdown
retreat inside bilanczos) drops the m past its length, and
metadata.lanczos_stop says why.

Outputs per run directory: lanczos.csv (the Krylov trace at the
largest m), reference.csv (when a reference route is configured),
report.json.  Artifacts are flushed as soon as they exist so a later
failure leaves the earlier results on disk.  Runs are deterministic:
nothing here draws random numbers, so identical configs give identical
bytes.
"""

import dataclasses
import json
import resource
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _native
from .analytic import analytic_homogeneous
from .errors import ConfigurationError, PrecisionError
from .fdtd import _fdtd_kernel, run_fdtd, time_step
from .grid import build_grid2d
from .krylov import (
    _lanczos_kernel,
    _real_rectangle,
    _ritz_kernel,
    bilanczos,
    convolve_source,
    eigen_tridiag,
    evaluate_impulse,
)
from .operator import MediumMap, assemble_operator
from .signals import HALF_WINDOW, Waveform, compare_traces
from .zolotarev import to_continued_fraction, zolotarev_approx

# one sample past the trace resampler's interpolation half-window, in
# reference samples
_GUARD_TAPS = HALF_WINDOW + 1


def _git_hash():
    """The short commit hash of the checkout this package runs from
    (whatever the working directory), or "unknown"."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=Path(__file__).parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _clean(obj):
    """Make nested run metadata JSON-serializable."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        d = {"type": type(obj).__name__}
        d.update(
            {f.name: _clean(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        )
        return d
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, frozenset):
        return sorted(_clean(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


@dataclass
class ComparisonReport:
    scenario: str
    m: int
    probe_names: tuple
    probe_errors: tuple | None
    convergence: tuple  # of {"m": int, "errors": [...]}
    fdtd_steps: int | None
    timings: dict
    metadata: dict

    def to_json(self, path):
        payload = _clean(dataclasses.asdict(self))
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


@dataclass
class _Assembled:
    grid: object
    op: object
    b: np.ndarray
    src_coords: tuple
    probe_flats: tuple
    probe_coords: tuple
    impedance: object
    steps: object
    eps_min: float  # smallest eps of the medium, 1 outside the interior
    seconds: float


def build_scenario_grid(sc):
    """Absorbing layer and stretched grid: (impedance, steps, grid)."""
    impedance = zolotarev_approx(sc.interval(), sc.k)
    steps = to_continued_fraction(impedance)
    return impedance, steps, build_grid2d(sc.n_int, steps)


def _prepare(sc):
    sc.validate()
    t0 = time.perf_counter()
    impedance, steps, grid = build_scenario_grid(sc)
    medium = MediumMap.from_function(grid, sc.medium_fn())
    op = assemble_operator(grid, medium)
    b, _ = op.sample_source(*sc.source_xy, amplitude=sc.amplitude)
    _, _, scx, scy = grid.nearest_interior_node(*sc.source_xy)
    probe_flats = []
    probe_coords = []
    for x, y in sc.probes:
        ix, iy, cx, cy = grid.nearest_interior_node(x, y)
        probe_flats.append(grid.node_index(ix, iy))
        probe_coords.append((cx, cy))
    return _Assembled(
        grid=grid,
        op=op,
        b=b,
        src_coords=(scx, scy),
        probe_flats=tuple(probe_flats),
        probe_coords=tuple(probe_coords),
        impedance=impedance,
        steps=steps,
        eps_min=float(medium.values.min()),
        seconds=time.perf_counter() - t0,
    )


def _csv_units(sc, wf):
    """Trace files carry time in seconds when the scenario has a
    physical scale; field values stay in normalized units."""
    if sc.l_ref is None:
        return wf
    return Waveform(
        times=sc.seconds(wf.times),
        values=wf.values,
        probe_names=wf.probe_names,
    )


def _padded_times(sc, asm):
    """Trace grid extended past the window so the comparison's
    interpolation guard (HALF_WINDOW steps of the reference's own step)
    does not eat into [0, t_final].  ConfigurationError when the
    reference could not be compared: a closed-form probe on the source
    node, or no trace sample between the guard and t_final."""
    fdtd = sc.reference == "fdtd"
    ref_dt = time_step(sc.n_int, asm.eps_min) if fdtd else sc.trace_dt
    times = sc.trace_times(
        pad=_GUARD_TAPS * ref_dt + (2.0 * sc.trace_dt if fdtd else 0.0))
    if sc.reference == "analytic" and asm.src_coords in asm.probe_coords:
        p = asm.probe_coords.index(asm.src_coords)
        raise ConfigurationError(
            f"probe {p + 1} at {sc.probes[p]} snaps onto the source node "
            f"{asm.src_coords}: the closed form needs it on another node "
            f"(grid step {2.0 / sc.n_int:g})")
    guard = HALF_WINDOW * ref_dt
    first = times[times >= guard][0]
    if sc.reference != "none" and not first <= sc.t_final > guard:
        raise ConfigurationError(
            f"t_final = {sc.t_final:g} ends inside the comparison guard of "
            f"{HALF_WINDOW} reference steps: the first trace sample it "
            f"compares is at t = {first:g}")
    return times


def _finite(wf, route):
    if not np.isfinite(wf.values).all():
        raise PrecisionError(f"the {route} trace is not finite")
    return wf


def _trace_waveform(sc, modes, times):
    impulse = evaluate_impulse(modes, times)
    q = sc.signature()(times)
    dt = times[1] - times[0]
    u = convolve_source(impulse, q, dt, omega_max=sc.omega_max)
    return Waveform(times=times, values=u)


def _reference_waveform(sc, asm, times, cancel, alone):
    """The designated independent route (analytic or fdtd), at the
    snapped coordinates: (waveform, FDTD steps, FDTD row blocks of the
    last chunk), the last two None for the closed form.  Setting cancel
    stops the FDTD march, and setting alone gives it every usable CPU
    (fdtd.run_fdtd)."""
    if sc.reference == "analytic":
        wf = analytic_homogeneous(
            asm.src_coords,
            asm.probe_coords,
            sc.signature(),
            times,
            amplitude=sc.amplitude,
        )
        return wf, None, None
    res = run_fdtd(
        n_int=sc.n_int,
        probes=asm.probe_coords,
        source_xy=asm.src_coords,
        signature=sc.signature(),
        t_final=times[-1],
        medium_fn=sc.medium_fn(),
        amplitude=sc.amplitude,
        cancel=cancel,
        alone=alone,
    )
    return res.waveform, res.n_steps, res.threads


def _reference_job(sc, asm, times, out, cancel, alone):
    """The reference trace, written to out/reference.csv as soon as it
    exists, its FDTD step count and row blocks (_reference_waveform) and
    its wall time."""
    t0 = time.perf_counter()
    wf, n_steps, threads = _reference_waveform(sc, asm, times, cancel, alone)
    _finite(wf, sc.reference)
    if out is not None:
        _csv_units(sc, wf).to_csv(out / "reference.csv")
    return wf, n_steps, threads, time.perf_counter() - t0


def _peak_rss_mb():
    """This process's own peak resident set so far, in MB.  On Linux it
    is VmHWM: ru_maxrss carries the parent's peak across exec, so a run
    spawned by a process that held 256 MB read 270 MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)


def _metadata(sc, asm, decomp, m_requested, m, modes, ref_threads):
    """Run metadata; modes is the eigensolve of the written trace (at m),
    ref_threads the FDTD march's row blocks in its last chunk (None
    without a march)."""
    ix0, ix1, iy0, iy1 = _real_rectangle(asm.op)
    return {
        "git": _git_hash(),
        "config": _clean(sc),
        "chi": sc.chi,
        "pml_max_error": asm.impedance.max_error,
        "cf_roundtrip_error": asm.steps.roundtrip_error,
        "n_unknown": asm.grid.n_unknown,
        "m": m,
        "m_requested": m_requested,
        "lanczos_stop": decomp.stop,
        "lanczos_threads": decomp.threads,
        "lanczos_drift": decomp.drift,
        "lanczos_real_share": (ix1 - ix0) * (iy1 - iy0) / asm.op.n,
        "eig_threads": _native._usable_cpus(),
        "reference_threads": ref_threads,
        "recon_error": modes.recon_error,
        "modes_merged": modes.merged,
        "source_coords": asm.src_coords,
        "probe_coords": asm.probe_coords,
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_study(sc, ms, out_dir=None):
    """The trace at each subspace size in ms, and its error against the
    reference when the scenario designates one.

    One decomposition is built at the largest m and truncated for the
    smaller entries, so the operator work is not repeated; `wavecast
    run` is the study of a single m.  A trace with a value that is not
    finite raises PrecisionError before it is written.  A kernel that
    cannot be built, a largest m above the operator size n, or a
    reference that could not be compared (_padded_times) raises
    ConfigurationError before either route starts and before anything
    is written.  Returns (report, waveforms dict).
    """
    ms = tuple(ms)
    if not ms:
        raise ConfigurationError("a study needs a nonempty m list")
    if list(ms) != sorted(set(ms)):
        raise ConfigurationError("m list must be strictly increasing")
    if ms[0] < 1:
        raise ConfigurationError(f"need every m >= 1, got {ms}")
    # built (or found missing) before any route starts
    _ritz_kernel()
    _lanczos_kernel()
    if sc.reference == "fdtd":
        _fdtd_kernel()
    asm = _prepare(sc)
    if ms[-1] > asm.op.n:
        raise ConfigurationError(
            f"m = {ms[-1]} exceeds the operator size n = {asm.op.n}")
    times = _padded_times(sc, asm)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    timings = {"assemble_s": asm.seconds}
    # the recursion runs alone on every core: a march beside it shares a
    # core with one of its threads, which then holds up every step at its
    # barriers.  The reference starts when it returns, on a worker thread
    # beside the eigensolve (the kernels of both release the GIL), so the
    # march fills the core that the serial QL leaves idle.  Only the
    # march yields: it runs on one row block until the last trace is
    # evaluated, which sets alone, while the eigensolve's stages and the
    # impulse, with few barriers each, take every core.  A Lanczos
    # failure starts no reference; an interrupt sets cancel, and the
    # march stops within a chunk of steps.
    cancel, alone = threading.Event(), threading.Event()
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        t0 = time.perf_counter()
        decomp = bilanczos(asm.op, asm.b, ms[-1], asm.probe_flats)
        timings["lanczos_s"] = time.perf_counter() - t0
        timings["lanczos_ms_per_iter"] = 1e3 * timings["lanczos_s"] / decomp.m
        ref_job = (pool.submit(_reference_job, sc, asm, times, out, cancel,
                               alone)
                   if sc.reference != "none" else None)
        # a breakdown retreat or a closed invariant subspace shortens the run
        m_requested = ms[-1]
        ms = tuple(m for m in ms if m <= decomp.m) or (decomp.m,)

        traces = {}
        timings["eigensolve_s"] = 0.0
        t0 = time.perf_counter()
        try:
            for m in ms:
                t_eig = time.perf_counter()
                modes = eigen_tridiag(decomp.truncate(m))
                timings["eigensolve_s"] += time.perf_counter() - t_eig
                traces[m] = _finite(
                    _trace_waveform(sc, modes, times), f"m = {m}")
        except Exception:
            if ref_job is not None:
                # a run one stage after another meets a failed reference
                # before any eigensolve, so its error goes first
                alone.set()
                ref_job.result()
            raise
        alone.set()
        timings["evaluate_s"] = time.perf_counter() - t0
        waveforms = {}
        ref_wf = fdtd_steps = ref_threads = None
        if ref_job is not None:
            t0 = time.perf_counter()
            (ref_wf, fdtd_steps, ref_threads,
             timings["reference_s"]) = ref_job.result()
            timings["reference_wait_s"] = time.perf_counter() - t0
            if fdtd_steps:
                timings["reference_ms_per_step"] = (
                    1e3 * timings["reference_s"] / fdtd_steps)
            waveforms["reference"] = ref_wf
    finally:
        # a no-op unless the Krylov route failed or an interrupt came
        cancel.set()
        pool.shutdown()

    entries = []
    if ref_wf is not None:
        for m, wf in traces.items():
            rel, _, _ = compare_traces(wf, ref_wf, t_lo=0.0, t_hi=sc.t_final)
            entries.append({"m": int(m), "errors": [float(r) for r in rel]})
    wf = waveforms["lanczos"] = traces[ms[-1]]
    if out is not None:
        _csv_units(sc, wf).to_csv(out / "lanczos.csv")  # largest m

    report = ComparisonReport(
        scenario=sc.name,
        m=ms[-1],
        probe_names=wf.probe_names,
        probe_errors=tuple(entries[-1]["errors"]) if entries else None,
        convergence=tuple(entries),
        fdtd_steps=fdtd_steps,
        timings=timings,
        metadata=_metadata(sc, asm, decomp, m_requested, ms[-1], modes,
                           ref_threads),
    )
    if out is not None:
        report.to_json(out / "report.json")
    return report, waveforms
