"""Experiment pipeline: assemble a scenario, run the Krylov route,
compare against the designated reference, and write artifacts.

One pipeline serves `wavecast run` (a single m) and `wavecast
converge` (an m list), in stages: prepare -> decompose (with the
breakdown retreat) -> reference -> eigensolve, trace and compare per
m -> artifacts.  Every m is a truncation of one recursion run at the
largest.

Outputs per run directory: lanczos.csv (the Krylov trace at the
largest m), reference.csv (when a reference route is configured),
report.json.  Artifacts are flushed as soon as they exist so a later
failure leaves the earlier results on disk.  Runs are deterministic:
nothing here draws random numbers, so identical configs give identical
bytes.
"""

import dataclasses
import json
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analytic import analytic_homogeneous
from .errors import BreakdownError, ConfigurationError
from .fdtd import COURANT, run_fdtd
from .grid import build_grid2d
from .krylov import bilanczos, convolve_source, eigen_tridiag, evaluate_impulse
from .operator import MediumMap, assemble_operator
from .signals import _TAPS, Waveform, compare_traces
from .zolotarev import to_continued_fraction, zolotarev_approx

# one sample past the trace resampler's interpolation half-window, in
# reference samples
_GUARD_TAPS = _TAPS // 2 + 1


def _git_hash():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
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

    @property
    def worst_error(self):
        if self.probe_errors is None:
            return None
        return max(self.probe_errors)


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


def _decompose(op, b, m, probe_indices):
    """Krylov decomposition, backing off once on serious breakdown.

    A collapse of the bilinear form at iteration i leaves iterations
    1..i-1 usable, so retry just short of the collapse rather than
    discarding the run.  A second collapse propagates.
    """
    try:
        return bilanczos(op, b, m, probe_indices=probe_indices)
    except BreakdownError as exc:
        if exc.index is None or exc.index <= 2:
            raise
        return bilanczos(op, b, exc.index - 2, probe_indices=probe_indices)


def _padded_times(sc):
    """Trace grid extended past the window so the comparison's
    interpolation guard does not eat into [0, t_final]."""
    dt = sc.trace_dt
    if sc.reference == "fdtd":
        # guard taps of the FDTD step COURANT * h / sqrt(2), h = 2 / n_int
        pad = (_GUARD_TAPS * COURANT * (2.0 / sc.n_int) / np.sqrt(2.0)
               + 2.0 * dt)
    else:
        pad = _GUARD_TAPS * dt
    return sc.trace_times(pad=pad)


def _trace_waveform(sc, modes, times):
    impulse = evaluate_impulse(modes, times)
    q = sc.signature()(times)
    dt = times[1] - times[0]
    u = convolve_source(impulse, q, dt, omega_max=sc.omega_max)
    names = tuple(f"probe{i + 1}" for i in range(u.shape[0]))
    return Waveform(times=times, values=u, probe_names=names)


def _reference_waveform(sc, asm, times):
    """The designated independent route (analytic or fdtd), at the
    snapped coordinates."""
    if sc.reference == "analytic":
        wf = analytic_homogeneous(
            asm.src_coords,
            asm.probe_coords,
            sc.signature(),
            times,
            amplitude=sc.amplitude,
        )
        return wf, None
    res = run_fdtd(
        n_int=sc.n_int,
        probes=asm.probe_coords,
        source_xy=asm.src_coords,
        signature=sc.signature(),
        t_final=times[-1],
        medium_fn=sc.medium_fn(),
        amplitude=sc.amplitude,
    )
    return res.waveform, res.n_steps


def _metadata(sc, asm, decomp, m_requested, m, modes):
    """Run metadata; modes is the eigensolve of the written trace (at m)."""
    return {
        "git": _git_hash(),
        "config": _clean(sc),
        "chi": sc.chi,
        "pml_max_error": asm.impedance.max_error,
        "cf_roundtrip_error": asm.steps.roundtrip_error,
        "n_unknown": asm.grid.n_unknown,
        "m": m,
        "m_requested": m_requested,
        "lanczos_drift": decomp.drift,
        "recon_error": modes.recon_error,
        "modes_merged": modes.merged,
        "source_coords": asm.src_coords,
        "probe_coords": asm.probe_coords,
    }


def run_study(sc, ms, out_dir=None):
    """The trace at each subspace size in ms, and its error against the
    reference when the scenario designates one.

    One decomposition is built at the largest m and truncated for the
    smaller entries, so the operator work is not repeated; `wavecast
    run` is the study of a single m.  Returns (report, waveforms dict).
    """
    ms = tuple(ms)
    if not ms:
        raise ConfigurationError("a study needs a nonempty m list")
    if list(ms) != sorted(set(ms)):
        raise ConfigurationError("m list must be strictly increasing")
    if ms[0] < 1:
        raise ConfigurationError(f"need every m >= 1, got {ms}")
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    asm = _prepare(sc)
    timings = {"assemble_s": asm.seconds}

    t0 = time.perf_counter()
    decomp = _decompose(asm.op, asm.b, ms[-1], asm.probe_flats)
    timings["lanczos_s"] = time.perf_counter() - t0
    # a breakdown retreat or a closed invariant subspace shortens the run
    m_requested = ms[-1]
    ms = tuple(m for m in ms if m <= decomp.m) or (decomp.m,)

    times = _padded_times(sc)
    waveforms = {}
    ref_wf = fdtd_steps = None
    if sc.reference != "none":
        t0 = time.perf_counter()
        ref_wf, fdtd_steps = _reference_waveform(sc, asm, times)
        timings["reference_s"] = time.perf_counter() - t0
        waveforms["reference"] = ref_wf
        if out is not None:
            _csv_units(sc, ref_wf).to_csv(out / "reference.csv")

    entries = []
    timings["eigensolve_s"] = 0.0
    t0 = time.perf_counter()
    for m in ms:
        t_eig = time.perf_counter()
        modes = eigen_tridiag(decomp.truncate(m))
        timings["eigensolve_s"] += time.perf_counter() - t_eig
        wf = _trace_waveform(sc, modes, times)
        if ref_wf is not None:
            rel, _, _ = compare_traces(wf, ref_wf, t_lo=0.0, t_hi=sc.t_final)
            entries.append({"m": int(m), "errors": [float(r) for r in rel]})
    timings["evaluate_s"] = time.perf_counter() - t0
    waveforms["lanczos"] = wf
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
        metadata=_metadata(sc, asm, decomp, m_requested, ms[-1], modes),
    )
    if out is not None:
        report.to_json(out / "report.json")
    return report, waveforms
