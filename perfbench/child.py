"""One wavecast command in a fresh process, as the stage benchmark runs it.

    python3 child.py RESULT_JSON [--trace | --setup-only] -- <wavecast arguments>

The process imports wavecast, loads the scenario named in the arguments,
stamps the end of set-up on CLOCK_MONOTONIC (comparable with the parent's
stamp taken before the spawn), then calls `wavecast.cli.main`.  With
--trace, the public functions `wavecast.harness` calls are wrapped in span
recorders first; spans stay in memory and are written out with the result
when the process exits.  With --setup-only it exits after the stamp.
"""

import functools
import inspect
import json
import os
import resource
import sys
import time


class SpanRecorder:
    """In-memory spans: name, start, end, parent id and per-call counts."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, counts=None):
        """fn wrapped in a span; counts(bound_args, result, exc) -> dict."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                span["error"] = type(err).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                if counts is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counts(bound.arguments, result, exc)

        return wrapper


def _lanczos_counts(args, decomp, exc):
    if decomp is not None:
        return {"iters_run": decomp.m, "iters_kept": decomp.m,
                "drift": decomp.drift}
    # a breakdown at iteration i leaves i - 1 completed iterations
    index = getattr(exc, "index", None) or 1
    return {"iters_run": index - 1, "iters_kept": 0}


def _eig_counts(args, modes, exc):
    out = {"m": args["decomp"].m}
    if modes is not None:
        out["recon_error"] = modes.recon_error
    return out


def _kernel_counts(args, impulse, exc):
    return {"evals": args["modes"].theta.size * len(args["times"])}


def _operator_counts(args, op, exc):
    return {} if op is None else {"n": op.n, "nnz": op.a_mat.nnz}


def _fdtd_counts(args, res, exc):
    # four float64 field arrays (Ezx, Ezy on nn x nn nodes, Hx, Hy on
    # nn x (nn - 1) edges), each read and written once per step
    nn = args["n_int"] + 2 * args["n_pml"] + 1
    field_values = 2 * nn * nn + 2 * nn * (nn - 1)
    return {"steps": 0 if res is None else res.n_steps,
            "bytes_per_step_computed": 2 * 8 * field_values}


def _csv_counts(args, result, exc):
    path = args["path"]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def install_spans(recorder):
    """Wrap the layer entry points `wavecast.harness` reaches."""
    import wavecast.harness as harness
    from wavecast.operator import MediumMap
    from wavecast.signals import Waveform

    for name, counts in (
        ("zolotarev_approx", None),
        ("to_continued_fraction", None),
        ("build_grid2d", None),
        ("assemble_operator", _operator_counts),
        ("bilanczos", _lanczos_counts),
        ("eigen_tridiag", _eig_counts),
        ("evaluate_impulse", _kernel_counts),
        ("convolve_source", None),
        ("run_fdtd", _fdtd_counts),
        ("compare_traces", None),
    ):
        setattr(harness, name,
                recorder.wrap(name, getattr(harness, name), counts))
    MediumMap.from_function = staticmethod(
        recorder.wrap("MediumMap.from_function", MediumMap.from_function))
    Waveform.to_csv = recorder.wrap("Waveform.to_csv", Waveform.to_csv,
                                    _csv_counts)


def main(argv):
    result_path, *flags = argv[: argv.index("--")]
    cli_args = argv[argv.index("--") + 1:]
    result = {}
    try:
        import wavecast.cli
        from wavecast.scenarios import PRESETS, get_scenario, load_config

        scenario = cli_args[1]
        if scenario in PRESETS:
            get_scenario(scenario)
        else:
            load_config(scenario)
        result["t_ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        if "--setup-only" in flags:
            return 0

        recorder = None
        command = wavecast.cli.main
        if "--trace" in flags:
            recorder = SpanRecorder()
            install_spans(recorder)
            command = recorder.wrap("command", command)
        t0 = time.perf_counter()
        try:
            result["exit_code"] = command(cli_args)
        finally:
            result["command_s"] = time.perf_counter() - t0
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            if recorder is not None:
                result["spans"] = recorder.spans
        return 0
    finally:
        with open(result_path, "w") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
