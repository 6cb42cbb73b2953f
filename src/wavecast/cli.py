"""Command-line front end.

    wavecast run <scenario> [--m M] [--out DIR]
    wavecast converge <scenario> [--m 500,1000,...] [--out DIR]
    wavecast pml-report --chi R --k K [--samples N] [--out DIR]
    wavecast compare a.csv b.csv [--assert TOL]
    wavecast grid-dump <scenario> [--out FILE]

<scenario> is a preset name or the path of a sectioned key-value
config file.  Exit codes: 0 success, 2 configuration error (a kernel
that cannot be built, an input too large to allocate for, and an output
path that cannot be created or written, too), 3 numerical breakdown, 4
tolerance exceeded under --assert, 130 interrupted (Ctrl-C).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidParameterError,
    ValidationError,
    WavecastError,
)
from .harness import build_scenario_grid, run_study
from .scenarios import PRESETS, get_scenario, load_config
from .signals import Waveform, compare_traces
from .zolotarev import (
    SpectralInterval,
    impedance_error,
    to_continued_fraction,
    zolotarev_approx,
)


def _load_scenario(arg):
    if arg in PRESETS:
        return get_scenario(arg)
    if Path(arg).exists():
        return load_config(arg)
    raise ConfigurationError(
        f"{arg!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
        "nor a config file"
    )


def _print_report(report):
    meta = report.metadata
    print(
        f"scenario {report.scenario}: n_unknown={meta['n_unknown']} "
        f"chi={meta['chi']:.6g} m={report.m}"
    )
    if report.probe_errors is not None:
        for name, err in zip(report.probe_names, report.probe_errors):
            print(f"  {name}: rel_error={err:.6e}")


def _study(args, sc, ms, show_entries):
    out = args.out if args.out is not None else Path("runs") / sc.name
    report, _ = run_study(sc, ms, out_dir=out)
    _print_report(report)
    if show_entries:
        for entry in report.convergence:
            errs = " ".join(f"{e:.6e}" for e in entry["errors"])
            print(f"  m={entry['m']:6d}  {errs}")
    print(f"wrote {Path(out) / 'report.json'}")
    return 0


def _cmd_run(args):
    sc = _load_scenario(args.scenario)
    m = sc.m_default if args.m is None else args.m
    return _study(args, sc, (m,), show_entries=False)


def _cmd_converge(args):
    sc = _load_scenario(args.scenario)
    if sc.reference == "none":
        raise ConfigurationError(
            f"scenario {sc.name} designates no reference to converge against"
        )
    m_list = sc.m_list
    if args.m is not None:
        try:
            m_list = tuple(int(p) for p in args.m.replace(",", " ").split())
        except ValueError:
            raise ConfigurationError(
                f"--m wants comma-separated integers, got {args.m!r}"
            ) from None
    return _study(args, sc, m_list, show_entries=True)


def _cmd_pml_report(args):
    if not 1.0 <= args.chi < np.inf:
        raise ConfigurationError(
            f"--chi must be finite and >= 1, got {args.chi}")
    if args.samples < 2:
        raise ConfigurationError(f"--samples must be >= 2, got {args.samples}")
    interval = SpectralInterval(-float(args.chi), -1.0)
    imp = zolotarev_approx(interval, args.k)
    steps = to_continued_fraction(imp)
    xs, err = impedance_error(imp, interval, args.samples)

    out = Path(args.out if args.out is not None else "pml-report")
    out.mkdir(parents=True, exist_ok=True)
    table = np.column_stack([-xs, err])
    np.savetxt(out / "error.csv", table, fmt="%.17g", delimiter=",",
               header="s,error", comments="")
    summary = {
        "chi": float(args.chi),
        "k": int(args.k),
        "max_error": imp.max_error,
        "sampled_max_error": float(err.max()),
        "gamma": steps.gamma.tolist(),
        "gamma_hat": steps.gamma_hat.tolist(),
        "cf_roundtrip_error": steps.roundtrip_error,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"chi={args.chi:g} k={args.k}: max_error={imp.max_error:.6e}")
    print(f"wrote {out / 'error.csv'} and {out / 'summary.json'}")
    return 0


def _cmd_compare(args):
    if args.tolerance is not None and not args.tolerance >= 0.0:
        raise ConfigurationError(
            f"--assert must be a number >= 0, got {args.tolerance}")
    wa = Waveform.from_csv(args.trace_a)
    wb = Waveform.from_csv(args.trace_b)
    rel, lo, hi = compare_traces(wa, wb)
    for name, err in zip(wa.probe_names, rel):
        print(f"{name}: rel_error={err:.6e}")
    print(f"window [{lo:.6g}, {hi:.6g}]")
    worst = float(np.max(rel))
    if args.tolerance is not None and not worst <= args.tolerance:
        raise ValidationError(
            f"worst relative error {worst:.6e} exceeds {args.tolerance:.6e}"
        )
    return 0


def _cmd_grid_dump(args):
    _, _, grid = build_scenario_grid(_load_scenario(args.scenario))
    rows = []
    for label, axis in (("x", grid.axis_x), ("y", grid.axis_y)):
        for kind, nodes in (("primary", axis.primary), ("dual", axis.dual)):
            for i, z in enumerate(nodes):
                rows.append(f"{label},{kind},{i},{z.real:.17g},{z.imag:.17g}")
    text = "\n".join(["axis,kind,index,re,im", *rows]) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="wavecast",
        description="transient 2D exterior wave fields via an optimal "
        "absorbing layer and a Krylov exponent solver",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("run", help="run one scenario and write artifacts")
    q.add_argument("scenario", help="preset name or config file path")
    q.add_argument("--m", type=int, default=None, help="subspace size")
    q.add_argument("--out", default=None, help="output directory")
    q.set_defaults(fn=_cmd_run)

    q = sub.add_parser("converge", help="error against the reference per m")
    q.add_argument("scenario", help="preset name or config file path")
    q.add_argument("--m", default=None, help="comma-separated sizes")
    q.add_argument("--out", default=None, help="output directory")
    q.set_defaults(fn=_cmd_converge)

    q = sub.add_parser("pml-report", help="absorbing-layer error sweep")
    q.add_argument("--chi", type=float, required=True, help="interval ratio")
    q.add_argument("--k", type=int, required=True, help="layer node count")
    q.add_argument("--samples", type=int, default=2000)
    q.add_argument("--out", default=None, help="output directory")
    q.set_defaults(fn=_cmd_pml_report)

    q = sub.add_parser("compare", help="relative L2 gap of two trace files")
    q.add_argument("trace_a")
    q.add_argument("trace_b", help="reference trace")
    q.add_argument("--assert", dest="tolerance", type=float, default=None,
                   help="fail (exit 4) if the worst error exceeds this")
    q.set_defaults(fn=_cmd_compare)

    q = sub.add_parser("grid-dump", help="stretched node coordinates as CSV")
    q.add_argument("scenario", help="preset name or config file path")
    q.add_argument("--out", default=None, help="output file (default stdout)")
    q.set_defaults(fn=_cmd_grid_dump)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an input too large to allocate for, such as n_int = 1e11
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an output path that is a file, a directory or not writable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 4
    except WavecastError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # run_study has already cancelled the reference march
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
