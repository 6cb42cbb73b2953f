"""Regenerate the committed trace that ring-paper-trace is checked against.

    python3 perfbench/make_reference.py

It runs the ring-paper-trace config at m = 1200 instead of 400, with the
benchmark's thread pinning, and keeps the samples in [0, t_final].  On a
2-core x86-64 host with OpenBLAS 0.3.31 the m = 400 trace is 2.3 % away
from it (relative L2); m = 1000 is 0.5 % away.
"""

import sys

import numpy as np

import run as bench


def main():
    workdir = bench.WORK / "make-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "ring-paper-trace.ini"
    sc = bench.write_ring_paper_config(config)
    out_dir = workdir / "out"
    record, error = bench.spawn(
        ("run", str(config), "--m", str(bench.RING_PAPER_REFERENCE_M),
         "--out", str(out_dir)),
        workdir,
    )
    if record is None or record["exit_code"] != 0:
        print(f"error: reference run failed: {error or record}", file=sys.stderr)
        return 1
    path = out_dir / "lanczos.csv"
    header = path.read_text().splitlines()[0]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    keep = data[:, 0] <= float(sc.seconds(sc.t_final))
    np.savetxt(bench.RING_PAPER_REFERENCE, data[keep], fmt="%.17g",
               delimiter=",", header=header, comments="")
    print(f"wrote {bench.RING_PAPER_REFERENCE} ({int(keep.sum())} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
