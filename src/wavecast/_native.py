"""Build and load the package's C kernels.

Each C source in this package is compiled with gcc on first use (never
at import) into the package's __pycache__, under a name keyed by the
SHA-256 of the source and the compiler command.  The library is written
to a temporary name and renamed into place, so no process loads a
half-written file; the builds of the same source under other keys are
then removed.  gcc is required: a kernel that cannot be built or
loaded is a ConfigurationError, which run_study meets before either
route starts.  ctypes releases the GIL for every call into a kernel.

Every kernel is called one way.  An array goes across as a typed
argument (REAL, CPLX, INTS, LONGS: C-contiguous float64, complex128,
intc and C long), so a wrong dtype or a strided array is a ctypes
error, not a misread buffer; a call at an offset passes a slice.  Every
source defines the one path probe, kernel_simd() (1 when the CPU runs
the source's AVX2 path), and load sets its answer on the library as
`simd`.  _usable_cpus is the CPU count that every compiled stage splits
its work by.
"""

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

REAL, CPLX, INTS, LONGS = (
    np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
    for dtype in (np.float64, np.complex128, np.intc, ctypes.c_long))

# the compiler command shared by every source; the source's own flags,
# then the output path and the source, are appended
_CC = ("gcc", "-O2", "-shared", "-fPIC")
# per-source flags (every C source of the package has an entry)
FLAGS = {
    # OpenMP over the values of the polish and of the inverse iteration,
    # and over the impulse's blocks of samples; no product and sum fused,
    # so each lockstep lane, on the AVX2 path or the baseline path of one
    # lane source (chosen at run time, see the source), is its value's
    # operations alone
    "_ritz.c": ("-fopenmp", "-ffp-contract=off"),
    # OpenMP row blocks, and FMA only where the source asks for it (see
    # the source's comment)
    "_lanczos.c": ("-fopenmp", "-ffp-contract=off"),
    # OpenMP row blocks, and the numpy oracle's operations, with no
    # product and sum fused; -O3 vectorizes the row loops (twice the
    # speed of -O2), two values wide, or four in the AVX2 step chosen at
    # run time
    "_fdtd.c": ("-O3", "-fopenmp", "-ffp-contract=off"),
}


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def load(name, signatures):
    """The library built from the package's C source `name`, with each
    function of signatures ({function: (restype, argtypes)}) set up and
    `simd` set to its kernel_simd()."""
    source_path = Path(__file__).with_name(name)
    command = (*_CC, *FLAGS[name])
    cache = source_path.with_name("__pycache__")
    try:
        source = source_path.read_bytes()
        key = hashlib.sha256(source + repr(command).encode()).hexdigest()[:16]
        lib_path = cache / f"{source_path.stem}-{key}.so"
        if not lib_path.exists():
            cache.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([*command, "-o", tmp, str(source_path)],
                               check=True, capture_output=True, timeout=60)
                os.replace(tmp, lib_path)
            finally:
                Path(tmp).unlink(missing_ok=True)
            # builds of older revisions of the source are dead weight
            for stale in cache.glob(f"{source_path.stem}-*.so"):
                if stale != lib_path:
                    stale.unlink(missing_ok=True)
        lib = ctypes.CDLL(str(lib_path))
        for function, (restype, argtypes) in signatures.items():
            fn = getattr(lib, function)
            fn.restype, fn.argtypes = restype, argtypes
        lib.kernel_simd.restype = ctypes.c_int
        lib.simd = lib.kernel_simd()
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        # one line: the compiler's first message, or the error's own
        stderr = getattr(exc, "stderr", None) or b""
        detail = stderr.decode(errors="replace").strip() or str(exc)
        detail = detail.partition("\n")[0]
        raise ConfigurationError(
            f"cannot build or load the {name} kernel with "
            f"'{' '.join(command)}' in {cache}: {detail}"
        ) from None
    return lib
