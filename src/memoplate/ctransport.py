"""The compiled history-transport kernel and the LAPACK/BLAS reference it
must match.

A step of TransportStepper makes two passes over each history: the solve,
(I + N)^-1 applied to the profile scaled by 2 D^-1, and the completion, which
subtracts the old profile and adds the rank-one drive terms. The reference
runs them as NumPy einsum plus LAPACK tbtrs and as a subtraction plus BLAS
ger. At this band width tbtrs is mostly call overhead: it costs about 4 ns
per (mode x node) at every size. SOURCE does each pass in one
loop nest, with the fused multiply-adds by which OpenBLAS's tbsv and ger
apply the same updates, so its results are bitwise those of the reference.
Its (nodes, modes) arrays are the two Fortran-order buffers of a stepper,
one read and the other written, so the kernel takes no strides and its
pointers are ``restrict``.

The C source is compiled with the system ``cc`` on first use, into
``$XDG_CACHE_HOME/memoplate`` (``~/.cache/memoplate`` by default), a
directory of mode 0700. The file name hashes the source, the compiler
command and the CPU's feature flags, because ``-march=native`` code must not
run on another CPU that shares the home directory. The library is built
under a temporary name and moved into place, so concurrent first runs never
load a partial file, and later runs load it without invoking the compiler.
``load`` then runs the kernel against the reference on irregular and zero
inputs and keeps it only if every result is bitwise equal. Without a
compiler, on a build error, with an unusable cache directory or on a
mismatch, the steppers run the reference, and the reason is reported.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import SingularStepError

SOURCE = r"""
#include <math.h>
#include <stddef.h>

/* Columns per block of the solve: independent recurrences whose
   multiply-adds overlap, each read and written as a sequential stream. */
#define BLOCK 8

/* Every (n, modes) array is column-major, and no two of a call's arrays
   overlap. */

static inline void solve_block(ptrdiff_t n, ptrdiff_t w, const double *restrict band,
                               const double *restrict s, const double *restrict p,
                               double *restrict x)
{
    double prev[BLOCK];
    for (ptrdiff_t k = 0; k < w; k++)
        prev[k] = x[k * n] = s[0] * p[k * n];
    for (ptrdiff_t j = 1; j < n; j++)
        for (ptrdiff_t k = 0; k < w; k++)
            prev[k] = x[k * n + j] = fma(-prev[k], band[2 * j - 1], s[j] * p[k * n + j]);
}

/* x = (I + N)^-1 (s * p), with I + N in LAPACK's lower band storage:
   band[2 j + 1] is N's entry in row j + 1 and column j. */
void transport_solve(ptrdiff_t n, ptrdiff_t modes, const double *restrict band,
                     const double *restrict s, const double *restrict p, double *restrict x)
{
    ptrdiff_t m = 0;
    for (; m + BLOCK <= modes; m += BLOCK)
        solve_block(n, BLOCK, band, s, p + m * n, x + m * n);
    if (m < modes)
        solve_block(n, modes - m, band, s, p + m * n, x + m * n);
}

/* z = (z - p) + t[m] r in every column m, where t holds a times the
   summed drive of each mode. */
void transport_complete(ptrdiff_t n, ptrdiff_t modes, const double *restrict t,
                        const double *restrict r, const double *restrict p, double *restrict z)
{
    for (ptrdiff_t m = 0; m < modes; m++)
        for (ptrdiff_t j = 0; j < n; j++)
            z[m * n + j] = fma(t[m], r[j], z[m * n + j] - p[m * n + j]);
}
"""

# no -ffast-math: the kernel must round exactly as the reference does.
# -march=native turns fma() into one instruction; without FMA hardware it
# is a libm call and the kernel is slower than tbtrs
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_TBTRS, = get_lapack_funcs(("tbtrs",), dtype=np.float64)
_GER, = get_blas_funcs(("ger",), dtype=np.float64)


def reference_solve(band: np.ndarray, scale: np.ndarray, profile: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """(I + N)^-1 (scale * profile), with I + N unit lower bidiagonal in
    LAPACK band storage ``band`` (2, nodes): the scaling by einsum into the
    Fortran-order ``out``, then tbtrs in place. Returns the solution."""
    # einsum, not a broadcast multiply: NumPy's ufunc iterator allocates a
    # buffer of up to 64 KB for the broadcast operand
    x, info = _TBTRS(band, np.einsum("i,ij->ij", scale, profile, out=out),
                     uplo="L", diag="U", overwrite_b=True)
    if info != 0:
        raise SingularStepError(f"triangular transport solve failed (info {info})")
    return x


def reference_complete(a: float, response: np.ndarray, drive: np.ndarray, z: np.ndarray,
                       profile: np.ndarray) -> np.ndarray:
    """z - profile + a * response * drive (modes,) by a subtraction and BLAS
    ger, both in place in the Fortran-order ``z``, which is returned."""
    np.subtract(z, profile, out=z)
    return _GER(a, response, drive, a=z, overwrite_a=True)


class KernelUnavailable(Exception):
    """The compiled kernel cannot be built or loaded; the message says why."""


class Kernel:
    """The loaded library: ``solve(n, modes, band, s, p, x)`` and
    ``complete(n, modes, t, r, p, z)`` take the sizes and the data addresses
    of their vectors and of Fortran-order (n, modes) arrays p and x or z,
    which must not overlap."""

    def __init__(self, path: Path):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise KernelUnavailable(f"cannot load {path.name}: {exc}") from None
        size, ptr = ctypes.c_ssize_t, ctypes.c_void_p
        self.solve, self.complete = lib.transport_solve, lib.transport_complete
        for fn in (self.solve, self.complete):
            fn.argtypes = (size, size, ptr, ptr, ptr, ptr)
            fn.restype = None
        self.name = path.name
        self._lib = lib


def cpu_flags() -> str:
    """The CPU's feature flags as the kernel reports them, or the machine
    name where /proc/cpuinfo does not list them."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def build() -> Path:
    """The library's path in the cache, compiled first unless it is there.
    KernelUnavailable without a compiler, on a build error or when the cache
    directory cannot be made, written or trusted."""
    cc = shutil.which("cc")
    if cc is None:
        raise KernelUnavailable("no C compiler (cc) on PATH")
    command = (os.path.realpath(cc),) + FLAGS
    key = hashlib.sha256("\0".join((SOURCE, *command, cpu_flags())).encode()).hexdigest()
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        directory = (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "memoplate"
    except RuntimeError:
        raise KernelUnavailable("no home directory for the cache") from None
    path = directory / f"transport-{key[:16]}.so"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = directory.stat()
        # a library others could replace would run their code in this process
        if st.st_uid != os.getuid():
            raise KernelUnavailable(f"cache directory {directory} belongs to another user")
        if st.st_mode & 0o022:
            raise KernelUnavailable(f"cache directory {directory} is writable by others")
        if path.exists():
            return path
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            (Path(tmp) / "transport.c").write_text(SOURCE)
            try:
                # relative names keep the temporary directory out of messages
                run = subprocess.run([*command, "-o", path.name, "transport.c", "-lm"],
                                     cwd=tmp, capture_output=True, text=True, timeout=120)
            except subprocess.TimeoutExpired:
                raise KernelUnavailable("build timed out") from None
            except OSError as exc:
                raise KernelUnavailable(f"cannot run {cc}: {exc.strerror or exc}") from None
            if run.returncode != 0:
                first = (run.stderr.strip().splitlines() or ["no message"])[0]
                raise KernelUnavailable(f"build failed ({cc} exit {run.returncode}: {first})")
            os.replace(Path(tmp) / path.name, path)
    except OSError as exc:
        raise KernelUnavailable(f"cache directory {directory}: "
                                f"{exc.strerror or exc}") from None
    return path


def arguments(n: int, modes: int, *arrays: np.ndarray) -> tuple:
    """The arguments of a call: n, modes and the data addresses of
    ``arrays``, as ctypes objects. ctypes converts its own objects faster
    than Python ints, by about 0.05 us an argument, so a stepper builds its
    calls' arguments once."""
    return (ctypes.c_ssize_t(n), ctypes.c_ssize_t(modes),
            *(ctypes.c_void_p(a.ctypes.data) for a in arrays))


def _spread(count: int, seed: float) -> np.ndarray:
    """``count`` irregular values in (0, 1) with full mantissas, the same in
    every process: the fractional parts of seed + k times the golden ratio."""
    return np.modf(seed + 0.6180339887498949 * np.arange(1, count + 1))[0]


def mismatch(kernel: Kernel) -> str | None:
    """None if the kernel's solve and complete equal reference_solve and
    reference_complete bitwise on irregular and zero inputs, both for a
    block of eight modes and for a partial one, with every array in Fortran
    order; else which pass differed."""
    bits = np.uint64
    for n, modes in ((1, 1), (37, 11), (64, 8)):
        band = np.ones((2, n), order="F")
        band[1] = -_spread(n, 0.1)
        scale, response = 0.5 + 1.5 * _spread(n, 0.2), _spread(n, 0.3)
        a = 0.0123456789
        irregular = 4.0 * _spread(n * modes, 0.4).reshape((n, modes), order="F") - 2.0
        for profile in (irregular, np.zeros((n, modes), order="F")):
            where = f"at {n} x {modes}"
            ref = reference_solve(band, scale, profile, np.empty((n, modes), order="F"))
            got = np.empty((n, modes), order="F")
            kernel.solve(n, modes, band.ctypes.data, scale.ctypes.data, profile.ctypes.data,
                         got.ctypes.data)
            if not np.array_equal(got.view(bits), ref.view(bits)):
                return f"solve differs from tbtrs {where}"
            for drive in (2.0 * _spread(modes, 0.5) - 1.0, np.zeros(modes)):
                want = reference_complete(a, response, drive, ref.copy(order="F"), profile)
                t, z = a * drive, got.copy(order="F")
                kernel.complete(n, modes, t.ctypes.data, response.ctypes.data,
                                profile.ctypes.data, z.ctypes.data)
                if not np.array_equal(z.view(bits), want.view(bits)):
                    return f"complete differs from ger {where}"
    return None


def load() -> tuple[Kernel | None, str]:
    """(kernel, "compiled <file>") when the kernel builds, loads and passes
    ``mismatch``; else (None, "tbtrs: <reason>")."""
    try:
        kernel = Kernel(build())
    except KernelUnavailable as exc:
        return None, f"tbtrs: {exc}"
    differs = mismatch(kernel)
    if differs:
        return None, f"tbtrs: {differs}"
    return kernel, f"compiled {kernel.name}"


@functools.cache
def kernel() -> tuple[Kernel | None, str]:
    """``load()``, once per process: what every TransportStepper with nodes
    runs, and the manifest's ``versions.transport``."""
    return load()
