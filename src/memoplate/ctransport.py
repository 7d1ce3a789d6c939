"""The steppers' history-transport backend: a compiled kernel, or the NumPy,
LAPACK and BLAS reference it must match bitwise, behind one interface.

A step of TransportStepper makes two passes over each history: the solve,
(I + N)^-1 applied to the profile scaled by 2 D^-1, and the completion, which
subtracts the old profile and adds the rank-one drive terms. The finish is
the triplet half of a MidpointStepper step, once the step's quadratures are
in: the memory load, the per-mode 3x3 map, the drive sums and the completion
of both histories.

Both backends have these three entries, ``solve(n, modes, band, s, p, x)``,
``complete(n, modes, t, r, p, z)`` and ``finish(modes, ne, nx, a, map, g,
g2, x, x1, re, pe, ze, rx, px, zx)``, plus ``arguments(*values)``, which
turns a call's numbers and arrays into what the entries take. A stepper
builds its calls' arguments once and calls the entries of ``kernel()[0]``
without asking which backend it is: ``kernel()`` decides that once per
process.

Reference runs the entries as an einsum scaling plus LAPACK tbtrs, a
subtraction plus BLAS ger, and small elementwise NumPy calls plus two
completions. At this band width tbtrs is mostly call overhead: it costs
about 4 ns per (mode x node) at every size. Kernel is the library built
from SOURCE, which does each entry in one loop nest, with the fused
multiply-adds by which OpenBLAS's tbsv and ger apply the same updates, so
its results are bitwise those of Reference. Its (nodes, modes) arrays are
the two Fortran-order buffers of a stepper, one read and the other
written, so the kernel takes no strides and its pointers are ``restrict``.
The finish sums the map's five products in sequence from +0, written out
as elementwise IEEE operations in both backends, so neither depends on a
NumPy loop order. The +0 start makes a sum of -0 products +0, as einsum's
sum into a zeroed output did, so states stepped at two or more modes kept
their bits when the einsum went.

The C source is compiled with the system ``cc`` on first use, into
``$XDG_CACHE_HOME/memoplate`` (``~/.cache/memoplate`` by default), a
directory of mode 0700. The file name hashes the source, the compiler
command and the CPU's feature flags, because ``-march=native`` code must not
run on another CPU that shares the home directory. The library is built
under a temporary name and moved into place, so concurrent first runs never
load a partial file, and later runs load it without invoking the compiler.
``load`` then makes every call of ``cases`` on both backends (irregular and
zero inputs, the finish at 1, 2, 8 and 11 modes with both histories, one or
none) and keeps the kernel only if every array the calls leave behind is
bitwise equal. Without a compiler, on a build error, with an unusable cache
directory or on a mismatch, the steppers run Reference, and the reason,
naming the entry that differed, is reported.
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

/* One column of the completion: z = (z - p) + t r, with ger's rounding. */
static inline void complete_column(ptrdiff_t n, double t, const double *restrict r,
                                   const double *restrict p, double *restrict z)
{
    for (ptrdiff_t j = 0; j < n; j++)
        z[j] = fma(t, r[j], z[j] - p[j]);
}

/* z = (z - p) + t[m] r in every column m, where t holds a times the
   summed drive of each mode. */
void transport_complete(ptrdiff_t n, ptrdiff_t modes, const double *restrict t,
                        const double *restrict r, const double *restrict p, double *restrict z)
{
    for (ptrdiff_t m = 0; m < modes; m++)
        complete_column(n, t[m], r, p + m * n, z + m * n);
}

/* The triplet half of a midpoint step, once the quadratures are in rows
   5-7 of the row-major (8, modes) work array x:
   - the load rows x[3] = g2 q_beta and x[4] = g q_mu + q_nu;
   - the new triplet x1[0:3], the map [P | -Q] (modes, 3, 5) applied to
     x[0:5], its five products summed in sequence from +0;
   - the completion of each history with nodes, eta (ne nodes) by the
     drive sum a (theta + theta1) and xi (nx nodes) by a (v + v1), each
     with 0 nodes skipped. */
void midpoint_finish(ptrdiff_t modes, ptrdiff_t ne, ptrdiff_t nx, double a,
                     const double *restrict map, const double *restrict g,
                     const double *restrict g2, double *restrict x, double *restrict x1,
                     const double *restrict re, const double *restrict pe, double *restrict ze,
                     const double *restrict rx, const double *restrict px, double *restrict zx)
{
    for (ptrdiff_t m = 0; m < modes; m++) {
        x[3 * modes + m] = g2[m] * x[7 * modes + m];
        x[4 * modes + m] = g[m] * x[5 * modes + m] + x[6 * modes + m];
    }
    for (ptrdiff_t m = 0; m < modes; m++)
        for (ptrdiff_t i = 0; i < 3; i++) {
            const double *row = map + 15 * m + 5 * i;
            double t[5];
            for (ptrdiff_t j = 0; j < 5; j++)
                t[j] = row[j] * x[j * modes + m];
            /* the +0 start, as of a sum into a zeroed output, turns a sum
               of -0 terms into +0: the bits of the numpy.einsum this sum
               replaced, at two or more modes */
            x1[i * modes + m] = ((((0.0 + t[0]) + t[1]) + t[2]) + t[3]) + t[4];
        }
    for (ptrdiff_t m = 0; m < modes; m++) {
        complete_column(ne, a * (x[2 * modes + m] + x1[2 * modes + m]), re,
                        pe + m * ne, ze + m * ne);
        complete_column(nx, a * (x[modes + m] + x1[modes + m]), rx, px + m * nx, zx + m * nx);
    }
}
"""

# no -ffast-math: the kernel must round exactly as the reference does.
# -march=native turns fma() into one instruction; without FMA hardware it
# is a libm call and the kernel is slower than tbtrs
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_TBTRS, = get_lapack_funcs(("tbtrs",), dtype=np.float64)
_GER, = get_blas_funcs(("ger",), dtype=np.float64)


def memory_load(g: np.ndarray, g2: np.ndarray, q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The nonzero entries (g2 q_beta, g q_mu + q_nu) of the memory load of
    quadratures q = (q_mu, q_nu, q_beta), written into the rows of ``out``
    (2, modes) and returned."""
    np.multiply(g2, q[2], out=out[0])
    np.add(np.multiply(g, q[0], out=out[1]), q[1], out=out[1])
    return out


class Reference:
    """The entries by NumPy, LAPACK and BLAS, on their arguments as numbers
    and arrays, each (n, modes) array in Fortran order as the kernel's are.
    Like the kernel's, they write into their output arrays and return
    nothing."""

    @staticmethod
    def arguments(*values) -> tuple:
        """The values unchanged: the entries take numbers and arrays."""
        return values

    @staticmethod
    def solve(n, modes, band, s, p, x) -> None:
        """x = (I + N)^-1 (s * p), with I + N unit lower bidiagonal in LAPACK
        band storage ``band`` (2, n): the scaling by einsum into x, then tbtrs
        in place. Needs n > 0, since tbtrs on 0 rows corrupts the heap."""
        # einsum, not a broadcast multiply: NumPy's ufunc iterator allocates a
        # buffer of up to 64 KB for the broadcast operand
        info = _TBTRS(band, np.einsum("i,ij->ij", s, p, out=x), uplo="L", diag="U",
                      overwrite_b=True)[1]
        if info != 0:
            raise SingularStepError(f"triangular transport solve failed (info {info})")

    @staticmethod
    def complete(n, modes, t, r, p, z) -> None:
        """z = (z - p) + r t^T, for t (modes,), by a subtraction and BLAS ger
        with alpha 1, both in place. ger forms alpha t_m first, so for
        t = a drive this is ger(a, r, drive) to the bit."""
        np.subtract(z, p, out=z)
        _GER(1.0, r, t, a=z, overwrite_a=True)

    @staticmethod
    def finish(modes, ne, nx, a, map, g, g2, x, x1, re, pe, ze, rx, px, zx) -> None:
        """The triplet half of a step in NumPy: memory_load into x[3:5], the
        map applied to x[:5] into x1[:3] as ((((0 + m0 x0) + m1 x1) + m2 x2)
        + m3 x3) + m4 x4 with m = map.transpose(2, 1, 0), and the completion
        of each block with nodes by a times its drive sum, eta by
        x[2] + x1[2] and xi by x[1] + x1[1]."""
        memory_load(g, g2, x[5:8], x[3:5])
        m = map.transpose(2, 1, 0)
        x1[:3] = ((((0.0 + m[0] * x[0]) + m[1] * x[1]) + m[2] * x[2]) + m[3] * x[3]) + m[4] * x[4]
        t = a * (x[1:3] + x1[1:3])
        if ne:
            Reference.complete(ne, modes, t[1], re, pe, ze)
        if nx:
            Reference.complete(nx, modes, t[0], rx, px, zx)


class KernelUnavailable(Exception):
    """The compiled kernel cannot be built or loaded; the message says why."""


_SIZE, _PTR = ctypes.c_ssize_t, ctypes.c_void_p
# entry: (C function, argument types)
ENTRIES = {"solve": ("transport_solve", (_SIZE,) * 2 + (_PTR,) * 4),
           "complete": ("transport_complete", (_SIZE,) * 2 + (_PTR,) * 4),
           "finish": ("midpoint_finish", (_SIZE,) * 3 + (ctypes.c_double,) + (_PTR,) * 11)}


class Kernel:
    """The loaded library. Its entries take Reference's arguments as
    ctypes objects: the sizes, the scalar a and the data addresses of the
    arrays, of which no two overlap."""

    def __init__(self, path: Path):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise KernelUnavailable(f"cannot load {path.name}: {exc}") from None
        for entry, (symbol, types) in ENTRIES.items():
            fn = getattr(lib, symbol)
            fn.argtypes, fn.restype = types, None
            setattr(self, entry, fn)
        self.name = path.name
        self._lib = lib

    @staticmethod
    def arguments(*values) -> tuple:
        """The arguments of a call as ctypes objects: an array as its data
        address, a float as a double and an int as a size. ctypes converts
        its own objects faster than Python numbers, by about 0.05 us an
        argument, so a stepper builds its calls' arguments once."""
        return tuple(ctypes.c_void_p(v.ctypes.data) if isinstance(v, np.ndarray)
                     else ctypes.c_double(v) if isinstance(v, float) else ctypes.c_ssize_t(v)
                     for v in values)


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


def _spread(count: int, seed: float) -> np.ndarray:
    """``count`` irregular values in (0, 1) with full mantissas, the same in
    every process: the fractional parts of seed + k times the golden ratio."""
    return np.modf(seed + 0.6180339887498949 * np.arange(1, count + 1))[0]


def _data(shape: tuple, seed: float, zero: bool, order: str = "C") -> np.ndarray:
    """Zeros, or irregular values in (-2, 2), of the given shape and order."""
    y = np.zeros(shape, order=order)
    if not zero:
        y[...] = 4.0 * _spread(y.size, seed).reshape(shape) - 2.0
    return y


def cases():
    """The self-check's calls (entry, where, values), each on irregular and
    on zero inputs: the solve and the completion at n x modes = 1 x 1,
    37 x 11 and 64 x 8, so for a block of eight modes and for partial ones,
    and the finish at 1, 2, 8 and 11 modes with 37 + 5, 37 + 0, 0 + 5 and
    0 + 0 history nodes. ``where`` names the reference's call and the size."""
    a = 0.0123456789
    for n, modes in ((1, 1), (37, 11), (64, 8)):
        band = np.ones((2, n), order="F")
        band[1] = -_spread(n, 0.1)
        scale, response = 0.5 + 1.5 * _spread(n, 0.2), _spread(n, 0.3)
        for zero in (False, True):
            profile = _data((n, modes), 0.4, zero, "F")
            yield ("solve", f"tbtrs at {n} x {modes}",
                   (n, modes, band, scale, profile, np.zeros((n, modes), order="F")))
            for drive in (2.0 * _spread(modes, 0.5) - 1.0, np.zeros(modes)):
                yield ("complete", f"ger at {n} x {modes}",
                       (n, modes, a * drive, response, profile, _data((n, modes), 0.6, zero, "F")))
    for modes in (1, 2, 8, 11):
        g = 1.0 + 40.0 * _spread(modes, 0.6)
        signed = 2.0 * _spread(15 * modes, 0.7).reshape(modes, 3, 5) - 1.0
        for ne, nx in ((37, 5), (37, 0), (0, 5), (0, 0)):
            for zero in (False, True):
                # every product is -0 in the zero case, and the sums read +0
                # only from the +0 start
                yield ("finish", f"the reference at modes = {modes}, {ne} + {nx} nodes",
                       (modes, ne, nx, a, -np.abs(signed) if zero else signed, g, g * g,
                        _data((8, modes), 0.8, zero), np.ones((8, modes)), _spread(ne, 0.9),
                        _data((ne, modes), 0.1, zero, "F"), _data((ne, modes), 0.2, zero, "F"),
                        _spread(nx, 0.3), _data((nx, modes), 0.4, zero, "F"),
                        _data((nx, modes), 0.5, zero, "F")))


def mismatch(kernel: Kernel) -> str | None:
    """None if every call of ``cases`` leaves each of its arrays bitwise the
    same in the kernel as in Reference; else which entry differed, from
    what and where."""
    for entry, where, values in cases():
        mine = tuple(v.copy(order="K") if isinstance(v, np.ndarray) else v for v in values)
        getattr(Reference, entry)(*values)
        getattr(kernel, entry)(*kernel.arguments(*mine))
        if not all(v.tobytes() == w.tobytes()
                   for v, w in zip(values, mine) if isinstance(v, np.ndarray)):
            return f"{entry} differs from {where}"
    return None


def load() -> tuple[Kernel | type[Reference], str]:
    """(kernel, "compiled <file>") when the kernel builds, loads and passes
    ``mismatch``; else (Reference, "tbtrs: <reason>")."""
    try:
        kernel = Kernel(build())
    except KernelUnavailable as exc:
        return Reference, f"tbtrs: {exc}"
    differs = mismatch(kernel)
    return (Reference, f"tbtrs: {differs}") if differs else (kernel, f"compiled {kernel.name}")


@functools.cache
def kernel() -> tuple[Kernel | type[Reference], str]:
    """``load()``, once per process: the backend the steppers run, and the
    manifest's ``versions.transport``."""
    return load()
