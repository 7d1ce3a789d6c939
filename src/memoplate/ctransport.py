"""The steppers' history-transport backend: a compiled kernel, or the NumPy,
LAPACK and BLAS reference it must match bitwise, behind one interface.

A step of TransportStepper makes two passes over each history: the solve,
(I + N)^-1 applied to the profile scaled by 2 D^-1, and the completion, which
subtracts the old profile and adds the rank-one drive terms. The finish is
the triplet half of a MidpointStepper step, once the step's quadratures are
in: the memory load, the per-mode 3x3 map, the drive sums, the completion
of both histories and the new state's history sums, which PhaseEnergy and
the trajectory's memory integrals read. The sums are sum w_mu eta^2,
sum w_nu eta^2, sum w_beta xi^2, sum w_mu eta and sum w_beta xi per mode,
each summed in node order from +0 with each square formed as (w z) z.

Both backends have these four entries, ``solve(n, modes, band, s, p, x)``,
``complete(n, modes, t, r, p, z)``, ``finish(modes, ne, nx, a, map, g, g2,
x, x1, re, pe, ze, we, rx, px, zx, wx)`` and ``sums(modes, ne, nx, ze, we,
zx, wx, s)``, which takes the same sums of a state that no step made, plus
``arguments(*values)``, which turns a call's numbers and arrays into what
the entries take. A stepper builds its calls' arguments once and calls the
entries of ``kernel()[0]`` without asking which backend it is: ``kernel()``
decides that once per process.

Reference runs the entries as an einsum scaling plus LAPACK tbtrs, a
subtraction plus BLAS ger, and small elementwise NumPy calls plus two
completions and the sums, whose node-order sums are np.add.accumulate.
At this band width tbtrs is mostly call overhead: it costs about 4 ns per
(mode x node) at every size. Kernel is the library built from SOURCE,
which does each entry in one loop nest, with the fused multiply-adds by
which OpenBLAS's tbsv and ger apply the same updates, so its results are
bitwise those of Reference. Its (nodes, modes) arrays are the two
Fortran-order buffers of a stepper, one read and the other written, or a
state's histories in Fortran order, so the kernel takes no strides and its
pointers are ``restrict``. The finish sums the map's five products in
sequence from +0, written out as elementwise IEEE operations in both
backends, so neither depends on a NumPy loop order. The +0 start makes a
sum of -0 products +0, as einsum's sum into a zeroed output did, so states
stepped at two or more modes kept their bits when the einsum went. The
history sums start from +0 too, and the kernel's finish and sums entry
share one C function for them, so a stepped state's energy has the same
bits from its step as from the sums entry.

The C source is compiled with the system ``cc`` on first use, into
``$XDG_CACHE_HOME/memoplate`` (``~/.cache/memoplate`` by default), a
directory of mode 0700. The file name hashes the source, the compiler
command and the CPU's feature flags, because ``-march=native`` code must not
run on another CPU that shares the home directory. The library is built
under a temporary name and moved into place, so concurrent first runs never
load a partial file, and later runs load it without invoking the compiler.
``load`` then makes every call of ``cases`` on both backends (irregular and
zero inputs; the finish at 1, 2, 8 and 11 modes with both histories, one or
none; the sums at the same modes with both) and keeps the kernel only if
every array the calls leave behind is bitwise equal. Without a compiler,
on a build error, with an unusable cache directory or on a mismatch, the
steppers run Reference, and the reason, naming the entry that differed, is
reported.
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

/* Columns per block of the solve and of the history sums: independent
   recurrences or sums whose operations overlap, each column read and
   written as a sequential stream. */
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

/* BLOCK doubles, one node of a block's columns, in GCC's and clang's
   vector extension: elementwise IEEE operations, with no contraction under
   -ffp-contract=off. The shuffles below are written for BLOCK 8. */
typedef double lanes __attribute__((vector_size(BLOCK * sizeof(double))));
#ifdef __clang__
#define SHUFFLE(x, y, ...) __builtin_shufflevector(x, y, __VA_ARGS__)
#else
typedef long long picks __attribute__((vector_size(BLOCK * sizeof(long long))));
#define SHUFFLE(x, y, ...) __builtin_shuffle(x, y, (picks){__VA_ARGS__})
#endif

/* The sums of a block of w <= BLOCK columns z of a history with n nodes,
   each column's in node order from +0: qa[k] = sum (wa z) z, ia[k] =
   sum wa z and, unless wb is NULL, qb[k] = sum (wb z) z, each product
   formed as written. A full block reads 8 nodes of its 8 columns at a time
   and transposes them in registers into one vector per node, so that each
   column's sum is one lane of a vector sum; the nodes past the last 8 and
   a partial block fill the lanes one by one, the unused ones with 0. */
static inline void sum_block(ptrdiff_t n, ptrdiff_t w, const double *restrict z,
                             const double *restrict wa, const double *restrict wb,
                             double *restrict qa, double *restrict qb, double *restrict ia)
{
    lanes sa = {0.0}, sb = {0.0}, si = {0.0}, node[BLOCK];
    ptrdiff_t j0 = 0;
    for (; w == BLOCK && j0 + BLOCK <= n; j0 += BLOCK) {
        lanes c[BLOCK], x[BLOCK];
        for (int k = 0; k < BLOCK; k++)
            __builtin_memcpy(&c[k], z + k * n + j0, sizeof c[k]);
        /* three rounds of pairs: odd and even nodes, then pairs of nodes,
           then halves, so that node[i] holds node j0 + i of every column */
        for (int k = 0; k < BLOCK; k += 2) {
            x[k] = SHUFFLE(c[k], c[k + 1], 0, 8, 2, 10, 4, 12, 6, 14);
            x[k + 1] = SHUFFLE(c[k], c[k + 1], 1, 9, 3, 11, 5, 13, 7, 15);
        }
        for (int k = 0; k < BLOCK; k += 4)
            for (int i = k; i < k + 2; i++) {
                c[i] = SHUFFLE(x[i], x[i + 2], 0, 1, 8, 9, 4, 5, 12, 13);
                c[i + 2] = SHUFFLE(x[i], x[i + 2], 2, 3, 10, 11, 6, 7, 14, 15);
            }
        for (int i = 0; i < 4; i++) {
            node[i] = SHUFFLE(c[i], c[i + 4], 0, 1, 2, 3, 8, 9, 10, 11);
            node[i + 4] = SHUFFLE(c[i], c[i + 4], 4, 5, 6, 7, 12, 13, 14, 15);
        }
        for (int i = 0; i < BLOCK; i++) {
            lanes u = wa[j0 + i] * node[i];
            sa += u * node[i];
            si += u;
            if (wb)
                sb += (wb[j0 + i] * node[i]) * node[i];
        }
    }
    for (ptrdiff_t j = j0; j < n; j++) {
        lanes y = {0.0};
        for (ptrdiff_t k = 0; k < w; k++)
            y[k] = z[k * n + j];
        lanes u = wa[j] * y;
        sa += u * y;
        si += u;
        if (wb)
            sb += (wb[j] * y) * y;
    }
    for (ptrdiff_t k = 0; k < w; k++) {
        qa[k] = sa[k];
        ia[k] = si[k];
        if (wb)
            qb[k] = sb[k];
    }
}

/* The sums of a state's histories, eta (ne nodes) under w_mu = we[0:ne]
   and w_nu = we[ne:2 ne] and xi (nx nodes) under w_beta = wx, into the
   rows of the row-major (5, modes) array s: sum w_mu eta^2, sum w_nu eta^2,
   sum w_beta xi^2, sum w_mu eta and sum w_beta xi, each in node order from
   +0, as midpoint_finish sums the state it makes. A history of 0 nodes
   sums to +0. */
void history_sums(ptrdiff_t modes, ptrdiff_t ne, ptrdiff_t nx, const double *restrict ze,
                  const double *restrict we, const double *restrict zx,
                  const double *restrict wx, double *restrict s)
{
    for (ptrdiff_t m = 0; m < modes; m += BLOCK) {
        ptrdiff_t w = modes - m < BLOCK ? modes - m : BLOCK;
        sum_block(ne, w, ze + m * ne, we, we + ne, s + m, s + modes + m, s + 3 * modes + m);
        sum_block(nx, w, zx + m * nx, wx, NULL, s + 2 * modes + m, NULL, s + 4 * modes + m);
    }
}

/* The triplet half of a midpoint step, once the quadratures are in rows
   5-7 of the row-major (13, modes) work array x:
   - the load rows x[3] = g2 q_beta and x[4] = g q_mu + q_nu;
   - the new triplet x1[0:3], the map [P | -Q] (modes, 3, 5) applied to
     x[0:5], its five products summed in sequence from +0;
   - the completion of each history, eta (ne nodes) by the drive sum
     a (theta + theta1) and xi (nx nodes) by a (v + v1), a block of 8
     modes at a time, each block summed by sum_block while it is still in
     cache: the new state's sums, into rows 8-12 of x1 in history_sums'
     layout and order. */
void midpoint_finish(ptrdiff_t modes, ptrdiff_t ne, ptrdiff_t nx, double a,
                     const double *restrict map, const double *restrict g,
                     const double *restrict g2, double *restrict x, double *restrict x1,
                     const double *restrict re, const double *restrict pe, double *restrict ze,
                     const double *restrict we, const double *restrict rx,
                     const double *restrict px, double *restrict zx,
                     const double *restrict wx)
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
    double *s = x1 + 8 * modes;
    for (ptrdiff_t m = 0; m < modes; m += BLOCK) {
        ptrdiff_t w = modes - m < BLOCK ? modes - m : BLOCK;
        for (ptrdiff_t k = m; k < m + w; k++)
            complete_column(ne, a * (x[2 * modes + k] + x1[2 * modes + k]), re, pe + k * ne,
                            ze + k * ne);
        sum_block(ne, w, ze + m * ne, we, we + ne, s + m, s + modes + m, s + 3 * modes + m);
        for (ptrdiff_t k = m; k < m + w; k++)
            complete_column(nx, a * (x[modes + k] + x1[modes + k]), rx, px + k * nx,
                            zx + k * nx);
        sum_block(nx, w, zx + m * nx, wx, NULL, s + 2 * modes + m, NULL, s + 4 * modes + m);
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
    def sums(modes, ne, nx, ze, we, zx, wx, s) -> None:
        """The kernel's history_sums: into the rows of ``s`` (5, modes), the
        sums of eta ``ze`` under the rows w_mu and w_nu of ``we`` (2, ne)
        and of xi ``zx`` under ``wx``, each column summed in node order from
        +0 as the kernel sums it."""
        _state_sums(ne, nx, ze, we, zx, wx, s)

    @staticmethod
    def finish(modes, ne, nx, a, map, g, g2, x, x1, re, pe, ze, we, rx, px, zx, wx) -> None:
        """The triplet half of a step in NumPy: memory_load into x[3:5], the
        map applied to x[:5] into x1[:3] as ((((0 + m0 x0) + m1 x1) + m2 x2)
        + m3 x3) + m4 x4 with m = map.transpose(2, 1, 0), which _fold sums
        to the bit, the completion of each block with nodes by a times its
        drive sum, eta by x[2] + x1[2] and xi by x[1] + x1[1], and the new
        histories' sums into x1[8:13] in sums' layout. Every intermediate
        goes into a workspace array."""
        memory_load(g, g2, x[5:8], x[3:5])
        products = _workspace("map", (5, 3, modes))
        _fold(np.multiply(map.transpose(2, 1, 0), x[:5, None], out=products), x1[:3])
        t = np.add(x[1:3], x1[1:3], out=_workspace("drive", (2, modes)))
        np.multiply(a, t, out=t)
        if ne:
            Reference.complete(ne, modes, t[1], re, pe, ze)
        if nx:
            Reference.complete(nx, modes, t[0], rx, px, zx)
        _state_sums(ne, nx, ze, we, zx, wx, x1[8:])


@functools.lru_cache(maxsize=16)
def _workspace(name: str, shape: tuple, order: str = "C") -> np.ndarray:
    """Reference's scratch array ``name`` of this shape, one for the
    process. Every entry overwrites its workspace before reading it, and no
    entry runs inside another, so the entries can share them."""
    return np.empty(shape, order=order)


def _fold(terms: np.ndarray, out: np.ndarray) -> None:
    """out = ``terms`` summed along its first axis in order from +0, with
    ``terms`` overwritten: accumulated in place, then +0 added. The +0 turns
    the -0 of a sum of -0 terms into +0, the sum from +0, and changes no
    other sum."""
    np.add(0.0, np.add.accumulate(terms, axis=0, out=terms)[-1], out=out)


def _state_sums(ne, nx, ze, we, zx, wx, s) -> None:
    """Reference.sums into ``s``, 0 for a history of 0 nodes."""
    s.fill(0.0)
    for n, z, wa, wb, qa, qb, ia in ((ne, ze, we[0], we[1], s[0], s[1], s[3]),
                                    (nx, zx, wx, None, s[2], None, s[4])):
        if n:
            # the kernel's sum_block: (wa z) z, wa z and (wb z) z per node
            u = np.multiply(wa[:, None], z, out=_workspace("u", z.shape, "F"))
            q = np.multiply(u, z, out=_workspace("q", z.shape, "F"))
            _fold(q, qa)
            _fold(u, ia)
            if wb is not None:
                np.multiply(wb[:, None], z, out=q)
                _fold(np.multiply(q, z, out=q), qb)


class KernelUnavailable(Exception):
    """The compiled kernel cannot be built or loaded; the message says why."""


_SIZE, _PTR = ctypes.c_ssize_t, ctypes.c_void_p
# entry: (C function, argument types)
ENTRIES = {"solve": ("transport_solve", (_SIZE,) * 2 + (_PTR,) * 4),
           "complete": ("transport_complete", (_SIZE,) * 2 + (_PTR,) * 4),
           "finish": ("midpoint_finish", (_SIZE,) * 3 + (ctypes.c_double,) + (_PTR,) * 13),
           "sums": ("history_sums", (_SIZE,) * 3 + (_PTR,) * 5)}


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
    """The self-check's calls (entry, where, values), on irregular and on
    zero inputs: the solve and the completion at n x modes = 1 x 1,
    37 x 11 and 64 x 8, so for a block of eight modes and for partial ones;
    the finish at 1, 2, 8 and 11 modes with 37 + 5, 37 + 0, 0 + 5 and
    0 + 0 history nodes, on zero inputs with 37 + 5 and 0 + 0 only; and
    the sums at the same modes with 37 + 5 nodes. ``where`` names the
    reference's call and the size."""
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
            we, wx = _spread(2 * ne, 0.8).reshape(2, ne), _spread(nx, 0.9)
            # zero inputs with both histories and with none: the completions
            # and sums of one history run the same code as with both
            for zero in (False, True) if ne == nx or ne and nx else (False,):
                # every product is -0 in the zero case, and the sums read +0
                # only from the +0 start
                yield ("finish", f"the reference at modes = {modes}, {ne} + {nx} nodes",
                       (modes, ne, nx, a, -np.abs(signed) if zero else signed, g, g * g,
                        _data((13, modes), 0.8, zero), np.ones((13, modes)), _spread(ne, 0.9),
                        _data((ne, modes), 0.1, zero, "F"), _data((ne, modes), 0.2, zero, "F"),
                        we, _spread(nx, 0.3), _data((nx, modes), 0.4, zero, "F"),
                        _data((nx, modes), 0.5, zero, "F"), wx))
                if ne and nx:
                    # negated, the zero histories are -0, whose integrals
                    # read +0 only from the +0 start
                    yield ("sums", f"the reference at modes = {modes}, {ne} + {nx} nodes",
                           (modes, ne, nx, -_data((ne, modes), 0.3, zero, "F"), we,
                            -_data((nx, modes), 0.4, zero, "F"), wx, np.ones((5, modes))))


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
