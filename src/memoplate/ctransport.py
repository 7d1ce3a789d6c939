"""The steppers' history-transport backend: a compiled kernel, or the NumPy,
LAPACK and BLAS reference it must match bitwise, behind one interface.

A step of TransportStepper makes two passes over each history: the solve,
(I + N)^-1 applied to the profile scaled by 2 D^-1, which can also sum the
step's quadratures sum_j w_j z_j of its result under one or two weight
rows, and the completion, which subtracts the old profile and adds the
rank-one drive terms. The finish is the triplet half of a MidpointStepper
step, once the step's quadratures are in: the memory load, the per-mode
3x3 map, the drive sums, the completion of both histories and the new
state's history sums, which PhaseEnergy and the trajectory's memory
integrals read. The sums are sum w_mu eta^2, sum w_nu eta^2,
sum w_beta xi^2, sum w_mu eta and sum w_beta xi per mode. Every
quadrature and sum runs in node order from +0, each term formed as w z and
each square as (w z) z, so the stepped states' bits rest on the kernel and
this reference, not on a BLAS summation order.

Both backends have these four entries, ``solve(n, modes, band, s, p, x, nw,
w, q)``, ``complete(n, modes, t, r, p, z)``, ``finish(modes, ne, nx, a, map,
g, g2, x, x1, re, pe, ze, we, rx, px, zx, wx)`` and ``sums(modes, ne, nx, ze,
we, zx, wx, s)``, which takes the same sums of a state that no step made,
plus ``arguments(*values)``, which turns a call's numbers and arrays into
what the entries take. A stepper builds its calls' arguments once and calls
the entries of ``kernel()[0]`` without asking which backend it is:
``kernel()`` decides that once per process.

Every (n, modes) history array is node-major: C order, node j's modes in
the contiguous row j. Reference runs the entries as a scaling and LAPACK
tbtrs in a Fortran-order workspace copied back, a subtraction plus BLAS
ger on the history's transpose, and small elementwise NumPy calls plus two
completions and the sums, whose node-order sums are np.add.reduce over the
rows (np.add.accumulate at one mode, where a reduce would sum pairwise).
Kernel is the library built from SOURCE, which does each entry in one loop
nest, with the fused multiply-adds by which OpenBLAS's tbsv and ger apply
the same updates, so its results are bitwise those of Reference. It runs
the modes of a node as the lanes of a vector: up to WIDE = 64 modes in
blocks of eight lanes, each block down all nodes with its recurrences and
sums in registers, and past that the nodes outer and each row's modes
inner; both nests give the same bits. Its arrays are the two node-major
buffers of a stepper, one read and the other written, a stepper's work
arrays, or a state's histories in C order, so the kernel takes no strides
and its pointers are ``restrict``. The finish sums the map's five products
in sequence from +0, written out as elementwise IEEE operations in both
backends, so neither depends on a NumPy loop order. The +0 start makes a
sum of -0 products +0, as einsum's sum into a zeroed output did, so states
stepped at two or more modes kept their bits when the einsum went. The
kernel's finish and sums entry share one C function for the history sums,
so a stepped state's energy has the same bits from its step as from the
sums entry.

The C source is compiled with the system ``cc`` on first use, into
``$XDG_CACHE_HOME/memoplate`` (``~/.cache/memoplate`` by default), a
directory of mode 0700. The file name hashes the source, the compiler
command and the CPU's feature flags, because ``-march=native`` code must not
run on another CPU that shares the home directory. The library is built
under a temporary name and moved into place, so concurrent first runs never
load a partial file, and later runs load it without invoking the compiler.
``load`` then makes every call of ``cases`` on both backends (irregular and
zero or -0 inputs; the solve with 0, 1 and 2 weight rows at 1, 8, 11 and
65 modes; the finish at 1, 2, 8, 11 and 65 modes with both histories, one
or none; the sums at the same modes with both), so that both loop nests
of every entry run, and keeps the kernel only if every array the calls
leave behind is bitwise equal. Without a compiler, on a build error, with
an unusable cache directory or on a mismatch, the steppers run Reference,
and the reason, naming the entry that differed, is reported.
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

/* Every (n, modes) array is node-major (row-major): node j's modes are the
   contiguous row j, so the modes of a node are the lanes of a vector and
   each mode's recurrence or sum runs down its lane. No two of a call's
   arrays overlap. */

/* LANES doubles, the modes [m, m + LANES) of one node, in GCC's and
   clang's vector extension: elementwise IEEE operations, with no
   contraction under -ffp-contract=off. */
#define LANES 8
typedef double lanes __attribute__((vector_size(LANES * sizeof(double))));

/* Up to WIDE modes, a call runs mode blocks of LANES lanes, each block down
   all nodes with its recurrences and sums in registers. Past WIDE modes a
   row is long enough to vectorize alone, and a block's reads, one cache
   line per row, stride too far for the prefetcher: the nodes run outer and
   each row's modes inner, with the sums kept in their output rows. Both
   nests apply the same operations to each element in node order, so they
   give the same bits. */
#define WIDE 64

/* Macros, not functions: a function that returns lanes changes the ABI
   where AVX-512 is off, and GCC warns of it. fma_lanes(a, b, c) is the fma
   of each lane; load_lanes and store_lanes move the first w >= 1 of the
   LANES lanes, the others read as 0 and left unwritten; splat(v) is v in
   every lane. */
#if defined(__AVX512F__)
#include <immintrin.h>
#define fma_lanes(a, b, c) ((lanes)_mm512_fmadd_pd((__m512d)(a), (__m512d)(b), (__m512d)(c)))
#define load_lanes(p, w) ((lanes)_mm512_maskz_loadu_pd((__mmask8)((1u << (w)) - 1), (p)))
#define store_lanes(p, y, w) \
    _mm512_mask_storeu_pd((p), (__mmask8)((1u << (w)) - 1), (__m512d)(y))
#else
#define fma_lanes(a, b, c) ({ \
    lanes a_ = (a), b_ = (b), c_ = (c), y_; \
    for (int k_ = 0; k_ < LANES; k_++) \
        y_[k_] = fma(a_[k_], b_[k_], c_[k_]); \
    y_; })
#define load_lanes(p, w) ({ \
    lanes y_ = {0.0}; \
    for (ptrdiff_t k_ = 0; k_ < (w); k_++) \
        y_[k_] = (p)[k_]; \
    y_; })
#define store_lanes(p, y, w) do { \
    lanes y_ = (y); \
    for (ptrdiff_t k_ = 0; k_ < (w); k_++) \
        (p)[k_] = y_[k_]; \
} while (0)
#endif
#define splat(v) ((lanes){0.0} + (v))

#define INLINE static inline __attribute__((always_inline))

/* The solve of one block of w modes, and its nw <= 2 quadratures. */
INLINE void solve_block(ptrdiff_t n, ptrdiff_t modes, ptrdiff_t w, const double *restrict band,
                        const double *restrict s, const double *restrict p,
                        double *restrict x, ptrdiff_t nw, const double *restrict wt,
                        double *restrict q)
{
    lanes z = s[0] * load_lanes(p, w), q0 = {0.0}, q1 = {0.0};
    if (nw > 0)
        q0 = 0.0 + wt[0] * z;
    if (nw > 1)
        q1 = 0.0 + wt[n] * z;
    store_lanes(x, z, w);
    for (ptrdiff_t j = 1; j < n; j++) {
        z = fma_lanes(-z, splat(band[2 * j - 1]), s[j] * load_lanes(p + j * modes, w));
        store_lanes(x + j * modes, z, w);
        if (nw > 0)
            q0 += wt[j] * z;
        if (nw > 1)
            q1 += wt[n + j] * z;
    }
    if (nw > 0)
        store_lanes(q, q0, w);
    if (nw > 1)
        store_lanes(q + modes, q1, w);
}

/* x = (I + N)^-1 (s * p), with I + N in LAPACK's lower band storage:
   band[2 j + 1] is N's entry in row j + 1 and column j. With nw = 1 or 2
   weight rows wt (nw, n), also the quadratures q (nw, modes) of x,
   q[i] = sum_j wt[i][j] x[j], each summed in node order from +0; with
   nw = 0, wt and q are not read. */
void transport_solve(ptrdiff_t n, ptrdiff_t modes, const double *restrict band,
                     const double *restrict s, const double *restrict p, double *restrict x,
                     ptrdiff_t nw, const double *restrict wt, double *restrict q)
{
    if (modes > WIDE) {
        for (ptrdiff_t m = 0; m < modes; m++)
            x[m] = s[0] * p[m];
        for (ptrdiff_t i = 0; i < nw; i++)
            for (ptrdiff_t m = 0; m < modes; m++)
                q[i * modes + m] = 0.0 + wt[i * n] * x[m];
        for (ptrdiff_t j = 1; j < n; j++) {
            double b = band[2 * j - 1], sj = s[j];
            const double *restrict xp = x + (j - 1) * modes, *restrict pj = p + j * modes;
            double *restrict xj = x + j * modes;
            for (ptrdiff_t m = 0; m < modes; m++)
                xj[m] = fma(-xp[m], b, sj * pj[m]);
            for (ptrdiff_t i = 0; i < nw; i++) {
                double wj = wt[i * n + j];
                double *restrict qi = q + i * modes;
                for (ptrdiff_t m = 0; m < modes; m++)
                    qi[m] += wj * xj[m];
            }
        }
        return;
    }
    for (ptrdiff_t m = 0; m < modes; m += LANES) {
        ptrdiff_t w = modes - m < LANES ? modes - m : LANES;
        if (nw == 2)
            solve_block(n, modes, w, band, s, p + m, x + m, 2, wt, q + m);
        else if (nw == 1)
            solve_block(n, modes, w, band, s, p + m, x + m, 1, wt, q + m);
        else
            solve_block(n, modes, w, band, s, p + m, x + m, 0, wt, q + m);
    }
}

/* z = (z - p) + t[m] r in every column m, where t holds a times the
   summed drive of each mode: ger's rounding. */
void transport_complete(ptrdiff_t n, ptrdiff_t modes, const double *restrict t,
                        const double *restrict r, const double *restrict p, double *restrict z)
{
    for (ptrdiff_t j = 0; j < n; j++)
        for (ptrdiff_t m = 0; m < modes; m++)
            z[j * modes + m] = fma(t[m], r[j], z[j * modes + m] - p[j * modes + m]);
}

/* The modes [m, m + w) of complete_sums, their drive a (d0 + d1) formed once. */
INLINE void complete_block(ptrdiff_t n, ptrdiff_t modes, ptrdiff_t m, ptrdiff_t w, int complete,
                           int two, double a, const double *restrict d0,
                           const double *restrict d1, const double *restrict r,
                           const double *restrict p, double *restrict z,
                           const double *restrict wa, const double *restrict wb,
                           double *restrict qa, double *restrict qb, double *restrict ia)
{
    lanes t = {0.0}, sa = {0.0}, sb = {0.0}, si = {0.0};
    if (complete)
        t = a * (load_lanes(d0 + m, w) + load_lanes(d1 + m, w));
    for (ptrdiff_t j = 0; j < n; j++) {
        lanes y = load_lanes(z + j * modes + m, w);
        if (complete) {
            y = fma_lanes(t, splat(r[j]), y - load_lanes(p + j * modes + m, w));
            store_lanes(z + j * modes + m, y, w);
        }
        lanes u = wa[j] * y;
        sa += u * y;
        si += u;
        if (two)
            sb += (wb[j] * y) * y;
    }
    store_lanes(qa + m, sa, w);
    store_lanes(ia + m, si, w);
    if (two)
        store_lanes(qb + m, sb, w);
}

/* The rows nest of complete_sums. */
INLINE void complete_rows(ptrdiff_t n, ptrdiff_t modes, int complete, int two, double a,
                          const double *restrict d0, const double *restrict d1,
                          const double *restrict r, const double *restrict p,
                          double *restrict z, const double *restrict wa,
                          const double *restrict wb, double *restrict qa,
                          double *restrict qb, double *restrict ia)
{
    for (ptrdiff_t m = 0; m < modes; m++) {
        qa[m] = ia[m] = 0.0;
        if (two)
            qb[m] = 0.0;
    }
    for (ptrdiff_t j = 0; j < n; j++) {
        double rj = complete ? r[j] : 0.0, aj = wa[j], bj = two ? wb[j] : 0.0;
        double *restrict zj = z + j * modes;
        const double *restrict pj = complete ? p + j * modes : NULL;
        for (ptrdiff_t m = 0; m < modes; m++) {
            double y = zj[m];
            if (complete) {
                y = fma(a * (d0[m] + d1[m]), rj, y - pj[m]);
                zj[m] = y;
            }
            double u = aj * y;
            qa[m] += u * y;
            ia[m] += u;
            if (two)
                qb[m] += (bj * y) * y;
        }
    }
}

/* Unless complete is 0, the completion z = (z - p) + (a (d0[m] + d1[m])) r
   of each column m of a history z with n nodes; then its sums, each in
   node order from +0 with each product formed as written: qa = sum (wa z) z,
   ia = sum wa z and, if two, qb = sum (wb z) z. From LANES to WIDE modes,
   blocks of LANES modes with the nodes inner; the rows nest otherwise,
   also below LANES modes, where a block's load of a row would overlap the
   row it just stored. */
INLINE void complete_sums(ptrdiff_t n, ptrdiff_t modes, int complete, int two, double a,
                          const double *restrict d0, const double *restrict d1,
                          const double *restrict r, const double *restrict p,
                          double *restrict z, const double *restrict wa,
                          const double *restrict wb, double *restrict qa,
                          double *restrict qb, double *restrict ia)
{
    if (modes < LANES || modes > WIDE) {
        complete_rows(n, modes, complete, two, a, d0, d1, r, p, z, wa, wb, qa, qb, ia);
        return;
    }
    for (ptrdiff_t m = 0; m < modes; m += LANES) {
        ptrdiff_t w = modes - m < LANES ? modes - m : LANES;
        complete_block(n, modes, m, w, complete, two, a, d0, d1, r, p, z, wa, wb, qa, qb, ia);
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
    /* read only: complete is 0, so z is not written */
    complete_sums(ne, modes, 0, 1, 0.0, NULL, NULL, NULL, NULL, (double *)ze, we, we + ne, s,
                  s + modes, s + 3 * modes);
    complete_sums(nx, modes, 0, 0, 0.0, NULL, NULL, NULL, NULL, (double *)zx, wx, NULL,
                  s + 2 * modes, NULL, s + 4 * modes);
}

/* The triplet half of a midpoint step, once the quadratures are in rows
   5-7 of the row-major (13, modes) work array x:
   - the load rows x[3] = g2 q_beta and x[4] = g q_mu + q_nu;
   - the new triplet x1[0:3], the map [P | -Q] (modes, 3, 5) applied to
     x[0:5], its five products summed in sequence from +0;
   - the completion of each history, eta (ne nodes) by the drive sum
     a (theta + theta1) and xi (nx nodes) by a (v + v1), and the new
     state's sums, by complete_sums, into rows 8-12 of x1 in history_sums'
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
    complete_sums(ne, modes, 1, 1, a, x + 2 * modes, x1 + 2 * modes, re, pe, ze, we, we + ne, s,
                  s + modes, s + 3 * modes);
    complete_sums(nx, modes, 1, 0, a, x + modes, x1 + modes, rx, px, zx, wx, NULL,
                  s + 2 * modes, NULL, s + 4 * modes);
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
    and arrays, each (n, modes) array node-major (C order) as the kernel's
    are. Like the kernel's, they write into their output arrays and return
    nothing."""

    @staticmethod
    def arguments(*values) -> tuple:
        """The values unchanged: the entries take numbers and arrays."""
        return values

    @staticmethod
    def solve(n, modes, band, s, p, x, nw, w, q) -> None:
        """x = (I + N)^-1 (s * p), with I + N unit lower bidiagonal in LAPACK
        band storage ``band`` (2, n): the scaling into a Fortran-order
        workspace, tbtrs there in place and a copy into x; then, for nw = 1
        or 2, the quadratures q[i] = sum_j w[i, j] x[j] of the rows of
        w (nw, n) into the rows of q (nw, modes), by _node_sum. Needs n > 0,
        since tbtrs on 0 rows corrupts the heap."""
        f = _workspace("solve", (n, modes), "F")
        # s p as the kernel forms it, a -0 entry -0; einsum sums its products
        # into a zeroed output, which makes it +0
        np.copyto(f, p)
        np.multiply(f, s[:, None], out=f)
        info = _TBTRS(band, f, uplo="L", diag="U", overwrite_b=True)[1]
        if info != 0:
            raise SingularStepError(f"triangular transport solve failed (info {info})")
        np.copyto(x, f)
        terms = _workspace("u", x.shape)
        for i in range(nw):
            _node_sum(np.multiply(w[i, :, None], x, out=terms), q[i])

    @staticmethod
    def complete(n, modes, t, r, p, z) -> None:
        """z = (z - p) + r t^T, for t (modes,), by a subtraction and BLAS ger
        with alpha 1 on z's transpose, both in place. ger adds (1 r_j) t to
        each column j of the transpose, t_m r_j to each entry: for t = a
        drive, the bits of the drive's rank-one update."""
        np.subtract(z, p, out=z)
        _GER(1.0, t, r, a=z.T, overwrite_a=True)

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


def _node_sum(terms: np.ndarray, out: np.ndarray) -> None:
    """out = the C-order ``terms`` (nodes, modes) summed over its nodes in
    node order from +0, as the kernel sums them, with ``terms`` overwritten.
    Over the rows of a C-order array, np.add.reduce adds each row in turn
    into ``out``; at one mode the rows are one contiguous axis, which it
    would sum pairwise, so there _fold accumulates it instead."""
    if terms.shape[1] == 1:
        _fold(terms, out)
    else:
        np.add(0.0, np.add.reduce(terms, axis=0, out=out), out=out)


def _state_sums(ne, nx, ze, we, zx, wx, s) -> None:
    """Reference.sums into ``s``, 0 for a history of 0 nodes."""
    s.fill(0.0)
    for n, z, wa, wb, qa, qb, ia in ((ne, ze, we[0], we[1], s[0], s[1], s[3]),
                                    (nx, zx, wx, None, s[2], None, s[4])):
        if n:
            # the kernel's complete_sums: (wa z) z, wa z and (wb z) z per node
            u = np.multiply(wa[:, None], z, out=_workspace("u", z.shape))
            q = np.multiply(u, z, out=_workspace("q", z.shape))
            _node_sum(q, qa)
            _node_sum(u, ia)
            if wb is not None:
                np.multiply(wb[:, None], z, out=q)
                _node_sum(np.multiply(q, z, out=q), qb)


class KernelUnavailable(Exception):
    """The compiled kernel cannot be built or loaded; the message says why."""


_SIZE, _PTR = ctypes.c_ssize_t, ctypes.c_void_p
# entry: (C function, argument types)
ENTRIES = {"solve": ("transport_solve", (_SIZE,) * 2 + (_PTR,) * 4 + (_SIZE,) + (_PTR,) * 2),
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


def _data(shape: tuple, seed: float, zero: bool) -> np.ndarray:
    """Zeros, or irregular values in (-2, 2), of the given shape."""
    y = np.zeros(shape)
    if not zero:
        y[...] = 4.0 * _spread(y.size, seed).reshape(shape) - 2.0
    return y


def cases():
    """The self-check's calls (entry, where, values), on irregular and on
    zero inputs, -0 where a sum reads +0 only from its +0 start: the solve
    with 0, 1 and 2 weight rows and the completion at n x modes = 1 x 1,
    37 x 11, 64 x 8 and 5 x 65, so for a block of eight modes, for partial
    ones and past WIDE modes; the finish at 1, 2, 8 and 11 modes with
    37 + 5, 37 + 0, 0 + 5 and 0 + 0 history nodes, on zero inputs with
    37 + 5 and 0 + 0 only, and at 65 modes with 37 + 5; and the sums at the
    same modes with 37 + 5 nodes. So the finish and the sums run both of
    their loop nests, below LANES and past WIDE modes and between. ``where``
    names the reference's call and the size."""
    a = 0.0123456789
    for n, modes in ((1, 1), (37, 11), (64, 8), (5, 65)):
        band = np.ones((2, n), order="F")
        band[1] = -_spread(n, 0.1)
        scale, response = 0.5 + 1.5 * _spread(n, 0.2), _spread(n, 0.3)
        for zero in (False, True):
            # negated, the zero profile is -0, and so is every quadrature term
            profile = -_data((n, modes), 0.4, zero)
            for nw in (0, 1, 2):
                yield ("solve", f"tbtrs at {n} x {modes}, {nw} weight rows",
                       (n, modes, band, scale, profile, np.zeros((n, modes)), nw,
                        _spread(nw * n, 0.5).reshape(nw, n), np.ones((nw, modes))))
            for drive in (2.0 * _spread(modes, 0.5) - 1.0, np.zeros(modes)):
                yield ("complete", f"ger at {n} x {modes}",
                       (n, modes, a * drive, response, profile, _data((n, modes), 0.6, zero)))
    for modes in (1, 2, 8, 11, 65):
        g = 1.0 + 40.0 * _spread(modes, 0.6)
        signed = 2.0 * _spread(15 * modes, 0.7).reshape(modes, 3, 5) - 1.0
        for ne, nx in ((37, 5), (37, 0), (0, 5), (0, 0)) if modes < 65 else ((37, 5),):
            we, wx = _spread(2 * ne, 0.8).reshape(2, ne), _spread(nx, 0.9)
            # zero inputs with both histories and with none: the completions
            # and sums of one history run the same code as with both
            for zero in (False, True) if ne == nx or ne and nx else (False,):
                # every product is -0 in the zero case, and the sums read +0
                # only from the +0 start
                yield ("finish", f"the reference at modes = {modes}, {ne} + {nx} nodes",
                       (modes, ne, nx, a, -np.abs(signed) if zero else signed, g, g * g,
                        _data((13, modes), 0.8, zero), np.ones((13, modes)), _spread(ne, 0.9),
                        _data((ne, modes), 0.1, zero), _data((ne, modes), 0.2, zero),
                        we, _spread(nx, 0.3), _data((nx, modes), 0.4, zero),
                        _data((nx, modes), 0.5, zero), wx))
                if ne and nx:
                    # negated, the zero histories are -0, whose integrals
                    # read +0 only from the +0 start
                    yield ("sums", f"the reference at modes = {modes}, {ne} + {nx} nodes",
                           (modes, ne, nx, -_data((ne, modes), 0.3, zero), we,
                            -_data((nx, modes), 0.4, zero), wx, np.ones((5, modes))))


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
