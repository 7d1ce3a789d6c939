"""Mode-diagonal generator assembly and time stepping.

Each eigenvalue gets an independent linear block coupling the
deflection/velocity/temperature triplet to the sampled history profiles
through the quadrature weights. A collapsed kernel is replaced by its
instantaneous counterpart: viscous memory by Kelvin-Voigt friction, thermal
memory by the Fourier term. The stepper writes both substitutes once, into
the per-mode triplet generator MidpointStepper builds. The two independent
references write them for themselves: the dense grid operator
assemble_mode_operator, and the grid-free closure generator closure_matrix
over the kernels present, whose kernel-free case is the memory-free block.
The assembled operator is dissipative in the weighted phase inner product
for every norm order, and the implicit midpoint rule inherits that property
exactly, up to roundoff.

The midpoint solve never touches a generic sparse factorization: the history
blocks are lower bidiagonal and couple to the triplet by rank-one terms, so
one triangular substitution per grid, the Cayley form of the midpoint map,
plus a 3x3 map per mode advances the whole state exactly. The substitution
runs on the old history alone and has a unit diagonal, because its
right-hand side is scaled by the inverse diagonal beforehand. The rank-one
drive terms are folded into the 3x3 map once, and enter the new history by
one BLAS ger with the old and new drive summed, so a step makes five passes
over each history array.

A step allocates no state array. Each TransportStepper owns two history
buffers and each MidpointStepper two triplet work arrays, allocated once,
and a step writes into the ones that do not hold its input. The arrays a step
returns therefore belong to the stepper and stay valid until the step
after next; a caller that keeps a state longer copies it. The stepping
driver measures each state's energy with PhaseEnergy, whose eigenvalue
powers and squared-history scratch are likewise taken once per run.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import DomainError, SingularStepError, UnsupportedOracleError
from .kernels import kernel_moment
from .modes import (ModeSet, Params, PhaseEnergy, PhaseSpace, PhaseVector, aligned_empty,
                    build_phase_space, lift_triplet, norm_powers)


def assemble_mode_operator(space: PhaseSpace, mode_index: int) -> np.ndarray:
    """Dense generator block for one mode, acting on the rows of mode_blocks;
    reference for tests and small runs."""
    g = float(space.modes.eigenvalues[mode_index])
    me, mx = space.eta_size, space.xi_size
    d = 3 + me + mx
    L = np.zeros((d, d))
    L[0, 1] = 1.0
    L[1, 0] = -g * g
    L[1, 2] = g
    L[2, 1] = -g
    L[2, 2] = -space.params.tau
    L[1, 3 + me:] = -g * g * space.w_beta
    L[2, 3:3 + me] += -g * space.w_mu
    L[2, 3:3 + me] += -space.w_nu
    if space.beta is None:
        L[1, 1] += -g * g
    if space.mu is None:
        # collapsed heat memory acts as the instantaneous Fourier term
        L[2, 2] += -g
    for grid, start, source in ((space.eta_grid, 3, 2), (space.xi_grid, 3 + me, 1)):
        if grid is not None:
            diag, lower = grid.transport_stencil()
            idx = np.arange(start, start + grid.size)
            L[idx, idx] = diag
            L[idx[1:], idx[:-1]] = lower
            L[idx, source] += 1.0
    return L


def mode_blocks(vec: PhaseVector) -> np.ndarray:
    """(modes, d) per-mode state vectors: u, v, theta, then the eta and xi
    nodes, the row order of assemble_mode_operator."""
    return np.concatenate([vec.u[:, None], vec.v[:, None], vec.theta[:, None],
                           vec.eta.T, vec.xi.T], axis=1)


def mode_weights(space: PhaseSpace, order: int) -> np.ndarray:
    """(modes, d) diagonal of the order-m phase inner product in the layout
    of mode_blocks, from norm_powers: the dense reference for PhaseEnergy."""
    p = norm_powers(space, order)[:, :, None]
    return np.concatenate([p[0], p[1], p[2], p[3] * space.w_mu + p[4] * space.w_nu,
                           p[5] * space.w_beta], axis=1)


def generator_quadratic_form(space: PhaseSpace, vec: PhaseVector) -> tuple[float, float]:
    """(<Lz, z>_W, <z, z>_W) for the vector's norm order; the first entry is
    nonpositive up to roundoff for every admissible configuration."""
    x, W = mode_blocks(vec), mode_weights(space, vec.order)
    Lx = np.stack([assemble_mode_operator(space, i) @ x[i] for i in range(space.modes.count)])
    return float(np.sum(Lx * W * x)), float(np.sum(W * x * x))


def default_time_step(params: Params) -> float:
    """Step small enough to resolve the fastest active relaxation scale:
    1e-3, capped at a twentieth of sigma and of eps when they are active."""
    dt = 1e-3
    for scale in (params.sigma, params.eps):
        if scale > 0:
            dt = min(dt, scale / 20.0)
    return dt


class TransportStepper:
    """Implicit midpoint for a driven transport block on one history grid.

    Advances all modes at once, profiles stored (nodes, modes) in Fortran
    order, through the Cayley form 2 (I - aT)^-1 - I of the midpoint map
    (I - aT)^-1 (I + aT). With c = a/h, I - aT = D (I + N) for D = diag(1 + c)
    and N strictly lower with subdiagonal -c_i/(1 + c_i): a right-hand side
    scaled by D^-1 needs one unit-diagonal lower-bidiagonal substitution by
    LAPACK tbtrs, which divides by nothing and writes only its right-hand
    side. The drive terms are rank-one: partial() solves for the old
    profile alone, and complete() adds the old and the new drive's share in
    place by one BLAS ger. An absent block (grid None) has 0 nodes and never
    reaches LAPACK or BLAS, where tbtrs on 0 rows corrupts the heap.

    The stepper owns two (nodes, modes) Fortran-order buffers for the whole
    run, and partial() writes into the one that does not hold its profile.
    A stepped profile is therefore valid until the step after next, which
    writes into its buffer again.
    """

    def __init__(self, grid, dt: float, modes: int):
        self.a = 0.5 * dt
        c = self.a / (np.zeros(0) if grid is None else grid.spacing)
        # D^-1, and 2 D^-1: partial() folds the Cayley factor 2 into its scaling
        dinv = 1.0 / (1.0 + c)
        self._two_dinv = 2.0 * dinv
        # lower band of I + N: the unit diagonal (never read), then the subdiagonal
        self._band = np.zeros((2, c.size), order="F")
        self._band[0] = 1.0
        self._band[1, :-1] = -c[1:] * dinv[1:]
        self._tbtrs, = get_lapack_funcs(("tbtrs",), (self._band,))
        self._ger, = get_blas_funcs(("ger",), (self._band,))
        # response of the implicit half to a unit constant drive, called
        # directly so that solve() runs once per active history block and step
        self.unit_response = np.zeros(0) if not c.size else self._tbtrs(
            self._band, dinv[:, None], uplo="L", diag="U")[0][:, 0]
        self._buffers = tuple(aligned_empty((c.size, modes), order="F") for _ in range(2))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(I - aT)^-1 D rhs = (I + N)^-1 rhs for rhs (nodes, modes) already
        scaled by D^-1; overwrites a Fortran-order rhs."""
        x, info = self._tbtrs(self._band, rhs, uplo="L", diag="U", overwrite_b=True)
        if info != 0:
            raise SingularStepError(f"triangular transport solve failed (info {info})")
        return x

    def partial(self, profile: np.ndarray) -> np.ndarray:
        """solve(2 D^-1 profile) = 2 (I - aT)^-1 profile, the undriven solve of
        a midpoint step of profile' = T profile + drive, written into the
        buffer that does not share memory with ``profile`` and returned. An
        empty profile needs no solve."""
        out = self._buffers[np.may_share_memory(profile, self._buffers[0])]
        if out.size:
            # einsum, not a broadcast multiply: NumPy's ufunc iterator
            # allocates a buffer of up to 64 KB for the broadcast operand
            self.solve(np.einsum("i,ij->ij", self._two_dinv, profile, out=out))
        return out

    def complete(self, z: np.ndarray, profile: np.ndarray, drive_sum: np.ndarray) -> np.ndarray:
        """The stepped profile z - profile + a * unit_response * drive_sum from
        z = partial(profile) and the sum (modes,) of the old and the new
        drive, written into ``z`` in place and returned."""
        if not z.size:
            return z
        np.subtract(z, profile, out=z)
        return self._ger(self.a, self.unit_response, drive_sum, a=z, overwrite_a=True)


class MidpointStepper:
    """Exact implicit-midpoint solver for the full mode-diagonal system.

    State arrays: u, v, theta of shape (modes,), eta of shape
    (eta_nodes, modes) and xi of shape (xi_nodes, modes), with 0 nodes for a
    collapsed block. Per mode, the triplet x = (u, v, theta) obeys
    x' = T x - M(eta, xi) with the memory load
    M = (0, g^2 q_beta, g q_mu + q_nu) of the history quadratures
    (q_mu, q_nu, q_beta) = (w_mu.eta, w_nu.eta, w_beta.xi); the histories
    enter only through M, so eliminating them leaves one 3x3 map per mode.
    The old plus the new history is the undriven solve z of
    TransportStepper.partial plus a * unit_response times the old plus the
    new drive, and M is linear, so with s the load of unit_response a step
    is x1 = P x - Q M(z): P is the midpoint map of T - a diag(s) and Q is a
    times its implicit factor. M's first entry is zero, so a step applies
    one (modes, 3, 5) map [P | -Q] to x and M's other two entries. With both
    blocks collapsed M is zero and a step is P x alone.

    Buffers: besides its transport steppers' two history buffers per block,
    the stepper owns two (8, modes) work arrays, allocated once. Rows 0-2
    hold a triplet, rows 3-4 the nonzero load entries of the step that
    reads it and rows 5-7 the quadratures (w_mu.z_eta, w_nu.z_eta,
    w_beta.z_xi) they are formed from. A step reads its triplet from one
    work array, copied there first unless the caller's arrays are that
    array's rows, and returns the other one's rows. Every array a step
    returns is the stepper's own and is valid until the step after next,
    which writes into it again; step() never writes into the arrays it is
    given.
    """

    def __init__(self, space: PhaseSpace, dt: float):
        if not 0 < dt < math.inf:
            raise DomainError(f"need positive finite dt, got {dt}")
        self.space = space
        self.dt = dt
        a = 0.5 * dt
        g = space.modes.eigenvalues
        n = g.size
        self.eta_t = TransportStepper(space.eta_grid, dt, n)
        self.xi_t = TransportStepper(space.xi_grid, dt, n)

        T = np.zeros((n, 3, 3))
        T[:, 0, 1] = 1.0
        T[:, 1, 0] = -g ** 2
        T[:, 1, 2] = g
        T[:, 2, 1] = -g
        T[:, 2, 2] = -space.params.tau
        if space.beta is None:
            T[:, 1, 1] -= g ** 2        # Kelvin-Voigt friction in place of viscous memory
        if space.mu is None:
            T[:, 2, 2] -= g             # Fourier term in place of thermal memory
        self._g, self._g2 = g, g ** 2
        # the drives' share of the history load acts on the triplet as a
        # damping a * s per mode
        s = self._memory_load(np.append(space.w_eta @ self.eta_t.unit_response,
                                        space.w_beta @ self.xi_t.unit_response),
                              np.empty((2, n)))
        T[:, 1, 1] -= a * s[0]
        T[:, 2, 2] -= a * s[1]
        eye = np.eye(3)
        Ainv = np.linalg.inv(eye - a * T)
        # [P | -Q] without Q's first column, which meets M's zero entry
        self.map = np.concatenate([Ainv @ (eye + a * T), -a * Ainv[:, :, 1:]], axis=2)
        self._work = (np.zeros((8, n)), np.zeros((8, n)))
        self._rows = tuple(tuple(w[:3]) for w in self._work)
        self._drive_sum = np.empty((2, n))

    def _memory_load(self, q, out: np.ndarray) -> np.ndarray:
        """The nonzero entries (g^2 q_beta, g q_mu + q_nu) of the memory load
        M of quadratures q = (q_mu, q_nu, q_beta), written into the rows of
        ``out`` (2, modes)."""
        np.multiply(self._g2, q[2], out=out[0])
        np.add(np.multiply(self._g, q[0], out=out[1]), q[1], out=out[1])
        return out

    def _triplet_index(self, u, v, th) -> int:
        """Index of the work array whose rows are (u, v, th); a triplet of
        other arrays is copied into work array 0 first."""
        for k, rows in enumerate(self._rows):
            if u is rows[0] and v is rows[1] and th is rows[2]:
                return k
        for row, x in zip(self._rows[0], (u, v, th)):
            np.copyto(row, x)
        return 0

    def step(self, u, v, th, eta, xi):
        k = self._triplet_index(u, v, th)
        x, x1 = self._work[k], self._work[1 - k]
        active = eta.size or xi.size
        if active:
            z_eta = self.eta_t.partial(eta)
            z_xi = self.xi_t.partial(xi)
            np.matmul(self.space.w_eta, z_eta, out=x[5:7])
            np.matmul(self.space.w_beta, z_xi, out=x[7])
            self._memory_load(x[5:8], x[3:5])
        np.einsum("nij,jn->in", self.map, x[:5], out=x1[:3])
        u1, v1, th1 = self._rows[1 - k]
        if not active:
            return u1, v1, th1, eta, xi
        drive = np.add(x[1:3], x1[1:3], out=self._drive_sum)
        return (u1, v1, th1, self.eta_t.complete(z_eta, eta, drive[1]),
                self.xi_t.complete(z_xi, xi, drive[0]))


@dataclass
class Trajectory:
    """Sampled solution of one evolution run.

    Per-mode arrays have shape (modes, samples). At each stored step, at
    final_state.order, the stepping driver's PhaseEnergy gave the per-mode
    sums ``modal_energy``, the rows ``history_energy`` (3, modes, samples) of
    eta under mu and nu and of xi, and ``total_energy``: step_energy, the
    squared phase norm after every step, at the stored steps. imu and ibe
    are the plain memory integrals per mode.
    """

    space: PhaseSpace
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    modal_energy: np.ndarray
    history_energy: np.ndarray
    imu: np.ndarray
    ibe: np.ndarray
    total_energy: np.ndarray
    step_energy: np.ndarray
    final_state: PhaseVector


def _step_count(dt: float, horizon: float) -> int:
    """Steps to the horizon, rejected before any allocation when not finite
    or when the per-step energy record alone exceeds physical memory."""
    if not (dt > 0 and horizon > 0 and math.isfinite(horizon / dt)):
        raise DomainError(f"need positive dt and horizon with a finite step count, "
                          f"got {dt}, {horizon}")
    nsteps = max(1, int(round(horizon / dt)))
    if 8 * (nsteps + 1) > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise DomainError(f"{nsteps} steps need a per-step energy record larger "
                          f"than physical memory")
    return nsteps


def _stored_steps(nsteps: int, stride: int) -> np.ndarray:
    if stride < 1:
        raise DomainError(f"store_stride must be >= 1, got {stride}")
    stored = np.arange(0, nsteps + 1, stride)
    return stored if stored[-1] == nsteps else np.append(stored, nsteps)


def _drive(stepper: MidpointStepper, initial: PhaseVector, horizon: float, stride: int,
           sample, advance=None):
    """The stepping and recording loop of evolve and compare_trajectories.

    Advances ``initial`` to the horizon; ``advance()``, if given, moves any
    companion system after each step. The block energies at the initial
    order are taken at step 0 and after every step, and a non-finite total
    raises SingularStepError. At every ``stride``-th step and the last,
    ``sample(state, energy)`` returns a tuple of values, which come back
    stacked along a trailing sample axis.

    Returns (stored step indices, per-step energy, sampled columns, final
    state arrays). The state starts from ``initial``'s own arrays, which
    MidpointStepper.step never writes into. ``energy`` is the run's one
    PhaseEnergy, holding ``state``'s blocks and modal sums, and every later
    state is the stepper's own arrays; later steps overwrite both, and the
    values ``sample`` returns are copied into their columns at once, so they
    may be views of either.
    """
    space, dt = stepper.space, stepper.dt
    nsteps = _step_count(dt, horizon)
    stored = _stored_steps(nsteps, stride)
    step_energy = np.zeros(nsteps + 1)
    energy = PhaseEnergy(space, initial.order)
    columns = None
    k = 0
    state = (initial.u, initial.v, initial.theta, initial.eta, initial.xi)
    for step in range(nsteps + 1):
        if step:
            state = stepper.step(*state)
            if advance is not None:
                advance()
        energy(*state)
        e = energy.total()
        if not math.isfinite(e):
            raise SingularStepError(f"state left the finite range at step {step} "
                                    f"(t = {step * dt:.6g})")
        step_energy[step] = e
        if step == stored[k]:
            values = sample(state, energy)
            if columns is None:
                columns = [np.zeros(np.shape(x) + (stored.size,)) for x in values]
            for col, x in zip(columns, values):
                col[..., k] = x
            k += 1
    return stored, step_energy, columns, state


def evolve(space: PhaseSpace, initial: PhaseVector, dt: float, horizon: float,
           *, store_stride: int = 1) -> Trajectory:
    """Implicit midpoint evolution up to the horizon.

    Raises SingularStepError if the state stops being finite.
    """
    stepper = MidpointStepper(space, dt)

    def sample(state, energy):
        u, v, th, eta, xi = state
        return u, v, th, energy.modal, energy.blocks[3:], space.w_mu @ eta, space.w_beta @ xi

    stored, step_energy, cols, state = _drive(stepper, initial, horizon, store_stride, sample)
    # not copied: the final state is the last step's buffers, and no step
    # follows to overwrite them once the stepper is dropped with this call
    return Trajectory(space, dt * stored, *cols, step_energy[stored], step_energy,
                      PhaseVector(space, initial.order, *state))


def evolve_limit(modes: ModeSet, triplet0: np.ndarray, dt: float, horizon: float,
                 *, store_stride: int = 1) -> Trajectory:
    """Evolution of the fully collapsed comparison system.

    triplet0 has shape (modes, 3) holding (u, v, theta) per mode.
    """
    space = build_phase_space(modes, Params(0.0, 0.0, 0.0))
    return evolve(space, lift_triplet(space, triplet0), dt, horizon,
                  store_stride=store_stride)


@dataclass
class OracleTrajectory:
    """Closure-based reference triplet at the stored samples; arrays shaped
    (modes, samples)."""

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray


def _closure_kernels(space: PhaseSpace) -> dict:
    """The present kernels by name, in closure state order (mu, nu, beta)."""
    present = {name: k for name, k in (("mu", space.mu), ("nu", space.nu),
                                       ("beta", space.beta)) if k is not None}
    for k in present.values():
        if not k.is_exponential_shape:
            raise UnsupportedOracleError(
                f"the closure needs exponential kernels, got singularity {k.singularity}")
    return present


def closure_matrix(space: PhaseSpace, gamma: float) -> np.ndarray:
    """Generator of the exact memory-integral closure at one eigenvalue.

    States: u, v, theta, then one memory integral I per present kernel, in
    the order mu, nu, beta, with I' = -decay*I + mass*source. The source is
    theta for mu and nu and v for beta, and I loads the same row. With no
    kernel present this is the memory-free 3x3 block.
    """
    g = float(gamma)
    kernels = _closure_kernels(space)
    A = np.zeros((3 + len(kernels),) * 2)
    A[:3, :3] = [[0.0, 1.0, 0.0], [-g * g, 0.0, g], [0.0, -g, -space.params.tau]]
    if space.beta is None:
        A[1, 1] -= g * g        # Kelvin-Voigt friction in place of viscous memory
    if space.mu is None:
        A[2, 2] -= g            # Fourier term in place of thermal memory
    coupling = {"mu": (2, g), "nu": (2, 1.0), "beta": (1, g * g)}
    for j, (name, k) in enumerate(kernels.items(), start=3):
        row, load = coupling[name]
        A[row, j] = -load
        A[j, j] = -k.decay
        A[j, row] = kernel_moment(k, 0)
    return A


def saturating_profile_integrals(space: PhaseSpace, coefficients: np.ndarray) -> dict:
    """Continuum memory integrals, by kernel name, of the preset history
    profile c * (1 - exp(-s)) under each present kernel, per mode.

    Closed form: integral of amp*exp(-dec*s)*(1-exp(-s)) is
    amp*(1/dec - 1/(dec+1)).
    """
    coef = np.asarray(coefficients, dtype=float)
    return {name: coef * k.amplitude * (1.0 / k.decay - 1.0 / (k.decay + 1.0))
            for name, k in _closure_kernels(space).items()}


def closure_oracle_evolve(space: PhaseSpace, initial: PhaseVector, dt: float,
                          horizon: float, *, initial_integrals: dict | None = None,
                          store_stride: int = 1) -> OracleTrajectory:
    """Reference evolution through the exact memory-integral closure.

    For purely exponential kernels the memory integrals satisfy scalar
    closure equations with continuum constants, so each mode reduces to the
    linear system closure_matrix, advanced by its matrix exponential.
    initial_integrals holds each present kernel's integrals per mode by name;
    without it the histories must be zero. Grid weights never enter, which
    keeps this route independent of the sampled-history discretization.
    """
    kernels = _closure_kernels(space)
    n = space.modes.count
    if initial_integrals is None:
        if np.any(initial.eta != 0.0) or np.any(initial.xi != 0.0):
            raise UnsupportedOracleError(
                "nonzero initial histories need explicit initial_integrals")
        initial_integrals = dict.fromkeys(kernels, np.zeros(n))
    z0 = np.stack([initial.u, initial.v, initial.theta]
                  + [initial_integrals[name] for name in kernels], axis=1)

    nsteps = _step_count(dt, horizon)
    stored = _stored_steps(nsteps, store_stride)
    out = np.zeros((3, n, stored.size))

    for i, z in enumerate(z0):
        P = scipy.linalg.expm(dt * closure_matrix(space, space.modes.eigenvalues[i]))
        k = 0
        for step in range(nsteps + 1):
            if step == stored[k]:
                out[:, i, k] = z[:3]
                k += 1
            z = P @ z
    return OracleTrajectory(dt * stored, *out)
