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
right-hand side is scaled by the inverse diagonal. The rank-one drive terms
are folded into the 3x3 map once, and enter the new history as one
rank-one update with the old and new drive summed.

A step with both histories makes five foreign calls, each one pass over a
history array or less: the transport backend of ctransport solves each
history (two calls, the scaled substitution); np.matmul takes the memory
load's quadratures of the solves (two BLAS calls); and the backend's finish
does the triplet half, from the quadratures to the load, the 3x3 map of
every mode, the drive sums and the update of each history in place. The
quadratures stay in BLAS, whose summation order the stepped states' bits
rest on. The steppers do not know which backend runs: ctransport.kernel()
gives the compiled kernel, which makes three passes over each history
array a step, or its bitwise reference, which makes five, and the steppers
build its calls' arguments once and call its entries.

A step allocates no state array. A MidpointStepper owns two state sets,
allocated once: set k is the triplet rows of its work array k and buffer k
of each history's TransportStepper. A step given exactly one set reads it
in place; any other state, such as the initial one, is shape-checked and
copied into set 0 first. The step writes the other set and returns it, and
the backend touches no array but the steppers' own. The arrays a step
returns therefore belong to the stepper and stay valid until the step after
next; a caller that keeps a state longer copies it. The stepping
driver measures each state's energy with PhaseEnergy, whose eigenvalue
powers and squared-history scratch are likewise taken once per run.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import ctransport
from .ctransport import Reference, memory_load
from .errors import DomainError, ShapeError, SingularStepError, UnsupportedOracleError
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
    and N strictly lower with subdiagonal -c_i/(1 + c_i): a profile scaled by
    2 D^-1 needs one unit-diagonal lower-bidiagonal substitution, which
    divides by nothing. The drive terms are rank-one: partial() solves for
    the old profile alone, and complete() subtracts the old profile and adds
    the old and the new drive's share in place.

    Both passes are calls of the backend ctransport.kernel() gives, the
    compiled kernel or its reference, with the same bits either way. An
    absent block (grid None) has 0 nodes and never reaches the backend,
    where tbtrs on 0 rows corrupts the heap.

    The stepper owns two (nodes, modes) Fortran-order buffers for the whole
    run, and both passes read and write only those. A profile that is one
    of the buffers is read where it is; any other array of the same shape,
    even a view of a buffer, is copied into buffer 1 first. partial() then
    writes into the other buffer, and complete() reads the old profile back
    from the buffer that partial() did not write. A stepped profile is
    therefore valid until the step after next, which writes into its buffer
    again. The backend's arguments for both directions, read buffer k and
    write buffer 1 - k, are built once, here.
    """

    def __init__(self, grid, dt: float, modes: int):
        self.a = 0.5 * dt
        c = self.a / (np.zeros(0) if grid is None else grid.spacing)
        dinv = 1.0 / (1.0 + c)
        # 2 D^-1: solve() folds the Cayley factor 2 into its scaling
        self._two_dinv = 2.0 * dinv
        # lower band of I + N: the unit diagonal (never read), then the subdiagonal
        self._band = np.zeros((2, c.size), order="F")
        self._band[0] = 1.0
        self._band[1, :-1] = -c[1:] * dinv[1:]
        self.nodes = c.size
        self._buffers = tuple(aligned_empty((c.size, modes), order="F") for _ in range(2))
        # response of the implicit half to a unit constant drive, by the
        # reference directly so that solve() runs once per active history
        # block and step
        response = np.zeros((c.size, 1), order="F")
        self.unit_response = response[:, 0]
        if not c.size:
            # a stepper of 0 nodes never calls a backend
            return
        Reference.solve(c.size, 1, self._band, dinv, np.ones((c.size, 1)), response)
        self._scaled_drive = np.empty(modes)
        self._backend = backend = ctransport.kernel()[0]
        # (read, written) pairs, indexed by the buffer read as the profile
        pairs = (self._buffers, self._buffers[::-1])
        self._solve_args = tuple(backend.arguments(c.size, modes, self._band, self._two_dinv, *rw)
                                 for rw in pairs)
        self._complete_args = tuple(backend.arguments(c.size, modes, self._scaled_drive,
                                                      self.unit_response, *rw) for rw in pairs)

    def solve(self, profile: np.ndarray) -> np.ndarray:
        """2 (I - aT)^-1 profile = (I + N)^-1 (2 D^-1 profile) for a profile
        (nodes, modes), written into the buffer that does not hold it and
        returned; with 0 nodes there is nothing to solve. ShapeError for any
        other shape."""
        buffers = self._buffers
        k = 0 if profile is buffers[0] else 1
        if profile is not buffers[k]:
            # np.copyto would broadcast a (nodes, 1) profile silently
            if profile.shape != buffers[1].shape:
                raise ShapeError(f"transport profile must have shape {buffers[1].shape}, "
                                 f"got {profile.shape}")
            np.copyto(buffers[1], profile)
        if self.nodes:
            self._backend.solve(*self._solve_args[k])
        return buffers[1 - k]

    def partial(self, profile: np.ndarray) -> np.ndarray:
        """solve(profile) = 2 (I - aT)^-1 profile, the undriven solve of a
        midpoint step of profile' = T profile + drive. A stepper of 0 nodes
        solves nothing and returns its empty buffer for a (0, modes) profile;
        solve() rejects every other shape."""
        if self.nodes or profile.shape != self._buffers[0].shape:
            return self.solve(profile)
        return self._buffers[0]

    def complete(self, z: np.ndarray, drive_sum: np.ndarray) -> np.ndarray:
        """The stepped profile z - profile + a * unit_response * drive_sum from
        z = partial(profile) and the sum (modes,) of the old and the new
        drive, written into ``z`` in place and returned. The old profile is
        read from the stepper's other buffer, where partial() left it;
        ShapeError if ``z`` is not one of the stepper's buffers."""
        if not z.size:
            return z
        # k: the buffer that holds the old profile
        k = 0 if z is self._buffers[1] else 1
        if z is not self._buffers[1 - k]:
            raise ShapeError("complete() takes the buffer that partial() returned, "
                             "not another array")
        np.multiply(drive_sum, self.a, out=self._scaled_drive)
        self._backend.complete(*self._complete_args[k])
        return z


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

    State sets: the stepper owns two (8, modes) work arrays, allocated once.
    Rows 0-2 hold a triplet, rows 3-4 the nonzero load entries of the step
    that reads it and rows 5-7 the quadratures (w_mu.z_eta, w_nu.z_eta,
    w_beta.z_xi) they are formed from. State set k is rows 0-2 of work
    array k with buffer k of the eta and of the xi transport stepper. If
    the five arrays given to step() are exactly set k, the step reads them
    in place; otherwise check() compares their shapes with the state's,
    raising ShapeError, and they are copied into set 0, which the step then
    reads. The step writes set 1 - k and returns it. So step() never writes
    an array it is given, unless the given state mixes arrays from both of
    the stepper's sets or views set 1's arrays without being set 1; and
    when each step is given the previous step's output, the arrays a step
    returns stay valid until the step after next, which writes into them
    again.

    Calls: a step with histories solves each one (TransportStepper.partial,
    one backend call each) and writes the quadratures of the solves into
    rows 5-7 (np.matmul, one BLAS call per history). One call of the
    backend's finish then does the rest: the load rows 3-4, the new triplet
    by the map, each entry's five products summed in sequence from +0, the
    drive sums a (theta + theta1) and a (v + v1), and the completion of each
    history with nodes, in the buffer its solve wrote. The call's arguments
    are built once for each of the two sets read. With both blocks
    collapsed a step makes that one call, with a zero load and no
    completion.
    """

    def __init__(self, space: PhaseSpace, dt: float):
        if not 0 < dt < math.inf:
            raise DomainError(f"need positive finite dt, got {dt}")
        self.space = space
        self.dt = dt
        a = 0.5 * dt
        g = np.ascontiguousarray(space.modes.eigenvalues, dtype=float)
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
        g2 = g ** 2
        # kept, since the kernel's arguments hold only their addresses
        self._g, self._g2 = g, g2
        # the drives' share of the history load acts on the triplet as a
        # damping a * s per mode
        s = memory_load(g, g2, np.append(space.w_eta @ self.eta_t.unit_response,
                                         space.w_beta @ self.xi_t.unit_response),
                        np.empty((2, n)))
        T[:, 1, 1] -= a * s[0]
        T[:, 2, 2] -= a * s[1]
        eye = np.eye(3)
        Ainv = np.linalg.inv(eye - a * T)
        # [P | -Q] without Q's first column, which meets M's zero entry
        self.map = np.concatenate([Ainv @ (eye + a * T), -a * Ainv[:, :, 1:]], axis=2)
        self._work = (np.zeros((8, n)), np.zeros((8, n)))
        # state set k: work array k's triplet rows and history buffers k
        self._sets = tuple((*w[:3], self.eta_t._buffers[k], self.xi_t._buffers[k])
                           for k, w in enumerate(self._work))
        self._active = bool(self.eta_t.nodes or self.xi_t.nodes)

        # the finish's arguments, indexed by the set read
        backend = ctransport.kernel()[0]
        self._finish = backend.finish
        self._finish_args = tuple(
            backend.arguments(n, self.eta_t.nodes, self.xi_t.nodes, a, self.map, g, g2,
                              self._work[k], self._work[1 - k], self.eta_t.unit_response,
                              old[3], new[3], self.xi_t.unit_response, old[4], new[4])
            for k, (old, new) in enumerate((self._sets, self._sets[::-1])))

    def check(self, *state) -> tuple:
        """``state``, the five arrays u, v, theta, eta and xi, if they have
        the shapes of the stepper's state; else ShapeError, naming the array."""
        for name, x, own in zip(("u", "v", "theta", "eta", "xi"), state, self._sets[0]):
            # np.copyto would broadcast a scalar or a (1,) array silently
            if np.shape(x) != own.shape:
                raise ShapeError(f"{name} must have shape {own.shape}, got {np.shape(x)}")
        return state

    def step(self, u, v, th, eta, xi):
        # explicit is tests: a generator over the five costs about 1 us a step
        for k in (1, 0):
            old = self._sets[k]
            if u is old[0] and v is old[1] and th is old[2] and eta is old[3] and xi is old[4]:
                break
        else:
            # not a set of the stepper's: read set 0, which k and old now name
            for own, x in zip(old, self.check(u, v, th, eta, xi)):
                np.copyto(own, x)
        if self._active:
            # each solve writes set 1 - k's history; on a block of 0 nodes
            # partial() solves nothing and returns an empty buffer
            x = self._work[k]
            np.matmul(self.space.w_eta, self.eta_t.partial(old[3]), out=x[5:7])
            np.matmul(self.space.w_beta, self.xi_t.partial(old[4]), out=x[7])
        self._finish(*self._finish_args[k])
        return self._sets[1 - k]


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


def max_step_increase(step_energy: np.ndarray) -> float:
    """Largest rise of the energy over one step, relative to the energy
    before it: nonpositive up to roundoff for a dissipative run."""
    e = step_energy
    return float(np.max((e[1:] - e[:-1]) / np.maximum(e[:-1], 1e-300)))


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
    state = stepper.check(initial.u, initial.v, initial.theta, initial.eta, initial.xi)
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
    initial_integrals holds each present kernel's integrals per mode by name,
    and no other name (UnsupportedOracleError, or ShapeError for an array of
    another length); without it the histories must be zero. Grid weights
    never enter, which keeps this route independent of the sampled-history
    discretization.
    """
    kernels = _closure_kernels(space)
    n = space.modes.count
    if initial_integrals is None:
        if np.any(initial.eta != 0.0) or np.any(initial.xi != 0.0):
            raise UnsupportedOracleError(
                "nonzero initial histories need explicit initial_integrals")
        initial_integrals = dict.fromkeys(kernels, np.zeros(n))
    if initial_integrals.keys() != kernels.keys():
        raise UnsupportedOracleError(f"initial_integrals must name the present kernels "
                                     f"{list(kernels)}, got {list(initial_integrals)}")
    for name in kernels:
        if np.shape(initial_integrals[name]) != (n,):
            raise ShapeError(f"initial_integrals[{name!r}] must have shape ({n},), "
                             f"got {np.shape(initial_integrals[name])}")
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
