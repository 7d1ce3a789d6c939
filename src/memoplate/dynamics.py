"""Mode-diagonal generator assembly and time stepping.

Each eigenvalue gets an independent linear block coupling the
deflection/velocity/temperature triplet to the sampled history profiles
through the quadrature weights. A collapsed kernel is replaced by its
instantaneous counterpart: viscous memory by Kelvin-Voigt friction, thermal
memory by the Fourier term. The assembled operator is dissipative in the
weighted phase inner product for every norm order, and the implicit midpoint
rule inherits that property exactly, up to roundoff.

The midpoint solve never touches a generic sparse factorization: the history
blocks are lower bidiagonal and couple to the triplet by rank-one terms, so
one banded substitution per grid plus a 3x3 solve per mode advances the
whole state exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs, solve_banded

from .errors import DomainError, SingularStepError, UnsupportedOracleError
from .kernels import kernel_moment
from .modes import (ModeSet, Params, PhaseSpace, PhaseVector, block_energies,
                    build_phase_space, history_quadratures, zero_phase_vector)


def mode_block_size(space: PhaseSpace) -> int:
    return 3 + space.eta_size + space.xi_size


def assemble_mode_operator(space: PhaseSpace, mode_index: int) -> np.ndarray:
    """Dense generator block for one mode; reference for tests and small runs."""
    g = float(space.modes.eigenvalues[mode_index])
    p = space.params
    me, mx = space.eta_size, space.xi_size
    d = 3 + me + mx
    L = np.zeros((d, d))
    L[0, 1] = 1.0
    L[1, 0] = -g * g
    L[1, 2] = g
    L[2, 1] = -g
    L[2, 2] = -p.phi()
    if p.has_xi:
        L[1, 3 + me:] = -g * g * space.w_beta
    else:
        L[1, 1] += -g * g
    if space.w_mu is not None:
        L[2, 3:3 + me] += -g * space.w_mu
    else:
        # collapsed heat memory acts as the instantaneous Fourier term
        L[2, 2] += -g
    if space.w_nu is not None:
        L[2, 3:3 + me] += -space.w_nu
    if p.has_eta:
        diag, lower = space.eta_grid.transport_stencil()
        idx = np.arange(3, 3 + me)
        L[idx, idx] = diag
        L[idx[1:], idx[:-1]] = lower
        L[3:3 + me, 2] += 1.0
    if p.has_xi:
        diag, lower = space.xi_grid.transport_stencil()
        idx = np.arange(3 + me, d)
        L[idx, idx] = diag
        L[idx[1:], idx[:-1]] = lower
        L[3 + me:, 1] += 1.0
    return L


def assemble_generator(space: PhaseSpace) -> sp.csc_matrix:
    blocks = [sp.csc_matrix(assemble_mode_operator(space, i))
              for i in range(space.modes.count)]
    return sp.block_diag(blocks, format="csc")


def weight_diagonal(space: PhaseSpace, order: int) -> np.ndarray:
    """Diagonal of the phase inner product in the flat layout of flatten()."""
    n = space.modes.count
    one = np.ones((n, 1))
    eu, ev, eth, emu, enu, exi = block_energies(
        space, order, one, one, one,
        *(0.0 if w is None else w[None, :] for w in (space.w_mu, space.w_nu, space.w_beta)))
    parts = [eu, ev, eth]
    if space.params.has_eta:
        parts.append(np.broadcast_to(emu + enu, (n, space.eta_size)))
    if space.params.has_xi:
        parts.append(exi)
    return np.concatenate(parts, axis=1).ravel()


def flatten(vec: PhaseVector) -> np.ndarray:
    space = vec.space
    n = space.modes.count
    d = mode_block_size(space)
    out = np.empty(n * d)
    arr = out.reshape(n, d)
    arr[:, 0], arr[:, 1], arr[:, 2] = vec.u, vec.v, vec.theta
    if space.params.has_eta:
        arr[:, 3:3 + space.eta_size] = vec.eta
    if space.params.has_xi:
        arr[:, 3 + space.eta_size:] = vec.xi
    return out


def unflatten(space: PhaseSpace, flat: np.ndarray, order: int) -> PhaseVector:
    n = space.modes.count
    d = mode_block_size(space)
    arr = flat.reshape(n, d)
    me = space.eta_size
    return PhaseVector(space, order, arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy(),
                       arr[:, 3:3 + me].copy() if space.params.has_eta else None,
                       arr[:, 3 + me:].copy() if space.params.has_xi else None)


def generator_quadratic_form(space: PhaseSpace, vec: PhaseVector) -> tuple[float, float]:
    """(<Lz, z>_W, <z, z>_W) for the vector's norm order; the first entry is
    nonpositive up to roundoff for every admissible configuration."""
    L = assemble_generator(space)
    W = weight_diagonal(space, vec.order)
    x = flatten(vec)
    return float((L @ x) @ (W * x)), float(x @ (W * x))


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

    Advances all modes at once: profiles are stored (nodes, modes) and the
    lower-bidiagonal solve runs column-wise through LAPACK.
    """

    def __init__(self, grid, dt: float):
        a = 0.5 * dt
        h = grid.spacing
        size = grid.size
        self.a, self.h, self.dt = a, h, dt
        ab = np.zeros((2, size))
        ab[0] = 1.0 + a / h
        ab[1, :-1] = -(a / h)[1:]
        # response of the implicit half to a unit constant drive
        self.unit_response = solve_banded((1, 0), ab, np.ones(size))
        # solve() calls the LAPACK routine solve_banded uses for this band on
        # the same padded band, so results match it bit for bit; it skips the
        # per-call validation, since _drive rejects non-finite states itself
        self._gbsv, = get_lapack_funcs(("gbsv",), (ab,))
        self._band = np.zeros((3, size))
        self._band[1:] = ab

    def explicit_half(self, profile: np.ndarray) -> np.ndarray:
        """(I + a T) applied to (nodes, modes) profiles, zero inflow."""
        shifted = np.zeros_like(profile)
        shifted[1:] = profile[:-1]
        return profile + self.a * (shifted - profile) / self.h[:, None]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        _, _, x, info = self._gbsv(1, 0, self._band.copy(), rhs, overwrite_ab=True)
        if info != 0:
            raise SingularStepError(f"banded transport solve failed (info {info})")
        return x

    def step_driven(self, profile: np.ndarray, drive_mid: np.ndarray) -> np.ndarray:
        """One midpoint step of profile' = T profile + drive, with the drive
        given at the midpoint (constant in s)."""
        return self.solve(self.explicit_half(profile) + self.dt * drive_mid[None, :])


class MidpointStepper:
    """Exact implicit-midpoint solver for the full mode-diagonal system.

    State arrays: u, v, theta of shape (modes,), eta of shape
    (eta_nodes, modes) and xi of shape (xi_nodes, modes), or None when the
    corresponding block is collapsed.
    """

    def __init__(self, space: PhaseSpace, dt: float):
        if dt <= 0:
            raise DomainError(f"need positive dt, got {dt}")
        self.space = space
        self.dt = dt
        a = 0.5 * dt
        self.a = a
        p = space.params
        g = space.modes.eigenvalues
        self.g = g
        self.phi = p.phi()

        self.eta_t = TransportStepper(space.eta_grid, dt) if p.has_eta else None
        self.xi_t = TransportStepper(space.xi_grid, dt) if p.has_xi else None
        s_mu = s_nu = s_beta = 0.0
        if self.eta_t is not None:
            if space.w_mu is not None:
                s_mu = float(space.w_mu @ self.eta_t.unit_response)
            if space.w_nu is not None:
                s_nu = float(space.w_nu @ self.eta_t.unit_response)
        if self.xi_t is not None:
            s_beta = float(space.w_beta @ self.xi_t.unit_response)
        self.s_mu, self.s_nu, self.s_beta = s_mu, s_nu, s_beta

        # triplet system after eliminating the history blocks
        n = space.modes.count
        cv = np.ones(n)
        if p.has_xi:
            cv += (a * g) ** 2 * s_beta
        else:
            cv += a * g ** 2
        cth = np.full(n, 1.0 + a * self.phi)
        if space.w_nu is not None:
            cth += a * a * s_nu
        if space.w_mu is not None:
            cth += a * a * g * s_mu
        else:
            cth += a * g
        A = np.zeros((n, 3, 3))
        A[:, 0, 0] = 1.0
        A[:, 0, 1] = -a
        A[:, 1, 0] = a * g ** 2
        A[:, 1, 1] = cv
        A[:, 1, 2] = -a * g
        A[:, 2, 1] = a * g
        A[:, 2, 2] = cth
        self.Ainv = np.linalg.inv(A)

    def step(self, u, v, th, eta, xi):
        space, a, g = self.space, self.a, self.g
        # explicit halves of the history rows, then partial solves
        y_eta = y_xi = None
        w_mu_y = w_nu_y = w_beta_y = 0.0
        if eta is not None:
            rhs = self.eta_t.explicit_half(eta) + a * th[None, :]
            y_eta = self.eta_t.solve(rhs)
            if space.w_mu is not None:
                w_mu_y = space.w_mu @ y_eta
            if space.w_nu is not None:
                w_nu_y = space.w_nu @ y_eta
        if xi is not None:
            rhs = self.xi_t.explicit_half(xi) + a * v[None, :]
            y_xi = self.xi_t.solve(rhs)
            w_beta_y = space.w_beta @ y_xi

        # explicit halves of the triplet rows
        r_u = u + a * v
        if xi is not None:
            mem_v = space.w_beta @ xi
            r_v = v + a * (-g ** 2 * u + g * th - g ** 2 * mem_v)
        else:
            r_v = v + a * (-g ** 2 * u + g * th - g ** 2 * v)
        r_th = th + a * (-self.phi * th - g * v)
        if space.w_mu is not None:
            r_th += a * (-g * (space.w_mu @ eta))
        else:
            r_th += a * (-g * th)
        if space.w_nu is not None:
            r_th += a * (-(space.w_nu @ eta))

        b = np.stack([r_u,
                      r_v - (a * g ** 2 * w_beta_y if xi is not None else 0.0),
                      r_th - a * w_nu_y - a * g * w_mu_y], axis=1)
        sol = np.einsum("nij,nj->ni", self.Ainv, b)
        u1, v1, th1 = sol[:, 0], sol[:, 1], sol[:, 2]
        eta1 = xi1 = None
        if eta is not None:
            eta1 = y_eta + a * np.outer(self.eta_t.unit_response, th1)
        if xi is not None:
            xi1 = y_xi + a * np.outer(self.xi_t.unit_response, v1)
        return u1, v1, th1, eta1, xi1


def _state_arrays(vec: PhaseVector):
    u, v, th = vec.u.copy(), vec.v.copy(), vec.theta.copy()
    eta = vec.eta.T.copy() if vec.eta is not None else None
    xi = vec.xi.T.copy() if vec.xi is not None else None
    return u, v, th, eta, xi


def _state_vector(space: PhaseSpace, order: int, u, v, th, eta, xi) -> PhaseVector:
    return PhaseVector(space, order, u.copy(), v.copy(), th.copy(),
                       eta.T.copy() if eta is not None else None,
                       xi.T.copy() if xi is not None else None)


@dataclass
class Trajectory:
    """Sampled solution of one evolution run.

    Per-mode arrays have shape (modes, samples). History columns hold the
    gamma-weighted squared block contributions at the trajectory's norm
    order, so the total energy is the plain sum over blocks and modes. imu
    and ibe are the plain memory integrals per mode. step_energy records the
    squared phase norm after every step, not just at stored samples.
    """

    space: PhaseSpace
    order: int
    dt: float
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    he_mu: np.ndarray
    he_nu: np.ndarray
    hx: np.ndarray
    imu: np.ndarray
    ibe: np.ndarray
    step_energy: np.ndarray
    final_state: PhaseVector

    def modal_energy(self) -> np.ndarray:
        eu, ev, eth = block_energies(self.space, self.order, self.u, self.v, self.theta)[:3]
        return eu + ev + eth + self.he_mu + self.he_nu + self.hx

    def total_energy(self) -> np.ndarray:
        return self.modal_energy().sum(axis=0)

    def history_block(self, name: str) -> np.ndarray:
        """Aggregated history norm over modes: "eta_mu", "eta_nu" or "xi"."""
        arr = {"eta_mu": self.he_mu, "eta_nu": self.he_nu, "xi": self.hx}[name]
        return np.sqrt(arr.sum(axis=0))


def _step_count(dt: float, horizon: float) -> int:
    if dt <= 0 or horizon <= 0:
        raise DomainError(f"need positive dt and horizon, got {dt}, {horizon}")
    return max(1, int(round(horizon / dt)))


def _stored_steps(nsteps: int, stride: int) -> list[int]:
    stored = list(range(0, nsteps + 1, stride))
    if stored[-1] != nsteps:
        stored.append(nsteps)
    return stored


def _drive(stepper: MidpointStepper, initial: PhaseVector, horizon: float, stride: int,
           sample, advance=None):
    """The stepping and recording loop of evolve and compare_trajectories.

    Advances ``initial`` to the horizon; ``advance()``, if given, moves any
    companion system after each step. The block energies at the initial
    order are taken at step 0 and after every step, and a non-finite total
    raises SingularStepError. At every ``stride``-th step and the last,
    ``sample(state, blocks)`` returns a tuple of values, which come back
    stacked along a trailing sample axis.

    Returns (stored step indices, per-step energy, sampled columns, final
    state arrays).
    """
    if stride < 1:
        raise DomainError(f"store_stride must be >= 1, got {stride}")
    space, dt = stepper.space, stepper.dt
    nsteps = _step_count(dt, horizon)
    stored = np.array(_stored_steps(nsteps, stride))
    k_of_step = {s: k for k, s in enumerate(stored.tolist())}
    step_energy = np.zeros(nsteps + 1)
    columns = None
    state = _state_arrays(initial)
    for step in range(nsteps + 1):
        if step:
            state = stepper.step(*state)
            if advance is not None:
                advance()
        u, v, th, eta, xi = state
        blocks = block_energies(space, initial.order, u, v, th,
                                *history_quadratures(space, eta, xi))
        e = float(np.sum(sum(blocks)))
        if not math.isfinite(e):
            raise SingularStepError(f"state left the finite range at step {step} "
                                    f"(t = {step * dt:.6g})")
        step_energy[step] = e
        k = k_of_step.get(step)
        if k is not None:
            values = sample(state, blocks)
            if columns is None:
                columns = [np.zeros(np.shape(x) + (stored.size,)) for x in values]
            for col, x in zip(columns, values):
                col[..., k] = x
    return stored, step_energy, columns, state


def evolve(space: PhaseSpace, initial: PhaseVector, dt: float, horizon: float,
           *, store_stride: int = 1) -> Trajectory:
    """Implicit midpoint evolution up to the horizon.

    Raises SingularStepError if the state stops being finite.
    """
    stepper = MidpointStepper(space, dt)
    zero = np.zeros(space.modes.count)

    def sample(state, blocks):
        u, v, th, eta, xi = state
        imu = space.w_mu @ eta if space.w_mu is not None else zero
        ibe = space.w_beta @ xi if xi is not None else zero
        return (u, v, th) + tuple(blocks[3:]) + (imu, ibe)

    stored, step_energy, cols, state = _drive(stepper, initial, horizon, store_stride, sample)
    m = initial.order
    return Trajectory(space, m, dt, dt * stored, *cols, step_energy,
                      _state_vector(space, m, *state))


def evolve_limit(modes: ModeSet, triplet0: np.ndarray, dt: float, horizon: float,
                 *, order: int = 0, store_stride: int = 1) -> Trajectory:
    """Evolution of the fully collapsed comparison system.

    triplet0 has shape (modes, 3) holding (u, v, theta) per mode.
    """
    space = build_phase_space(modes, Params(0.0, 0.0, 0.0))
    z0 = zero_phase_vector(space, order)
    t0 = np.asarray(triplet0, dtype=float)
    if t0.shape != (modes.count, 3):
        raise DomainError(f"triplet0 has shape {t0.shape}, expected ({modes.count}, 3)")
    z0.u, z0.v, z0.theta = t0[:, 0].copy(), t0[:, 1].copy(), t0[:, 2].copy()
    return evolve(space, z0, dt, horizon, store_stride=store_stride)


def limit_mode_matrix(gamma: float) -> np.ndarray:
    """3x3 generator block of the collapsed system at one eigenvalue."""
    return np.array([[0.0, 1.0, 0.0],
                     [-gamma ** 2, -gamma ** 2, gamma],
                     [0.0, -gamma, -gamma]])


@dataclass
class OracleTrajectory:
    """Closure-based reference solution; arrays shaped (modes, samples)."""

    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    i_mu: np.ndarray
    i_nu: np.ndarray
    i_beta: np.ndarray


def saturating_profile_integrals(space: PhaseSpace, coefficients: np.ndarray) -> dict:
    """Continuum memory integrals of the preset history profile
    c * (1 - exp(-s)) under each active kernel, per mode.

    Closed form: integral of amp*exp(-dec*s)*(1-exp(-s)) is
    amp*(1/dec - 1/(dec+1)).
    """
    coef = np.asarray(coefficients, dtype=float)
    out = {}
    for name, k in (("mu", space.mu), ("nu", space.nu), ("beta", space.beta)):
        if k is None:
            out[name] = np.zeros_like(coef)
            continue
        if not k.is_exponential_shape:
            raise UnsupportedOracleError(f"no closed profile integral for family {k.family}")
        out[name] = coef * k.amplitude * (1.0 / k.decay - 1.0 / (k.decay + 1.0))
    return out


def closure_oracle_evolve(space: PhaseSpace, initial: PhaseVector, dt: float,
                          horizon: float, *, initial_integrals: dict | None = None,
                          store_stride: int = 1) -> OracleTrajectory:
    """Reference evolution through the exact memory-integral closure.

    For purely exponential kernels the memory integrals satisfy scalar
    closure equations with continuum constants, so each mode reduces to a
    linear system of at most six states advanced by a matrix exponential.
    Grid weights never enter, which keeps this route independent of the
    sampled-history discretization.
    """
    p = space.params
    for k in (space.mu, space.nu, space.beta):
        if k is not None and not k.is_exponential_shape:
            raise UnsupportedOracleError(
                f"closure oracle needs exponential-shape kernels, got {k.family}")
    if initial_integrals is None:
        for h in (initial.eta, initial.xi):
            if h is not None and np.any(h != 0.0):
                raise UnsupportedOracleError(
                    "nonzero initial histories need explicit initial_integrals")
        zeros = np.zeros(space.modes.count)
        initial_integrals = {"mu": zeros, "nu": zeros, "beta": zeros}

    nsteps = _step_count(dt, horizon)
    stored = _stored_steps(nsteps, store_stride)
    k_of_step = {s: k for k, s in enumerate(stored)}
    K = len(stored)
    n = space.modes.count
    out = {name: np.zeros((n, K)) for name in ("u", "v", "th", "imu", "inu", "ibe")}

    for i in range(n):
        g = float(space.modes.eigenvalues[i])
        A = np.zeros((6, 6))
        A[0, 1] = 1.0
        A[1, 0] = -g * g
        A[1, 2] = g
        A[2, 1] = -g
        A[2, 2] = -p.phi()
        if space.beta is not None:
            A[1, 5] = -g * g
            A[5, 5] = -space.beta.decay
            A[5, 1] = kernel_moment(space.beta, 0)
        else:
            A[1, 1] += -g * g
        if space.mu is not None:
            A[2, 3] = -g
            A[3, 3] = -space.mu.decay
            A[3, 2] = kernel_moment(space.mu, 0)
        else:
            A[2, 2] += -g
        if space.nu is not None:
            A[2, 4] = -1.0
            A[4, 4] = -space.nu.decay
            A[4, 2] = kernel_moment(space.nu, 0)
        z = np.array([initial.u[i], initial.v[i], initial.theta[i],
                      initial_integrals["mu"][i], initial_integrals["nu"][i],
                      initial_integrals["beta"][i]])
        P = scipy.linalg.expm(dt * A)
        for step in range(nsteps + 1):
            k = k_of_step.get(step)
            if k is not None:
                (out["u"][i, k], out["v"][i, k], out["th"][i, k],
                 out["imu"][i, k], out["inu"][i, k], out["ibe"][i, k]) = z
            if step < nsteps:
                z = P @ z
    times = dt * np.array(stored, dtype=float)
    return OracleTrajectory(times, out["u"], out["v"], out["th"],
                            out["imu"], out["inu"], out["ibe"])
