"""Closeness of the memory system to its collapsed comparison system.

The full state is compared against the zero-padded lift of the collapsed
evolution started from the projected triplet. The history blocks of the lift
are zero, so their share of the distance is the full system's own history
norm; the triplet share is the weighted modal distance. A reconstruction of
the limit histories (transport driven by the collapsed temperature and
velocity) is stepped alongside as auxiliary proof machinery.

The measured distance is compared against the decaying contribution of the
initial histories plus parameter powers; the surplus constants are fitted,
never assumed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .dynamics import MidpointStepper, TransportStepper, _drive, _step_count, max_step_increase
from .modes import (Params, PhaseEnergy, PhaseSpace, PhaseVector, aligned_empty,
                    build_phase_space)


def pi_bounds(params: Params) -> tuple[float, float]:
    """Parameter powers controlling the closeness surplus: the quarter-power
    sum and the half-power thermal pair, whose two coefficients are both tau."""
    flat = params.eps ** 0.25 + params.sigma ** 0.25 + params.tau ** 0.25
    return flat, 2 * params.tau ** 0.5


def _comparison_stride(nsteps: int) -> int:
    """Sample stride of compare_trajectories: at most about 2000 samples."""
    return max(1, nsteps // 2000)


def _tail_start(times: np.ndarray, t0: float) -> float:
    """t0, or DomainError if it lies outside the sample times."""
    if not times[0] <= t0 <= times[-1]:
        raise DomainError(f"t0 = {t0} lies outside the run's times "
                          f"[{times[0]:.6g}, {times[-1]:.6g}]")
    return t0


def upsilon_coefficients(initial: PhaseVector) -> dict[str, float]:
    """Initial history norms feeding the decaying part of the bound."""
    b = initial.block_norms_sq()
    return {"eta_mu": float(np.sqrt(b["eta_mu"])), "eta_nu": float(np.sqrt(b["eta_nu"])),
            "xi": float(np.sqrt(b["xi"]))}


def upsilon_blocks(space: PhaseSpace, coeff: dict[str, float],
                   times: np.ndarray) -> dict[str, np.ndarray]:
    """Decaying initial-history terms per block ("eta_mu", "eta_nu", "xi"),
    zero for a collapsed kernel.

    Each term decays at a quarter of its kernel's sampled relaxation rate.
    """
    t = np.asarray(times, dtype=float)
    return {name: (np.zeros_like(t) if k is None
                   else coeff[name] * np.exp(-0.25 * k.decay * t))
            for name, k in (("eta_mu", space.mu), ("eta_nu", space.nu), ("xi", space.beta))}


def upsilon_series(space: PhaseSpace, coeff: dict[str, float], times: np.ndarray) -> np.ndarray:
    """Decaying initial-history contribution at the given times."""
    b = upsilon_blocks(space, coeff, times)
    return b["eta_mu"] + b["eta_nu"] + b["xi"]


@dataclass
class LimitComparison:
    """Distance record for one parameter point."""

    space: PhaseSpace
    order: int
    t0: float
    times: np.ndarray
    distance: np.ndarray          # zero-padded-lift distance D(t)
    distance_proof: np.ndarray    # distance against reconstructed histories
    upsilon: np.ndarray
    energy_full: np.ndarray
    energy_limit: np.ndarray
    max_step_increase: float      # of the full system's energy, over every step
    eta_mu_norm: np.ndarray       # measured history norms, aggregated over modes
    eta_nu_norm: np.ndarray
    xi_norm: np.ndarray
    coeff: dict[str, float]
    pi_flat: float
    pi_sharp: float

    @property
    def sup_distance(self) -> float:
        """Largest distance from t0 on; DomainError if t0 is outside the run."""
        return float(np.max(self.distance[self.times >= _tail_start(self.times, self.t0)]))

    def sup_upsilon_tail(self, t0: float | None = None) -> float:
        """Largest decaying-bound value from t0 on; the series is monotone
        decreasing so this is just its value at t0. DomainError if t0 is
        outside the run."""
        t0 = _tail_start(self.times, self.t0 if t0 is None else t0)
        return float(np.interp(t0, self.times, self.upsilon))

    @property
    def k_hat(self) -> float:
        """Per-point surplus constant over the quarter-power scale."""
        excess = np.maximum(self.distance - self.upsilon, 0.0)
        top = float(np.max(excess))
        if self.pi_flat == 0.0:
            return 0.0 if top == 0.0 else float("inf")
        return top / self.pi_flat

    def q_hat(self, k_global: float) -> float:
        """Thermal surplus left after removing a shared quarter-power part."""
        if self.pi_sharp == 0.0:
            return 0.0
        excess = np.maximum(self.distance - self.upsilon - k_global * self.pi_flat, 0.0)
        return float(np.max(excess)) / self.pi_sharp


def compare_trajectories(space: PhaseSpace, initial: PhaseVector, dt: float,
                         horizon: float, *, t0: float = 0.5) -> LimitComparison:
    """Step the full and collapsed systems together and record distances.

    Both use the same implicit midpoint scheme and step, so the comparison
    isolates the model difference rather than the integrator difference.
    At most about 2000 samples are stored. Raises SingularStepError if the
    full state stops being finite.
    """
    stride = _comparison_stride(_step_count(dt, horizon))
    m = initial.order
    n = space.modes.count

    stepper = MidpointStepper(space, dt)
    # the collapsed system has no histories, so its step is the midpoint map
    lim = MidpointStepper(build_phase_space(space.modes, Params(0.0, 0.0, 0.0)), dt)
    empty = np.zeros((0, n))
    # the reconstruction has its own buffers, apart from the memory system's
    rec_eta = TransportStepper(space.eta_grid, dt, n)
    rec_xi = TransportStepper(space.xi_grid, dt, n)
    drive_v, drive_th = np.empty((2, n))

    limit = (initial.u, initial.v, initial.theta, empty, empty)
    eta_hat, xi_hat = np.zeros_like(initial.eta), np.zeros_like(initial.xi)

    def advance():
        nonlocal limit, eta_hat, xi_hat
        # the step writes lim's other state set, so the old triplet is still
        # there for the drive sums, and the next step reads the new set in place
        old, limit = limit, lim.step(*limit)
        np.add(old[1], limit[1], out=drive_v)
        np.add(old[2], limit[2], out=drive_th)
        eta_hat = rec_eta.complete(rec_eta.partial(eta_hat), drive_th)
        xi_hat = rec_xi.complete(rec_xi.partial(xi_hat), drive_v)

    gap = PhaseEnergy(space, m)
    gap_eta = aligned_empty(initial.eta.shape, order="F")
    gap_xi = aligned_empty(initial.xi.shape, order="F")
    limit_energy = PhaseEnergy(lim.space, m)

    def sample(state, energy):
        u, v, th, eta, xi = state
        hmu, hnu, hxi = energy.blocks[3:].sum(axis=1).tolist()
        # distance to the limit state with the reconstructed histories; its
        # triplet part is also the triplet part of the zero-padded distance
        diff = gap(u - limit[0], v - limit[1], th - limit[2],
                   np.subtract(eta, eta_hat, out=gap_eta),
                   np.subtract(xi, xi_hat, out=gap_xi)).sum(axis=1).tolist()
        trip = diff[0] + diff[1] + diff[2]
        limit_energy(*limit)
        return (math.sqrt(trip + hmu + hnu + hxi),
                math.sqrt(trip + diff[3] + diff[4] + diff[5]),
                limit_energy.total(), math.sqrt(hmu), math.sqrt(hnu), math.sqrt(hxi))

    stored, step_energy, cols, _ = _drive(stepper, initial, horizon, stride, sample, advance)
    D, DP, EL, HMU, HNU, HXI = cols
    times = dt * stored
    coeff = upsilon_coefficients(initial)
    ups = upsilon_series(space, coeff, times)
    flat, sharp = pi_bounds(space.params)
    return LimitComparison(space, m, t0, times, D, DP, ups, step_energy[stored], EL,
                           max_step_increase(step_energy), HMU, HNU, HXI, coeff, flat, sharp)


def fit_limit_constants(points: list[LimitComparison]) -> dict:
    """Two-stage surplus fit over a sweep.

    The shared quarter-power constant is taken from the thermally collapsed
    points (all points if none are); each thermal point then gets its own
    half-power surplus on top of that shared part.
    """
    if not points:
        raise DomainError("empty sweep")
    base = [p for p in points if p.space.params.tau == 0.0] or points
    k_global = max(p.k_hat for p in base)
    return {"k_hat": k_global,
            "q_hat": [p.q_hat(k_global) for p in points],
            "k_hat_rows": [p.k_hat for p in points]}


@dataclass(frozen=True)
class EnvelopeFit:
    k_eta: float
    k_xi: float
    eta_margin: float     # min envelope - measured over the full horizon
    xi_margin: float
    late_eta_margin: float  # the same over the second half, which the fit never read
    late_xi_margin: float


def history_envelopes(comp: LimitComparison) -> EnvelopeFit:
    """Fit history-norm envelopes on the first half of the run, check on the
    whole run and on its second half alone.

    The measured slow-memory norm must stay under its initial decaying part
    plus a fitted multiple of sqrt(eps) + sqrt(tau); the viscous history gets
    the same treatment over sqrt(sigma). Fitting uses only the first half of
    the run, so the late-time check is a genuine prediction. A positive
    fitted constant makes the whole-run margin 0, where the fit touches the
    measured norm; the late-half margins say how far the prediction clears
    it.
    """
    space, t = comp.space, comp.times
    cut = t <= 0.5 * t[-1]
    dec = upsilon_blocks(space, comp.coeff, t)

    def envelope(meas, decaying, scale):
        k = 0.0
        if scale > 0 and cut.any():
            k = float(np.max(np.maximum(meas[cut] - decaying[cut], 0.0))) / scale
        return k, decaying + k * scale

    meas_eta = np.sqrt(comp.eta_mu_norm ** 2 + comp.eta_nu_norm ** 2)
    k_eta, env_eta = envelope(meas_eta, dec["eta_mu"] + dec["eta_nu"],
                              np.sqrt(space.params.eps) + np.sqrt(space.params.tau))
    k_xi, env_xi = envelope(comp.xi_norm, dec["xi"], np.sqrt(space.params.sigma))
    gap_eta, gap_xi = env_eta - meas_eta, env_xi - comp.xi_norm
    return EnvelopeFit(k_eta, k_xi, float(np.min(gap_eta)), float(np.min(gap_xi)),
                       float(np.min(gap_eta[~cut])), float(np.min(gap_xi[~cut])))
