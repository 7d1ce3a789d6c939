"""Decay-rate estimation and cross-functional differential checks.

The energy alone does not expose the decay rate directly; small multiples of
mixed products (deflection times velocity, temperature times memory
integral) turn it into functionals whose time derivative is provably
controlled. We evaluate those series on a sampled trajectory, fit the decay
rate by least squares on the log-energy, and extract the largest constants
for which the differential inequalities hold along the sampled run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .dynamics import Trajectory

DEFAULT_WINDOW = (1.0, 15.0)

# Mixing coefficients of the primary functional F1 = E + RHO_FLAT*theta_flat
# + RHO_SHARP*theta_sharp; small enough that F1 stays within a factor two of
# the energy.
RHO_FLAT = 0.01
RHO_SHARP = 0.02
# Energy multiples N tried, in order, for the secondary functional N*E + K3.
SCALE_LADDER = (5.0, 10.0, 20.0, 40.0, 80.0)


def lyapunov_series(traj: Trajectory, scale: float) -> dict[str, np.ndarray]:
    """Functional time series on the trajectory's stored samples, with the
    energy multiple ``scale`` in the secondary functional F2."""
    p = traj.space.params
    g = traj.space.modes.eigenvalues[:, None]
    E = traj.total_energy()
    theta_flat = np.sum(traj.u * traj.v, axis=0)
    theta_sharp = -p.sigma * np.sum(traj.ibe * traj.v / g, axis=0)
    K = -p.eps * np.sum(traj.theta * traj.imu, axis=0)
    K2 = K - p.eps * np.sum(g * traj.u * traj.imu, axis=0)
    K3 = 4.0 * theta_sharp + K2 + theta_flat
    F1 = E + RHO_FLAT * theta_flat + RHO_SHARP * theta_sharp
    F2 = scale * E + K3
    return {"energy": E, "theta_flat": theta_flat, "theta_sharp": theta_sharp,
            "K": K, "K2": K2, "K3": K3, "F1": F1, "F2": F2}


def equivalence_margins(series: dict[str, np.ndarray]) -> tuple[float, float]:
    """(min of E - F1/2, min of 2*F1 - E); both nonnegative when the primary
    functional is energy-equivalent within a factor two."""
    E, F1 = series["energy"], series["F1"]
    return float(np.min(E - 0.5 * F1)), float(np.min(2.0 * F1 - E))


def _window_indices(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Sample indices inside the window; DomainError below three, since the
    window is a configured range."""
    lo, hi = window
    idx = np.nonzero((times >= lo) & (times <= hi))[0]
    if idx.size < 3:
        raise DomainError(f"window {window} covers only {idx.size} samples, need 3")
    return idx


@dataclass(frozen=True)
class DecayFit:
    rate: float
    prefactor: float       # fitted amplitude relative to the initial energy
    r_squared: float
    samples: int


def fit_decay_rate(times: np.ndarray, energy: np.ndarray,
                   window: tuple[float, float] = DEFAULT_WINDOW) -> DecayFit:
    """Least-squares slope of log energy over the window."""
    idx = _window_indices(np.asarray(times), window)
    e = np.asarray(energy)[idx]
    if np.any(e <= 0.0):
        raise FitError("energy reaches zero inside the fit window")
    t, y = np.asarray(times)[idx], np.log(e)
    A = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    y_hat = A @ np.array([slope, intercept])
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    e0 = float(energy[0]) if energy[0] > 0 else 1.0
    return DecayFit(-float(slope), float(np.exp(intercept)) / e0, r2, int(idx.size))


@dataclass(frozen=True)
class InequalityReport:
    """Largest constants satisfying the two differential inequalities on the
    sampled window, with the residual left at those constants."""

    lambda_hat: float      # primary: dF1/dt <= -(tau/2) * lambda * F1
    d0_hat: float          # secondary: dF2/dt <= -d0 * F2
    scale: float
    residual: float
    degenerate: bool       # tau = 0 turns the primary check into dF1/dt <= 0


def check_differential_inequalities(traj: Trajectory,
                                    window: tuple[float, float] = DEFAULT_WINDOW
                                    ) -> InequalityReport:
    """Fit the inequality constants along the run.

    The secondary functional's energy multiple climbs SCALE_LADDER and the
    first value giving a positive decay constant wins (falling back to the
    best seen).
    """
    idx = _window_indices(traj.times, window)
    t = traj.times

    best: InequalityReport | None = None
    for N in SCALE_LADDER:
        series = lyapunov_series(traj, N)
        F1, F2 = series["F1"], series["F2"]
        dF1 = np.gradient(F1, t)[idx]
        dF2 = np.gradient(F2, t)[idx]
        f1, f2 = F1[idx], F2[idx]
        tau = traj.space.params.tau
        degenerate = tau == 0.0
        # lambda and d0 are minima over the window's samples, so both
        # inequalities hold at every sample by construction; only the
        # degenerate check dF1 <= 0 can leave a residual (recomputing the
        # others would report roundoff of one ulp as a violation)
        if degenerate:
            lam = np.nan
            residual = float(np.max(np.maximum(dF1, 0.0)))
        elif np.any(f1 <= 0.0):
            raise FitError("primary functional loses positivity inside the window")
        else:
            lam = float(np.min(-2.0 * dF1 / (tau * f1)))
            residual = 0.0
        if np.any(f2 <= 0.0):
            raise FitError("secondary functional loses positivity inside the window; "
                           "increase the energy scale")
        d0 = float(np.min(-dF2 / f2))
        report = InequalityReport(lam, d0, float(N), residual, degenerate)
        if best is None or report.d0_hat > best.d0_hat:
            best = report
        if d0 > 0.0:
            return report
    return best
