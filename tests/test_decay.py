"""Rate fitting and Lyapunov-functional diagnostics."""
import numpy as np
import pytest

from memoplate.errors import DomainError, FitError
from memoplate.decay import (
    DEFAULT_WINDOW, SCALE_LADDER,
    check_differential_inequalities, equivalence_margins, fit_decay_rate, lyapunov_series,
)
from memoplate.dynamics import closure_matrix, default_time_step, evolve, evolve_limit
from memoplate.modes import Domain, Params, build_phase_space, dirichlet_eigenvalues, initial_data_preset


def test_fit_exact_exponential():
    t = np.linspace(0, 10, 401)
    fit = fit_decay_rate(t, 5.0 * np.exp(-2.0 * t), (1.0, 9.0))
    assert fit.rate == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # prefactor is referenced to the initial energy: 5 e^0 / E(0) = 1
    assert fit.prefactor == pytest.approx(1.0, rel=1e-12)
    assert fit.samples > 3


def test_fit_contracts():
    t = np.linspace(0, 10, 50)
    with pytest.raises(FitError):
        fit_decay_rate(t, np.zeros_like(t), (1.0, 9.0))
    with pytest.raises(DomainError):
        fit_decay_rate(t, np.exp(-t), (9.5, 9.6))  # fewer than 3 samples


@pytest.fixture(scope="module")
def thermal_run():
    modes = dirichlet_eigenvalues(Domain("interval", (np.pi,)), 6)
    p = Params(0.5, 0.5, 0.5)
    space = build_phase_space(modes, p, grid_size=120)
    z0 = initial_data_preset("spectral-decay 6", space, 0)
    return evolve(space, z0, default_time_step(p), 12.0, store_stride=10)


@pytest.fixture(scope="module")
def cold_run():
    modes = dirichlet_eigenvalues(Domain("interval", (np.pi,)), 6)
    p = Params(0.5, 0.0, 0.5)
    space = build_phase_space(modes, p, grid_size=120)
    z0 = initial_data_preset("spectral-decay 6", space, 0)
    return evolve(space, z0, default_time_step(p), 12.0, store_stride=10)


def test_lyapunov_series_keys_and_scale(thermal_run):
    ser = lyapunov_series(thermal_run, 20.0)
    for key in ("energy", "theta_flat", "theta_sharp", "K", "K2", "K3", "F1", "F2"):
        assert ser[key].shape == thermal_run.times.shape
    np.testing.assert_array_equal(ser["F2"], 20.0 * ser["energy"] + ser["K3"])
    np.testing.assert_allclose(ser["energy"], thermal_run.total_energy(), rtol=1e-12)


def test_equivalence_band(thermal_run):
    ser = lyapunov_series(thermal_run, 20.0)
    lo, hi = equivalence_margins(ser)
    # E/2 <= F1 <= 2E throughout
    assert lo > 0.0 and hi > 0.0


def test_inequalities_thermal(thermal_run):
    rep = check_differential_inequalities(thermal_run, (1.0, 10.0))
    assert rep.d0_hat > 0.0
    assert rep.lambda_hat > 0.0
    assert not rep.degenerate
    assert rep.residual == 0.0


def test_inequalities_degenerate_at_zero_coupling(cold_run):
    rep = check_differential_inequalities(cold_run, (1.0, 10.0))
    assert rep.degenerate
    assert np.isnan(rep.lambda_hat)
    assert rep.d0_hat > 0.0


def test_scale_ladder_autoselect(thermal_run):
    rep = check_differential_inequalities(thermal_run, (1.0, 10.0))
    assert SCALE_LADDER == (5.0, 10.0, 20.0, 40.0, 80.0)
    assert rep.scale in SCALE_LADDER
    assert rep.d0_hat > 0.0


def test_fitted_rate_against_spectral_oracle():
    # collapsed system: energy decay rate equals twice the spectral abscissa
    modes = dirichlet_eigenvalues(Domain("interval", (np.pi,)), 1)
    traj = evolve_limit(modes, np.array([[1.0, 0.5, -0.5]]), 1e-3, 50.0, store_stride=20)
    fit = fit_decay_rate(traj.times, traj.total_energy(), (10.0, 50.0))
    block = closure_matrix(build_phase_space(modes, Params()), 1.0)
    target = -2.0 * float(np.max(np.linalg.eigvals(block).real))
    assert fit.rate == pytest.approx(target, rel=0.02)
    assert fit.r_squared > 0.999


def test_rate_increases_with_coupling(thermal_run, cold_run):
    w = (1.0, 10.0)
    rate_cold = fit_decay_rate(cold_run.times, cold_run.total_energy(), w).rate
    rate_warm = fit_decay_rate(thermal_run.times, thermal_run.total_energy(), w).rate
    assert rate_cold > 0.0
    assert rate_warm >= rate_cold * 0.95


def test_default_window():
    assert DEFAULT_WINDOW == (1.0, 15.0)
