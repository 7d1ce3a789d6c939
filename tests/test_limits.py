"""Collapsed-limit comparison machinery: lifts, decaying bounds, distance
records, surplus fits, history envelopes."""
import numpy as np
import pytest

from memoplate.errors import DomainError, SingularStepError
from memoplate.dynamics import default_time_step, evolve, max_step_increase
from memoplate.limits import (
    compare_trajectories, fit_limit_constants, history_envelopes,
    pi_bounds, upsilon_coefficients, upsilon_series,
)
from memoplate.modes import (Domain, Params, build_phase_space, dirichlet_eigenvalues,
                             initial_data_preset, lift_triplet)


@pytest.fixture(scope="module")
def modes():
    return dirichlet_eigenvalues(Domain("interval", (np.pi,)), 4)


@pytest.fixture(scope="module")
def memory_space(modes):
    return build_phase_space(modes, Params(0.25, 0.25, 0.25), grid_size=120)


def test_lift_project_roundtrip(memory_space):
    t = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, -1.0, 1.0]])
    vec = lift_triplet(memory_space, t, 0)
    np.testing.assert_array_equal(np.stack([vec.u, vec.v, vec.theta], axis=1), t)
    assert np.all(vec.eta == 0.0) and np.all(vec.xi == 0.0)
    with pytest.raises(DomainError):
        lift_triplet(memory_space, t[:2], 0)


def test_pi_bounds_arithmetic():
    w = 1.0 / 16.0
    flat, sharp = pi_bounds(Params(w, w, w))
    assert flat == pytest.approx(1.5)       # three quarter-roots of 1/16
    assert sharp == pytest.approx(0.5)      # two half-roots of 1/16
    flat0, sharp0 = pi_bounds(Params(0.0, 0.0, 0.0))
    assert flat0 == 0.0 and sharp0 == 0.0


def test_upsilon_coefficients_are_initial_history_norms(memory_space):
    z0 = initial_data_preset("spectral-decay 4", memory_space, 0, with_history=True)
    coeff = upsilon_coefficients(z0)
    blocks = z0.block_norms_sq()
    assert coeff["eta_mu"] == pytest.approx(np.sqrt(blocks["eta_mu"]))
    assert coeff["xi"] == pytest.approx(np.sqrt(blocks["xi"]))
    # zero histories give zero coefficients
    z1 = initial_data_preset("spectral-decay 4", memory_space, 0)
    assert all(v == 0.0 for v in upsilon_coefficients(z1).values())


def test_upsilon_series_decay_rates(memory_space):
    coeff = {"eta_mu": 1.0, "eta_nu": 0.0, "xi": 0.0}
    t = np.array([0.0, 1.0])
    ups = upsilon_series(memory_space, coeff, t)
    assert ups[0] == pytest.approx(1.0)
    # rescaled kernel decay is 1/eps = 4; quarter rate = 1
    assert ups[1] == pytest.approx(np.exp(-1.0))


def test_distance_vanishes_when_nothing_collapses(modes):
    space = build_phase_space(modes, Params(0.0, 0.0, 0.0))
    z0 = initial_data_preset("spectral-decay 4", space, 0)
    comp = compare_trajectories(space, z0, 1e-3, 1.0)
    assert float(np.max(comp.distance)) <= 1e-12
    assert comp.k_hat == 0.0


def test_initial_distance_is_history_norm(memory_space):
    z0 = initial_data_preset("spectral-decay 4", memory_space, 0, with_history=True)
    comp = compare_trajectories(memory_space, z0, 1e-3, 0.2)
    blocks = z0.block_norms_sq()
    expected = np.sqrt(blocks["eta_mu"] + blocks["eta_nu"] + blocks["xi"])
    assert comp.distance[0] == pytest.approx(expected, rel=1e-10)
    assert comp.distance_proof[0] == pytest.approx(expected, rel=1e-10)


@pytest.fixture(scope="module")
def small_sweep(modes):
    points = []
    for w in (0.25, 0.0625):
        p = Params(w, 0.0, w)
        space = build_phase_space(modes, p, grid_size=120)
        z0 = initial_data_preset("spectral-decay 6", space, 0)
        points.append(compare_trajectories(space, z0, default_time_step(p), 4.0))
    return points


def test_sweep_distance_shrinks(small_sweep):
    sup = [float(np.max(p.distance)) for p in small_sweep]
    assert sup[1] < sup[0]
    assert all(s > 0.0 for s in sup)


def test_fit_limit_constants_structure(small_sweep):
    fit = fit_limit_constants(small_sweep)
    assert fit["k_hat"] == pytest.approx(max(fit["k_hat_rows"]))
    # tau = 0 rows carry no thermal surplus
    assert all(q == 0.0 for q in fit["q_hat"])
    with pytest.raises(DomainError):
        fit_limit_constants([])


def test_q_hat_thermal_row(modes):
    p = Params(0.25, 0.25, 0.25)
    space = build_phase_space(modes, p, grid_size=120)
    z0 = initial_data_preset("spectral-decay 6", space, 0)
    comp = compare_trajectories(space, z0, default_time_step(p), 4.0)
    assert comp.q_hat(0.0) > 0.0
    # removing a larger shared part can only shrink the thermal surplus
    assert comp.q_hat(comp.k_hat) <= comp.q_hat(0.0)


def test_energy_series_recorded(memory_space):
    z0 = initial_data_preset("spectral-decay 6", memory_space, 0, with_history=True)
    comp = compare_trajectories(memory_space, z0, 1e-3, 1.0)
    assert comp.energy_full[0] == pytest.approx(z0.norm_sq(), rel=1e-10)
    assert np.all(np.diff(comp.energy_full) <= 1e-12 * comp.energy_full[0])
    assert np.all(np.diff(comp.energy_limit) <= 1e-12 * comp.energy_limit[0])


@pytest.mark.parametrize("order", [0, 2])
def test_one_energy_across_both_drivers(memory_space, order):
    # compare_trajectories steps the same memory system as evolve and
    # measures it through the same per-step energy; its history norms are
    # the PhaseVector block norms of the stepped state
    z0 = initial_data_preset("spectral-decay 4", memory_space, order, with_history=True)
    dt, horizon = 2e-3, 8.4
    comp = compare_trajectories(memory_space, z0, dt, horizon)
    stored = np.rint(comp.times / dt).astype(int)
    assert stored[1] == 2          # more than 2000 steps: every second one is sampled
    traj = evolve(memory_space, z0, dt, horizon, store_stride=2)
    np.testing.assert_array_equal(traj.times, comp.times)
    np.testing.assert_allclose(comp.energy_full, traj.step_energy[stored], rtol=1e-14, atol=0)
    # taken over every step, the odd ones this record does not store as well
    assert comp.max_step_increase == pytest.approx(max_step_increase(traj.step_energy),
                                                   rel=1e-9)
    final = traj.final_state.block_norms_sq()
    for norm, block, name in ((comp.eta_mu_norm, traj.history_energy[0], "eta_mu"),
                              (comp.eta_nu_norm, traj.history_energy[1], "eta_nu"),
                              (comp.xi_norm, traj.history_energy[2], "xi")):
        assert norm[-1] ** 2 == pytest.approx(final[name], rel=1e-14)
        np.testing.assert_allclose(norm ** 2, block.sum(axis=0), rtol=1e-14, atol=0)


def test_history_envelopes_hold(memory_space):
    # horizon long enough that the memory-fed plateau falls inside the fit
    # window; shorter runs fit before the plateau and under-predict
    z0 = initial_data_preset("spectral-decay 6", memory_space, 0, with_history=True)
    comp = compare_trajectories(memory_space, z0, 1e-3, 10.0)
    env = history_envelopes(comp)
    assert env.eta_margin >= -1e-12
    assert env.xi_margin >= -1e-12
    assert env.k_eta >= 0.0 and env.k_xi >= 0.0
    # the late-half margins are the whole-run ones taken past half the
    # horizon, so never below them; the whole-run minimum touches 0 where
    # the sup fit does
    assert env.late_eta_margin >= env.eta_margin and env.late_xi_margin >= env.xi_margin
    assert abs(env.eta_margin) <= 1e-12 and abs(env.xi_margin) <= 1e-12
    assert env.late_eta_margin > 0.0 and env.late_xi_margin > 0.0


def test_compare_contracts(memory_space):
    z0 = initial_data_preset("single-mode", memory_space, 0)
    with pytest.raises(DomainError):
        compare_trajectories(memory_space, z0, 0.0, 1.0)
    with pytest.raises(DomainError):
        compare_trajectories(memory_space, z0, 1e-3, -1.0)


def test_nonfinite_history_raises_typed_error(modes):
    space = build_phase_space(modes, Params(0.5, 0.25, 0.5), grid_size=60)
    z0 = initial_data_preset("spectral-decay 4", space, 0, with_history=True)
    z0.eta[5, 2] = np.nan
    with pytest.raises(SingularStepError):
        evolve(space, z0, 1e-3, 0.05)
    with pytest.raises(SingularStepError):
        compare_trajectories(space, z0, 1e-3, 0.05)
