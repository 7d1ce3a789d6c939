"""Generator assembly and time stepping.

The structured midpoint stepper is checked against a dense per-block solve,
against the algebraic energy-balance identity of the midpoint rule, and
against the matrix exponential of the memory-integral closure for
exponential kernels, whose kernel-free case is the collapsed 3x3 system.
"""
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from memoplate.errors import DomainError, SingularStepError, UnsupportedOracleError
from memoplate.dynamics import (
    MidpointStepper, TransportStepper, assemble_mode_operator, closure_matrix,
    closure_oracle_evolve, default_time_step, evolve, evolve_limit,
    generator_quadratic_form, mode_blocks, mode_weights, saturating_profile_integrals,
)
from memoplate.limits import compare_trajectories
from memoplate.modes import (
    Domain, Params, PhaseEnergy, PhaseVector, build_phase_space, dirichlet_eigenvalues,
    initial_data_preset, norm_powers, project_initial_data, zero_phase_vector,
)

PARAM_CASES = [Params(0.5, 0.25, 0.5), Params(0.0, 0.5, 0.5), Params(0.5, 0.0, 0.0),
               Params(0.0, 0.0, 0.5), Params(0.0, 0.0, 0.0), Params(0.5, 0.5, 0.0)]


def random_state(space, seed, order=0):
    rng = np.random.default_rng(seed)
    n = space.modes.count
    vec = zero_phase_vector(space, order)
    vec.u = rng.standard_normal(n)
    vec.v = rng.standard_normal(n)
    vec.theta = rng.standard_normal(n)
    vec.eta = rng.standard_normal(vec.eta.shape)
    vec.xi = rng.standard_normal(vec.xi.shape)
    return vec


# the default 400-node grids reach a/h ~ 3e5 in their first cell, where the
# transport's midpoint map is close to -1; the 1600-node grids reach a/h up
# to 8.7e30, where 1/(1 + a/h) ~ 1e-31 and the scaled band entry
# -(a/h)/(1 + a/h) rounds to -1
@pytest.mark.parametrize("params, grid_size, modes", [
    pytest.param(p, size, 4, id=f"s{p.sigma}-t{p.tau}-e{p.eps}" + suffix)
    for size, suffix in ((50, ""), (400, "-400nodes")) for p in PARAM_CASES] + [
    pytest.param(p, 1600, 2, id=f"s{p.sigma}-t{p.tau}-e{p.eps}-1600nodes")
    for p in (Params(0.5, 0.25, 0.5), Params(0.5, 0.0, 0.0), Params(0.0, 0.0, 0.5))])
def test_stepper_matches_dense_block_solve(params, grid_size, modes):
    space = build_phase_space(dirichlet_eigenvalues(Domain("interval", (np.pi,)), modes),
                              params, grid_size=grid_size)
    dt = 1e-3
    stepper = MidpointStepper(space, dt)
    vec = random_state(space, 11)
    x = mode_blocks(vec)
    got = mode_blocks(PhaseVector(space, 0, *stepper.step(vec.u, vec.v, vec.theta,
                                                          vec.eta, vec.xi)))
    a = 0.5 * dt
    eye = np.eye(x.shape[1])
    for i in range(modes):
        L = assemble_mode_operator(space, i)
        ref = np.linalg.solve(eye - a * L, (eye + a * L) @ x[i])
        np.testing.assert_allclose(got[i], ref, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(ref).max()))


@pytest.mark.parametrize("params", [Params(0.5, 0.25, 0.5), Params(0.5, 0.0, 0.0),
                                    Params(0.0, 0.0, 0.5)],
                         ids=["both-blocks", "xi-only", "eta-only"])
@pytest.mark.parametrize("grid_size", [50, 400])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_consecutive_steps_match_dense_block_solves(params, grid_size, layout):
    # each step writes into the buffers its input does not occupy, so five
    # steps in a row, each fed the previous step's own arrays, must follow
    # five dense midpoint solves: a buffer that overwrote its own input
    # would show from the second step on
    space = build_phase_space(dirichlet_eigenvalues(Domain("interval", (np.pi,)), 4),
                              params, grid_size=grid_size)
    dt = 1e-3
    stepper = MidpointStepper(space, dt)
    vec = random_state(space, 17)
    state = (vec.u, vec.v, vec.theta) + tuple(np.asarray(h, order=layout)
                                             for h in (vec.eta, vec.xi))
    ref = mode_blocks(vec)
    a = 0.5 * dt
    eye = np.eye(ref.shape[1])
    dense = [(eye - a * L, eye + a * L)
             for L in (assemble_mode_operator(space, i) for i in range(4))]
    for _ in range(5):
        state = stepper.step(*state)
        ref = np.stack([np.linalg.solve(lhs, rhs @ x) for (lhs, rhs), x in zip(dense, ref)])
        got = mode_blocks(PhaseVector(space, 0, *state))
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(ref).max()))


def test_steps_allocate_less_than_one_history():
    # the stepper writes into buffers it allocated once; ten steps after two
    # warm-up steps must not allocate even one history array's worth
    space = build_phase_space(dirichlet_eigenvalues(Domain("interval", (np.pi,)), 4),
                              Params(0.5, 0.25, 0.5), grid_size=400)
    stepper = MidpointStepper(space, 1e-3)
    vec = random_state(space, 19)
    state = (vec.u, vec.v, vec.theta, vec.eta, vec.xi)
    for _ in range(2):
        state = stepper.step(*state)
    history_bytes = vec.eta.nbytes
    assert history_bytes == 400 * 4 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(10):
            state = stepper.step(*state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < history_bytes


@pytest.mark.parametrize("params", PARAM_CASES, ids=lambda p: f"s{p.sigma}-t{p.tau}-e{p.eps}")
@pytest.mark.parametrize("layout", ["C", "F"])
def test_step_leaves_its_inputs_unchanged(interval_modes, params, layout):
    # the undriven solve and the drive terms go into the stepper's own
    # arrays in place, never into the state it was given, whatever the
    # histories' memory order
    space = build_phase_space(interval_modes, params, grid_size=50)
    stepper = MidpointStepper(space, 1e-3)
    vec = random_state(space, 13)
    state = (vec.u, vec.v, vec.theta) + tuple(np.asarray(h, order=layout)
                                             for h in (vec.eta, vec.xi))
    before = [x.tobytes() for x in state]
    stepper.step(*state)
    assert [x.tobytes() for x in state] == before
    for tr, profile, drive in ((stepper.eta_t, state[3], vec.theta),
                               (stepper.xi_t, state[4], vec.v)):
        z = tr.partial(profile)
        assert z.flags.f_contiguous and tr.complete(z, profile, drive) is z
    assert [x.tobytes() for x in state] == before


@pytest.mark.parametrize("params", PARAM_CASES, ids=lambda p: f"s{p.sigma}-t{p.tau}-e{p.eps}")
@pytest.mark.parametrize("order", [0, 2])
def test_generator_dissipative(interval_modes, params, order):
    space = build_phase_space(interval_modes, params, grid_size=50)
    for seed in range(5):
        vec = random_state(space, seed, order)
        form, norm = generator_quadratic_form(space, vec)
        assert form <= 1e-10 * norm


def test_midpoint_energy_balance_identity(small_space):
    # E(z+) - E(z) = dt * <L m, m>_W with m the midpoint state, exactly
    dt = 2e-3
    stepper = MidpointStepper(small_space, dt)
    vec = random_state(small_space, 5)
    state = (vec.u, vec.v, vec.theta, vec.eta, vec.xi)
    state1 = stepper.step(*state)
    mid = PhaseVector(small_space, 0, *(0.5 * (x + x1) for x, x1 in zip(state, state1)))
    lhs = PhaseVector(small_space, 0, *state1).norm_sq() - vec.norm_sq()
    rhs = 2.0 * dt * generator_quadratic_form(small_space, mid)[0]
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_energy_non_increasing_every_step(small_space):
    z0 = initial_data_preset("spectral-decay 4", small_space, 0, with_history=True)
    traj = evolve(small_space, z0, 1e-3, 1.0)
    e = traj.step_energy
    assert np.all(np.diff(e) <= 1e-12 * e[0])
    assert traj.total_energy[0] == pytest.approx(e[0], rel=1e-12)


@pytest.mark.parametrize("order, modes", [
    pytest.param(0, 4, id="0"), pytest.param(2, 4, id="2"),
    # from 8 modes on, NumPy's 1-D sum adds pairwise: these cases see the
    # summation order
    pytest.param(0, 16, id="0-16modes"), pytest.param(2, 16, id="2-16modes")])
def test_phase_norm_agrees_across_layouts(small_space, order, modes):
    # the norm read from PhaseVector, from the per-mode weight diagonal, from
    # the stepper's per-step energy and from the recorded trajectory energies
    if modes != small_space.modes.count:
        small_space = build_phase_space(
            dirichlet_eigenvalues(Domain("interval", (np.pi,)), modes),
            small_space.params, grid_size=80)
    z0 = random_state(small_space, 31, order)
    W = mode_weights(small_space, order)
    x = mode_blocks(z0)
    assert np.sum(W * x * x) == pytest.approx(z0.norm_sq(), rel=1e-12)
    traj = evolve(small_space, z0, 1e-2, 0.05)
    final = traj.final_state.norm_sq()
    assert final < z0.norm_sq()
    assert traj.step_energy[0] == pytest.approx(z0.norm_sq(), rel=1e-12)
    assert traj.step_energy[-1] == pytest.approx(final, rel=1e-12)
    assert traj.total_energy[-1] == pytest.approx(final, rel=1e-12)
    x1 = mode_blocks(traj.final_state)
    assert np.sum(W * x1 * x1) == pytest.approx(final, rel=1e-12)
    # the recorded energies are the driver's PhaseEnergy rows and sums, and
    # the modal energy sums the rows in the order the triplet energies were
    # once added
    fs = traj.final_state
    energy = PhaseEnergy(small_space, fs.order)
    blocks = energy(fs.u, fs.v, fs.theta, fs.eta, fs.xi)
    np.testing.assert_array_equal(traj.history_energy[..., -1], blocks[3:])
    energy.total()
    np.testing.assert_array_equal(traj.modal_energy[:, -1], energy.modal)
    # every step is stored, so the recorded totals are the per-step energy
    np.testing.assert_array_equal(traj.total_energy, traj.step_energy)
    p = norm_powers(small_space, order)[:, :, None]
    eu, ev, eth = p[0] * traj.u ** 2, p[1] * traj.v ** 2, p[2] * traj.theta ** 2
    he = traj.history_energy
    np.testing.assert_array_equal(traj.modal_energy, eu + ev + eth + he[0] + he[1] + he[2])


def test_evolution_linearity(small_space):
    za = random_state(small_space, 21)
    zb = random_state(small_space, 22)
    zc = zero_phase_vector(small_space, 0)
    zc.u = 2.0 * za.u - 0.5 * zb.u
    zc.v = 2.0 * za.v - 0.5 * zb.v
    zc.theta = 2.0 * za.theta - 0.5 * zb.theta
    zc.eta = 2.0 * za.eta - 0.5 * zb.eta
    zc.xi = 2.0 * za.xi - 0.5 * zb.xi
    ta = evolve(small_space, za, 1e-2, 0.3)
    tb = evolve(small_space, zb, 1e-2, 0.3)
    tc = evolve(small_space, zc, 1e-2, 0.3)
    np.testing.assert_allclose(tc.u, 2.0 * ta.u - 0.5 * tb.u, atol=1e-11)
    np.testing.assert_allclose(tc.theta, 2.0 * ta.theta - 0.5 * tb.theta, atol=1e-11)


def test_limit_matches_matrix_exponential(interval_modes):
    trip0 = np.array([[1.0, 0.5, -0.5], [0.2, 0.0, 0.1], [0.0, -0.3, 0.0], [0.05, 0.0, 0.0]])
    dt = 1e-3
    traj = evolve_limit(interval_modes, trip0, dt, 5.0, store_stride=100)
    worst = np.zeros(interval_modes.count)
    limit_space = build_phase_space(interval_modes, Params())
    for i, gam in enumerate(interval_modes.eigenvalues):
        A = closure_matrix(limit_space, gam)
        for k, t in enumerate(traj.times):
            ref = scipy.linalg.expm(t * A) @ trip0[i]
            got = np.array([traj.u[i, k], traj.v[i, k], traj.theta[i, k]])
            worst[i] = max(worst[i], float(np.abs(got - ref).max()))
    # second-order step: phase error grows with the mode frequency
    assert worst[0] <= 1e-6
    assert np.all(worst <= 5e-6)


def test_limit_block_spectrum_stable(interval_modes):
    # with no kernel present the closure is the memory-free block
    limit_space = build_phase_space(interval_modes, Params())
    for gam in (1.0, 4.0, 9.0, 100.0):
        A = closure_matrix(limit_space, gam)
        assert np.array_equal(A, [[0, 1, 0], [-gam ** 2, -gam ** 2, gam], [0, -gam, -gam]])
        ev = np.linalg.eigvals(A)
        assert np.all(ev.real < 0.0)


# Every collapse pattern, thermal memory (tau > 0) included
ORACLE_CASES = [Params(1.0, 0.0, 1.0), Params(1.0, 0.5, 1.0), Params(0.5, 0.5, 0.0),
                Params(0.0, 0.5, 1.0), Params(0.5, 0.0, 0.0), Params(0.0, 0.0, 0.5),
                Params(0.0, 0.0, 0.0), Params(0.5, 0.25, 0.5), Params(0.5, 0.5, 0.5),
                Params(0.0, 0.5, 0.5)]


@pytest.mark.parametrize("params", ORACLE_CASES, ids=lambda p: f"s{p.sigma}-t{p.tau}-e{p.eps}")
def test_closure_spectral_gap_is_uniform(interval_modes, params):
    # point-spectrum form of uniform exponential decay: one state per present
    # kernel, no zero row, and a spectral abscissa bounded away from 0 from
    # the first mode to a very high one
    space = build_phase_space(interval_modes, params, grid_size=40)
    d = 3 + sum(k is not None for k in (space.mu, space.nu, space.beta))
    for gam in (1.0, 4.0, 9.0, 100.0, 1e4):
        A = closure_matrix(space, gam)
        assert A.shape == (d, d)
        assert np.all(np.any(A != 0.0, axis=1))
        assert np.linalg.eigvals(A).real.max() <= -0.1


@pytest.mark.parametrize("params", ORACLE_CASES, ids=lambda p: f"s{p.sigma}-t{p.tau}-e{p.eps}")
def test_closure_oracle_agreement(interval_modes, params):
    # default graded grid against the grid-free closure route
    space = build_phase_space(interval_modes, params, grid_size=400)
    z0 = initial_data_preset("single-mode", space, 0)
    traj = evolve(space, z0, 1e-3, 5.0, store_stride=5)
    orc = closure_oracle_evolve(space, z0, 1e-3, 5.0, store_stride=5)
    scale = max(np.abs(orc.u).max(), np.abs(orc.v).max(), np.abs(orc.theta).max())
    dev = max(np.abs(traj.u - orc.u).max(), np.abs(traj.v - orc.v).max(),
              np.abs(traj.theta - orc.theta).max())
    assert dev / scale <= 1e-3


def test_closure_oracle_refinement_tightens(interval_modes):
    # plain cell-mass weights converge at first order under spacing halving
    p = Params(1.0, 0.0, 1.0)
    errs = []
    size, ratio = 100, 1.05
    for _ in range(2):
        space = build_phase_space(interval_modes, p, grid_size=size, ratio=ratio,
                                  weight_policy="mass")
        z0 = initial_data_preset("single-mode", space, 0)
        traj = evolve(space, z0, 1e-3, 3.0, store_stride=10)
        orc = closure_oracle_evolve(space, z0, 1e-3, 3.0, store_stride=10)
        scale = max(np.abs(orc.u).max(), np.abs(orc.v).max(), np.abs(orc.theta).max())
        errs.append(max(np.abs(traj.u - orc.u).max(), np.abs(traj.v - orc.v).max(),
                        np.abs(traj.theta - orc.theta).max()) / scale)
        size, ratio = 2 * size, np.sqrt(ratio)
    assert errs[0] / errs[1] >= 1.8


def test_closure_oracle_with_profile_integrals(interval_modes):
    # saturating initial histories enter the closure through their exact
    # continuum integrals
    space = build_phase_space(interval_modes, Params(1.0, 0.0, 1.0), grid_size=400)
    z0 = initial_data_preset("spectral-decay 4", space, 0, with_history=True)
    coef = (np.arange(4) + 1.0) ** -4.0
    ints = saturating_profile_integrals(space, coef)
    traj = evolve(space, z0, 1e-3, 3.0, store_stride=10)
    orc = closure_oracle_evolve(space, z0, 1e-3, 3.0, initial_integrals=ints, store_stride=10)
    scale = max(np.abs(orc.u).max(), np.abs(orc.v).max(), np.abs(orc.theta).max())
    dev = max(np.abs(traj.u - orc.u).max(), np.abs(traj.theta - orc.theta).max())
    assert dev / scale <= 2e-3


def test_closure_oracle_contracts(interval_modes):
    space = build_phase_space(interval_modes, Params(1.0, 0.0, 1.0), grid_size=40)
    z0 = initial_data_preset("spectral-decay 4", space, 0, with_history=True)
    with pytest.raises(UnsupportedOracleError):
        closure_oracle_evolve(space, z0, 1e-3, 1.0)
    from memoplate.kernels import normalized_power_base
    sp_pow = build_phase_space(interval_modes, Params(0.0, 0.0, 0.5), grid_size=40,
                               base_mu=normalized_power_base(0.4))
    zp = initial_data_preset("single-mode", sp_pow, 0)
    with pytest.raises(UnsupportedOracleError):
        closure_oracle_evolve(sp_pow, zp, 1e-3, 1.0)
    z_rest = initial_data_preset("single-mode", space, 0)
    for dt, horizon in ((0.0, 1.0), (-1e-3, 1.0), (1e-3, 0.0)):
        with pytest.raises(DomainError):
            closure_oracle_evolve(space, z_rest, dt, horizon)


def test_closure_oracle_rejects_zero_stride(interval_modes):
    # the oracle and the stepper keep their samples by one rule
    space = build_phase_space(interval_modes, Params(1.0, 0.0, 1.0), grid_size=40)
    z0 = initial_data_preset("single-mode", space, 0)
    with pytest.raises(DomainError):
        closure_oracle_evolve(space, z0, 1e-3, 1.0, store_stride=0)


def test_transport_solves_per_step(small_space, monkeypatch):
    # one triangular substitution per active history block and step, as many
    # again for the reconstructed limit histories, none for the collapsed
    # system: an empty block never reaches LAPACK
    calls = []
    solve = TransportStepper.solve
    monkeypatch.setattr(TransportStepper, "solve",
                        lambda self, rhs: calls.append(1) or solve(self, rhs))
    one_block = [build_phase_space(small_space.modes, p, grid_size=40)
                 for p in (Params(0.5, 0.0, 0.0), Params(0.0, 0.5, 0.0))]
    for space, active in [(small_space, 2)] + [(sp, 1) for sp in one_block]:
        z0 = initial_data_preset("single-mode", space, 0)
        for run, per_step in ((lambda: evolve(space, z0, 1e-2, 0.1), active),
                              (lambda: compare_trajectories(space, z0, 1e-2, 0.1),
                               2 * active)):
            calls.clear()
            run()
            assert len(calls) == 10 * per_step
    calls.clear()
    evolve_limit(small_space.modes, np.ones((4, 3)), 1e-2, 0.1)
    assert calls == []


def test_default_time_step_rules():
    assert default_time_step(Params(0.5, 0.0, 0.5)) == pytest.approx(1e-3)
    assert default_time_step(Params(0.01, 0.0, 0.5)) == pytest.approx(0.01 / 20)
    assert default_time_step(Params(0.0, 0.0, 0.004)) == pytest.approx(0.004 / 20)
    assert default_time_step(Params(0.0, 0.0, 0.0)) == pytest.approx(1e-3)


def test_evolve_contracts(small_space):
    z0 = initial_data_preset("single-mode", small_space, 0)
    with pytest.raises(DomainError):
        evolve(small_space, z0, -1e-3, 1.0)
    with pytest.raises(DomainError):
        evolve(small_space, z0, 1e-3, 0.0)
    with pytest.raises(DomainError):
        evolve(small_space, z0, 1e-3, 1.0, store_stride=0)
    bad = initial_data_preset("single-mode", small_space, 0)
    bad.u = bad.u.copy()
    bad.u[0] = np.nan
    with pytest.raises(SingularStepError):
        evolve(small_space, bad, 1e-3, 0.01)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_single_step_contraction_property(seed):
    modes = dirichlet_eigenvalues(Domain("interval", (np.pi,)), 3)
    space = build_phase_space(modes, Params(0.5, 0.25, 0.5), grid_size=40)
    stepper = MidpointStepper(space, 5e-3)
    vec = random_state(space, seed)
    e0 = vec.norm_sq()
    u1, v1, th1, eta1, xi1 = stepper.step(vec.u, vec.v, vec.theta, vec.eta, vec.xi)
    vec1 = project_initial_data({"u": u1, "v": v1, "theta": th1,
                                 "eta": eta1, "xi": xi1}, space, 0)
    assert vec1.norm_sq() <= e0 * (1.0 + 1e-12)
