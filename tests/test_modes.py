"""Dirichlet spectra, parameter gating, phase vectors and norm orders."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memoplate.dynamics import MidpointStepper
from memoplate.errors import DomainError, ShapeError
from memoplate.history import WEIGHT_SUM_RTOL
from memoplate.kernels import kernel_moment
from memoplate.modes import (
    Domain, Params, PhaseEnergy, PhaseVector,
    build_phase_space, dirichlet_eigenvalues, initial_data_preset,
    project_initial_data, zero_phase_vector,
)


def test_interval_spectrum_unit_pi():
    modes = dirichlet_eigenvalues(Domain("interval", (np.pi,)), 5)
    assert np.allclose(modes.eigenvalues, [1.0, 4.0, 9.0, 16.0, 25.0])


def test_interval_spectrum_general_length():
    modes = dirichlet_eigenvalues(Domain("interval", (1.0,)), 3)
    assert np.allclose(modes.eigenvalues, [np.pi ** 2, 4 * np.pi ** 2, 9 * np.pi ** 2])


def test_square_spectrum_with_multiplicity():
    modes = dirichlet_eigenvalues(Domain("rectangle", (np.pi, np.pi)), 4)
    assert np.allclose(modes.eigenvalues, [2.0, 5.0, 5.0, 8.0])


def test_rectangle_spectrum_sorted():
    modes = dirichlet_eigenvalues(Domain("rectangle", (np.pi, 2 * np.pi)), 10)
    assert np.all(np.diff(modes.eigenvalues) >= -1e-12)
    # (1,1) on pi x 2pi: 1 + 1/4
    assert modes.eigenvalues[0] == pytest.approx(1.25)


@pytest.mark.parametrize("lengths", [(np.pi, np.pi), (np.pi, np.e), (1.0, 10.0),
                                     (10.0, 1.0), (1.0, 100.0), (1e6, 1.0)])
def test_rectangle_spectrum_matches_full_enumeration(lengths):
    # the bounded enumeration returns exactly the first values of a sort over
    # every pair with both indices up to count
    Lx, Ly = lengths
    for count in (1, 2, 3, 4, 5, 10, 50, 128, 400):
        full = sorted(float((j * np.pi / Lx) ** 2 + (k * np.pi / Ly) ** 2)
                      for j in range(1, count + 1) for k in range(1, count + 1))
        got = dirichlet_eigenvalues(Domain("rectangle", lengths), count).eigenvalues
        np.testing.assert_array_equal(got, full[:count])


@pytest.mark.parametrize("lengths", [(1e150, 1e-150), (1e-20, 1.0), (1.0, 1e20),
                                     (1e160, 1.0)])
def test_rectangle_spectrum_at_extreme_sides(lengths):
    # the Weyl start bound neither overflows nor underflows (a warning fails
    # the test) and still yields the first values of the full enumeration
    Lx, Ly = lengths
    for count in (1, 7, 50):
        full = sorted(float((j * np.pi / Lx) ** 2 + (k * np.pi / Ly) ** 2)
                      for j in range(1, count + 1) for k in range(1, count + 1))
        got = dirichlet_eigenvalues(Domain("rectangle", lengths), count).eigenvalues
        np.testing.assert_array_equal(got, full[:count])


@pytest.mark.parametrize("lengths", [(1e6, 1.0), (1.0, 100.0)])
def test_rectangle_spectrum_memory_stays_near_count(lengths):
    # a bound from Weyl's law enumerates about count pairs at any aspect
    # ratio, a few MB at most for 20000 modes
    tracemalloc.start()
    try:
        modes = dirichlet_eigenvalues(Domain("rectangle", lengths), 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert modes.count == 20000
    assert peak < 5e6


def test_domain_contracts():
    with pytest.raises(DomainError):
        Domain("disk", (1.0,))
    with pytest.raises(DomainError):
        Domain("interval", (0.0,))
    with pytest.raises(DomainError):
        Domain("rectangle", (1.0,))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            Domain("interval", (bad,))
        with pytest.raises(DomainError):
            Domain("rectangle", (1.0, bad))
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(Domain("interval", (1.0,)), 0)
    space = build_phase_space(dirichlet_eigenvalues(Domain("interval", (1.0,)), 2), Params())
    for dt in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            MidpointStepper(space, dt)


def test_params_gating():
    with pytest.raises(DomainError):
        Params(1.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        Params(0.0, -0.1, 0.0)
    p = Params(0.0, 0.5, 0.0)
    assert p.tau == 0.5


@pytest.mark.parametrize("sigma, tau, eps", list(itertools.product((0.0, 0.5), repeat=3)))
def test_history_blocks_follow_the_grids(interval_modes, sigma, tau, eps):
    # eta exists exactly when mu or nu does, xi exactly when beta does, and
    # every state builder and the stepper read that from the grids alone: an
    # absent block has 0 nodes
    space = build_phase_space(interval_modes, Params(sigma, tau, eps), grid_size=40)
    assert (space.eta_grid is not None) == (eps > 0 or tau > 0)
    assert (space.xi_grid is not None) == (sigma > 0)
    stepper = MidpointStepper(space, 1e-3)
    zero = zero_phase_vector(space, 0)
    preset = initial_data_preset("spectral-decay 4", space, 0, with_history=True)
    for grid, blocks in ((space.eta_grid, (zero.eta, preset.eta, stepper.eta_t)),
                         (space.xi_grid, (zero.xi, preset.xi, stepper.xi_t))):
        size = 0 if grid is None else grid.size
        assert blocks[0].shape == blocks[1].shape == (size, interval_modes.count)
        assert blocks[2].unit_response.shape == (size,)


def test_phase_space_kernel_gating(interval_modes):
    # an absent kernel weighs its block's nodes by zero
    sp = build_phase_space(interval_modes, Params(0.5, 0.0, 0.5), grid_size=40)
    assert sp.w_mu.any() and sp.w_beta.any()
    assert sp.w_nu.shape == (sp.eta_size,) and not sp.w_nu.any()
    sp2 = build_phase_space(interval_modes, Params(0.0, 0.5, 0.0), grid_size=40)
    assert sp2.w_mu.shape == (sp2.eta_size,) and not sp2.w_mu.any() and sp2.w_nu.any()
    assert sp2.xi_grid is None and sp2.eta_grid is not None
    assert sp2.w_beta.shape == (0,)
    sp3 = build_phase_space(interval_modes, Params(0.0, 0.0, 0.0))
    assert sp3.eta_grid is None and sp3.xi_grid is None
    assert all(w.shape == (0,) for w in (sp3.w_mu, sp3.w_nu, sp3.w_beta))


def test_eta_grid_covers_both_kernels(interval_modes):
    # thermal kernel decays at rate 1, heat-memory kernel at 1/eps > 1,
    # so the grid must extend to the slower (thermal) cutoff
    sp = build_phase_space(interval_modes, Params(0.0, 0.5, 0.25), grid_size=60)
    assert sp.eta_grid.cutoff >= sp.nu.tail_cutoff(1e-8) * 0.999
    assert sp.w_mu is not None and sp.w_nu is not None


def test_every_kernel_weight_sum_reproduces_its_mass(interval_modes):
    # at eps = 1 mu and nu both decay at rate 1 and share the cutoff exactly,
    # so a 1e-5 tail leaves each within the weight-sum tolerance; the second
    # space is a thm-edec tau > 0 point
    spaces = (build_phase_space(interval_modes, Params(0.5, 0.5, 1.0), tail=1e-5),
              build_phase_space(interval_modes, Params(0.5, 0.25, 0.5)))
    for sp in spaces:
        for k, w in ((sp.mu, sp.w_mu), (sp.nu, sp.w_nu), (sp.beta, sp.w_beta)):
            assert abs(np.sum(w) / kernel_moment(k, 0) - 1.0) <= WEIGHT_SUM_RTOL


def test_block_norm_additivity(small_space):
    rng = np.random.default_rng(3)
    n, me, mx = 4, small_space.eta_size, small_space.xi_size
    vec = PhaseVector(small_space, 0, rng.standard_normal(n), rng.standard_normal(n),
                      rng.standard_normal(n), rng.standard_normal((me, n)),
                      rng.standard_normal((mx, n)))
    blocks = vec.block_norms_sq()
    assert vec.norm_sq() == pytest.approx(sum(blocks.values()), rel=1e-12)


def test_phase_energy_reads_any_history_layout_and_checks_its_shape(small_space):
    # the sums entry reads C-order histories: another layout is summed from
    # a copy, to the same bits, and another shape never reaches it
    rng = np.random.default_rng(5)
    n = small_space.modes.count
    state = [rng.standard_normal(n) for _ in range(3)] + [
        rng.standard_normal((size, n)) for size in (small_space.eta_size, small_space.xi_size)]
    energy = PhaseEnergy(small_space, 0)
    want = energy(*state[:3], *state[3:]).copy()
    # Fortran order, then every other column of a wider array
    for eta, xi in ([np.asfortranarray(h) for h in state[3:]],
                    [np.repeat(h, 2, axis=1)[:, ::2] for h in state[3:]]):
        assert energy(*state[:3], eta, xi).tobytes() == want.tobytes()
    with pytest.raises(ShapeError, match="eta must have shape"):
        energy(*state[:3], state[3][1:], state[4])
    with pytest.raises(ShapeError, match="xi must have shape"):
        energy(*state[:3], state[3], state[4][:, :-1])


@given(mode=st.integers(0, 3))
@settings(max_examples=12, deadline=None)
def test_order_shift_scales_by_eigenvalue(mode):
    modes = dirichlet_eigenvalues(Domain("interval", (np.pi,)), 4)
    space = build_phase_space(modes, Params(0.5, 0.25, 0.5), grid_size=40)
    z0 = zero_phase_vector(space, 0)
    z2 = zero_phase_vector(space, 2)
    for z in (z0, z2):
        z.u[mode] = 1.3
        z.v[mode] = -0.4
        z.theta[mode] = 0.9
        z.eta[:, mode] = 0.5
        z.xi[:, mode] = -0.2
    g = float(modes.eigenvalues[mode])
    assert z2.norm_sq() == pytest.approx(g ** 2 * z0.norm_sq(), rel=1e-12)


def test_project_initial_data_shapes(small_space):
    vec = project_initial_data({"u": np.ones(4), "v": np.zeros(4)}, small_space, 0)
    assert vec.u.shape == (4,) and vec.eta.shape == (small_space.eta_size, 4)
    assert np.all(vec.theta == 0.0) and np.all(vec.eta == 0.0)
    with pytest.raises(ShapeError):
        project_initial_data({"u": np.ones(5)}, small_space, 0)
    with pytest.raises(ShapeError):
        project_initial_data({"eta": np.ones((4, 3))}, small_space, 0)
    collapsed = build_phase_space(small_space.modes, Params(0.0, 0.0, 0.0))
    with pytest.raises(ShapeError):
        project_initial_data({"xi": np.ones((4, 2))}, collapsed, 0)


def test_single_mode_preset(small_space):
    vec = initial_data_preset("single-mode", small_space, 0)
    assert vec.u[0] == 1.0 and np.all(vec.u[1:] == 0.0)
    assert vec.v[0] == 0.5 and vec.theta[0] == -0.5
    assert np.all(vec.eta == 0.0) and np.all(vec.xi == 0.0)


def test_spectral_decay_preset_with_history(small_space):
    vec = initial_data_preset("spectral-decay 6", small_space, 0, with_history=True)
    coef = (np.arange(4) + 1.0) ** -6.0
    np.testing.assert_allclose(vec.u, coef)
    # history profile saturates towards the modal coefficient
    s = small_space.eta_grid.nodes
    np.testing.assert_allclose(vec.eta[:, 1], coef[1] * (1 - np.exp(-s)), rtol=1e-12)
    with pytest.raises(DomainError):
        initial_data_preset("no-such-preset", small_space, 0)
    with pytest.raises(DomainError):
        initial_data_preset("spectral-decay x", small_space, 0)

