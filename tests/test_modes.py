"""Dirichlet spectra, parameter gating, phase vectors and norm orders."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memoplate.errors import DomainError, ShapeError
from memoplate.history import WEIGHT_SUM_RTOL
from memoplate.kernels import kernel_moment
from memoplate.modes import (
    Domain, Params, PhaseVector,
    build_phase_space, dirichlet_eigenvalues, initial_data_preset, mode_shape,
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
    assert modes.indices[:4] == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_rectangle_spectrum_sorted():
    modes = dirichlet_eigenvalues(Domain("rectangle", (np.pi, 2 * np.pi)), 10)
    assert np.all(np.diff(modes.eigenvalues) >= -1e-12)
    # (1,1) on pi x 2pi: 1 + 1/4
    assert modes.eigenvalues[0] == pytest.approx(1.25)


def test_domain_contracts():
    with pytest.raises(DomainError):
        Domain("disk", (1.0,))
    with pytest.raises(DomainError):
        Domain("interval", (0.0,))
    with pytest.raises(DomainError):
        Domain("rectangle", (1.0,))
    with pytest.raises(DomainError):
        dirichlet_eigenvalues(Domain("interval", (1.0,)), 0)


def test_mode_shape_interval():
    dom = Domain("interval", (np.pi,))
    modes = dirichlet_eigenvalues(dom, 2)
    x = np.linspace(0, np.pi, 7)
    np.testing.assert_allclose(mode_shape(dom, modes.indices[1], x),
                               np.sqrt(2 / np.pi) * np.sin(2 * x), atol=1e-12)


def test_params_gating():
    with pytest.raises(DomainError):
        Params(1.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        Params(0.0, -0.1, 0.0)
    p = Params(0.0, 0.5, 0.0)
    assert p.has_eta and not p.has_xi
    assert p.phi() == pytest.approx(0.5)
    q = Params(0.3, 0.0, 0.0)
    assert q.has_xi and not q.has_eta
    assert not Params(0.0, 0.0, 0.0).has_eta


def test_phase_space_kernel_gating(interval_modes):
    sp = build_phase_space(interval_modes, Params(0.5, 0.0, 0.5), grid_size=40)
    assert sp.w_mu is not None and sp.w_nu is None and sp.w_beta is not None
    sp2 = build_phase_space(interval_modes, Params(0.0, 0.5, 0.0), grid_size=40)
    assert sp2.w_mu is None and sp2.w_nu is not None
    assert sp2.xi_grid is None and sp2.eta_grid is not None
    sp3 = build_phase_space(interval_modes, Params(0.0, 0.0, 0.0))
    assert sp3.eta_grid is None and sp3.xi_grid is None


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
    assert vec.norm() == pytest.approx(np.sqrt(vec.norm_sq()))


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

