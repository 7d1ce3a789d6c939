"""History grids: geometric node layout, per-kernel quadrature weights and
their mass check, upwind transport dissipativity, refinement behavior."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from memoplate.errors import DomainError, ResolutionError
from memoplate.history import (POLICY_DECAY_CONSISTENT, POLICY_MASS, build_history_grid,
                               history_cutoff, kernel_weights)
from memoplate.kernels import KernelSpec, build_kernel_family, canonical_base, kernel_moment


def grid_for(kernel, size, **kw):
    """Grid spanning the kernel's 1e-8 tail cutoff."""
    return build_history_grid(history_cutoff([kernel]), size, **kw)


@pytest.fixture(scope="module")
def exp_grid():
    return grid_for(canonical_base(), 80)


def test_grid_geometry(exp_grid):
    g = exp_grid
    assert g.size == 80
    assert np.all(np.diff(g.nodes) > 0)
    # geometric spacing with the requested ratio
    r = g.spacing[1:] / g.spacing[:-1]
    assert np.allclose(r, g.ratio)
    assert g.nodes[-1] == pytest.approx(g.cutoff)
    # cutoff leaves at most the requested tail mass outside
    assert canonical_base().tail_fraction(g.cutoff) <= 1e-8 * 1.0001


def test_mass_weights_sum_to_truncated_mass():
    k = canonical_base()
    g = grid_for(k, 120)
    w, _ = kernel_weights(g, k, POLICY_MASS)
    assert np.sum(w) == pytest.approx(float(k.cdf(g.cutoff)), rel=1e-12)


def test_decay_weights_normalized_and_positive():
    k = canonical_base()
    g = grid_for(k, 120)
    w, _ = kernel_weights(g, k, POLICY_DECAY_CONSISTENT)
    assert np.all(w > 0)
    assert np.sum(w) == pytest.approx(float(k.cdf(g.cutoff)), rel=1e-12)


def test_auto_policy_picks_decay_for_exponential():
    k = canonical_base()
    assert kernel_weights(grid_for(k, 80), k, "auto")[1] == POLICY_DECAY_CONSISTENT
    kp = KernelSpec(1.0, 1.0, 0.4)
    assert kernel_weights(grid_for(kp, 80), kp, "auto")[1] == POLICY_MASS


def test_transport_stencil_values(exp_grid):
    diag, lower = exp_grid.transport_stencil()
    assert np.allclose(diag, -1.0 / exp_grid.spacing)
    assert np.allclose(lower, 1.0 / exp_grid.spacing[1:])
    assert lower.shape == (exp_grid.size - 1,)


def upwind_apply(grid, f):
    """The grid's transport stencil applied to one profile."""
    diag, lower = grid.transport_stencil()
    out = diag * f
    out[1:] += lower * f[:-1]
    return out


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_upwind_dissipative_under_mass_weights(seed):
    # decreasing kernels make the upwind form nonpositive for any profile
    rng = np.random.default_rng(seed)
    g = grid_for(canonical_base(), 40)
    w, _ = kernel_weights(g, canonical_base(), POLICY_MASS)
    f = rng.standard_normal(g.size)
    tf = upwind_apply(g, f)
    form = float(np.sum(w * f * tf))
    assert form <= 1e-12 * float(np.sum(w * f * f))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_upwind_decay_weights_give_exact_rate(seed):
    # weight recursion turns the transport form into exactly -delta/2 |f|^2
    rng = np.random.default_rng(seed)
    k = KernelSpec(1.0, 0.8)
    g = grid_for(k, 60)
    w, _ = kernel_weights(g, k, POLICY_DECAY_CONSISTENT)
    f = rng.standard_normal(g.size)
    norm_sq = float(np.sum(w * f * f))
    form = float(np.sum(w * f * upwind_apply(g, f)))
    assert form <= -0.5 * k.decay * norm_sq + 1e-10 * norm_sq


def test_truncated_kernel_mass_raises(exp_grid):
    # every kernel on a grid gets its weights and mass check from one call
    fast = KernelSpec(2.0, 3.0)
    w, policy = kernel_weights(exp_grid, fast, POLICY_MASS)
    assert policy == POLICY_MASS
    assert np.sum(w) == pytest.approx(float(fast.cdf(exp_grid.cutoff)), rel=1e-12)
    # a cutoff short of a kernel's tail raises, whichever kernel set the cutoff
    slow = KernelSpec(1.0, 0.05)
    with pytest.raises(ResolutionError):
        kernel_weights(exp_grid, slow)
    with pytest.raises(ResolutionError):
        kernel_weights(grid_for(fast, 80), canonical_base())


def test_refine_halves_spacing(exp_grid):
    fine = exp_grid.refine()
    assert fine.size == 2 * exp_grid.size
    assert fine.ratio == pytest.approx(np.sqrt(exp_grid.ratio))
    assert fine.cutoff == pytest.approx(exp_grid.cutoff)
    # every old boundary survives: odd-indexed fine nodes are the old nodes
    assert np.allclose(fine.nodes[1::2], exp_grid.nodes, rtol=1e-9)


def test_weighted_norm_converges_under_refinement():
    # smooth profile: first-order error in the mass rule, halves per refine
    k = canonical_base()
    f = lambda s: np.sin(s) * np.exp(-0.1 * s)
    exact = np.sqrt(quad(lambda s: k(s) * f(s) ** 2, 0.0, 60.0, limit=400)[0])
    g = grid_for(k, 50)
    errs = []
    for _ in range(3):
        w, _ = kernel_weights(g, k, POLICY_MASS)
        errs.append(abs(np.sqrt(np.sum(w * f(g.nodes) ** 2)) - exact))
        g = g.refine()
    assert errs[0] / errs[1] > 1.7
    assert errs[1] / errs[2] > 1.7


def test_grid_construction_contracts():
    k = canonical_base()
    with pytest.raises(DomainError):
        grid_for(k, 4)
    with pytest.raises(DomainError):
        grid_for(k, 40, ratio=0.9)
    for cutoff in (np.nan, np.inf, 0.0):
        with pytest.raises(DomainError):
            build_history_grid(cutoff, 20)
    for ratio in (np.nan, np.inf):
        with pytest.raises(DomainError):
            build_history_grid(10.0, 20, ratio=ratio)
    with pytest.raises(DomainError):
        KernelSpec(0.0, 1.0)
    with pytest.raises(DomainError):
        kernel_weights(grid_for(k, 40), k, "nearest")
    # decay-consistent recursion needs delta * h_max < 1
    fast = KernelSpec(1.0, 40.0)
    with pytest.raises(ResolutionError):
        kernel_weights(grid_for(fast, 8, ratio=1.5), fast, POLICY_DECAY_CONSISTENT)


def test_rescaled_kernel_grid_tracks_cutoff():
    k = build_kernel_family(canonical_base(), 0.25)
    g = grid_for(k, 80)
    w, _ = kernel_weights(g, k)
    # weights carry the rescaled mass ~ 1/eps
    assert np.sum(w) == pytest.approx(kernel_moment(k, 0), rel=1e-6)
    assert g.cutoff < 10.0  # faster kernel, shorter support
