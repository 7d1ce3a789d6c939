"""History grids: geometric node layout, quadrature weights, upwind
transport dissipativity, refinement behavior."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from memoplate.errors import DomainError, MismatchError, ResolutionError
from memoplate.history import POLICY_DECAY_CONSISTENT, POLICY_MASS, build_history_grid
from memoplate.kernels import EXPONENTIAL, KernelSpec, build_kernel_family, canonical_base, kernel_moment


@pytest.fixture(scope="module")
def exp_grid():
    return build_history_grid(canonical_base(), 80)


def test_grid_geometry(exp_grid):
    g = exp_grid
    assert g.size == 80
    assert np.all(np.diff(g.nodes) > 0)
    # geometric spacing with the requested ratio
    r = g.spacing[1:] / g.spacing[:-1]
    assert np.allclose(r, g.ratio)
    assert g.nodes[-1] == pytest.approx(g.cutoff)
    # cutoff leaves at most the requested tail mass outside
    assert g.kernel.tail_fraction(g.cutoff) <= 1e-8 * 1.0001


def test_mass_weights_sum_to_truncated_mass():
    k = canonical_base()
    g = build_history_grid(k, 120, weight_policy=POLICY_MASS)
    target = k.cdf(g.cutoff)
    assert np.sum(g.weights) == pytest.approx(float(target), rel=1e-12)


def test_decay_weights_normalized_and_positive():
    k = canonical_base()
    g = build_history_grid(k, 120, weight_policy=POLICY_DECAY_CONSISTENT)
    assert np.all(g.weights > 0)
    assert np.sum(g.weights) == pytest.approx(float(k.cdf(g.cutoff)), rel=1e-12)


def test_auto_policy_picks_decay_for_exponential():
    g = build_history_grid(canonical_base(), 80, weight_policy="auto")
    assert g.policy == POLICY_DECAY_CONSISTENT
    gp = build_history_grid(KernelSpec("power_exponential", 1.0, 1.0, 0.4), 80,
                            weight_policy="auto")
    assert gp.policy == POLICY_MASS


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
    g = build_history_grid(canonical_base(), 40, weight_policy=POLICY_MASS)
    f = rng.standard_normal(g.size)
    tf = upwind_apply(g, f)
    form = float(np.sum(g.weights * f * tf))
    assert form <= 1e-12 * float(np.sum(g.weights * f * f))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_upwind_decay_weights_give_exact_rate(seed):
    # weight recursion turns the transport form into exactly -delta/2 |f|^2
    rng = np.random.default_rng(seed)
    k = KernelSpec(EXPONENTIAL, 1.0, 0.8)
    g = build_history_grid(k, 60, weight_policy=POLICY_DECAY_CONSISTENT)
    f = rng.standard_normal(g.size)
    norm_sq = float(np.sum(g.weights * f * f))
    form = float(np.sum(g.weights * f * upwind_apply(g, f)))
    assert form <= -0.5 * k.decay * norm_sq + 1e-10 * norm_sq


def test_weights_for_second_kernel(exp_grid):
    fast = KernelSpec(EXPONENTIAL, 2.0, 3.0)
    w, policy = exp_grid.weights_for(fast, POLICY_MASS)
    assert policy == POLICY_MASS
    assert np.sum(w) == pytest.approx(float(fast.cdf(exp_grid.cutoff)), rel=1e-12)
    slow = KernelSpec(EXPONENTIAL, 1.0, 0.05)
    with pytest.raises(MismatchError):
        exp_grid.weights_for(slow)


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
    g = build_history_grid(k, 50, weight_policy=POLICY_MASS)
    errs = []
    for _ in range(3):
        errs.append(abs(np.sqrt(np.sum(g.weights * f(g.nodes) ** 2)) - exact))
        g = g.refine()
    assert errs[0] / errs[1] > 1.7
    assert errs[1] / errs[2] > 1.7


def test_grid_construction_contracts():
    k = canonical_base()
    with pytest.raises(DomainError):
        build_history_grid(k, 4)
    with pytest.raises(DomainError):
        build_history_grid(k, 40, ratio=0.9)
    with pytest.raises(DomainError):
        build_history_grid(KernelSpec(EXPONENTIAL, 0.0, 1.0), 40)
    # decay-consistent recursion needs delta * h_max < 1
    with pytest.raises(ResolutionError):
        build_history_grid(KernelSpec(EXPONENTIAL, 1.0, 40.0), 8,
                           ratio=1.5, weight_policy=POLICY_DECAY_CONSISTENT)


def test_rescaled_kernel_grid_tracks_cutoff():
    k = build_kernel_family(EXPONENTIAL, canonical_base(), 0.25)
    g = build_history_grid(k, 80)
    # weights carry the rescaled mass ~ 1/eps
    assert np.sum(g.weights) == pytest.approx(kernel_moment(k, 0), rel=1e-6)
    assert g.cutoff < 10.0  # faster kernel, shorter support
