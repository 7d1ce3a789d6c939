"""Kernel layer: closed forms checked against quadrature and Gamma-function
oracles, rescale normalizations, admissibility reports."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from memoplate.errors import DomainError, NonIntegrableError
from memoplate.kernels import (
    CONCAVE_AFFINE_EXP, EXPONENTIAL, POWER_EXPONENTIAL,
    KernelSpec, ScalarModel, build_kernel_family, canonical_base,
    kernel_moment, laplace_transform, normalized_power_base, validate_assumptions,
)

SQRT_PI = 1.7724538509055159


def quadrature_laplace(kernel: KernelSpec, lam: float) -> complex:
    """Oscillatory-quadrature reference for the Laplace transform at i*lam.

    Splits off the weakly singular head so the oscillatory weight only sees a
    smooth integrand; the head itself is short enough for plain adaptive
    quadrature at every frequency used in the tests.
    """
    s_max = kernel.tail_cutoff(1e-14)
    head = min(1.0, s_max)
    if lam == 0.0:
        re = quad(kernel, 0.0, head, limit=400)[0] + quad(kernel, head, s_max, limit=400)[0]
        return complex(re, 0.0)
    re = quad(lambda s: kernel(s) * np.cos(lam * s), 0.0, head, limit=2000)[0]
    im = quad(lambda s: kernel(s) * np.sin(lam * s), 0.0, head, limit=2000)[0]
    re += quad(kernel, head, s_max, weight="cos", wvar=lam, limit=2000)[0]
    im += quad(kernel, head, s_max, weight="sin", wvar=lam, limit=2000)[0]
    return complex(re, -im)


LAPLACE_KERNELS = [
    canonical_base(),
    build_kernel_family(EXPONENTIAL, canonical_base(), 0.25),
    KernelSpec(POWER_EXPONENTIAL, 1.0, 1.0, 0.25),
    KernelSpec(POWER_EXPONENTIAL, 1.0, 1.0, 0.5),
    build_kernel_family(POWER_EXPONENTIAL, normalized_power_base(0.3), 0.5),
]


@pytest.mark.parametrize("kernel", LAPLACE_KERNELS,
                         ids=["exp", "exp-rescaled", "pow25", "pow50", "pow-rescaled"])
@pytest.mark.parametrize("lam", [0.0, 1.0, 10.0, 100.0, 1e4])
def test_laplace_transform_matches_quadrature(kernel, lam):
    closed = laplace_transform(kernel, lam)
    ref = quadrature_laplace(kernel, lam)
    assert abs(closed - ref) <= 1e-6 * abs(ref)


def test_exponential_laplace_closed_form():
    k = KernelSpec(EXPONENTIAL, 3.0, 2.0)
    lam = 7.0
    assert laplace_transform(k, lam) == pytest.approx(3.0 / (2.0 + 1j * lam))


def test_moments_exponential_rescaled():
    # rescaled member keeps mass 1/e, first moment 1, second moment 2e
    for eps in (1.0, 0.5, 0.125):
        k = build_kernel_family(EXPONENTIAL, canonical_base(), eps)
        assert kernel_moment(k, 0) == pytest.approx(1.0 / eps, rel=1e-12)
        assert kernel_moment(k, 1) == pytest.approx(1.0, rel=1e-12)
        assert kernel_moment(k, 2) == pytest.approx(2.0 * eps, rel=1e-12)


def test_moments_power_gamma_oracle():
    # kappa=1, delta=1, omega=1/2: moment n = Gamma(n + 1/2)
    k = KernelSpec(POWER_EXPONENTIAL, 1.0, 1.0, 0.5)
    assert kernel_moment(k, 0) == pytest.approx(SQRT_PI, rel=1e-12)
    assert kernel_moment(k, 1) == pytest.approx(0.5 * SQRT_PI, rel=1e-12)
    assert kernel_moment(k, 2) == pytest.approx(0.75 * SQRT_PI, rel=1e-12)


def test_moments_match_quadrature():
    for k in LAPLACE_KERNELS:
        s_max = k.tail_cutoff(1e-15)
        for n in range(3):
            ref = quad(lambda s: s ** n * k(s), 0.0, s_max, limit=400)[0]
            assert kernel_moment(k, n) == pytest.approx(ref, rel=1e-8)


def test_normalized_power_base_unit_moments():
    for om in (0.0, 0.25, 0.5, 0.75):
        k = normalized_power_base(om)
        assert kernel_moment(k, 0) == pytest.approx(1.0, rel=1e-12)
        assert kernel_moment(k, 1) == pytest.approx(1.0, rel=1e-12)


@given(eps=st.floats(0.01, 1.0), s=st.floats(1e-3, 30.0))
@settings(max_examples=60, deadline=None)
def test_rescale_pointwise_identity(eps, s):
    base = canonical_base()
    k = build_kernel_family(EXPONENTIAL, base, eps)
    assert k(s) == pytest.approx(base(s / eps) / eps ** 2, rel=1e-12)


@given(eps=st.floats(0.01, 1.0))
@settings(max_examples=40, deadline=None)
def test_rescale_normalizations_property(eps):
    for base in (canonical_base(), normalized_power_base(0.4)):
        k = build_kernel_family(base.family, base, eps)
        assert kernel_moment(k, 0) * eps == pytest.approx(1.0, rel=1e-10)
        assert kernel_moment(k, 1) == pytest.approx(1.0, rel=1e-10)


def test_cdf_and_tail():
    k = canonical_base()
    s = k.tail_cutoff(1e-8)
    assert k.tail_fraction(s) == pytest.approx(1e-8, rel=1e-6)
    assert k.cdf(s) == pytest.approx(kernel_moment(k, 0) * (1.0 - 1e-8), rel=1e-10)
    # cdf derivative is the kernel itself
    ds = 1e-6
    mid = 0.7
    assert (k.cdf(mid + ds) - k.cdf(mid - ds)) / (2 * ds) == pytest.approx(k(mid), rel=1e-6)


def test_thermal_family_from_scalar_model():
    k = build_kernel_family(CONCAVE_AFFINE_EXP, ScalarModel.default(), 0.5)
    # amplitude psi(tau)*rate^2, mass psi(tau)*rate
    assert k.amplitude == pytest.approx(0.5)
    assert k.decay == pytest.approx(1.0)
    assert kernel_moment(k, 0) == pytest.approx(0.5)


def test_thermal_family_needs_a_scalar_model():
    # a kernel in place of the model is an error, not the default model
    with pytest.raises(DomainError):
        build_kernel_family(CONCAVE_AFFINE_EXP, canonical_base(), 0.5)
    with pytest.raises(DomainError):
        build_kernel_family(EXPONENTIAL, {"amplitude": 1.0, "decay": 1.0}, 0.5)


def test_scalar_model_default_identity():
    m = ScalarModel.default()
    assert m.phi(0.3) == pytest.approx(0.3)
    assert m.psi(0.7) == pytest.approx(0.7)
    assert m.rate == 1.0


def test_validation_report_passes_on_canonical():
    k = canonical_base()
    grid = np.geomspace(1e-3, 20.0, 200)
    rep = validate_assumptions(k, k.decay, grid)
    assert rep.all_pass
    assert all(c.margin <= 0.0 for c in rep.checks)


def test_validation_rows_are_the_pointwise_conditions():
    # integrability and a finite second moment are enforced by KernelSpec
    # itself, so a report row for them could never fail
    grid = np.geomspace(1e-3, 20.0, 50)
    for k in (canonical_base(), normalized_power_base(0.4)):
        rep = validate_assumptions(k, k.decay, grid)
        assert [c.condition for c in rep.checks] == [
            "nonnegativity", "monotone_decreasing", "exp_domination"]


def test_validation_fails_for_overclaimed_decay_bound():
    k = canonical_base()
    grid = np.geomspace(1e-3, 20.0, 200)
    rep = validate_assumptions(k, 5.0, grid)
    assert not rep.all_pass


def test_kernel_constructor_contracts():
    with pytest.raises(DomainError):
        KernelSpec(EXPONENTIAL, -1.0, 1.0)
    with pytest.raises(DomainError):
        KernelSpec(EXPONENTIAL, 1.0, 0.0)
    with pytest.raises(NonIntegrableError):
        KernelSpec(POWER_EXPONENTIAL, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        KernelSpec(EXPONENTIAL, 1.0, 1.0, 0.3)
    with pytest.raises(DomainError):
        build_kernel_family(EXPONENTIAL, canonical_base(), 0.0)
    with pytest.raises(DomainError):
        build_kernel_family("triangular", canonical_base(), 0.5)
    with pytest.raises(NonIntegrableError):
        normalized_power_base(1.2)
    with pytest.raises(DomainError):
        kernel_moment(canonical_base(), 3)


def test_validation_rejects_bad_grid():
    k = canonical_base()
    with pytest.raises(DomainError):
        validate_assumptions(k, 1.0, np.array([]))
    with pytest.raises(DomainError):
        validate_assumptions(k, 1.0, np.array([-1.0, 2.0]))
