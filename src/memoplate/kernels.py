"""Memory kernel families and their closed-form transforms.

Three families cover every kernel the simulator touches: plain exponentials
kappa*exp(-delta*s), weakly singular kappa*s^(-omega)*exp(-delta*s), and the
thermal kernel obtained by differentiating an affine-plus-exponential
relaxation model twice (again exponential in shape). Moments, primitives and
Fourier-type transforms all have closed forms, so this module performs no
quadrature; the test suite cross-checks every formula against adaptive
quadrature built independently of this code.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma as gamma_fn, gammainc, gammaincc, gammainccinv

from .errors import DomainError, NonIntegrableError

EXPONENTIAL = "exponential"
POWER_EXPONENTIAL = "power_exponential"
CONCAVE_AFFINE_EXP = "concave_affine_exp"

_FAMILIES = (EXPONENTIAL, POWER_EXPONENTIAL, CONCAVE_AFFINE_EXP)


@dataclass(frozen=True)
class KernelSpec:
    """One member of a kernel family: kappa * s^(-singularity) * exp(-decay*s).

    The concave_affine_exp family is exponential in shape (singularity 0) and
    shares every formula with the exponential branch. An absent history block
    has no KernelSpec at all: it is None.
    """

    family: str
    amplitude: float
    decay: float
    singularity: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown kernel family {self.family!r}")
        if self.amplitude < 0 or (self.amplitude == 0 and self.family != CONCAVE_AFFINE_EXP):
            raise DomainError(f"amplitude must be positive, got {self.amplitude}")
        if self.decay <= 0:
            raise DomainError(f"decay must be positive, got {self.decay}")
        if self.family == POWER_EXPONENTIAL:
            if not 0.0 <= self.singularity < 1.0:
                raise NonIntegrableError(
                    f"singularity exponent {self.singularity} outside [0,1): kernel not integrable")
        elif self.singularity != 0.0:
            raise DomainError("only power_exponential kernels carry a singularity exponent")

    @property
    def is_exponential_shape(self) -> bool:
        return self.family in (EXPONENTIAL, CONCAVE_AFFINE_EXP)

    def __call__(self, s):
        """Pointwise values; vectorized over s > 0."""
        s = np.asarray(s, dtype=float)
        base = self.amplitude * np.exp(-self.decay * s)
        if self.family == POWER_EXPONENTIAL and self.singularity > 0:
            return base * s ** (-self.singularity)
        return base

    def derivative(self, s):
        """Analytic d/ds of the kernel, vectorized."""
        s = np.asarray(s, dtype=float)
        if self.family == POWER_EXPONENTIAL and self.singularity > 0:
            return -self(s) * (self.singularity / s + self.decay)
        return -self.decay * self(s)

    def cdf(self, s):
        """Primitive int_0^s kernel(r) dr, vectorized; exact."""
        s = np.asarray(s, dtype=float)
        if self.is_exponential_shape:
            return self.amplitude / self.decay * (1.0 - np.exp(-self.decay * s))
        om = self.singularity
        scale = self.amplitude * self.decay ** (om - 1.0) * gamma_fn(1.0 - om)
        return scale * gammainc(1.0 - om, self.decay * s)

    def tail_fraction(self, s: float) -> float:
        """Mass beyond s as a fraction of the total mass."""
        if self.amplitude == 0:
            return 0.0
        om = 0.0 if self.is_exponential_shape else self.singularity
        return float(gammaincc(1.0 - om, self.decay * s))

    def tail_cutoff(self, tail: float = 1e-8) -> float:
        """Smallest s with tail_fraction(s) <= tail; closed form via the
        inverse regularized upper incomplete gamma."""
        if self.amplitude == 0:
            return 1.0
        om = 0.0 if self.is_exponential_shape else self.singularity
        return float(gammainccinv(1.0 - om, tail)) / self.decay


@dataclass(frozen=True)
class ScalarModel:
    """Scalar functions steering the thermal kernel family.

    phi and psi are continuous, nonnegative and vanish at 0; rate is the
    relaxation rate of the exponential part of the model (the thermal kernel
    is psi(tau) * rate^2 * exp(-rate*s)).
    """

    phi: Callable[[float], float]
    psi: Callable[[float], float]
    rate: float = 1.0

    def __post_init__(self):
        if self.rate <= 0:
            raise DomainError(f"model rate must be positive, got {self.rate}")
        for name, fn in (("phi", self.phi), ("psi", self.psi)):
            if abs(fn(0.0)) > 1e-14:
                raise DomainError(f"{name}(0) must vanish, got {fn(0.0)}")

    @staticmethod
    def default() -> "ScalarModel":
        return ScalarModel(phi=lambda t: t, psi=lambda t: t, rate=1.0)


def build_kernel_family(family: str, base, relaxation: float) -> KernelSpec:
    """Rescaled family member for one relaxation parameter in (0, 1].

    Exponential and power_exponential members rescale the base kernel k into
    k_e(s) = e^-2 k(s/e); concave_affine_exp ignores the base kernel shape and
    takes a ScalarModel, returning psi(tau)*rate^2*exp(-rate*s).
    """
    if not 0.0 < relaxation <= 1.0:
        raise DomainError(f"relaxation parameter must lie in (0,1], got {relaxation}")
    if family == CONCAVE_AFFINE_EXP:
        if not isinstance(base, ScalarModel):
            raise DomainError(f"{CONCAVE_AFFINE_EXP} kernels take a ScalarModel, "
                              f"got {type(base).__name__}")
        amp = base.psi(relaxation) * base.rate ** 2
        if amp < 0:
            raise DomainError("psi must be nonnegative")
        return KernelSpec(CONCAVE_AFFINE_EXP, amp, base.rate)
    kappa, delta, omega = _base_params(base)
    if family == EXPONENTIAL:
        if omega != 0.0:
            raise DomainError("exponential base kernels have no singularity exponent")
        return KernelSpec(EXPONENTIAL, kappa / relaxation ** 2, delta / relaxation)
    if family == POWER_EXPONENTIAL:
        if omega >= 1.0:
            raise NonIntegrableError(f"singularity exponent {omega} >= 1: not integrable")
        return KernelSpec(POWER_EXPONENTIAL, kappa * relaxation ** (omega - 2.0),
                          delta / relaxation, omega)
    raise DomainError(f"unknown kernel family {family!r}")


def _base_params(base) -> tuple[float, float, float]:
    if isinstance(base, KernelSpec):
        return base.amplitude, base.decay, base.singularity
    raise DomainError(f"cannot read base kernel parameters from {type(base).__name__}")


def canonical_base() -> KernelSpec:
    """exp(-s): unit mass, unit first moment, decay constant 1."""
    return KernelSpec(EXPONENTIAL, 1.0, 1.0)


def normalized_power_base(singularity: float) -> KernelSpec:
    """Weakly singular base kernel with unit zeroth and first moments.

    Both normalizations pin decay = 1 - omega and
    amplitude = decay^(1-omega) / Gamma(1-omega).
    """
    if not 0.0 <= singularity < 1.0:
        raise NonIntegrableError(f"singularity exponent {singularity} outside [0,1)")
    delta = 1.0 - singularity
    kappa = delta ** (1.0 - singularity) / gamma_fn(1.0 - singularity)
    return KernelSpec(POWER_EXPONENTIAL, kappa, delta, singularity)


def kernel_moment(kernel: KernelSpec, order: int) -> float:
    """int s^order kernel(s) ds on (0, inf), closed form."""
    if order not in (0, 1, 2):
        raise DomainError(f"moment order must be 0, 1 or 2, got {order}")
    om = 0.0 if kernel.is_exponential_shape else kernel.singularity
    if om >= 1.0:
        raise NonIntegrableError("divergent moment integral")
    a = order + 1.0 - om
    return kernel.amplitude * gamma_fn(a) / kernel.decay ** a


def laplace_transform(kernel: KernelSpec, lam: float) -> complex:
    """int kernel(s) exp(-i*lam*s) ds with the principal complex branch."""
    z = kernel.decay + 1j * lam
    if kernel.is_exponential_shape:
        return complex(kernel.amplitude / z)
    om = kernel.singularity
    return complex(kernel.amplitude * gamma_fn(1.0 - om) * z ** (om - 1.0))


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    margin: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self) -> list[tuple[str, float, bool]]:
        return [(c.condition, c.margin, c.passed) for c in self.checks]


def validate_assumptions(kernel: KernelSpec, decay_bound: float, sample_grid) -> ValidationReport:
    """Check the standing kernel hypotheses on a sample grid.

    Margins are signed worst violations: a condition passes iff its margin
    is <= 0. The decay_bound condition tests kernel' + decay_bound*kernel <= 0
    pointwise, which for our families is sharp exactly at
    decay_bound = kernel.decay (+ singularity/s for the singular family).
    Integrability and a finite second moment need no row: KernelSpec
    rejects a singularity of 1 or more when it is built.
    """
    grid = np.asarray(sample_grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty sample grid")
    if np.any(grid <= 0) or not np.all(np.isfinite(grid)):
        raise DomainError("sample grid must be strictly positive and finite")
    vals = kernel(grid)
    deriv = kernel.derivative(grid)
    checks = []

    def add(name, margin):
        margin = float(margin)
        checks.append(ConditionCheck(name, margin, margin <= 0.0))

    add("nonnegativity", np.max(-vals) if vals.size else 0.0)
    add("monotone_decreasing", np.max(deriv))
    add("exp_domination", np.max(deriv + decay_bound * vals))
    return ValidationReport(tuple(checks))
