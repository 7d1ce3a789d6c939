"""Memory kernels and their closed-form transforms.

Every kernel the simulator touches has the one shape
kappa * s^(-omega) * exp(-delta*s) with 0 <= omega < 1: the heat-flux and
shear kernels, rescaled from a base kernel, and the thermal kernel of the
relaxation model, which is exponential (omega = 0). Moments, primitives and
Fourier-type transforms all have closed forms, so this module performs no
quadrature; the test suite cross-checks every formula against adaptive
quadrature built independently of this code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, gammainc, gammaincc, gammainccinv

from .errors import DomainError, NonIntegrableError


@dataclass(frozen=True)
class KernelSpec:
    """The kernel amplitude * s^(-singularity) * exp(-decay*s).

    It is exponential in shape exactly when singularity == 0. An absent
    kernel has no KernelSpec at all: it is None.
    """

    amplitude: float
    decay: float
    singularity: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.amplitude < math.inf:
            raise DomainError(f"amplitude must be positive and finite, got {self.amplitude}")
        if not 0.0 < self.decay < math.inf:
            raise DomainError(f"decay must be positive and finite, got {self.decay}")
        if not 0.0 <= self.singularity < 1.0:
            raise NonIntegrableError(
                f"singularity exponent {self.singularity} outside [0,1): kernel not integrable")

    @property
    def is_exponential_shape(self) -> bool:
        return self.singularity == 0.0

    def __call__(self, s):
        """Pointwise values; vectorized over s > 0."""
        s = np.asarray(s, dtype=float)
        return self.amplitude * np.exp(-self.decay * s) * s ** (-self.singularity)

    def derivative(self, s):
        """Analytic d/ds of the kernel, vectorized."""
        s = np.asarray(s, dtype=float)
        return -self(s) * (self.singularity / s + self.decay)

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
        return float(gammaincc(1.0 - self.singularity, self.decay * s))

    def tail_cutoff(self, tail: float) -> float:
        """Smallest s with tail_fraction(s) <= tail, for tail in (0, 1);
        closed form via the inverse regularized upper incomplete gamma."""
        if not 0.0 < tail < 1.0:
            raise DomainError(f"tail must lie in (0,1), got {tail}")
        return float(gammainccinv(1.0 - self.singularity, tail)) / self.decay


@dataclass(frozen=True)
class ScalarModel:
    """The relaxation model behind the thermal kernel: at relaxation
    parameter tau that kernel is tau * rate^2 * exp(-rate*s)."""

    rate: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.rate < math.inf:
            raise DomainError(f"model rate must be positive and finite, got {self.rate}")


def build_kernel_family(base: KernelSpec, relaxation: float) -> KernelSpec:
    """The base kernel k rescaled to k_e(s) = e^-2 k(s/e) for one relaxation
    parameter e in (0, 1]."""
    if not 0.0 < relaxation <= 1.0:
        raise DomainError(f"relaxation parameter must lie in (0,1], got {relaxation}")
    return KernelSpec(base.amplitude * relaxation ** (base.singularity - 2.0),
                      base.decay / relaxation, base.singularity)


def canonical_base() -> KernelSpec:
    """exp(-s): unit mass, unit first moment, decay constant 1."""
    return KernelSpec(1.0, 1.0)


def normalized_power_base(singularity: float) -> KernelSpec:
    """Weakly singular base kernel with unit zeroth and first moments.

    Both normalizations pin decay = 1 - omega and
    amplitude = decay^(1-omega) / Gamma(1-omega).
    """
    if not 0.0 <= singularity < 1.0:
        raise NonIntegrableError(f"singularity exponent {singularity} outside [0,1)")
    delta = 1.0 - singularity
    kappa = delta ** (1.0 - singularity) / gamma_fn(1.0 - singularity)
    return KernelSpec(kappa, delta, singularity)


def kernel_moment(kernel: KernelSpec, order: int) -> float:
    """int s^order kernel(s) ds on (0, inf), closed form."""
    if order not in (0, 1, 2):
        raise DomainError(f"moment order must be 0, 1 or 2, got {order}")
    a = order + 1.0 - kernel.singularity
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
    pointwise, which is sharp exactly at
    decay_bound = kernel.decay + kernel.singularity/s.
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
