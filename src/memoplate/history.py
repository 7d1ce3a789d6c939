"""Discretization of the internal memory variable.

A HistoryGrid carries strictly increasing nodes on (0, S], one quadrature
weight per node approximating integrals of kernel(s)*f(s), and the first-order
upwind stencil realizing the right-translation generator f -> -f' with zero
inflow at s = 0. The upwind choice makes the discrete transport dissipative
for every admissible weight vector, which the evolution layer relies on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MismatchError, ResolutionError
from .kernels import KernelSpec, kernel_moment

DEFAULT_RATIO = 1.05
DEFAULT_TAIL = 1e-8
WEIGHT_SUM_RTOL = 1e-4

POLICY_MASS = "mass"
POLICY_DECAY_CONSISTENT = "decay_consistent"
POLICY_AUTO = "auto"


@dataclass(frozen=True)
class HistoryGrid:
    nodes: np.ndarray      # right cell edges s_1 < ... < s_M
    spacing: np.ndarray    # h_j = s_j - s_{j-1}, s_0 = 0
    weights: np.ndarray    # quadrature weights for the kernel below
    kernel: KernelSpec
    ratio: float
    cutoff: float
    policy: str            # weight policy actually used

    @property
    def size(self) -> int:
        return self.nodes.size

    def weights_for(self, kernel: KernelSpec,
                    policy: str = POLICY_AUTO) -> tuple[np.ndarray, str]:
        """Weights for a second kernel on this grid's nodes, and the policy
        actually used for them.

        Refuses kernels whose mass is not essentially contained in [0, cutoff],
        since quadrature against them would silently drop their tail.
        """
        if kernel.tail_fraction(self.cutoff) > 1e-6:
            raise MismatchError(
                f"grid cutoff {self.cutoff:.3g} truncates kernel with decay "
                f"{kernel.decay:.3g}; build the grid for the slower kernel")
        return _make_weights(self._boundaries(), self.spacing, kernel, policy)

    def refine(self) -> "HistoryGrid":
        """Double the node count; every new boundary set contains the old one
        and all spacings halve up to the geometric-mean split, so quadrature
        and stencil errors contract at first order."""
        return build_history_grid(self.kernel, 2 * self.size, ratio=np.sqrt(self.ratio),
                                  s_max=self.cutoff, weight_policy=self.policy)

    def _boundaries(self) -> np.ndarray:
        return np.concatenate([[0.0], self.nodes])

    def transport_stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, subdiagonal) of the upwind matrix for f -> -f'."""
        inv = 1.0 / self.spacing
        return -inv, inv[1:]


def geometric_boundaries(s_max: float, count: int, ratio: float) -> np.ndarray:
    """count+1 cell boundaries on [0, s_max] with geometrically growing
    spacing; ratio = 1 degenerates to a uniform grid."""
    j = np.arange(count + 1, dtype=float)
    if abs(ratio - 1.0) < 1e-12:
        return s_max * j / count
    return s_max * (ratio ** j - 1.0) / (ratio ** count - 1.0)


def build_history_grid(kernel: KernelSpec, size: int, *, ratio: float = DEFAULT_RATIO,
                       tail: float = DEFAULT_TAIL, s_max: float | None = None,
                       weight_policy: str = POLICY_AUTO) -> HistoryGrid:
    """Geometric grid clustered at 0 with kernel-adapted cutoff and weights.

    The cutoff keeps the kernel tail mass beyond it under ``tail`` of the
    total, so the weight sum reproduces the zeroth moment by construction.
    """
    if size < 8:
        raise DomainError(f"need at least 8 history nodes, got {size}")
    if ratio < 1.0:
        raise DomainError(f"grid ratio must be >= 1, got {ratio}")
    cutoff = kernel.tail_cutoff(tail) if s_max is None else float(s_max)
    bounds = geometric_boundaries(cutoff, size, ratio)
    spacing = np.diff(bounds)
    weights, policy = _make_weights(bounds, spacing, kernel, weight_policy)
    total = kernel_moment(kernel, 0)
    if total > 0:
        achieved = abs(float(np.sum(weights)) / total - 1.0)
        if achieved > WEIGHT_SUM_RTOL:
            raise ResolutionError(f"{size} nodes cannot reproduce the kernel mass",
                                  achieved=achieved, requested=WEIGHT_SUM_RTOL)
    return HistoryGrid(nodes=bounds[1:], spacing=spacing, weights=weights,
                       kernel=kernel, ratio=ratio, cutoff=cutoff, policy=policy)


def _make_weights(bounds: np.ndarray, spacing: np.ndarray, kernel: KernelSpec,
                  policy: str) -> tuple[np.ndarray, str]:
    if policy not in (POLICY_MASS, POLICY_DECAY_CONSISTENT, POLICY_AUTO):
        raise DomainError(f"unknown weight policy {policy!r}")
    guard_ok = kernel.is_exponential_shape and kernel.decay * np.max(spacing) < 1.0
    if policy == POLICY_AUTO:
        policy = POLICY_DECAY_CONSISTENT if guard_ok else POLICY_MASS
    if policy == POLICY_MASS:
        cdf = kernel.cdf(bounds)
        return np.maximum(np.diff(cdf), 0.0), POLICY_MASS
    if not kernel.is_exponential_shape:
        raise DomainError("decay_consistent weights require an exponential-shape kernel")
    if not guard_ok:
        raise ResolutionError(
            "decay_consistent weights need decay*spacing < 1 on every cell",
            achieved=float(kernel.decay * np.max(spacing)), requested=1.0)
    # One-parameter family fixed by the discrete flux balance
    # w_{j+1}/h_{j+1} = w_j/h_j - delta*w_j, then scaled to the truncated mass.
    # This zeroes the quadrature's exponential-decay closure defect on every
    # interior cell, at the price of O(h) individual cell masses.
    delta = kernel.decay
    w = np.empty_like(spacing)
    w[0] = 1.0
    for j in range(len(spacing) - 1):
        w[j + 1] = w[j] * spacing[j + 1] * (1.0 / spacing[j] - delta)
    truncated_mass = kernel.cdf(bounds[-1])
    w *= truncated_mass / np.sum(w)
    return w, POLICY_DECAY_CONSISTENT

