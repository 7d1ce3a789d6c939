"""Discretization of the internal memory variable.

A HistoryGrid carries strictly increasing nodes on (0, S] and the first-order
upwind stencil realizing the right-translation generator f -> -f' with zero
inflow at s = 0; it is geometry only. kernel_weights gives any kernel on a
grid one quadrature weight per node, approximating integrals of
kernel(s)*f(s). The upwind choice makes the discrete transport dissipative
for every admissible weight vector, which the evolution layer relies on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, ResolutionError
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
    ratio: float
    cutoff: float

    @property
    def size(self) -> int:
        return self.nodes.size

    def refine(self) -> "HistoryGrid":
        """Double the node count; every new boundary set contains the old one
        and all spacings halve up to the geometric-mean split, so quadrature
        and stencil errors contract at first order."""
        return build_history_grid(self.cutoff, 2 * self.size, ratio=np.sqrt(self.ratio))

    def transport_stencil(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, subdiagonal) of the upwind matrix for f -> -f'."""
        inv = 1.0 / self.spacing
        return -inv, inv[1:]


def history_cutoff(kernels: Iterable[KernelSpec], tail: float = DEFAULT_TAIL) -> float:
    """Span of a history carrying these kernels: the smallest s leaving at
    most ``tail`` of each kernel's mass beyond it."""
    return max(k.tail_cutoff(tail) for k in kernels)


def geometric_boundaries(s_max: float, count: int, ratio: float) -> np.ndarray:
    """count+1 cell boundaries on [0, s_max] with geometrically growing
    spacing; ratio = 1 degenerates to a uniform grid."""
    j = np.arange(count + 1, dtype=float)
    if abs(ratio - 1.0) < 1e-12:
        return s_max * j / count
    return s_max * (ratio ** j - 1.0) / (ratio ** count - 1.0)


def build_history_grid(cutoff: float, size: int, *,
                       ratio: float = DEFAULT_RATIO) -> HistoryGrid:
    """Geometric grid on [0, cutoff] clustered at 0; the cutoff of a grid
    carrying given kernels is their history_cutoff."""
    if size < 8:
        raise DomainError(f"need at least 8 history nodes, got {size}")
    if not 0.0 < cutoff < math.inf:
        raise DomainError(f"grid cutoff must be positive and finite, got {cutoff}")
    if not 1.0 <= ratio < math.inf:
        raise DomainError(f"grid ratio must be >= 1 and finite, got {ratio}")
    bounds = geometric_boundaries(cutoff, size, ratio)
    return HistoryGrid(nodes=bounds[1:], spacing=np.diff(bounds), ratio=ratio,
                       cutoff=float(cutoff))


def resolving_grid(cutoff: float, size: int, ratio: float, decay: float) -> HistoryGrid:
    """build_history_grid at the largest ratio no larger than ``ratio`` whose
    cells all have decay*h < 1, the guard of decay-consistent weights, so a
    grid carrying several exponential kernels resolves the fastest (of decay
    ``decay``). Keeps ``ratio`` when it already resolves it, or when even a
    uniform grid does not."""
    grid = build_history_grid(cutoff, size, ratio=ratio)

    def resolves(r):
        return decay * np.max(np.diff(geometric_boundaries(cutoff, size, r))) < 1.0

    if decay * np.max(grid.spacing) < 1.0 or not resolves(1.0):
        return grid
    lo, hi = 1.0, ratio
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if resolves(mid) else (lo, mid)
    return build_history_grid(cutoff, size, ratio=lo)


def cell_masses(kernel: KernelSpec, bounds: np.ndarray) -> np.ndarray:
    """Exact kernel mass of each cell between consecutive boundaries."""
    return np.maximum(np.diff(kernel.cdf(bounds)), 0.0)


def kernel_weights(grid: HistoryGrid, kernel: KernelSpec,
                   policy: str = POLICY_AUTO) -> tuple[np.ndarray, str]:
    """Quadrature weights for the kernel on the grid's nodes, and the policy
    actually used for them.

    Under "auto" a kernel gets decay-consistent weights exactly when it is
    exponential in shape and decay*h_max < 1 on the grid, and mass weights
    otherwise. The weights must reproduce the kernel's zeroth moment within
    WEIGHT_SUM_RTOL, so a cutoff that truncates the kernel's mass raises
    ResolutionError.
    """
    if policy not in (POLICY_MASS, POLICY_DECAY_CONSISTENT, POLICY_AUTO):
        raise DomainError(f"unknown weight policy {policy!r}")
    h = grid.spacing
    guard_ok = kernel.is_exponential_shape and kernel.decay * np.max(h) < 1.0
    if policy == POLICY_AUTO:
        policy = POLICY_DECAY_CONSISTENT if guard_ok else POLICY_MASS
    if policy == POLICY_MASS:
        weights = cell_masses(kernel, np.concatenate([[0.0], grid.nodes]))
    elif not kernel.is_exponential_shape:
        raise DomainError("decay_consistent weights require an exponential-shape kernel")
    elif not guard_ok:
        raise ResolutionError(
            "decay_consistent weights need decay*spacing < 1 on every cell",
            achieved=float(kernel.decay * np.max(h)), requested=1.0)
    else:
        # One-parameter family fixed by the discrete flux balance
        # w_{j+1}/h_{j+1} = w_j/h_j - delta*w_j, then scaled to the truncated
        # mass. This zeroes the quadrature's exponential-decay closure defect
        # on every interior cell, at the price of O(h) individual cell masses.
        delta = kernel.decay
        weights = np.empty_like(h)
        weights[0] = 1.0
        for j in range(h.size - 1):
            weights[j + 1] = weights[j] * h[j + 1] * (1.0 / h[j] - delta)
        weights *= kernel.cdf(grid.nodes[-1]) / np.sum(weights)
    total = kernel_moment(kernel, 0)
    if total > 0:
        achieved = abs(float(np.sum(weights)) / total - 1.0)
        if achieved > WEIGHT_SUM_RTOL:
            raise ResolutionError(
                f"{grid.size} nodes on [0, {grid.cutoff:.3g}] cannot reproduce the "
                f"mass of a kernel with decay {kernel.decay:.3g}",
                achieved=achieved, requested=WEIGHT_SUM_RTOL)
    return weights, policy
