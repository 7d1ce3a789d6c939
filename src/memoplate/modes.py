"""Dirichlet spectra, modal phase vectors and the weighted phase norm.

The evolution is diagonal over the Laplacian eigenbasis, so a state is a
small record per eigenvalue: the deflection/velocity/temperature triplet plus
sampled history profiles, empty for an absent block. The phase norm of order
m weights those blocks with powers of the eigenvalue and kernel quadratures;
everything else in the package funnels its norms through this module.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .history import (DEFAULT_RATIO, DEFAULT_TAIL, HistoryGrid, history_cutoff,
                      kernel_weights, resolving_grid)
from .kernels import KernelSpec, ScalarModel, build_kernel_family, canonical_base


@dataclass(frozen=True)
class Domain:
    kind: str                      # "interval" | "rectangle"
    lengths: tuple[float, ...]

    def __post_init__(self):
        if self.kind == "interval":
            ok = len(self.lengths) == 1
        elif self.kind == "rectangle":
            ok = len(self.lengths) == 2
        else:
            raise DomainError(f"unsupported domain kind {self.kind!r}")
        if not ok or not all(0.0 < L < math.inf for L in self.lengths):
            raise DomainError(f"bad side lengths {self.lengths} for {self.kind}")


@dataclass(frozen=True)
class ModeSet:
    domain: Domain
    eigenvalues: np.ndarray            # sorted ascending

    @property
    def count(self) -> int:
        return self.eigenvalues.size


def dirichlet_eigenvalues(domain: Domain, count: int) -> ModeSet:
    """First ``count`` Dirichlet eigenvalues of -Laplace on the domain,
    repeated by multiplicity."""
    if count < 1:
        raise DomainError(f"need at least one mode, got {count}")
    if domain.kind == "interval":
        L = domain.lengths[0]
        n = np.arange(1, count + 1)
        return ModeSet(domain, (n * np.pi / L) ** 2)
    Lx, Ly = domain.lengths
    # the value (j pi/Lx)^2 + (k pi/Ly)^2 grows in j and in k. The s x s
    # square, s = ceil(sqrt(count)), holds count pairs at or below the value
    # of (s, s), and a pair with an index beyond count lies above count pairs
    # of its row or column, so neither is among the first count
    n = np.arange(1, count + 1)
    x, y = (n * np.pi / Lx) ** 2, (n * np.pi / Ly) ** 2
    s = math.isqrt(count - 1) + 1
    bound = x[s - 1] + y[s - 1]
    # row j holds k up to (Ly/pi) sqrt(bound - x_j); one more absorbs the
    # rounding of the root, and the filter keeps the pairs at or below bound
    rows = x[x + y[0] <= bound]
    width = np.minimum(Ly / np.pi * np.sqrt(bound - rows) + 1, count).astype(int)
    k = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
    values = np.repeat(rows, width) + y[k]
    return ModeSet(domain, np.sort(values[values <= bound])[:count])


@dataclass(frozen=True)
class Params:
    """Relaxation parameters, each in [0, 1]; 0 collapses that block. tau is
    also the thermal damping coefficient and the thermal memory weight (the
    paper's phi and psi). model sets the rate of the thermal kernel
    (memory_kernels)."""

    sigma: float = 0.0
    tau: float = 0.0
    eps: float = 0.0
    model: ScalarModel = ScalarModel()

    def __post_init__(self):
        for name, value in (("sigma", self.sigma), ("tau", self.tau), ("eps", self.eps)):
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0,1], got {value}")


@dataclass(frozen=True)
class PhaseSpace:
    """Mode set, parameters, kernels and grids bundled for norm evaluation.

    A history block is active exactly when its grid is not None. Every
    kernel has weights of its block's length, all zero when the kernel is
    None. ``policies`` maps "mu", "nu" and "beta" to the weight policy each
    active kernel's weights were built with, or None for an absent kernel.
    """

    modes: ModeSet
    params: Params
    mu: KernelSpec | None
    nu: KernelSpec | None
    beta: KernelSpec | None
    eta_grid: HistoryGrid | None
    xi_grid: HistoryGrid | None
    w_mu: np.ndarray
    w_nu: np.ndarray
    w_beta: np.ndarray
    policies: dict[str, str | None]

    @property
    def eta_size(self) -> int:
        return self.w_mu.size

    @property
    def xi_size(self) -> int:
        return self.w_beta.size

    @functools.cached_property
    def w_eta(self) -> np.ndarray:
        """(2, eta nodes) stack of w_mu and w_nu: both eta quadratures in one
        product."""
        return np.stack((self.w_mu, self.w_nu))


def memory_kernels(params: Params, base_mu: KernelSpec | None = None,
                   base_beta: KernelSpec | None = None) -> tuple:
    """(mu, nu, beta): base_mu rescaled by eps, the thermal kernel
    tau * rate^2 * exp(-rate*s) of the scalar model and base_beta rescaled by
    sigma, each None when its parameter is 0. An omitted base is exp(-s)."""
    base_mu = base_mu if base_mu is not None else canonical_base()
    base_beta = base_beta if base_beta is not None else canonical_base()
    rate = params.model.rate
    mu = build_kernel_family(base_mu, params.eps) if params.eps > 0 else None
    nu = KernelSpec(params.tau * rate ** 2, rate) if params.tau > 0 else None
    beta = build_kernel_family(base_beta, params.sigma) if params.sigma > 0 else None
    return mu, nu, beta


def build_phase_space(modes: ModeSet, params: Params, *, grid_size: int = 400,
                      base_mu: KernelSpec | None = None, base_beta: KernelSpec | None = None,
                      ratio: float = DEFAULT_RATIO, tail: float = DEFAULT_TAIL,
                      weight_policy: str = "auto") -> PhaseSpace:
    """eta carries mu and nu, xi carries beta; each active history gets one
    grid spanning every kernel it carries and resolving the fastest
    exponential one (resolving_grid), and each kernel its weights on it; an
    absent kernel weighs its block's nodes by zero."""
    kernels = dict(zip(("mu", "nu", "beta"), memory_kernels(params, base_mu, base_beta)))
    grids = {"eta": None, "xi": None}
    weights, policies = dict.fromkeys(kernels, np.zeros(0)), dict.fromkeys(kernels)
    for var, names in (("eta", ("mu", "nu")), ("xi", ("beta",))):
        carried = [n for n in names if kernels[n] is not None]
        if not carried:
            continue
        fastest = max((kernels[n].decay for n in carried if kernels[n].is_exponential_shape),
                      default=0.0)
        grids[var] = resolving_grid(history_cutoff((kernels[n] for n in carried), tail),
                                    grid_size, ratio, fastest)
        for n in names:
            weights[n], policies[n] = (kernel_weights(grids[var], kernels[n], weight_policy)
                                       if n in carried else (np.zeros(grids[var].size), None))
    return PhaseSpace(modes, params, kernels["mu"], kernels["nu"], kernels["beta"],
                      grids["eta"], grids["xi"], weights["mu"], weights["nu"],
                      weights["beta"], policies)


def norm_powers(space: PhaseSpace, order: int) -> np.ndarray:
    """(6, modes) eigenvalue powers weighting the blocks (u, v, theta, eta under
    mu, eta under nu, xi) of the order-m phase norm: gamma^(m+2), gamma^m,
    gamma^m, gamma^(m+1), gamma^m, gamma^(m+2). This is the one place that knows them."""
    g = space.modes.eigenvalues
    g0 = g ** order
    g1 = g0 * g
    g2 = g1 * g
    return np.stack((g2, g0, g0, g1, g0, g2))


def aligned_empty(shape: tuple[int, ...], order: str = "C") -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte cache
    line. NumPy aligns to 16 bytes only, and its loops write an array that
    starts mid-line measurably slower: on a 2-vCPU Xeon host, squaring a
    1600 x 128 history into a buffer 48 bytes into a line took 120 us, into
    an aligned one 90 us. The large buffers reused at every step are
    allocated here."""
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start:start + size].reshape(shape, order=order)


class PhaseEnergy:
    """The one evaluator of the order-m phase norm. Row k of its (6, modes)
    array ``blocks`` is norm_powers' row k times u^2, v^2, theta^2, or the
    quadrature sum_j w_j f_j^2 of eta under mu or nu or of xi under beta.
    The powers are taken once, the histories are squared into scratch
    allocated once, and each call overwrites ``blocks``; total() writes the
    per-mode sums into ``modal``."""

    def __init__(self, space: PhaseSpace, order: int):
        n = space.modes.count
        self.space = space
        self.powers = norm_powers(space, order)
        self.blocks = np.empty((6, n))
        self._triplet = tuple(self.blocks[:3])
        self._quad_eta, self._quad_xi = self.blocks[3:5], self.blocks[5]
        self.modal = np.empty(n)
        self._running = np.empty(n)
        # one scratch for both squares, the larger history's size
        ne, nx = space.eta_size, space.xi_size
        flat = aligned_empty((max(ne, nx) * n,))
        self._eta_sq = flat[:ne * n].reshape((ne, n), order="F")
        self._xi_sq = flat[:nx * n].reshape((nx, n), order="F")

    def __call__(self, u, v, theta, eta, xi) -> np.ndarray:
        """The blocks of a state in PhaseVector's layout, as ``blocks``."""
        for row, x in zip(self._triplet, (u, v, theta)):
            np.multiply(x, x, out=row)
        space = self.space
        np.matmul(space.w_eta, np.multiply(eta, eta, out=self._eta_sq), out=self._quad_eta)
        np.matmul(space.w_beta, np.multiply(xi, xi, out=self._xi_sq), out=self._quad_xi)
        self.blocks *= self.powers
        return self.blocks

    def total(self) -> float:
        """The squared norm of the last call's state, in the package's one
        order: the blocks summed per mode in row order into ``modal``, then
        the modes one after another (sum() adds 8 or more pairwise)."""
        self.blocks.sum(axis=0, out=self.modal)
        return float(np.add.accumulate(self.modal, out=self._running)[-1])


@dataclass
class PhaseVector:
    """Aggregated modal states with a norm order.

    u, v and theta have shape (modes,), eta (eta_nodes, modes) and xi
    (xi_nodes, modes), where an absent block has 0 nodes. This is the layout
    MidpointStepper advances.
    """

    space: PhaseSpace
    order: int
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    eta: np.ndarray
    xi: np.ndarray

    def block_norms_sq(self) -> dict[str, float]:
        """Squared norm split by block: triplet, mu- and nu-weighted history,
        and the xi history."""
        blocks = PhaseEnergy(self.space, self.order)(self.u, self.v, self.theta,
                                                     self.eta, self.xi)
        names = ("u", "v", "theta", "eta_mu", "eta_nu", "xi")
        return dict(zip(names, blocks.sum(axis=1).tolist()))

    def norm_sq(self) -> float:
        return sum(self.block_norms_sq().values())


def zero_phase_vector(space: PhaseSpace, order: int = 0) -> PhaseVector:
    n = space.modes.count
    return PhaseVector(space, order, np.zeros(n), np.zeros(n), np.zeros(n),
                       np.zeros((space.eta_size, n)), np.zeros((space.xi_size, n)))


def lift_triplet(space: PhaseSpace, triplet: np.ndarray, order: int = 0) -> PhaseVector:
    """Zero-padded embedding of (modes, 3) collapsed states into the full
    phase space."""
    t = np.asarray(triplet, dtype=float)
    n = space.modes.count
    if t.shape != (n, 3):
        raise DomainError(f"triplet has shape {t.shape}, expected ({n}, 3)")
    vec = zero_phase_vector(space, order)
    vec.u, vec.v, vec.theta = t[:, 0].copy(), t[:, 1].copy(), t[:, 2].copy()
    return vec


def project_initial_data(coefficients, space: PhaseSpace, order: int = 0) -> PhaseVector:
    """Assemble a PhaseVector from modal coefficient arrays.

    ``coefficients`` maps "u"/"v"/"theta" to length-N arrays and optionally
    "eta"/"xi" to (nodes, N) history samples, one column per mode, with 0
    nodes for an absent block; omitted entries mean zero.
    """
    vec = zero_phase_vector(space, order)
    for name in ("u", "v", "theta", "eta", "xi"):
        if name in coefficients:
            arr = np.asarray(coefficients[name], dtype=float)
            if arr.shape != getattr(vec, name).shape:
                raise ShapeError(f"{name} coefficients have shape {arr.shape}, "
                                 f"expected {getattr(vec, name).shape}")
            setattr(vec, name, arr.copy())
    return vec


def initial_data_preset(name: str, space: PhaseSpace, order: int = 0,
                        with_history: bool = False) -> PhaseVector:
    """Named initial data.

    "single-mode" puts a fixed triplet on the lowest mode; "spectral-decay p"
    sets coefficients n^-p. With ``with_history`` the history blocks start on
    the saturating profile 1 - exp(-s) scaled by the same modal coefficient.
    """
    n = space.modes.count
    parts = name.split()
    if parts[0] == "single-mode" and len(parts) == 1:
        coef = np.zeros(n)
        coef[0] = 1.0
    elif parts[0] == "spectral-decay" and len(parts) == 2:
        try:
            p = float(parts[1])
        except ValueError:
            raise DomainError(f"bad spectral-decay exponent in preset {name!r}")
        coef = np.arange(1, n + 1, dtype=float) ** (-p)
    else:
        raise DomainError(f"unknown initial data preset {name!r}")
    data = {"u": coef, "v": 0.5 * coef, "theta": -0.5 * coef}
    if with_history:
        for var, grid in (("eta", space.eta_grid), ("xi", space.xi_grid)):
            if grid is not None:
                data[var] = (1.0 - np.exp(-grid.nodes))[:, None] * coef[None, :]
    return project_initial_data(data, space, order)
