"""Dirichlet spectra, modal phase vectors and the weighted phase norm.

The evolution is diagonal over the Laplacian eigenbasis, so a state is a
small record per eigenvalue: the deflection/velocity/temperature triplet plus
optional sampled history profiles. The phase norm of order m weights those
blocks with powers of the eigenvalue and kernel quadratures; everything else
in the package funnels its norms through this module.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .history import HistoryGrid, build_history_grid
from .kernels import (CONCAVE_AFFINE_EXP, EXPONENTIAL, KernelSpec, ScalarModel,
                      build_kernel_family, canonical_base)


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
        if not ok or any(L <= 0 for L in self.lengths):
            raise DomainError(f"bad side lengths {self.lengths} for {self.kind}")


@dataclass(frozen=True)
class ModeSet:
    domain: Domain
    eigenvalues: np.ndarray            # sorted ascending, ties by index order
    indices: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return self.eigenvalues.size


def dirichlet_eigenvalues(domain: Domain, count: int) -> ModeSet:
    """First ``count`` Dirichlet eigenvalues of -Laplace on the domain.

    Rectangle ties are resolved lexicographically on the integer index pair,
    so repeated eigenvalues appear in a deterministic order.
    """
    if count < 1:
        raise DomainError(f"need at least one mode, got {count}")
    if domain.kind == "interval":
        L = domain.lengths[0]
        n = np.arange(1, count + 1)
        return ModeSet(domain, (n * np.pi / L) ** 2, tuple((int(k),) for k in n))
    Lx, Ly = domain.lengths
    # any pair with an index beyond count is dominated by count same-row pairs,
    # so enumerating j,k <= count is exhaustive for the first count eigenvalues
    pairs = [(float((j * np.pi / Lx) ** 2 + (k * np.pi / Ly) ** 2), j, k)
             for j in range(1, count + 1) for k in range(1, count + 1)]
    pairs.sort()
    chosen = pairs[:count]
    return ModeSet(domain, np.array([g for g, _, _ in chosen]),
                   tuple((j, k) for _, j, k in chosen))


def mode_shape(domain: Domain, index: tuple[int, ...], points: np.ndarray) -> np.ndarray:
    """Physical eigenfunction samples, for plotting only."""
    if domain.kind == "interval":
        L = domain.lengths[0]
        return np.sqrt(2.0 / L) * np.sin(index[0] * np.pi * np.asarray(points) / L)
    Lx, Ly = domain.lengths
    x, y = np.asarray(points)[..., 0], np.asarray(points)[..., 1]
    return (2.0 / np.sqrt(Lx * Ly) * np.sin(index[0] * np.pi * x / Lx)
            * np.sin(index[1] * np.pi * y / Ly))


@dataclass(frozen=True)
class Params:
    """Relaxation parameters, each in [0, 1]; 0 collapses that block."""

    sigma: float = 0.0
    tau: float = 0.0
    eps: float = 0.0
    model: ScalarModel = field(default_factory=ScalarModel.default)

    def __post_init__(self):
        for name, value in (("sigma", self.sigma), ("tau", self.tau), ("eps", self.eps)):
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0,1], got {value}")

    def phi(self) -> float:
        return float(self.model.phi(self.tau))

    def psi(self) -> float:
        return float(self.model.psi(self.tau))

    @property
    def has_eta(self) -> bool:
        return self.eps > 0 or self.tau > 0

    @property
    def has_xi(self) -> bool:
        return self.sigma > 0


@dataclass(frozen=True)
class PhaseSpace:
    """Mode set, parameters, kernels and grids bundled for norm evaluation.

    ``policies`` maps "mu", "nu" and "beta" to the weight policy each active
    kernel's weights were built with, or None for an absent kernel.
    """

    modes: ModeSet
    params: Params
    mu: KernelSpec | None
    nu: KernelSpec | None
    beta: KernelSpec | None
    eta_grid: HistoryGrid | None
    xi_grid: HistoryGrid | None
    w_mu: np.ndarray | None
    w_nu: np.ndarray | None
    w_beta: np.ndarray | None
    policies: dict[str, str | None]

    @property
    def eta_size(self) -> int:
        return 0 if self.eta_grid is None else self.eta_grid.size

    @property
    def xi_size(self) -> int:
        return 0 if self.xi_grid is None else self.xi_grid.size


def build_phase_space(modes: ModeSet, params: Params, *, grid_size: int = 400,
                      base_mu: KernelSpec | None = None, base_beta: KernelSpec | None = None,
                      ratio: float = 1.05, tail: float = 1e-8,
                      weight_policy: str = "auto") -> PhaseSpace:
    base_mu = base_mu if base_mu is not None else canonical_base()
    base_beta = base_beta if base_beta is not None else canonical_base()
    mu = nu = beta = None
    eta_grid = xi_grid = None
    w_mu = w_nu = w_beta = None
    policies = {"mu": None, "nu": None, "beta": None}
    if params.eps > 0:
        mu = build_kernel_family(base_mu.family, base_mu, params.eps)
    if params.tau > 0:
        nu = build_kernel_family(CONCAVE_AFFINE_EXP, params.model, params.tau)
    if params.has_eta:
        # one grid serves both eta-weighting kernels; it is built for the one
        # reaching farthest so the other's tail is still inside the cutoff
        candidates = [k for k in (mu, nu) if k is not None]
        owner = max(candidates, key=lambda k: k.tail_cutoff(tail))
        s_max = max(k.tail_cutoff(tail) for k in candidates)
        eta_grid = build_history_grid(owner, grid_size, ratio=ratio, s_max=s_max,
                                      weight_policy=weight_policy)
        # under "auto" the other kernel may resolve to a different policy
        if mu is not None:
            w_mu, policies["mu"] = ((eta_grid.weights, eta_grid.policy) if owner is mu
                                    else eta_grid.weights_for(mu, weight_policy))
        if nu is not None:
            w_nu, policies["nu"] = ((eta_grid.weights, eta_grid.policy) if owner is nu
                                    else eta_grid.weights_for(nu, weight_policy))
    if params.has_xi:
        beta = build_kernel_family(base_beta.family, base_beta, params.sigma)
        xi_grid = build_history_grid(beta, grid_size, ratio=ratio, tail=tail,
                                     weight_policy=weight_policy)
        w_beta, policies["beta"] = xi_grid.weights, xi_grid.policy
    return PhaseSpace(modes, params, mu, nu, beta, eta_grid, xi_grid, w_mu, w_nu, w_beta,
                      policies)


def block_energies(space: PhaseSpace, order: int, u, v, theta,
                   q_mu=0.0, q_nu=0.0, q_beta=0.0) -> tuple:
    """Energies of the six blocks of the order-m phase norm, mode by mode:
    (u, v, theta, eta under mu, eta under nu, xi).

    u, v and theta are modal amplitudes with the mode on the first axis;
    q_mu, q_nu and q_beta are the quadratures sum_j w_j f_j^2 of the history
    profiles under mu, nu and beta (0 for an absent block). Further axes
    broadcast against the modes. This is the one place that knows the
    eigenvalue powers of the norm.
    """
    g = space.modes.eigenvalues.reshape((-1,) + (1,) * (np.ndim(u) - 1))
    g0 = g ** order
    g1 = g0 * g
    g2 = g1 * g
    return (g2 * u ** 2, g0 * v ** 2, g0 * theta ** 2, g1 * q_mu, g0 * q_nu, g2 * q_beta)


def history_quadratures(space: PhaseSpace, eta, xi) -> tuple:
    """(q_mu, q_nu, q_beta) for block_energies from profiles stored
    (nodes, modes); 0 for an absent block."""
    q_mu = q_nu = q_beta = 0.0
    if eta is not None:
        sq = eta ** 2
        if space.w_mu is not None:
            q_mu = space.w_mu @ sq
        if space.w_nu is not None:
            q_nu = space.w_nu @ sq
    if xi is not None:
        q_beta = space.w_beta @ xi ** 2
    return q_mu, q_nu, q_beta


@dataclass
class PhaseVector:
    """Aggregated modal states with a norm order.

    u, v and theta have shape (modes,). eta has shape (eta_nodes, modes)
    when the slow-memory block is active, and is None otherwise; likewise xi
    with (xi_nodes, modes). This is the layout MidpointStepper advances.
    """

    space: PhaseSpace
    order: int
    u: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    eta: np.ndarray | None = None
    xi: np.ndarray | None = None

    def block_norms_sq(self, order: int | None = None) -> dict[str, float]:
        """Squared norm split by block: triplet, mu- and nu-weighted history,
        and the xi history."""
        q = history_quadratures(self.space, self.eta, self.xi)
        blocks = block_energies(self.space, self.order if order is None else order,
                                self.u, self.v, self.theta, *q)
        names = ("u", "v", "theta", "eta_mu", "eta_nu", "xi")
        return {name: float(np.sum(e)) for name, e in zip(names, blocks)}

    def norm_sq(self, order: int | None = None) -> float:
        return sum(self.block_norms_sq(order).values())

    def norm(self, order: int | None = None) -> float:
        return float(np.sqrt(self.norm_sq(order)))


def zero_phase_vector(space: PhaseSpace, order: int = 0) -> PhaseVector:
    n = space.modes.count
    eta = np.zeros((space.eta_size, n)) if space.params.has_eta else None
    xi = np.zeros((space.xi_size, n)) if space.params.has_xi else None
    return PhaseVector(space, order, np.zeros(n), np.zeros(n), np.zeros(n), eta, xi)


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
    "eta"/"xi" to (nodes, N) history samples, one column per mode; omitted
    entries mean zero.
    """
    vec = zero_phase_vector(space, order)
    n = space.modes.count
    for name in ("u", "v", "theta"):
        if name in coefficients:
            arr = np.asarray(coefficients[name], dtype=float)
            if arr.shape != (n,):
                raise ShapeError(f"{name} coefficients have shape {arr.shape}, expected ({n},)")
            setattr(vec, name, arr.copy())
    for name, size, active in (("eta", space.eta_size, space.params.has_eta),
                               ("xi", space.xi_size, space.params.has_xi)):
        if coefficients.get(name) is None:
            continue
        arr = np.asarray(coefficients[name], dtype=float)
        if not active:
            raise ShapeError(f"{name} history supplied but that block is collapsed")
        if arr.shape != (size, n):
            raise ShapeError(f"{name} history has shape {arr.shape}, expected ({size}, {n})")
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
        if space.params.has_eta:
            prof = 1.0 - np.exp(-space.eta_grid.nodes)
            data["eta"] = prof[:, None] * coef[None, :]
        if space.params.has_xi:
            prof = 1.0 - np.exp(-space.xi_grid.nodes)
            data["xi"] = prof[:, None] * coef[None, :]
    return project_initial_data(data, space, order)
