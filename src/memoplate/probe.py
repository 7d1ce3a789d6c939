"""High-frequency resolvent probe for the abstract fractional-coupling model.

For each eigenvalue scale gamma the probe picks a frequency lam on the
imaginary axis from the quartic dispersion relation and builds an explicit
state z with (i lam - A) z = z_tilde, where the input z_tilde is supported on
the history blocks with constant profiles. Growth of ||z|| / ||z_tilde||
along a scale sweep rules out a uniform resolvent bound and hence exponential
decay (Gearhart-Pruss).

Without the shear channel the input is fixed (||z_tilde||^2 = k0) and the
state grows like gamma^(1/4) at the thm-a2 exponents, so the probe witnesses
non-uniform decay. With it, the larger branch has
lam^2 = (1+h0) gamma^2 + gamma^(2c) + lower order, so the denominator
(1+h0) gamma^2 - lam^2 is ~ -gamma^(2c). With |c(lam)| ~ lam^(omega1-1) and
|b(lam)| ~ lam^(omega2-1) this gives r ~ gamma^(1-omega1-alpha/2),
q ~ gamma p ~ gamma^(2-omega1-alpha/2-c) and Lambda ~ q b / h0, so
gamma |Lambda| ~ gamma^(2-omega1-alpha/2-c+omega2). The image norm grows with
that exponent and the state norm one omega2 slower: the image/state ratio
cannot decay for any omega2 >= 0, and the probe shows a resolvent that stays
bounded, the shear memory acting on the principal part as a stabilizer. All
norms here have closed forms; the sampled-grid residual check is a separate,
deliberately discrete route.

A scan builds each scale's pair once and keeps it (ScanResult.pairs), so the
residual check reads the pair instead of rebuilding it, and evaluates its
phase factors once per distinct cell width of its uniform grid. Only that
grid's geometry (nodes, cell masses and their sums, tail fractions, width
classes) is cached across calls, per model and size.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModeError, DomainError, FitError
from .history import cell_masses, geometric_boundaries, history_cutoff
from .kernels import (ConditionCheck, KernelSpec, ValidationReport, kernel_moment,
                      laplace_transform)

# A first-order defect halves under grid doubling; the band allows 30%.
HALVING_BAND = (1.4, 2.6)


@dataclass(frozen=True)
class AbstractParams:
    """Exponents of the abstract model.

    alpha: memory strength in (0, 2); coupling: power of the cross coupling,
    in [0, 1]; omega1/omega2: kernel singularities of the thermal and shear
    memories. with_shear toggles the second memory channel entirely.
    """

    alpha: float
    coupling: float
    omega1: float
    omega2: float = 0.0
    with_shear: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise DomainError(f"alpha must lie in (0,2), got {self.alpha}")
        if not 0.0 <= self.coupling <= 1.0:
            raise DomainError(f"coupling must lie in [0,1], got {self.coupling}")
        for name, w in (("omega1", self.omega1), ("omega2", self.omega2)):
            if not 0.0 <= w < 1.0:
                raise DomainError(f"{name} must lie in [0,1), got {w}")

    def thermal_kernel(self) -> KernelSpec:
        return KernelSpec(1.0, 1.0, self.omega1)

    def shear_kernel(self) -> KernelSpec | None:
        if not self.with_shear:
            return None
        return KernelSpec(1.0, 1.0, self.omega2)

    # cached per instance, outside the fields, so equality and hashing
    # (and _uniform_grid's cache key) do not see them
    @functools.cached_property
    def k0(self) -> float:
        return kernel_moment(self.thermal_kernel(), 0)

    @functools.cached_property
    def h0(self) -> float:
        k = self.shear_kernel()
        return 0.0 if k is None else kernel_moment(k, 0)


def admissibility_report(ap: AbstractParams) -> ValidationReport:
    """Exponent constraints for the non-uniform-decay construction.

    Margins are <= 0 when satisfied. The shear-free route constrains only
    omega1; the shear route additionally ties the coupling to alpha and
    nests omega2 under omega1. Inclusive boundaries tolerate roundoff of the
    derived window ends.

    The shear windows assume the probe denominator (1+h0) gamma^2 - lam^2 is
    of size gamma^2. On the larger branch it is of size gamma^(2c) (module
    docstring), so for c < 1 these windows do not yield a non-uniform-decay
    construction: inside them the shear probe's resolvent ratio stays bounded.
    The rows are kept as derived.
    """
    roundoff = 1e-12
    checks = [
        ConditionCheck("memory_exponent_range",
                       max(-ap.alpha, ap.alpha - 2.0),
                       0.0 < ap.alpha < 2.0),
        ConditionCheck("coupling_range",
                       max(-ap.coupling, ap.coupling - 1.0),
                       0.0 <= ap.coupling <= 1.0),
    ]
    upper1 = 0.5 * (2.0 - ap.alpha)
    if not ap.with_shear:
        checks.append(ConditionCheck("omega1_window",
                                     max(-ap.omega1, ap.omega1 - upper1),
                                     0.0 <= ap.omega1 < upper1))
    else:
        lower1 = 0.5 * (2.0 * ap.coupling - ap.alpha)
        checks.append(ConditionCheck("coupling_vs_memory", ap.alpha - 2.0 * ap.coupling,
                                     ap.alpha <= 2.0 * ap.coupling + roundoff))
        checks.append(ConditionCheck("omega1_window",
                                     max(lower1 - ap.omega1, ap.omega1 - upper1),
                                     lower1 - roundoff <= ap.omega1 < upper1))
        upper2 = ap.omega1 - lower1
        checks.append(ConditionCheck("omega2_window",
                                     max(-ap.omega2, ap.omega2 - upper2),
                                     0.0 <= ap.omega2 <= upper2 + roundoff))
    return ValidationReport(tuple(checks))


@dataclass(frozen=True)
class ProbeFrequency:
    lam: float
    b_coeff: float
    c_coeff: float
    quartic_residual: float


def mode_frequency(ap: AbstractParams, gamma: float) -> ProbeFrequency:
    """Real probe frequency from the quartic dispersion relation.

    Takes the larger of the two positive roots of x^2 - B x + C in x = lam^2,
    the one whose probe state grows along the scan. The roots multiply to C,
    so the smaller frequency is sqrt(C) / lam.
    """
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    k0, h0 = ap.k0, ap.h0
    B = (1.0 + h0) * gamma ** 2 + gamma ** (2.0 * ap.coupling) + k0 * gamma ** ap.alpha
    C = k0 * (1.0 + h0) * gamma ** (ap.alpha + 2.0)
    disc = B * B - 4.0 * C
    if disc < 0.0:
        raise DegenerateModeError(f"complex dispersion roots at gamma={gamma} "
                                  f"(discriminant {disc:.3g})")
    root = 0.5 * (B + np.sqrt(disc))
    if root <= 0.0:
        raise DegenerateModeError(f"nonpositive squared frequency at gamma={gamma}")
    lam = float(np.sqrt(root))
    residual = float(abs(root * root - B * root + C))
    return ProbeFrequency(lam, float(B), float(C), residual)


@dataclass(frozen=True)
class ProbePair:
    """Probe state and resolvent input at one scale, with closed-form norms.

    The state is (u, v, theta) = (p, q, r) plus the integrated oscillatory
    history profiles; the input is supported on the history blocks with
    constant profiles: gamma^(-alpha/2) on the thermal history, shear_amp
    (Lambda) on the shear history. gamma_lam = gamma |Lambda| is the
    scale-weighted shear input amplitude whose growth exponent the scan fits;
    on the larger branch it grows like gamma^(2-omega1-alpha/2-c+omega2), and
    the state norm like gamma^(2-omega1-alpha/2-c).
    """

    gamma: float
    lam: float
    p: complex
    q: complex
    r: complex
    shear_amp: complex          # constant shear input profile
    thermal_transform: complex  # kernel transform at the probe frequency
    shear_transform: complex
    z_norm: float
    z_tilde_norm: float
    hist_thermal_sq: float
    hist_shear_sq: float
    quartic_residual: float

    @property
    def gamma_lam(self) -> float:
        return self.gamma * abs(self.shear_amp)


def build_probe_pair(ap: AbstractParams, gamma: float) -> ProbePair:
    """Exact resolvent pair at the quartic frequency.

    r is fixed by the thermal equation, p = gamma^c r / ((1+h0) gamma^2 -
    lam^2) and q = i lam p. Lambda = i lam p b / (h0 - b) is forced: it is
    the only constant shear input for which the v-equation holds at this lam,
    since the shear history then integrates to gamma^2 h0 p and the v-equation
    reduces to the denominator relation defining p. On the larger branch the
    denominator is ~ -gamma^(2c), which sets the growth exponents listed on
    ProbePair.
    """
    freq = mode_frequency(ap, gamma)
    lam = freq.lam
    k0, h0 = ap.k0, ap.h0
    mu = ap.thermal_kernel()
    beta = ap.shear_kernel()
    c = laplace_transform(mu, lam)
    b = laplace_transform(beta, lam) if beta is not None else 0.0 + 0.0j

    ga2 = gamma ** (0.5 * ap.alpha)
    if abs(c) == 0.0:
        raise DegenerateModeError(f"vanishing thermal transform at gamma={gamma}")
    r = (k0 - c) / (ga2 * c)
    denom = (1.0 + h0) * gamma ** 2 - lam ** 2
    if denom == 0.0:
        raise DegenerateModeError(f"resonant denominator at gamma={gamma}")
    p = gamma ** ap.coupling * r / denom
    q = 1j * lam * p
    if beta is not None:
        if abs(h0 - b) == 0.0:
            raise DegenerateModeError(f"vanishing shear denominator at gamma={gamma}")
        Lam = 1j * lam * p * b / (h0 - b)
    else:
        Lam = 0.0 + 0.0j

    # |1 - exp(-i lam s)|^2 integrates against the kernel to twice the
    # difference between its mass and the real part of its transform
    osc_mu = 2.0 * (k0 - c.real) / lam ** 2
    hist_th = abs(r + 1.0 / ga2) ** 2 * osc_mu
    if beta is not None:
        osc_beta = 2.0 * (h0 - b.real) / lam ** 2
        hist_sh = abs(q + Lam) ** 2 * osc_beta
    else:
        hist_sh = 0.0

    z_sq = (gamma ** 2 * abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2
            + gamma ** ap.alpha * hist_th + gamma ** 2 * hist_sh)
    zt_sq = k0 + h0 * (gamma * abs(Lam)) ** 2
    return ProbePair(gamma, lam, p, q, r, Lam, c, b,
                     float(np.sqrt(z_sq)), float(np.sqrt(zt_sq)),
                     float(hist_th), float(hist_sh), freq.quartic_residual)


@dataclass(frozen=True)
class ScanResult:
    gammas: np.ndarray
    lam: np.ndarray
    z_norm: np.ndarray
    z_tilde_norm: np.ndarray
    ratio: np.ndarray
    quartic_residual: np.ndarray
    slope_z: float
    half_z: float                # 95% half-width of slope_z
    slope_gamma_lam: float       # nan without the shear channel, as its half-width
    half_gamma_lam: float
    ratio_decreasing: bool
    pairs: tuple[ProbePair, ...]  # one per scale, for residual_check

    def rows(self):
        for k in range(self.gammas.size):
            yield (self.gammas[k], self.lam[k], self.z_norm[k], self.z_tilde_norm[k],
                   self.ratio[k], self.quartic_residual[k])


def _log_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of log y against log x and its 95% half-width."""
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise FitError("log-slope fit needs positive finite values")
    coef, cov = np.polyfit(np.log(x), np.log(y), 1, cov=True)
    return float(coef[0]), 1.96 * float(np.sqrt(cov[0, 0]))


def resolvent_scan(ap: AbstractParams, gammas: np.ndarray) -> ScanResult:
    """Probe-pair norms along a scale sweep with fitted growth exponents."""
    g = np.asarray(gammas, dtype=float)
    if g.size < 3:
        # two points fit a line exactly and leave no residual to bound it
        raise DomainError(f"scan needs at least three scales, got {g.size}")
    if np.any(np.diff(g) <= 0.0):
        raise DomainError(f"scan scales must strictly increase, got {g[0]:.6g} to {g[-1]:.6g}")
    pairs = tuple(build_probe_pair(ap, float(x)) for x in g)
    lam = np.array([p.lam for p in pairs])
    zn = np.array([p.z_norm for p in pairs])
    zt = np.array([p.z_tilde_norm for p in pairs])
    gl = np.array([p.gamma_lam for p in pairs])
    qr = np.array([p.quartic_residual for p in pairs])
    ratio = zt / zn
    slope_z, half_z = _log_slope(g, zn)
    slope_gl, half_gl = _log_slope(g, gl) if ap.with_shear else (np.nan, np.nan)
    return ScanResult(g, lam, zn, zt, ratio, qr, slope_z, half_z, slope_gl, half_gl,
                      bool(np.all(np.diff(ratio) < 0.0)), pairs)


@dataclass(frozen=True)
class ResidualReport:
    lam: float
    grid_size: int
    cutoff: float
    residual: float              # relative discrete resolvent defect
    tail_thermal: float          # thermal kernel mass beyond cutoff, relative
    tail_shear: float            # same for the shear kernel, 0 without it


def _cell_update_defect(f: np.ndarray, h: np.ndarray, lam: float, source: complex,
                        classes: tuple[np.ndarray, np.ndarray] | None = None
                        ) -> np.ndarray:
    """Defect per unit age of the exact-exponential cell update for
    i lam f + f' = source with zero inflow at s = 0.

    The update f_j = e^(-i lam h) f_(j-1) + h g(lam h) source, with
    g(x) = (1 - e^(-ix)) / (ix), integrates the cell exactly for a constant
    source; g is finite for every x > 0, including lam h in 2 pi Z.
    ``classes`` is np.unique(h, return_inverse=True): the phase factors are
    then evaluated once per distinct width and gathered, the same values.
    """
    widths, inverse = (h, slice(None)) if classes is None else classes
    x = lam * widths
    gain = (-np.expm1(-1j * x) / (1j * x))[inverse]
    phase = np.exp(-1j * x)[inverse]
    prev = np.concatenate([[0.0], f[:-1]])
    return (f - phase * prev) / h - gain * source


@dataclass(frozen=True)
class _UniformGrid:
    cutoff: float
    nodes: np.ndarray
    spacing: np.ndarray
    classes: tuple[np.ndarray, np.ndarray]  # np.unique(spacing, return_inverse=True)
    w_mu: np.ndarray                        # thermal cell masses
    w_b: np.ndarray | None                  # shear cell masses, None without shear
    mass_thermal: float                     # sum of w_mu
    mass_shear: float                       # sum of w_b, 0 without shear
    tail_thermal: float
    tail_shear: float


@functools.lru_cache(maxsize=8)
def _uniform_grid(ap: AbstractParams, grid_size: int) -> _UniformGrid:
    """residual_check's uniform grid. None of it depends on gamma, so it is
    built once per model and size; the arrays are read-only because every
    call shares them. Rounding leaves a handful of distinct cell widths."""
    mu, beta = ap.thermal_kernel(), ap.shear_kernel()
    s_max = history_cutoff(k for k in (mu, beta) if k is not None)
    bounds = geometric_boundaries(s_max, grid_size, 1.0)
    nodes, spacing, w_mu = bounds[1:], np.diff(bounds), cell_masses(mu, bounds)
    classes = np.unique(spacing, return_inverse=True)
    w_b = None if beta is None else cell_masses(beta, bounds)
    for x in (nodes, spacing, *classes, w_mu, w_b):
        if x is not None:
            x.flags.writeable = False
    no_shear = beta is None
    return _UniformGrid(s_max, nodes, spacing, classes, w_mu, w_b,
                        float(np.sum(w_mu)), 0.0 if no_shear else float(np.sum(w_b)),
                        mu.tail_fraction(s_max), 0.0 if no_shear else beta.tail_fraction(s_max))


def residual_check(ap: AbstractParams, gamma: float, grid_size: int,
                   pair: ProbePair | None = None) -> ResidualReport:
    """Discrete resolvent defect of the sampled probe pair.

    The probe profiles oscillate at a fixed frequency, so the histories are
    sampled on uniform grids and transported by the exact-exponential cell
    update, which carries no error on them at any lam h. What remains is the
    right-endpoint quadrature of the two memory integrals: with spacing h the
    defect is (h/2) sqrt(|gamma^alpha (r + gamma^(-alpha/2)) c(lam)|^2 +
    |gamma^2 (q + Lambda) b(lam)|^2) / ||z_tilde|| to leading order, first
    order in h, so it halves under grid doubling. The span is
    history_cutoff of the two kernels, the rule the stepper's history grids
    use; the kernel mass left beyond it is reported per channel. The cell
    weights are the cells' kernel masses, as under the mass weight policy.

    ``pair`` is the probe pair at gamma when the caller already holds it (a
    scan's pairs, or one pair checked at two grid sizes); it is built here
    otherwise, and one for another scale raises DomainError. The profiles'
    common factor 1 - e^(-i lam s) is evaluated once for both channels.
    """
    if grid_size < 8:
        raise DomainError(f"need at least 8 history nodes, got {grid_size}")
    if pair is None:
        pair = build_probe_pair(ap, gamma)
    elif pair.gamma != gamma:
        raise DomainError(f"probe pair is for gamma={pair.gamma}, not {gamma}")
    lam = pair.lam
    grid = _uniform_grid(ap, grid_size)
    w_mu, w_b = grid.w_mu, grid.w_b
    osc = 1.0 - np.exp(-1j * lam * grid.nodes)

    def profile(amp: complex) -> np.ndarray:
        return amp * osc / (1j * lam)

    amp_th = pair.r + gamma ** (-0.5 * ap.alpha)
    phi = profile(amp_th)

    res_u = 1j * lam * pair.p - pair.q
    res_th = 1j * lam * pair.r + gamma ** ap.coupling * pair.q \
        + gamma ** ap.alpha * np.sum(w_mu * phi)
    res_eta = _cell_update_defect(phi, grid.spacing, lam, amp_th, grid.classes)
    res_v = 1j * lam * pair.q + gamma ** 2 * pair.p - gamma ** ap.coupling * pair.r

    num_sq = (gamma ** 2 * abs(res_u) ** 2 + abs(res_th) ** 2
              + gamma ** ap.alpha * float(np.sum(w_mu * np.abs(res_eta) ** 2)))
    den_sq = grid.mass_thermal

    if w_b is not None:
        amp_sh = pair.q + pair.shear_amp
        psi = profile(amp_sh)
        res_v += gamma ** 2 * np.sum(w_b * psi)
        res_xi = _cell_update_defect(psi, grid.spacing, lam, amp_sh, grid.classes)
        num_sq += gamma ** 2 * float(np.sum(w_b * np.abs(res_xi) ** 2))
        den_sq += gamma ** 2 * abs(pair.shear_amp) ** 2 * grid.mass_shear
    num_sq += abs(res_v) ** 2

    return ResidualReport(lam, grid_size, grid.cutoff,
                          float(np.sqrt(num_sq / den_sq)),
                          grid.tail_thermal, grid.tail_shear)
