"""Resolvent probe: characteristic frequencies, closed-form norms, scan
slopes, discrete residual convergence."""
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from memoplate.errors import DomainError, FitError
from memoplate.kernels import laplace_transform
from memoplate.probe import (
    AbstractParams, _cell_update_defect, _uniform_grid, admissibility_report,
    build_probe_pair, mode_frequency, residual_check, resolvent_scan,
)

A2 = AbstractParams(alpha=1.0, coupling=1.0, omega1=0.25)
A3 = AbstractParams(alpha=1.0, coupling=0.75, omega1=0.3, omega2=0.05, with_shear=True)


def quartic_coefficients(ap, gamma):
    B = (1.0 + ap.h0) * gamma ** 2 + gamma ** (2 * ap.coupling) + ap.k0 * gamma ** ap.alpha
    C = ap.k0 * (1.0 + ap.h0) * gamma ** (ap.alpha + 2.0)
    return B, C


@pytest.mark.parametrize("ap", [A2, A3], ids=["no-shear", "shear"])
@pytest.mark.parametrize("gamma", [1.0, 10.0, 1e3])
def test_frequency_against_polynomial_roots(ap, gamma):
    B, C = quartic_coefficients(ap, gamma)
    roots = np.roots([1.0, 0.0, -B, 0.0, C])
    real_pos = np.sort(roots[(abs(roots.imag) < 1e-9 * abs(roots.real)) & (roots.real > 0)].real)
    freq = mode_frequency(ap, gamma)
    assert freq.lam == pytest.approx(real_pos[-1], rel=1e-12)
    # the squared roots multiply to C
    assert np.sqrt(freq.c_coeff) / freq.lam == pytest.approx(real_pos[0], rel=1e-12)
    assert freq.quartic_residual <= 1e-9 * B ** 2


def test_frequency_asymptote():
    # larger branch approaches sqrt(1 + h0) * gamma
    lam = mode_frequency(A3, 1e6).lam
    assert lam / 1e6 == pytest.approx(np.sqrt(1.0 + A3.h0), rel=1e-3)


def test_params_contracts():
    with pytest.raises(DomainError):
        AbstractParams(alpha=2.0, coupling=1.0, omega1=0.1)
    with pytest.raises(DomainError):
        AbstractParams(alpha=1.0, coupling=1.5, omega1=0.1)
    with pytest.raises(DomainError):
        AbstractParams(alpha=1.0, coupling=1.0, omega1=1.0)


def test_admissibility_reports():
    assert admissibility_report(A2).all_pass
    assert admissibility_report(A3).all_pass
    # omega1 at the closed upper end of its window fails the no-shear row
    bad = AbstractParams(alpha=1.0, coupling=1.0, omega1=0.5)
    assert not admissibility_report(bad).all_pass
    # shear coupling needs alpha <= 2*coupling
    bad2 = AbstractParams(alpha=1.0, coupling=0.4, omega1=0.3, with_shear=True)
    assert not admissibility_report(bad2).all_pass


def test_oscillation_identity_against_quadrature():
    # integral of kernel * |1 - e^{-i lam s}|^2 equals 2(mass - Re transform)
    mu = A2.thermal_kernel()
    lam = 7.3
    ref = quad(lambda s: mu(s) * abs(1.0 - np.exp(-1j * lam * s)) ** 2, 0.0, 60.0,
               limit=800)[0]
    c = laplace_transform(mu, lam)
    assert 2.0 * (A2.k0 - c.real) == pytest.approx(ref, rel=1e-8)


def test_history_norms_closed_form():
    pair = build_probe_pair(A3, 10.0)
    mu, beta = A3.thermal_kernel(), A3.shear_kernel()
    lam = pair.lam
    amp_th = pair.r + 10.0 ** (-0.5 * A3.alpha)
    ref_th = abs(amp_th) ** 2 / lam ** 2 * quad(
        lambda s: mu(s) * abs(1.0 - np.exp(-1j * lam * s)) ** 2, 0.0, 80.0, limit=800)[0]
    assert pair.hist_thermal_sq == pytest.approx(ref_th, rel=1e-7)
    amp_sh = pair.q + pair.shear_amp
    ref_sh = abs(amp_sh) ** 2 / lam ** 2 * quad(
        lambda s: beta(s) * abs(1.0 - np.exp(-1j * lam * s)) ** 2, 0.0, 80.0, limit=800)[0]
    assert pair.hist_shear_sq == pytest.approx(ref_sh, rel=1e-7)


def test_z_tilde_is_sqrt_k0_without_shear():
    for gamma in (10.0, 100.0, 1e4):
        pair = build_probe_pair(A2, gamma)
        assert pair.z_tilde_norm == pytest.approx(np.sqrt(A2.k0), rel=1e-12)
        assert pair.shear_amp == 0.0
        assert pair.z_norm >= abs(pair.r)


def test_scan_slopes_no_shear():
    gammas = np.logspace(1, 4, 20)
    scan = resolvent_scan(A2, gammas)
    assert scan.slope_z == pytest.approx(0.25, rel=0.10)
    assert scan.ratio_decreasing
    # ratio falls like gamma^(-1/4): three decades shave a factor ~5.6
    ratios = [row[4] for row in scan.rows()]
    assert ratios[-1] < 0.2 * ratios[0]


def test_scan_slopes_shear():
    # larger branch: the shear transform amplitude grows like
    # gamma^(2 + omega2 - omega1 - coupling - alpha/2)
    gammas = np.logspace(1, 4, 20)
    scan = resolvent_scan(A3, gammas)
    expected = 2.0 + A3.omega2 - A3.omega1 - A3.coupling - 0.5 * A3.alpha
    assert scan.slope_gamma_lam == pytest.approx(expected, rel=0.05)
    assert scan.slope_z == pytest.approx(0.45, rel=0.05)


def test_residual_check_halves_under_refinement():
    rep1 = residual_check(A2, 10.0, 200)
    rep2 = residual_check(A2, 10.0, 400)
    assert rep1.grid_size == 200 and rep2.grid_size == 400
    assert rep1.residual / rep2.residual == pytest.approx(2.0, rel=0.3)


def test_residual_check_shear_preset():
    rep1 = residual_check(A3, 10.0, 200)
    rep2 = residual_check(A3, 10.0, 400)
    assert 1.4 <= rep1.residual / rep2.residual <= 2.6


def test_residual_check_reports_tail_and_stays_finite():
    # the span comes from the 1e-8 tail cutoff of the slower kernel; the scan
    # drives lam*h past a hundred multiples of 2*pi, up to ~650
    cutoff = max(A3.thermal_kernel().tail_cutoff(1e-8), A3.shear_kernel().tail_cutoff(1e-8))
    for gamma in np.logspace(1, 4, 20):
        rep = residual_check(A3, float(gamma), 400)
        assert np.isfinite(rep.residual) and rep.residual > 0.0
        assert rep.cutoff == pytest.approx(cutoff, rel=1e-12)
        assert rep.tail_shear == pytest.approx(1e-8, rel=1e-9)
        assert rep.tail_thermal < 1e-8
    assert rep.lam * rep.cutoff / rep.grid_size > 600.0
    # the cell update stays finite when lam h is a whole period
    lam = mode_frequency(A3, 10.0).lam
    assert np.all(np.isfinite(_cell_update_defect(np.ones(400), np.full(400, 2.0 * np.pi / lam),
                                                  lam, 1.0)))
    # the truncated mass is reported per channel
    assert rep.tail_thermal == pytest.approx(A3.thermal_kernel().tail_fraction(rep.cutoff))
    assert rep.tail_shear == pytest.approx(A3.shear_kernel().tail_fraction(rep.cutoff))
    assert residual_check(A2, 10.0, 400).tail_shear == 0.0


@pytest.mark.parametrize("ap", [A2, A3], ids=["no-shear", "shear"])
@pytest.mark.parametrize("size", [400, 800])
def test_scan_pairs_and_width_classes_change_no_bit(ap, size):
    # the residual from the scan's pair, and the cell update from the width
    # classes, are the same numbers as building the pair and the phase
    # factors per node
    scan = resolvent_scan(ap, np.logspace(1, 4, 20))
    grid = _uniform_grid(ap, size)
    assert 5 <= grid.classes[0].size < 20
    for gamma, pair in zip(scan.gammas, scan.pairs):
        assert pair == build_probe_pair(ap, float(gamma))
        assert residual_check(ap, pair.gamma, size, pair) == residual_check(ap, gamma, size)
        f = (1.0 - np.exp(-1j * pair.lam * grid.nodes)) / (1j * pair.lam)
        np.testing.assert_array_equal(
            _cell_update_defect(f, grid.spacing, pair.lam, 1.0, grid.classes),
            _cell_update_defect(f, grid.spacing, pair.lam, 1.0))


def test_residual_check_rejects_another_scales_pair():
    with pytest.raises(DomainError, match="gamma"):
        residual_check(A2, 20.0, 400, build_probe_pair(A2, 10.0))


def test_cached_moments_leave_hash_and_grid_cache_alone():
    a = AbstractParams(alpha=1.0, coupling=0.5, omega1=0.2, omega2=0.1, with_shear=True)
    b = AbstractParams(alpha=1.0, coupling=0.5, omega1=0.2, omega2=0.1, with_shear=True)
    assert a.k0 > 0.0 and a.h0 > 0.0
    assert "k0" in vars(a) and "k0" not in vars(b)
    assert a == b and hash(a) == hash(b)
    assert _uniform_grid(a, 64) is _uniform_grid(b, 64)


def single_mode_response(ap, gamma, lam):
    """Resolvent map of one mode at frequency lam, in the weighted norms.

    The equations are those residual_check samples. Inputs are (f_u, f_v,
    f_theta) plus constant history profiles e (thermal) and x (shear); the
    histories then integrate in closed form, which leaves a 2x2 system in
    (p, r). Rows and columns of the returned matrix are scaled so that its
    largest singular value is sup ||z|| / ||f|| over these inputs.
    """
    k0, h0 = ap.k0, ap.h0
    c = laplace_transform(ap.thermal_kernel(), lam)
    b = laplace_transform(ap.shear_kernel(), lam) if ap.with_shear else 0.0
    gc, ga = gamma ** ap.coupling, gamma ** ap.alpha
    k_mu, k_beta = (k0 - c) / (1j * lam), (h0 - b) / (1j * lam)
    system = np.array([[gamma ** 2 * (1.0 + h0 - b) - lam ** 2, -gc],
                       [1j * lam * gc, 1j * lam + ga * k_mu]])
    n_in = 5 if ap.with_shear else 4
    unit = np.eye(n_in)
    rhs = np.zeros((2, n_in), dtype=complex)
    rhs[0, :2] = 1j * lam + gamma ** 2 * k_beta, 1.0
    rhs[1, 0], rhs[1, 2], rhs[1, 3] = gc, 1.0, -ga * k_mu
    if ap.with_shear:
        rhs[0, 4] = -gamma ** 2 * k_beta
    p, r = np.linalg.solve(system, rhs)
    q = 1j * lam * p - unit[0]
    rows = [gamma * p, q, r, np.sqrt(ga * 2.0 * (k0 - c.real)) / lam * (r + unit[3])]
    in_scale = [gamma, 1.0, 1.0, np.sqrt(ga * k0)]
    if ap.with_shear:
        rows.append(gamma * np.sqrt(2.0 * (h0 - b.real)) / lam * (q + unit[4]))
        in_scale.append(gamma * np.sqrt(h0))
    return np.array(rows) / np.array(in_scale)


def sup_response(ap, gamma):
    """sup over lam in [1e-2, 20 gamma] of the single-mode resolvent norm:
    a log grid with both quartic frequencies added, refined at its maximum."""
    def gain(lam):
        return np.linalg.norm(single_mode_response(ap, gamma, lam), 2)

    freq = mode_frequency(ap, gamma)
    roots = [np.sqrt(freq.c_coeff) / freq.lam, freq.lam]
    lams = np.sort(np.concatenate([np.geomspace(1e-2, 20.0 * gamma, 400), roots]))
    vals = np.array([gain(x) for x in lams])
    k = int(np.argmax(vals))
    lo, hi = lams[max(k - 1, 0)], lams[min(k + 1, lams.size - 1)]
    best = minimize_scalar(lambda x: -gain(x), bounds=(lo, hi), method="bounded",
                           options={"xatol": 1e-12 * hi})
    return max(vals[k], -best.fun)


@pytest.mark.parametrize("ap", [A2, A3], ids=["no-shear", "shear"])
def test_single_mode_response_reproduces_probe_pair(ap):
    # fed the probe's input, the 2x2 reduction returns the probe state
    for gamma in (10.0, 1e3):
        pair = build_probe_pair(ap, gamma)
        f = np.zeros(5 if ap.with_shear else 4, dtype=complex)
        f[3] = np.sqrt(ap.k0)
        if ap.with_shear:
            f[4] = gamma * np.sqrt(ap.h0) * pair.shear_amp
        z = single_mode_response(ap, gamma, pair.lam) @ f
        assert np.linalg.norm(z) == pytest.approx(pair.z_norm, rel=1e-9)
        assert np.linalg.norm(f) == pytest.approx(pair.z_tilde_norm, rel=1e-12)
        assert sup_response(ap, gamma) >= pair.z_norm / pair.z_tilde_norm


def test_single_mode_resolvent_bounded_only_with_shear():
    # inputs on u, v, theta and constant history profiles: the shear memory
    # keeps the resolvent bounded at thm-a3, while thm-a2 grows without it
    gammas = np.logspace(1, 4, 7)
    slope = {}
    for name, ap in (("a2", A2), ("a3", A3)):
        sups = [sup_response(ap, float(g)) for g in gammas]
        slope[name] = float(np.polyfit(np.log(gammas), np.log(sups), 1)[0])
    assert slope["a3"] <= 0.0
    assert slope["a2"] >= 0.5


def test_degenerate_fit_rejected():
    from memoplate.probe import _log_slope
    with pytest.raises(FitError):
        _log_slope(np.array([1.0, 2.0]), np.array([0.0, 1.0]))
