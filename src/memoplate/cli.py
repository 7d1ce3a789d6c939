"""Command-line experiment runner.

Each command imports the modules it needs inside its handler: `pruss-scan`
and `kernel-check` load only `config` and `probe`, and importing `dynamics`,
`limits` and `decay` as well would add 0.06 to 0.1 s to every such process
(measured on a 2-vCPU Xeon, Python 3.11).
"""
from __future__ import annotations

import argparse
import sys

# the envelope constants are sup fits over the first half of the run, so a
# margin may touch zero by roundoff but not fall below it
ENVELOPE_FLOOR = -1e-12


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="memoplate",
        description="Thermoviscoelastic plate with hereditary memory: "
                    "simulation, decay measurement, singular limits and "
                    "resolvent probes.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="INI config applied over the preset/defaults")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--preset", help="named preset config to start from")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)

    from .errors import ConfigError, MemoplateError
    from . import config as cfgmod

    try:
        cfg = cfgmod.preset(args.preset) if args.preset else cfgmod.default_config()
        if args.config:
            cfg = cfgmod.load_config(args.config, cfg)
        if args.out:
            cfg.raw["output"]["directory"] = args.out
        out_dir = cfg.out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    manifest = cfgmod.Manifest(args.command, cfg, args.config)
    code = 0
    try:
        COMMANDS[args.command](cfg, manifest, out_dir)
        if cfg.emit_plots_flag:
            for script in cfgmod.emit_plots(manifest.data, out_dir):
                manifest.output(script)
    except ConfigError as exc:
        manifest.step(args.command, "failed", str(exc))
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except MemoplateError as exc:
        manifest.step(args.command, "failed", str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
    finally:
        manifest.write(out_dir)
    if code == 0 and any(s["status"] == "failed" for s in manifest.data["steps"]):
        code = 3
    return code


# --- shared helpers --------------------------------------------------

def _policy_note(space) -> str:
    """The weight policy each history kernel received ("none" if absent)."""
    return "policy " + " ".join(f"{name}={policy or 'none'}"
                                for name, policy in space.policies.items())


def _check_fit_first(cfg, stride, check) -> None:
    """Run ``check(times)`` under [fit] on every grid point's sample times
    before any point is stepped, so a rejected value costs no evolution;
    ``stride(nsteps)`` is the run's sample stride."""
    from . import config as cfgmod
    from .dynamics import _step_count, _stored_steps

    for point in cfg.parameter_grid():
        with cfgmod.section("integrator"):
            dt = cfg.dt_for(*point)
            nsteps = _step_count(dt, cfg.horizon)
            times = dt * _stored_steps(nsteps, stride(nsteps))
        with cfgmod.section("fit"):
            check(times)


# --- commands --------------------------------------------------------

def _cmd_kernel_check(cfg, manifest, out_dir) -> None:
    import numpy as np
    from . import config as cfgmod
    from .kernels import validate_assumptions
    from .modes import Params, memory_kernels

    sigma, tau, eps = cfg.parameter_grid()[0]
    mu, nu, beta = memory_kernels(Params(sigma, tau, eps, cfg.scalar_model()),
                                  cfg.base_mu(), cfg.base_beta())
    named = [("mu_base", cfg.base_mu()), ("beta_base", cfg.base_beta()),
             ("mu_scaled", mu), ("beta_scaled", beta), ("thermal", nu)]
    rows = []
    all_pass = True
    for name, kernel in named:
        if kernel is None:
            continue
        bound = cfg.check_bound if cfg.check_bound is not None else kernel.decay
        with cfgmod.section("integrator"):
            grid = np.geomspace(1e-3, kernel.tail_cutoff(cfg.tail), 200)
        report = validate_assumptions(kernel, bound, grid)
        all_pass &= report.all_pass
        for condition, margin, passed in report.rows():
            rows.append((f"{name}.{condition}", margin, passed))
    path = cfgmod.write_csv(out_dir / "kernel_check.csv",
                            ["condition", "margin", "passed"], rows)
    manifest.output(path)
    manifest.step("kernel-check", "ok" if all_pass else "failed",
                  f"{len(rows)} conditions, all_pass={all_pass}")
    print(f"kernel-check: {len(rows)} conditions, all_pass={all_pass}")


def _cmd_simulate(cfg, manifest, out_dir) -> None:
    import numpy as np
    from . import config as cfgmod
    from .dynamics import evolve

    sigma, tau, eps = cfg.parameter_grid()[0]
    space, z0, dt = cfg.point(sigma, tau, eps)
    with cfgmod.section("integrator"):
        traj = evolve(space, z0, dt, cfg.horizon, store_stride=cfg.stride)
    manifest.step("evolve", "ok",
                  f"sigma={sigma} tau={tau} eps={eps} dt={dt} steps={traj.step_energy.size - 1} "
                  f"{_policy_note(space)}")

    n = space.modes.count
    per_mode = (traj.u, traj.v, traj.theta, np.sqrt(traj.history_energy[:2].sum(axis=0)),
                np.sqrt(traj.history_energy[2]), traj.modal_energy)
    # row k * modes + i holds sample k of mode i
    rows = zip(np.repeat(traj.times, n), np.tile(np.arange(n), traj.times.size),
               *(x.T.ravel() for x in per_mode))
    path = cfgmod.write_csv(out_dir / "trajectory.csv",
                            ["t", "mode", "u", "v", "theta", "eta_norm",
                             "xi_norm", "modal_energy"], rows)
    manifest.output(path)

    e = traj.step_energy
    increase = np.max((e[1:] - e[:-1]) / np.maximum(e[:-1], 1e-300))
    manifest.step("energy-monotone", "ok" if increase <= 1e-12 else "failed",
                  f"max relative step increase {increase:.3e}")
    print(f"simulate: {space.modes.count} modes, {e.size - 1} steps, "
          f"max relative energy increase {increase:.3e}")


def _cmd_decay(cfg, manifest, out_dir) -> None:
    from . import config as cfgmod
    from .decay import _window_indices, check_differential_inequalities, fit_decay_rate
    from .dynamics import evolve

    window = cfg.fit_window
    _check_fit_first(cfg, lambda nsteps: cfg.stride, lambda t: _window_indices(t, window))
    rows = []
    for idx, (sigma, tau, eps) in enumerate(cfg.parameter_grid()):
        space, z0, dt = cfg.point(sigma, tau, eps)
        with cfgmod.section("integrator"):
            traj = evolve(space, z0, dt, cfg.horizon, store_stride=cfg.stride)
        with cfgmod.section("fit"):
            fit = fit_decay_rate(traj.times, traj.total_energy, window)
            ineq = check_differential_inequalities(traj, window)
        rows.append((sigma, tau, eps, cfg.order, fit.rate, fit.prefactor,
                     ineq.lambda_hat, ineq.d0_hat, ineq.residual, fit.r_squared))
        manifest.step(f"decay[{idx}]", "ok",
                      f"tau={tau} rate={fit.rate:.6g} d0={ineq.d0_hat:.6g} dt={dt} "
                      f"{_policy_note(space)}")
        epath = cfgmod.write_csv(out_dir / f"energy_{idx}.csv", ["t", "energy"],
                                 zip(traj.times, traj.total_energy))
        manifest.output(epath)
        print(f"decay: sigma={sigma} tau={tau} eps={eps} -> rate {fit.rate:.6g} "
              f"(R^2 {fit.r_squared:.4f}), d0 {ineq.d0_hat:.4g}, "
              f"lambda {ineq.lambda_hat:.4g}")
    path = cfgmod.write_csv(out_dir / "decay.csv",
                            ["sigma", "tau", "eps", "order", "rate", "prefactor",
                             "lambda_hat", "d0_hat", "residual", "r_squared"], rows)
    manifest.output(path)


def _cmd_limit_sweep(cfg, manifest, out_dir) -> None:
    from . import config as cfgmod
    from .limits import (_comparison_stride, _tail_start, compare_trajectories,
                         fit_limit_constants, history_envelopes)

    _check_fit_first(cfg, _comparison_stride, lambda t: _tail_start(t, cfg.sweep_t0))
    points = []
    grid = cfg.parameter_grid()
    for idx, (sigma, tau, eps) in enumerate(grid):
        space, z0, dt = cfg.point(sigma, tau, eps)
        with cfgmod.section("integrator"):
            comp = compare_trajectories(space, z0, dt, cfg.horizon, t0=cfg.sweep_t0)
        points.append(comp)
        with cfgmod.section("fit"):
            sup_d = comp.sup_distance
        manifest.step(f"compare[{idx}]", "ok",
                      f"sigma={sigma} tau={tau} eps={eps} dt={dt} "
                      f"supD={sup_d:.6g} {_policy_note(space)}")
        if cfg.with_history:
            env = history_envelopes(comp)
            held = min(env.eta_margin, env.xi_margin) >= ENVELOPE_FLOOR
            manifest.step(f"envelope[{idx}]", "ok" if held else "failed",
                          f"k_eta={env.k_eta:.6g} k_xi={env.k_xi:.6g} "
                          f"eta_margin={env.eta_margin:.3e} xi_margin={env.xi_margin:.3e}")
    fits = fit_limit_constants(points)
    rows = []
    for comp, k_row, q_row in zip(points, fits["k_hat_rows"], fits["q_hat"]):
        p = comp.space.params
        rows.append((p.sigma, p.tau, p.eps, comp.order, comp.t0, comp.sup_distance,
                     comp.sup_upsilon_tail(), comp.pi_flat, comp.pi_sharp, k_row, q_row))
    path = cfgmod.write_csv(out_dir / "sweep.csv",
                            ["sigma", "tau", "eps", "order", "t0", "sup_distance",
                             "upsilon_t0", "pi_flat", "pi_sharp", "k_hat", "q_hat"],
                            rows)
    manifest.output(path)
    manifest.step("fit", "ok", f"k_hat_global={fits['k_hat']:.6g}")
    print(f"limit-sweep: {len(points)} points, shared quarter-power constant "
          f"{fits['k_hat']:.6g}")


def _cmd_pruss_scan(cfg, manifest, out_dir) -> None:
    import numpy as np
    from . import config as cfgmod
    from .probe import HALVING_BAND, admissibility_report, residual_check, resolvent_scan

    ap = cfg.probe_params()
    report = admissibility_report(ap)
    for condition, margin, passed in report.rows():
        manifest.step(f"admissibility.{condition}", "ok" if passed else "failed",
                      f"margin={margin:.6g}")
    with cfgmod.section("probe"):
        scan = resolvent_scan(ap, cfg.probe_gammas())
        residuals = [residual_check(ap, float(g), cfg.residual_size) for g in scan.gammas]
    rows = [(g, l, zn, zt, rt, qr, res.residual) for (g, l, zn, zt, rt, qr), res
            in zip(scan.rows(), residuals)]
    path = cfgmod.write_csv(out_dir / "scan.csv",
                            ["gamma", "lam", "z_norm", "z_tilde_norm", "ratio",
                             "quartic_residual", "discrete_residual"], rows)
    manifest.output(path)

    with cfgmod.section("probe"):
        fine = residual_check(ap, cfg.residual_gamma, 2 * cfg.residual_size)
        coarse = residual_check(ap, cfg.residual_gamma, cfg.residual_size)
    # phase advance per uniform cell; above 1 the cells do not resolve the
    # probe's oscillation
    lam_h = [res.lam * res.cutoff / res.grid_size for res in residuals]
    manifest.step("residual-span", "ok",
                  f"cutoff={coarse.cutoff:.6g} truncated mass thermal="
                  f"{coarse.tail_thermal:.3e} shear={coarse.tail_shear:.3e}; scan "
                  f"max_lam_h={max(lam_h):.6g}, {sum(x > 1.0 for x in lam_h)} of "
                  f"{len(lam_h)} scales with lam_h > 1")
    halving = coarse.residual / fine.residual
    lo, hi = HALVING_BAND
    manifest.step("residual-halving", "ok" if lo <= halving <= hi else "failed",
                  f"M={cfg.residual_size}: {coarse.residual:.6g}, "
                  f"2M: {fine.residual:.6g}, ratio {halving:.3f}")

    slopes = [("z_norm", scan.slope_z, scan.half_z)]
    if ap.with_shear:
        slopes.append(("gamma_lam", scan.slope_gamma_lam, scan.half_gamma_lam))
    for label, slope, half in slopes:
        print(f"pruss-scan: log-log slope of {label} = {slope:.4f} +/- {half:.4f} (95%)")
        manifest.step(f"slope.{label}", "ok", f"{slope:.6f} +/- {half:.6f}")
    print(f"pruss-scan: ratio decreasing = {scan.ratio_decreasing}, "
          f"max quartic residual {np.max(scan.quartic_residual):.3e}")


COMMANDS = {
    "simulate": _cmd_simulate,
    "decay": _cmd_decay,
    "limit-sweep": _cmd_limit_sweep,
    "pruss-scan": _cmd_pruss_scan,
    "kernel-check": _cmd_kernel_check,
}


if __name__ == "__main__":
    sys.exit(main())
