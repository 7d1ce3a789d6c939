"""Command-line entry: exit codes, artifacts, determinism."""
import ast
import json
import os

import numpy as np
import pytest

from memoplate import ctransport
from memoplate.cli import main
from memoplate.dynamics import MidpointStepper

SMALL = """
[domain]
modes = 3

[parameters]
sigma = 0.5
tau = 0.25
eps = 0.5

[integrator]
horizon = 2
grid_size = 80

[fit]
window_lo = 0.5
window_hi = 1.8
"""


@pytest.fixture()
def small_ini(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(SMALL)
    return str(p)


# appended to a rejected value whose command must step first: a short run
FAST = "\n\n[integrator]\nhorizon = 0.5\ngrid_size = 60\n\n[domain]\nmodes = 2"


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def test_kernel_check_defaults(tmp_path):
    out = str(tmp_path / "kc")
    assert main(["kernel-check", "--out", out]) == 0
    man = read_manifest(out)
    assert any(s["status"] == "ok" for s in man["steps"])
    with open(os.path.join(out, "kernel_check.csv")) as fh:
        header = fh.readline().strip()
    assert header == "condition,margin,passed"


def test_kernel_check_failure_exits_3(tmp_path):
    ini = tmp_path / "strict.ini"
    ini.write_text("[kernels]\ncheck_bound = 5.0\n")
    out = str(tmp_path / "kc")
    assert main(["kernel-check", "--config", str(ini), "--out", out]) == 3
    # manifest still written, with the failure recorded
    man = read_manifest(out)
    assert any(s["status"] == "failed" for s in man["steps"])
    assert os.path.exists(os.path.join(out, "kernel_check.csv"))


def test_config_error_exits_2(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[bogus]\nx = 1\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert main(["simulate", "--preset", "no-such"]) == 2


def test_out_of_range_parameter_exits_2(tmp_path, capsys):
    ini = tmp_path / "range.ini"
    ini.write_text("[parameters]\nsigma = 2\n")
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", str(ini), "--out", out]) == 2
    assert "config error: [parameters] sigma must lie in [0,1]" in capsys.readouterr().err
    steps = {s["name"]: s for s in read_manifest(out)["steps"]}
    assert steps["simulate"]["status"] == "failed"


@pytest.mark.parametrize("command, section, text", [
    ("simulate", "domain", "modes = 0"),
    ("simulate", "integrator", "weight_policy = bogus"),
    ("simulate", "integrator", "grid_size = 4"),
    ("simulate", "integrator", "ratio = 0.5"),
    ("simulate", "initial", "preset = bogus"),
    ("simulate", "kernels", "scalar_rate = 0"),
    ("simulate", "kernels", "mu_singularity = 1"),
    ("simulate", "integrator", "dt = -1"),
    ("simulate", "integrator", "stride = 0"),
    ("simulate", "integrator", "horizon = 0"),
    ("pruss-scan", "probe", "alpha = 3"),
    ("pruss-scan", "probe", "residual_size = 4"),
    ("simulate", "integrator", "tail = 0"),
    ("simulate", "integrator", "tail = 2"),
    ("kernel-check", "integrator", "tail = 0"),
    pytest.param("limit-sweep", "fit", "t0 = -1" + FAST, id="limit-sweep-fit-t0 = -1"),
    pytest.param("limit-sweep", "fit", "t0 = 5" + FAST, id="limit-sweep-fit-t0 = 5"),
    pytest.param("decay", "fit", "window_lo = 1.5\nwindow_hi = 0.5" + FAST,
                 id="decay-fit-reversed window"),
    ("pruss-scan", "probe", "gamma_count = 2"),
    pytest.param("pruss-scan", "probe", "gamma_lo = 2\ngamma_hi = 2",
                 id="pruss-scan-equal scales"),
    pytest.param("pruss-scan", "probe", "gamma_lo = 4\ngamma_hi = 1",
                 id="pruss-scan-decreasing scales"),
    # numbers that parse but are not finite, and a finite pair whose step
    # count is not
    ("simulate", "integrator", "dt = nan"),
    ("simulate", "integrator", "horizon = inf"),
    pytest.param("simulate", "integrator", "horizon = 1e308\ndt = 1e-308",
                 id="simulate-integrator-step count overflows"),
    # 10^12 steps at dt = 0.001: the per-step energy record alone exceeds
    # physical memory, so the run stops before allocating it
    ("simulate", "integrator", "horizon = 1e9"),
    ("decay", "integrator", "horizon = 1e9"),
    ("simulate", "integrator", "ratio = nan"),
    ("simulate", "kernels", "mu_decay = inf"),
    ("simulate", "kernels", "mu_amplitude = inf"),
    ("simulate", "domain", "lengths = nan"),
    ("pruss-scan", "probe", "gamma_lo = nan"),
    ("pruss-scan", "probe", "residual_gamma = inf"),
    ("kernel-check", "kernels", "check_bound = nan"),
])
def test_rejected_value_exits_2(tmp_path, capsys, command, section, text):
    # a value the library rejects is a configuration error naming its section
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{text}\n")
    out = str(tmp_path / "o")
    assert main([command, "--config", str(ini), "--out", out]) == 2
    assert f"config error: [{section}] " in capsys.readouterr().err
    steps = {s["name"]: s for s in read_manifest(out)["steps"]}
    assert steps[command]["status"] == "failed"


def test_non_utf8_config_exits_2(tmp_path, capsys):
    ini = tmp_path / "latin1.ini"
    ini.write_bytes(b"[integrator]\nhorizon = 1 \xff\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    assert "config error: cannot parse" in capsys.readouterr().err


@pytest.mark.parametrize("command, preset, text", [
    ("decay", "thm-edec", "window_lo = 15\nwindow_hi = 1"),
    ("limit-sweep", "thm-gp1", "t0 = -1"),
])
def test_fit_is_checked_before_stepping(tmp_path, monkeypatch, command, preset, text):
    # every grid point's [fit] values are checked on its sample times before
    # the first point is stepped
    calls = []
    step = MidpointStepper.step
    monkeypatch.setattr(MidpointStepper, "step",
                        lambda self, *state: calls.append(1) or step(self, *state))
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[fit]\n{text}\n")
    out = str(tmp_path / "o")
    assert main([command, "--preset", preset, "--config", str(ini), "--out", out]) == 2
    assert calls == []


def test_singular_kernel_needs_only_its_singularity(tmp_path):
    # a kernel's shape is its singularity: no other key has to agree with it
    ini = tmp_path / "sing.ini"
    ini.write_text("[kernels]\nmu_singularity = 0.3\n")
    out = str(tmp_path / "sing")
    assert main(["simulate", "--config", str(ini), "--out", out]) == 0
    steps = {s["name"]: s for s in read_manifest(out)["steps"]}
    assert " policy mu=mass nu=none beta=decay_consistent" in steps["evolve"]["detail"]


def test_simulate_writes_trajectory(small_ini, tmp_path):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", small_ini, "--out", out]) == 0
    with open(os.path.join(out, "trajectory.csv")) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert header == "t,mode,u,v,theta,eta_norm,xi_norm,modal_energy"
    assert len(first) == 8
    man = read_manifest(out)
    assert man["outputs"] and man["wall_time_s"] is not None
    assert man["versions"]["transport"] == ctransport.kernel()[1]


@pytest.mark.parametrize("command, step", [("decay", "decay[0]"),
                                           ("limit-sweep", "compare[0]")])
def test_stepping_steps_report_max_step_increase(small_ini, tmp_path, command, step):
    # the same per-step figure as simulate's energy-monotone step, over
    # every step, not the stored ones only
    out = str(tmp_path / "run")
    assert main([command, "--config", small_ini, "--out", out]) == 0
    man = read_manifest(out)
    detail = {s["name"]: s["detail"] for s in man["steps"]}[step]
    value = float(detail.split("max_step_increase=")[1].split()[0])
    assert value <= 1e-12
    assert man["versions"]["transport"] == ctransport.kernel()[1]


def test_decay_rows_and_energy_files(small_ini, tmp_path):
    out = str(tmp_path / "dec")
    assert main(["decay", "--config", small_ini, "--out", out]) == 0
    with open(os.path.join(out, "decay.csv")) as fh:
        header = fh.readline().strip()
        rows = fh.read().strip().split("\n")
    assert header == "sigma,tau,eps,order,rate,prefactor,lambda_hat,d0_hat,residual,r_squared"
    assert len(rows) == 1
    assert os.path.exists(os.path.join(out, "energy_0.csv"))


def test_decay_without_positive_d0_exits_3(tmp_path):
    # on an interval of length 10 no energy multiple of the ladder gives
    # dF2/dt <= -d0 F2 with d0 > 0, and the step says so
    ini = tmp_path / "long.ini"
    ini.write_text("[domain]\nlengths = 10\nmodes = 4\n\n[parameters]\nsigma = 0.5\n"
                   "tau = 0.5\neps = 0.5\n\n[integrator]\ngrid_size = 120\nhorizon = 16\n"
                   "\n[fit]\nwindow_lo = 1\nwindow_hi = 15\n")
    out = str(tmp_path / "long")
    assert main(["decay", "--config", str(ini), "--out", out]) == 3
    assert os.path.exists(os.path.join(out, "decay.csv"))
    step = {s["name"]: s for s in read_manifest(out)["steps"]}["decay[0]"]
    assert step["status"] == "failed"
    assert "d0=-" in step["detail"] and step["detail"].endswith("no scale gave d0 > 0")


def test_manifest_reports_weight_policies(tmp_path):
    # at sigma = eps = 0.5 and tau > 0 the shared eta grid spans nu's cutoff
    # (decay 1), and its ratio drops until the faster mu (decay 2) is resolved
    # too, so under "auto" both kernels get decay-consistent weights
    ini = tmp_path / "policy.ini"
    ini.write_text("[domain]\nmodes = 2\n\n[parameters]\nsigma = 0.5\ntau = 0, 0.25\n"
                   "eps = 0.5\n\n[integrator]\ndt = 0.01\nhorizon = 0.1\n"
                   "stride = 1\ngrid_size = 400\n\n[fit]\nwindow_lo = 0.02\nwindow_hi = 0.1\n")
    out = str(tmp_path / "policy")
    assert main(["decay", "--config", str(ini), "--out", out]) == 0
    steps = {s["name"]: s["detail"] for s in read_manifest(out)["steps"]}
    assert steps["decay[0]"].endswith(
        "dt=0.01 policy mu=decay_consistent nu=none beta=decay_consistent")
    assert steps["decay[1]"].endswith(
        "dt=0.01 policy mu=decay_consistent nu=decay_consistent beta=decay_consistent")


def test_limit_sweep_csv(small_ini, tmp_path):
    out = str(tmp_path / "lim")
    assert main(["limit-sweep", "--config", small_ini, "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as fh:
        header = fh.readline().strip()
    assert header == "sigma,tau,eps,order,t0,sup_distance,upsilon_t0,pi_flat,pi_sharp,k_hat,q_hat"


def test_pruss_scan_preset(tmp_path):
    out = str(tmp_path / "a2")
    assert main(["pruss-scan", "--preset", "thm-a2", "--out", out]) == 0
    with open(os.path.join(out, "scan.csv")) as fh:
        header = fh.readline().strip()
        n_rows = sum(1 for _ in fh)
    assert header == "gamma,lam,z_norm,z_tilde_norm,ratio,quartic_residual,discrete_residual"
    assert n_rows == 20
    man = read_manifest(out)
    assert any(s["name"].startswith("slope.") for s in man["steps"])
    steps = {s["name"]: s for s in man["steps"]}
    assert steps["residual-halving"]["status"] == "ok"
    span = steps["residual-span"]
    assert span["status"] == "ok" and "truncated mass" in span["detail"]
    # the scan's uniform cells leave most scales unresolved, and say so
    assert "18 of 20 scales with lam_h > 1" in span["detail"]
    max_lam_h = float(span["detail"].split("max_lam_h=")[1].split(",")[0])
    assert 600.0 < max_lam_h < 700.0
    # the scan steps nothing, so it names no transport path
    assert "transport" not in man["versions"]


@pytest.mark.parametrize("preset", ["thm-a2", "thm-a3"])
def test_pruss_scan_builds_one_pair_per_scale(tmp_path, monkeypatch, preset):
    # 20 scan scales and the halving scale; every residual reuses its pair
    from memoplate import probe
    built = []
    build = probe.build_probe_pair

    def counted(ap, gamma):
        built.append(gamma)
        return build(ap, gamma)

    monkeypatch.setattr(probe, "build_probe_pair", counted)
    assert main(["pruss-scan", "--preset", preset, "--out", str(tmp_path / "p")]) == 0
    assert len(built) == 21 and len(set(built)) == 20


def test_two_scale_scan_fails_typed(tmp_path):
    # two scales fit a slope exactly and leave nothing to bound its error
    ini = tmp_path / "two.ini"
    ini.write_text("[probe]\ngamma_count = 2\n")
    out = str(tmp_path / "two")
    assert main(["pruss-scan", "--preset", "thm-a2", "--config", str(ini),
                 "--out", out]) == 2
    steps = {s["name"]: s for s in read_manifest(out)["steps"]}
    assert steps["pruss-scan"]["status"] == "failed"
    assert "three scales" in steps["pruss-scan"]["detail"]


def test_failed_halving_exits_3(tmp_path, monkeypatch):
    monkeypatch.setattr("memoplate.probe.HALVING_BAND", (10.0, 20.0))
    out = str(tmp_path / "a2")
    assert main(["pruss-scan", "--preset", "thm-a2", "--out", out]) == 3
    assert os.path.exists(os.path.join(out, "scan.csv"))
    steps = {s["name"]: s for s in read_manifest(out)["steps"]}
    assert steps["residual-halving"]["status"] == "failed"


def test_failed_envelope_exits_3(tmp_path):
    # one point with nonzero histories, stopped long before the memory-fed
    # plateau the envelope fit needs
    ini = tmp_path / "env.ini"
    ini.write_text("[domain]\nmodes = 2\n\n[parameters]\nsigma = 0.25\ntau = 0.25\n"
                   "eps = 0.25\n\n[integrator]\ndt = 0.01\nhorizon = 1\ngrid_size = 40\n"
                   "\n[initial]\nwith_history = true\n")
    out = str(tmp_path / "env")
    assert main(["limit-sweep", "--config", str(ini), "--out", out]) == 3
    assert os.path.exists(os.path.join(out, "sweep.csv"))
    steps = {s["name"]: s for s in read_manifest(out)["steps"]}
    assert steps["envelope[0]"]["status"] == "failed"
    detail = steps["envelope[0]"]["detail"]
    assert "xi_margin=-" in detail
    # the late half is named apart, so a reader matching "xi_margin=" at a
    # token's start still finds the whole-run margin
    keys = [part.split("=")[0] for part in detail.split()]
    assert keys == ["k_eta", "k_xi", "eta_margin", "xi_margin", "late_eta_margin",
                    "late_xi_margin"]


def test_csv_bit_identical_across_runs(small_ini, tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["decay", "--config", small_ini, "--out", out1]) == 0
    assert main(["decay", "--config", small_ini, "--out", out2]) == 0
    for name in ("decay.csv", "energy_0.csv"):
        with open(os.path.join(out1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2


@pytest.mark.parametrize("command, name", [("simulate", "trajectory.csv"),
                                           ("limit-sweep", "sweep.csv")])
def test_stepping_csv_bit_identical_across_runs(small_ini, tmp_path, command, name):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main([command, "--config", small_ini, "--out", out1]) == 0
    assert main([command, "--config", small_ini, "--out", out2]) == 0
    with open(os.path.join(out1, name), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(out2, name), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_trajectory_rows_hold_each_sample_and_mode(tmp_path):
    # recomputed from the Trajectory, apart from the writer: row k * modes + i
    # is sample k of mode i, each float cell as format(x, ".17g")
    from memoplate.config import default_config, load_config
    from memoplate.dynamics import evolve

    ini = tmp_path / "traj.ini"
    ini.write_text("[domain]\nmodes = 3\n\n[integrator]\ndt = 0.01\nhorizon = 0.2\n"
                   "stride = 3\ngrid_size = 40\n")
    out = str(tmp_path / "traj")
    assert main(["simulate", "--config", str(ini), "--out", out]) == 0
    cfg = load_config(str(ini), default_config())
    space, z0, dt = cfg.point(*cfg.parameter_grid()[0])
    traj = evolve(space, z0, dt, cfg.horizon, store_stride=cfg.stride)
    he = traj.history_energy
    per_mode = (traj.u, traj.v, traj.theta, np.sqrt(he[0] + he[1]), np.sqrt(he[2]),
                traj.modal_energy)
    with open(os.path.join(out, "trajectory.csv")) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    modes = space.modes.count
    assert len(rows) == traj.times.size * modes == 8 * 3
    for r, row in enumerate(rows):
        k, i = divmod(r, modes)
        assert row[:2] == [format(traj.times[k], ".17g"), str(i)]
        assert row[2:] == [format(x[i, k], ".17g") for x in per_mode]


def test_emit_plots_flag(tmp_path):
    ini = tmp_path / "p.ini"
    ini.write_text("[domain]\nmodes = 2\n\n[integrator]\nhorizon = 1\ngrid_size = 60\n"
                   "\n[output]\nemit_plots = true\n")
    out = str(tmp_path / "pl")
    assert main(["simulate", "--config", str(ini), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "plot_energy.py"))


PLOTTED = """
[domain]
modes = 2

[integrator]
dt = 0.01
horizon = 1
stride = 1
grid_size = 40

[fit]
window_lo = 0.2
window_hi = 1

[output]
emit_plots = true
"""


@pytest.mark.parametrize("command", ["simulate", "decay", "limit-sweep", "pruss-scan"])
def test_plot_scripts_read_their_csv(tmp_path, command):
    # matplotlib need not be installed: each script must compile, and every
    # column it reads must be in the header of the CSV it opens
    ini = tmp_path / "plots.ini"
    ini.write_text(PLOTTED)
    out = tmp_path / "pl"
    assert main([command, "--config", str(ini), "--out", str(out)]) == 0
    scripts = sorted(out.glob("plot_*.py"))
    assert scripts
    for script in scripts:
        source = script.read_text()
        compile(source, str(script), "exec")
        tree = ast.parse(source)
        strings = [n.value for n in ast.walk(tree)
                   if isinstance(n, ast.Constant) and isinstance(n.value, str)]
        csv_name, = [s for s in strings if s.endswith(".csv")]
        columns = {n.slice.value for n in ast.walk(tree) if isinstance(n, ast.Subscript)
                   and isinstance(n.slice, ast.Constant) and isinstance(n.slice.value, str)}
        with open(out / csv_name) as fh:
            header = fh.readline().strip().split(",")
        assert columns and columns <= set(header), (script.name, columns, header)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["qux"])
