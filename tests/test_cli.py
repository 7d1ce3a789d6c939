"""Command-line entry: exit codes, artifacts, determinism, thread plumbing."""
import json
import os

import pytest

from memoplate.cli import THREAD_ENV_VAR, main

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


def test_decay_rows_and_energy_files(small_ini, tmp_path):
    out = str(tmp_path / "dec")
    assert main(["decay", "--config", small_ini, "--out", out]) == 0
    with open(os.path.join(out, "decay.csv")) as fh:
        header = fh.readline().strip()
        rows = fh.read().strip().split("\n")
    assert header == "sigma,tau,eps,order,rate,prefactor,lambda_hat,d0_hat,residual,r_squared"
    assert len(rows) == 1
    assert os.path.exists(os.path.join(out, "energy_0.csv"))


def test_manifest_reports_weight_policies(tmp_path):
    # at sigma = eps = 0.5 and tau > 0 the shared eta grid spans nu's cutoff
    # (decay 1) and is too coarse for mu (decay 2), so under "auto" mu gets
    # mass weights; without nu the grid spans mu's own cutoff and mu gets
    # decay-consistent ones
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
        "dt=0.01 policy mu=mass nu=decay_consistent beta=decay_consistent")


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


def test_two_scale_scan_fails_typed(tmp_path):
    # two scales fit a slope exactly and leave nothing to bound its error
    ini = tmp_path / "two.ini"
    ini.write_text("[probe]\ngamma_count = 2\n")
    out = str(tmp_path / "two")
    assert main(["pruss-scan", "--preset", "thm-a2", "--config", str(ini),
                 "--out", out]) == 3
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
    assert "xi_margin=-" in steps["envelope[0]"]["detail"]


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


def test_emit_plots_flag(tmp_path):
    ini = tmp_path / "p.ini"
    ini.write_text("[domain]\nmodes = 2\n\n[integrator]\nhorizon = 1\ngrid_size = 60\n"
                   "\n[output]\nemit_plots = true\n")
    out = str(tmp_path / "pl")
    assert main(["simulate", "--config", str(ini), "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "plot_energy.py"))


def test_thread_override(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", THREAD_ENV_VAR):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv(THREAD_ENV_VAR, "2")
    out = str(tmp_path / "kc")
    assert main(["kernel-check", "--out", out]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    # explicit flag beats the environment
    monkeypatch.setenv(THREAD_ENV_VAR, "4")
    assert main(["kernel-check", "--out", out, "--threads", "3"]) == 0
    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_thread_cap_after_numpy_warns(tmp_path, monkeypatch, capsys):
    import numpy  # noqa: F401  (loaded before main, as in any test process)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", THREAD_ENV_VAR):
        monkeypatch.delenv(var, raising=False)
    out = str(tmp_path / "kc")
    assert main(["kernel-check", "--out", out]) == 0
    assert "warning" not in capsys.readouterr().err
    assert main(["kernel-check", "--out", out, "--threads", "1"]) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("warning: thread cap 1 ")
    monkeypatch.setenv(THREAD_ENV_VAR, "1")
    assert main(["kernel-check", "--out", out]) == 0
    assert "warning: thread cap 1 " in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["qux"])
