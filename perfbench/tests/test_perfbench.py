"""The benchmark's own tests: tiny workloads pass their output checks, each
check rejects a corrupted output, and run.py's result and failure modes
follow BENCHMARK.json.

Run from the repository root: python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from memoplate import cli  # noqa: E402


def _produce(name: str, base: Path):
    """(workload, [(call, output dir)]) after one tiny round run in-process."""
    workload = workloads.build(name, tiny=True)
    outputs = []
    for call in workload.calls:
        ini = base / f"{call.tag}.ini"
        ini.write_text(call.ini_text())
        out = base / call.tag
        assert cli.main(call.argv(ini, out)) == 0
        outputs.append((call, out))
    return workload, outputs


@pytest.fixture(scope="module", params=workloads.NAMES)
def produced(request, tmp_path_factory):
    return _produce(request.param, tmp_path_factory.mktemp(request.param))


def _copy(outputs, tmp_path):
    call, out = outputs[0]
    dest = tmp_path / "copy"
    shutil.copytree(out, dest)
    return call, dest


def _edit_csv(path: Path, row: int, column: str, value) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = repr(float(value))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _cell(path: Path, row: int, column: str) -> float:
    lines = path.read_text().splitlines()
    return float(lines[row + 1].split(",")[lines[0].split(",").index(column)])


def test_tiny_workload_outputs_pass(produced):
    workload, outputs = produced
    verdicts = [v for call, out in outputs for v in workloads.check(call, out)]
    assert verdicts == [None] * (workload.operations // workload.repeats)


def test_checks_reject_corrupted_output(produced, tmp_path):
    workload, outputs = produced
    call, out = _copy(outputs, tmp_path)
    if workload.name == "edec-decay":
        # one energy sample of the second point rises above its predecessor
        path = out / "energy_1.csv"
        _edit_csv(path, 5, "energy", _cell(path, 4, "energy") * (1 + 1e-9))
        bad = 1
    elif workload.name == "wide-simulate":
        # the lowest mode's energy at a late sample lifts the summed energy
        path = out / "trajectory.csv"
        row = 10 * int(call.ini["domain"]["modes"])
        _edit_csv(path, row, "modal_energy", _cell(path, row, "modal_energy") * 1.01)
        bad = 0
    elif workload.name == "gp1-sweep":
        # sup_distance of the second and third diagonal points swapped
        path = out / "sweep.csv"
        first, second = _cell(path, 1, "sup_distance"), _cell(path, 2, "sup_distance")
        _edit_csv(path, 1, "sup_distance", second)
        _edit_csv(path, 2, "sup_distance", first)
        bad = 2
    else:
        # one probe frequency off the quartic by a relative 1e-6
        path = out / "scan.csv"
        _edit_csv(path, 3, "lam", _cell(path, 3, "lam") * (1 + 1e-6))
        bad = 0
    verdicts = workloads.check(call, out)
    assert [k for k, v in enumerate(verdicts) if v is not None] == [bad], verdicts


def test_initial_energy_check_uses_closed_form(tmp_path):
    _, outputs = _produce("edec-decay", tmp_path)
    call, out = _copy(outputs, tmp_path)
    path = out / "energy_0.csv"
    _edit_csv(path, 0, "energy", _cell(path, 0, "energy") * (1 + 1e-9))
    assert workloads.check(call, out)[0].startswith("initial energy")


def test_rectangle_spectrum_is_sorted_and_complete():
    domain = {"kind": "rectangle", "lengths": "1, 2"}
    brute = sorted((j * 3.141592653589793) ** 2 + (k * 3.141592653589793 / 2) ** 2
                   for j in range(1, 60) for k in range(1, 60))
    assert workloads.spectrum(domain, 50) == pytest.approx(brute[:50], rel=1e-15)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_reports_every_layer_metric():
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", "1",
                  "--tiny")
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    for name, res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == set(tracing.UNITS)
    layer = {name: {k: m["value"] for k, m in res["metrics"].items()}
             for name, res in results.items()}
    assert layer["edec-decay"]["dynamics.transport_solves_per_step"] == 2.0
    assert layer["wide-simulate"]["dynamics.transport_solves_per_step"] == 2.0
    assert layer["gp1-sweep"]["dynamics.transport_solves_per_step"] == 4.0
    assert layer["probe-scan"]["probe.residual_calls"] == 2 * 2 * (8 + 2)


def test_untraced_run_reports_end_to_end_metrics():
    proc = _bench("--workload", "probe-scan", "--seed", "1", "--seconds", "0",
                  "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and (res["attempted"], res["failed"]) == (4, 0)
    assert {k: m["unit"] for k, m in res["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".runs"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "edec-decay", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
