"""Configuration parsing, presets, manifest plumbing, CSV formatting."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from memoplate import config
from memoplate.errors import ConfigError
from memoplate.config import (
    ExperimentConfig, Manifest, default_config, emit_plots, format_cell,
    load_config, preset, write_csv,
)


def test_default_config_roundtrip():
    cfg = default_config()
    assert cfg.mode_count == 8
    assert cfg.horizon == pytest.approx(20.0)
    assert cfg.weight_policy == "auto"
    assert cfg.domain().kind == "interval"


def test_presets_exist():
    for name in ("thm-edec", "thm-gp1", "thm-gp2", "thm-a2", "thm-a3", "oracle-crosscheck"):
        cfg = preset(name)
        assert isinstance(cfg, ExperimentConfig)
    with pytest.raises(ConfigError):
        preset("thm-gp3")


def test_preset_values_pinned():
    edec = preset("thm-edec")
    assert edec.mode_count == 16
    grid = edec.parameter_grid()
    assert [row[1] for row in grid] == [0.0, 0.25, 0.5, 1.0]
    assert all(row[0] == 0.5 and row[2] == 0.5 for row in grid)

    gp2 = preset("thm-gp2")
    grid2 = gp2.parameter_grid()
    assert len(grid2) == 25
    assert all(t == 0.0 for (_, t, _) in grid2)
    vals = sorted({s for (s, _, _) in grid2}, reverse=True)
    assert vals == [2.0 ** -k for k in range(2, 7)]

    gp1 = preset("thm-gp1")
    grid1 = gp1.parameter_grid()
    assert len(grid1) == 5
    assert all(s == t == e for (s, t, e) in grid1)
    assert gp1.with_history

    a2 = preset("thm-a2")
    ap = a2.probe_params()
    assert ap.alpha == 1.0 and ap.coupling == 1.0 and ap.omega1 == 0.25
    assert not ap.with_shear


def test_load_config_merges_and_validates(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[domain]\nmodes = 3\n\n[integrator]\nhorizon = 2.5\n")
    cfg = load_config(str(path))
    assert cfg.mode_count == 3
    assert cfg.horizon == pytest.approx(2.5)
    assert cfg.grid_size == 400  # untouched default

    bad = tmp_path / "bad.ini"
    bad.write_text("[domain]\nmodez = 3\n")
    with pytest.raises(ConfigError, match="domain"):
        load_config(str(bad))
    bad2 = tmp_path / "bad2.ini"
    bad2.write_text("[nope]\nx = 1\n")
    with pytest.raises(ConfigError, match="nope"):
        load_config(str(bad2))


def test_default_section_rejected(tmp_path):
    # configparser would copy [DEFAULT] keys into every section, or drop them
    # when the file has no other section
    alone = tmp_path / "alone.ini"
    alone.write_text("[DEFAULT]\nmodes = 3\n")
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        load_config(str(alone))
    mixed = tmp_path / "mixed.ini"
    mixed.write_text("[DEFAULT]\ndt = 0.01\n\n[domain]\nmodes = 3\n")
    with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
        load_config(str(mixed))


def test_readme_ini_blocks_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert blocks
    for k, block in enumerate(blocks):
        path = tmp_path / f"readme{k}.ini"
        path.write_text(block)
        load_config(str(path))


def test_typed_accessor_errors(tmp_path):
    path = tmp_path / "t.ini"
    path.write_text("[integrator]\nhorizon = soon\n")
    cfg = load_config(str(path))
    with pytest.raises(ConfigError, match=r"\[integrator\] horizon"):
        cfg.horizon
    # values the model rejects are configuration errors naming their section
    path.write_text("[domain]\nkind = disk\n\n[parameters]\ntau = 0, 1.5\n\n"
                    "[kernels]\nmu_decay = -1\n")
    cfg = load_config(str(path))
    with pytest.raises(ConfigError, match=r"\[domain\] unsupported domain kind"):
        cfg.domain()
    with pytest.raises(ConfigError, match=r"\[parameters\] tau must lie in \[0,1\]"):
        cfg.parameter_grid()
    with pytest.raises(ConfigError, match=r"\[kernels\] mu: decay must be positive"):
        cfg.base_mu()


def test_parameter_grid_shapes(tmp_path):
    path = tmp_path / "g.ini"
    path.write_text("[parameters]\nsigma = 0.5, 0.25\ntau = 0\neps = 0.5, 0.25\ngrid = product\n")
    cfg = load_config(str(path))
    assert len(cfg.parameter_grid()) == 4
    path2 = tmp_path / "d.ini"
    path2.write_text("[parameters]\nsigma = 0.5, 0.25\ntau = 0\neps = 0.5, 0.25\ngrid = diagonal\n")
    cfg2 = load_config(str(path2))
    grid = cfg2.parameter_grid()  # singleton tau broadcasts
    assert grid == [(0.5, 0.0, 0.5), (0.25, 0.0, 0.25)]
    path3 = tmp_path / "m.ini"
    path3.write_text("[parameters]\nsigma = 0.5, 0.25, 0.1\ntau = 0\neps = 0.5, 0.25\ngrid = diagonal\n")
    with pytest.raises(ConfigError):
        load_config(str(path3)).parameter_grid()


def test_dt_auto_honors_relaxation_scales(tmp_path):
    path = tmp_path / "auto.ini"
    path.write_text("[integrator]\ndt = auto\n")
    cfg = load_config(str(path))
    assert cfg.dt_for(0.5, 0.0, 0.5) == pytest.approx(1e-3)
    assert cfg.dt_for(0.01, 0.0, 0.5) == pytest.approx(0.01 / 20)
    # explicit dt wins over the relaxation scales
    assert default_config().dt_for(0.01, 0.0, 0.5) == pytest.approx(1e-3)


def test_config_hash_stable_and_sensitive():
    a, b = default_config(), default_config()
    assert a.config_hash() == b.config_hash()
    c = preset("thm-edec")
    assert c.config_hash() != a.config_hash()


def test_format_cell():
    assert format_cell(True) == "true"
    assert format_cell(3) == "3"
    assert format_cell(0.5) == "0.5"
    assert len(format_cell(np.pi)) >= 17
    assert format_cell("x") == "x"


def test_write_csv_deterministic(tmp_path):
    rows = [[1.0 / 3.0, 7, "a"], [2.0, -1, "b"]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), ["x", "n", "s"], rows)
    write_csv(str(p2), ["x", "n", "s"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "x,n,s"
    assert len(lines) == 3


def _joined_cell_by_cell(header, rows):
    # reference: every cell through format_cell, joined row by row
    return "\n".join([",".join(header)]
                     + [",".join(format_cell(cell) for cell in row) for row in rows]) + "\n"


@pytest.mark.parametrize("block_rows", [None, 2])
def test_write_csv_matches_cell_by_cell_join(tmp_path, monkeypatch, block_rows):
    # at 2 rows per block, columns change type from one block to the next
    if block_rows is not None:
        monkeypatch.setattr(config, "CSV_BLOCK_ROWS", block_rows)
    header = ["flag", "name", "count", "value", "mixed"]
    rows = [
        (True, "a", 7, float("nan"), 1),
        (np.bool_(False), "b,c", np.int64(-3), float("inf"), 0.5),
        (False, "", 2 ** 70, -float("inf"), np.int64(2)),
        (np.bool_(True), "d", np.int64(0), -0.0, 2 ** 60 + 1),
        (True, "e", -1, 5e-324, np.float64(1.0 / 3.0)),
        (False, "f", 12, np.float64(1e308), True),
        (True, "g", np.int64(2 ** 62), np.float64(-1.0 / 7.0), -0.0),
    ]
    path = write_csv(tmp_path / "mixed.csv", header, rows)
    assert path.read_text() == _joined_cell_by_cell(header, rows)

    # rows zipped from arrays, as the simulate command writes them
    columns = (np.array([0.1, -2.5e-300, 1e16]), np.arange(3),
               np.array([0.1, 3.0, -0.0], dtype=np.float32), np.array([True, False, True]))
    path = write_csv(tmp_path / "arrays.csv", header[:4], zip(*columns))
    assert path.read_text() == _joined_cell_by_cell(header[:4], list(zip(*columns)))

    path = write_csv(tmp_path / "empty.csv", header, [])
    assert path.read_text() == "flag,name,count,value,mixed\n"


def test_manifest_written_with_steps(tmp_path):
    cfg = default_config()
    man = Manifest("demo", cfg, None)
    man.step("stage-one", "ok", "fine")
    man.output(str(tmp_path / "data.csv"))
    man.write(str(tmp_path))
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert data["command"] == "demo"
    assert data["config_hash"] == cfg.config_hash()
    assert data["steps"][0]["name"] == "stage-one"
    assert "wall_time_s" in data and "versions" in data
    assert data["versions"]["memoplate"]


def test_emit_plots_per_artifact(tmp_path):
    (tmp_path / "energy_0.csv").write_text("t,energy\n0,1\n")
    (tmp_path / "energy_1.csv").write_text("t,energy\n0,1\n")
    (tmp_path / "sweep.csv").write_text("sigma\n0.5\n")
    manifest_data = {"outputs": [str(tmp_path / n) for n in
                                 ("energy_0.csv", "energy_1.csv", "sweep.csv")]}
    emit_plots(manifest_data, str(tmp_path))
    names = {p.name for p in tmp_path.glob("plot_*.py")}
    assert "plot_energy_0.py" in names and "plot_energy_1.py" in names
    assert "plot_convergence.py" in names
    # empty manifest emits nothing
    empty = tmp_path / "empty"
    empty.mkdir()
    emit_plots({"outputs": []}, str(empty))
    assert list(empty.glob("plot_*.py")) == []
