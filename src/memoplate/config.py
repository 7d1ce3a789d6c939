"""Experiment configuration, presets, CSV/manifest output and plot scripts.

Configs are plain INI sections of key = value pairs so runs stay diffable.
Internally a config is a nested dict of strings; typed accessors convert on
demand and report the offending section/key on failure. Presets are just
override dicts on the defaults, and a user file is applied on top of the
chosen preset.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, NonIntegrableError
from .kernels import KernelSpec, ScalarModel
from .modes import (Domain, Params, PhaseSpace, PhaseVector, build_phase_space,
                    dirichlet_eigenvalues, initial_data_preset)
from .probe import AbstractParams

_PI = "3.141592653589793"

DEFAULTS: dict[str, dict[str, str]] = {
    "domain": {"kind": "interval", "lengths": _PI, "modes": "8"},
    "kernels": {"mu_amplitude": "1", "mu_decay": "1", "mu_singularity": "0",
                "beta_amplitude": "1", "beta_decay": "1", "beta_singularity": "0",
                "scalar_rate": "1", "check_bound": "auto"},
    "parameters": {"sigma": "0.5", "tau": "0", "eps": "0.5", "order": "0",
                   "grid": "product"},
    "integrator": {"dt": "0.001", "horizon": "20", "stride": "10",
                   "grid_size": "400", "ratio": "1.05", "tail": "1e-8",
                   "weight_policy": "auto"},
    "initial": {"preset": "spectral-decay 6", "with_history": "false"},
    "fit": {"window_lo": "1", "window_hi": "15", "t0": "0.5"},
    "probe": {"alpha": "1", "coupling": "1", "omega1": "0.25", "omega2": "0",
              "with_shear": "false", "gamma_lo": "1", "gamma_hi": "4",
              "gamma_count": "20", "residual_gamma": "10",
              "residual_size": "400"},
    "output": {"directory": "out", "emit_plots": "false"},
}

PRESETS: dict[str, dict[str, dict[str, str]]] = {
    "thm-edec": {
        "domain": {"modes": "16"},
        "parameters": {"sigma": "0.5", "eps": "0.5", "tau": "0, 0.25, 0.5, 1"},
        "integrator": {"dt": "0.001", "horizon": "20"},
    },
    "thm-gp1": {
        # nonzero histories shrinking along the diagonal
        "parameters": {"sigma": "0.25, 0.125, 0.0625, 0.03125, 0.015625",
                       "tau": "0.25, 0.125, 0.0625, 0.03125, 0.015625",
                       "eps": "0.25, 0.125, 0.0625, 0.03125, 0.015625",
                       "grid": "diagonal"},
        "integrator": {"dt": "auto", "horizon": "10"},
        "initial": {"with_history": "true"},
    },
    "thm-gp2": {
        "parameters": {"sigma": "0.25, 0.125, 0.0625, 0.03125, 0.015625",
                       "tau": "0",
                       "eps": "0.25, 0.125, 0.0625, 0.03125, 0.015625",
                       "grid": "product"},
        "integrator": {"dt": "auto", "horizon": "10"},
    },
    "thm-a2": {
        "probe": {"alpha": "1", "coupling": "1", "omega1": "0.25",
                  "with_shear": "false"},
    },
    "thm-a3": {
        "probe": {"alpha": "1", "coupling": "0.75", "omega1": "0.3",
                  "omega2": "0.05", "with_shear": "true"},
    },
    "oracle-crosscheck": {
        "domain": {"modes": "4"},
        "parameters": {"sigma": "1", "tau": "0", "eps": "1"},
        "integrator": {"dt": "0.001", "horizon": "5"},
    },
}


def _deep_merge(base: dict, overrides: dict) -> dict:
    out = {s: dict(kv) for s, kv in base.items()}
    for section, kv in overrides.items():
        out.setdefault(section, {}).update(kv)
    return out


@contextmanager
def section(name: str, label: str = ""):
    """Re-raise a value the library rejects as a ConfigError naming the
    config section it came from."""
    try:
        yield
    except (DomainError, NonIntegrableError) as exc:
        raise ConfigError(f"[{name}] {label}{exc}") from None


@dataclass
class ExperimentConfig:
    raw: dict[str, dict[str, str]]

    def _get(self, section: str, key: str) -> str:
        try:
            return self.raw[section][key]
        except KeyError:
            raise ConfigError(f"missing key [{section}] {key}")

    def _float(self, section: str, key: str) -> float:
        text = self._get(section, key)
        try:
            value = float(text)
            if not math.isfinite(value):
                raise ValueError
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {text!r} is not a finite number")
        return value

    def _int(self, section: str, key: str) -> int:
        text = self._get(section, key)
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {text!r} is not an integer")

    def _bool(self, section: str, key: str) -> bool:
        text = self._get(section, key).strip().lower()
        if text in ("true", "yes", "1", "on"):
            return True
        if text in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{section}] {key} = {text!r} is not a boolean")

    def _float_list(self, section: str, key: str) -> tuple[float, ...]:
        text = self._get(section, key)
        try:
            values = tuple(float(part) for part in text.split(",") if part.strip())
            if not all(map(math.isfinite, values)):
                raise ValueError
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {text!r} is not a finite number list")
        if not values:
            raise ConfigError(f"[{section}] {key} is empty")
        return values

    # --- typed views -------------------------------------------------
    def domain(self) -> Domain:
        with section("domain"):
            return Domain(self._get("domain", "kind"), self._float_list("domain", "lengths"))

    @property
    def mode_count(self) -> int:
        return self._int("domain", "modes")

    def parameter_grid(self) -> list[tuple[float, float, float]]:
        """(sigma, tau, eps) rows, product or diagonal per the grid key."""
        sig = self._float_list("parameters", "sigma")
        tau = self._float_list("parameters", "tau")
        eps = self._float_list("parameters", "eps")
        mode = self._get("parameters", "grid")
        if mode == "product":
            rows = [(s, t, e) for s in sig for t in tau for e in eps]
        elif mode == "diagonal":
            length = max(len(sig), len(tau), len(eps))
            for grid in (sig, tau, eps):
                if len(grid) not in (1, length):
                    raise ConfigError("[parameters] diagonal grids need equal "
                                      f"lengths or singletons, got {len(grid)} vs {length}")
            rows = [(sig[k % len(sig)], tau[k % len(tau)], eps[k % len(eps)])
                    for k in range(length)]
        else:
            raise ConfigError(f"[parameters] grid = {mode!r} must be product or diagonal")
        with section("parameters"):
            for row in rows:
                Params(*row)
        return rows

    @property
    def order(self) -> int:
        return self._int("parameters", "order")

    def dt_for(self, sigma: float, tau: float, eps: float) -> float:
        """The configured dt, or with dt = auto the default_time_step rule."""
        if self._get("integrator", "dt").strip().lower() == "auto":
            # imported here: dynamics loads scipy.linalg, which pruss-scan never needs
            from .dynamics import default_time_step
            return default_time_step(Params(sigma, tau, eps))
        return self._float("integrator", "dt")

    @property
    def horizon(self) -> float:
        return self._float("integrator", "horizon")

    @property
    def stride(self) -> int:
        return self._int("integrator", "stride")

    @property
    def grid_size(self) -> int:
        return self._int("integrator", "grid_size")

    @property
    def grid_ratio(self) -> float:
        return self._float("integrator", "ratio")

    @property
    def tail(self) -> float:
        return self._float("integrator", "tail")

    @property
    def weight_policy(self) -> str:
        return self._get("integrator", "weight_policy")

    @property
    def initial_preset(self) -> str:
        return self._get("initial", "preset")

    @property
    def with_history(self) -> bool:
        return self._bool("initial", "with_history")

    @property
    def fit_window(self) -> tuple[float, float]:
        return (self._float("fit", "window_lo"), self._float("fit", "window_hi"))

    @property
    def sweep_t0(self) -> float:
        return self._float("fit", "t0")

    def _base_kernel(self, prefix: str) -> KernelSpec:
        with section("kernels", f"{prefix}: "):
            return KernelSpec(self._float("kernels", f"{prefix}_amplitude"),
                              self._float("kernels", f"{prefix}_decay"),
                              self._float("kernels", f"{prefix}_singularity"))

    def base_mu(self) -> KernelSpec:
        return self._base_kernel("mu")

    def base_beta(self) -> KernelSpec:
        return self._base_kernel("beta")

    def scalar_model(self) -> ScalarModel:
        rate = self._float("kernels", "scalar_rate")
        with section("kernels"):
            return ScalarModel(rate)

    def point(self, sigma: float, tau: float, eps: float
              ) -> tuple[PhaseSpace, PhaseVector, float]:
        """(space, z0, dt) of one grid point: the phase space, the initial
        data and the time step every stepping command runs there."""
        with section("domain"):
            modes = dirichlet_eigenvalues(self.domain(), self.mode_count)
        params = Params(sigma, tau, eps, self.scalar_model())
        with section("integrator"):
            space = build_phase_space(modes, params, grid_size=self.grid_size,
                                      base_mu=self.base_mu(), base_beta=self.base_beta(),
                                      ratio=self.grid_ratio, tail=self.tail,
                                      weight_policy=self.weight_policy)
        with section("initial"):
            z0 = initial_data_preset(self.initial_preset, space, self.order,
                                     with_history=self.with_history)
        return space, z0, self.dt_for(sigma, tau, eps)

    @property
    def check_bound(self) -> float | None:
        text = self._get("kernels", "check_bound").strip().lower()
        if text == "auto":
            return None
        return self._float("kernels", "check_bound")

    def probe_params(self) -> AbstractParams:
        with section("probe"):
            return AbstractParams(self._float("probe", "alpha"),
                                  self._float("probe", "coupling"),
                                  self._float("probe", "omega1"),
                                  self._float("probe", "omega2"),
                                  self._bool("probe", "with_shear"))

    def probe_gammas(self) -> np.ndarray:
        return np.logspace(self._float("probe", "gamma_lo"),
                           self._float("probe", "gamma_hi"),
                           self._int("probe", "gamma_count"))

    @property
    def residual_gamma(self) -> float:
        return self._float("probe", "residual_gamma")

    @property
    def residual_size(self) -> int:
        return self._int("probe", "residual_size")

    @property
    def out_dir(self) -> Path:
        return Path(self._get("output", "directory"))

    @property
    def emit_plots_flag(self) -> bool:
        return self._bool("output", "emit_plots")

    # --- identity ----------------------------------------------------
    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def default_config() -> ExperimentConfig:
    return ExperimentConfig(_deep_merge(DEFAULTS, {}))


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}")
    return ExperimentConfig(_deep_merge(DEFAULTS, PRESETS[name]))


def load_config(path: str | Path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse an INI file on top of a base config (defaults if omitted)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    if parser.defaults():
        # configparser copies [DEFAULT] keys into every section
        raise ConfigError(f"[DEFAULT] section in {path}; put each key in its own section")
    overrides: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, value in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key [{section}] {key} in {path}")
            overrides.setdefault(section, {})[key] = value
    merged = _deep_merge((base or default_config()).raw, overrides)
    return ExperimentConfig(merged)


# --- artifacts -------------------------------------------------------

# write_csv formats and writes this many rows at a time. A whole table's
# rows in one list and its text in one string grow by reallocation, which
# on a 19 328-row trajectory.csv left 6 MB of freed heap the process kept
CSV_BLOCK_ROWS = 1024


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: Path | str, header: list[str], rows) -> Path:
    """Write ``rows`` under ``header``, each cell as format_cell writes it.

    Rows are taken in blocks of CSV_BLOCK_ROWS. Within a block each column
    gets one format from the types of its values: "%.17g" when all are
    floats, "%d" when all are integers, and format_cell per value otherwise
    (bools, strings, mixed columns). A row is then one ``%`` with the
    block's row format.
    """
    path = Path(path)
    rows = iter(rows)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            formats = []
            for j in range(len(block[0])):
                types = set(map(type, map(itemgetter(j), block)))
                if all(issubclass(t, (float, np.floating)) for t in types):
                    formats.append("%.17g")
                elif all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
                    formats.append("%d")
                else:
                    formats.append("%s")
            if "%s" in formats:
                block = [[format_cell(cell) if f == "%s" else cell
                          for f, cell in zip(formats, row)] for row in block]
            row_format = ",".join(formats) + "\n"
            fh.writelines(row_format % tuple(row) for row in block)
    return path


class Manifest:
    """Run record: inputs, versions, wall time, per-step status.

    Written even when a step fails, so partial runs stay auditable.
    """

    def __init__(self, command: str, config: ExperimentConfig,
                 config_file: str | None = None):
        from . import __version__
        self.data = {
            "command": command,
            "config_hash": config.config_hash(),
            "config": config.raw,
            "config_file": config_file,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": __import__("scipy").__version__,
                "memoplate": __version__,
            },
            "steps": [],
            "outputs": [],
            "wall_time_s": None,
        }
        self._start = time.monotonic()

    def step(self, name: str, status: str, detail: str = "") -> None:
        self.data["steps"].append({"name": name, "status": status, "detail": detail})

    def output(self, path: Path) -> None:
        self.data["outputs"].append(str(path))

    def write(self, out_dir: Path | str) -> Path:
        out_dir = Path(out_dir)
        self.data["wall_time_s"] = round(time.monotonic() - self._start, 3)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")
        return path


_PLOT_HEADER = """#!/usr/bin/env python3
# Generated plotting script; needs matplotlib + the CSV next to it.
import csv
from pathlib import Path

import matplotlib.pyplot as plt
"""


def _write_script(path: Path, body: str) -> Path:
    path.write_text(_PLOT_HEADER + body)
    return path


def emit_plots(manifest_data: dict, out_dir: Path | str) -> list[Path]:
    """Plot scripts for whichever CSV outputs the manifest lists."""
    out_dir = Path(out_dir)
    written: list[Path] = []
    outputs = [Path(p).name for p in manifest_data.get("outputs", [])]
    for name in outputs:
        if name.startswith("energy_") and name.endswith(".csv"):
            tag = name[len("energy_"):-len(".csv")]
            body = f"""
rows = list(csv.DictReader(open(Path(__file__).parent / {name!r})))
t = [float(r["t"]) for r in rows]
e = [float(r["energy"]) for r in rows]
plt.semilogy(t, e)
plt.xlabel("t"); plt.ylabel("energy")
plt.savefig(Path(__file__).parent / "energy_{tag}.png", dpi=150)
"""
            written.append(_write_script(out_dir / f"plot_energy_{tag}.py", body))
    if "trajectory.csv" in outputs:
        body = """
rows = list(csv.DictReader(open(Path(__file__).parent / "trajectory.csv")))
series = {}
for r in rows:
    series.setdefault(float(r["t"]), 0.0)
    series[float(r["t"])] += float(r["modal_energy"])
t = sorted(series)
plt.semilogy(t, [series[k] for k in t])
plt.xlabel("t"); plt.ylabel("energy")
plt.savefig(Path(__file__).parent / "energy.png", dpi=150)
"""
        written.append(_write_script(out_dir / "plot_energy.py", body))
    if "sweep.csv" in outputs:
        body = """
rows = list(csv.DictReader(open(Path(__file__).parent / "sweep.csv")))
x = [float(r["pi_flat"]) for r in rows]
y = [float(r["sup_distance"]) for r in rows]
plt.loglog(x, y, "o")
plt.xlabel("quarter-power scale"); plt.ylabel("sup distance")
plt.savefig(Path(__file__).parent / "convergence.png", dpi=150)
"""
        written.append(_write_script(out_dir / "plot_convergence.py", body))
    if "scan.csv" in outputs:
        body = """
rows = list(csv.DictReader(open(Path(__file__).parent / "scan.csv")))
g = [float(r["gamma"]) for r in rows]
z = [float(r["z_norm"]) for r in rows]
plt.loglog(g, z, "o-")
plt.xlabel("gamma"); plt.ylabel("probe norm")
plt.savefig(Path(__file__).parent / "scan.png", dpi=150)
"""
        written.append(_write_script(out_dir / "plot_scan.py", body))
    return written
