"""Workload inputs, problem-defined work counts and output checks.

A workload is a fixed list of ``memoplate`` command-line calls, each a preset
with INI overrides that pin every input the checks and counts below depend
on. One operation is one parameter point of a stepping command, or one
preset's ``pruss-scan``. The inputs hold no randomness.

The checks never compare with stored program output: they recompute what
the inputs fix in closed form (spectra, initial energies, parameter powers,
the quartic dispersion relation) or test properties the method must have
(monotone discrete energy, shrinking distance along the diagonal).
"""
from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

PI = "3.141592653589793"
ENERGY_RTOL = 1e-12       # discrete energy may rise by roundoff only
CLOSED_FORM_RTOL = 1e-12
QUARTIC_RTOL = 1e-9       # relative to B^2, the size of the quartic's terms
ENVELOPE_FLOOR = -1e-12   # the envelope constants are sup fits: a margin may touch 0


@dataclass(frozen=True)
class Call:
    """One ``memoplate <command> [--preset <preset>] --config <ini>`` call."""

    command: str
    preset: str | None
    ini: dict

    @property
    def tag(self) -> str:
        return f"{self.command}-{self.preset}" if self.preset else self.command

    def argv(self, ini: Path, out: Path) -> list[str]:
        """Arguments of ``main()`` for this call."""
        argv = [self.command, "--config", str(ini), "--out", str(out)]
        return argv + ["--preset", self.preset] if self.preset else argv

    def ini_text(self) -> str:
        return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       + "\n" for section, keys in self.ini.items())

    @property
    def points(self) -> list[tuple[float, float, float]]:
        """(sigma, tau, eps) rows in the order the command visits them."""
        p = self.ini["parameters"]
        cols = [[float(x) for x in p[key].split(",")] for key in ("sigma", "tau", "eps")]
        if p["grid"] == "diagonal":
            return list(zip(*cols))
        return list(itertools.product(*cols))

    @property
    def operations(self) -> int:
        return 1 if self.command == "pruss-scan" else len(self.points)

    def steps(self, sigma: float, eps: float) -> int:
        """Time steps of one point; ``dt = auto`` is 1e-3 capped at a twentieth
        of the fastest active relaxation scale."""
        integ = self.ini["integrator"]
        if integ["dt"] == "auto":
            dt = min([1e-3] + [s / 20.0 for s in (sigma, eps) if s > 0])
        else:
            dt = float(integ["dt"])
        return max(1, round(float(integ["horizon"]) / dt))

    def node_updates(self) -> int:
        """History-node values the inputs define for one call.

        Stepping: modes x (eta + xi nodes) x steps of the memory system, per
        point. ``pruss-scan``: nodes x channels of every ``residual_check``,
        i.e. one per scan scale plus the size-M and size-2M halving pair.
        """
        if self.command == "pruss-scan":
            pr = self.ini["probe"]
            channels = 2 if pr["with_shear"] == "true" else 1
            size = int(pr["residual_size"])
            return channels * size * (int(pr["gamma_count"]) + 3)
        modes = int(self.ini["domain"]["modes"])
        size = int(self.ini["integrator"]["grid_size"])
        total = 0
        for sigma, tau, eps in self.points:
            nodes = size * ((eps > 0 or tau > 0) + (sigma > 0))
            total += modes * nodes * self.steps(sigma, eps)
        return total


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    repeats: int = 1          # the calls run this many times per round

    @property
    def operations(self) -> int:
        return self.repeats * sum(c.operations for c in self.calls)

    @property
    def node_updates(self) -> int:
        return self.repeats * sum(c.node_updates() for c in self.calls)


def _stepping_ini(domain, parameters, integrator, fit=None, with_history=False):
    ini = {"domain": domain, "parameters": parameters,
           "integrator": {"ratio": "1.05", "tail": "1e-8", **integrator},
           "initial": {"preset": "spectral-decay 6",
                       "with_history": "true" if with_history else "false"}}
    if fit:
        ini["fit"] = fit
    return ini


def _probe_ini(probe, gamma_count, residual_size):
    return {"probe": {**probe, "gamma_lo": "1", "gamma_hi": "4",
                      "gamma_count": str(gamma_count), "residual_gamma": "10",
                      "residual_size": str(residual_size)}}


THM_A2 = {"alpha": "1", "coupling": "1", "omega1": "0.25", "omega2": "0",
          "with_shear": "false"}
THM_A3 = {"alpha": "1", "coupling": "0.75", "omega1": "0.3", "omega2": "0.05",
          "with_shear": "true"}


def build(name: str, tiny: bool = False) -> Workload:
    """The named workload; ``tiny`` shrinks it for the benchmark's own tests."""
    if name == "edec-decay":
        # thm-edec: 16 modes, 400 + 400 history nodes, four tau points, the
        # energy written at every step; the horizon is cut from 20 to 1
        modes, size, horizon, window = ("3", "40", "0.05", ("0.01", "0.05")) if tiny \
            else ("16", "400", "1", ("0.25", "1"))
        ini = _stepping_ini({"kind": "interval", "lengths": PI, "modes": modes},
                            {"sigma": "0.5", "tau": "0, 0.25, 0.5, 1", "eps": "0.5",
                             "order": "0", "grid": "product"},
                            {"dt": "0.001", "horizon": horizon, "stride": "1",
                             "grid_size": size},
                            fit={"window_lo": window[0], "window_hi": window[1]})
        return Workload(name, (Call("decay", "thm-edec", ini),))
    if name == "gp1-sweep":
        # thm-gp1: 8 modes, nonzero initial histories, five diagonal points.
        # The envelope fit uses the first half of the run and holds only once
        # the memory-fed plateau lies inside it, which needs a horizon near 6.
        diag = "0.25, 0.125, 0.0625" if tiny else \
            "0.25, 0.125, 0.0625, 0.03125, 0.015625"
        modes, size, dt = ("2", "40", "0.01") if tiny else ("8", "400", "auto")
        ini = _stepping_ini({"kind": "interval", "lengths": PI, "modes": modes},
                            {"sigma": diag, "tau": diag, "eps": diag, "order": "0",
                             "grid": "diagonal"},
                            {"dt": dt, "horizon": "6", "stride": "10", "grid_size": size},
                            fit={"t0": "0.5"}, with_history=True)
        return Workload(name, (Call("limit-sweep", "thm-gp1", ini),))
    if name == "wide-simulate":
        # ~100 modes on a rectangle, 1600 + 1600 history nodes: each history
        # array is 1.6 MB and a step makes about ten of them, several times a
        # 4 MiB L2; trajectory.csv is several MB
        modes, size, horizon = ("6", "64", "0.02") if tiny else ("128", "1600", "0.15")
        ini = _stepping_ini({"kind": "rectangle", "lengths": f"{PI}, 2.718281828459045",
                             "modes": modes},
                            {"sigma": "0.5", "tau": "0.25", "eps": "0.5", "order": "0",
                             "grid": "product"},
                            {"dt": "0.001", "horizon": horizon, "stride": "1",
                             "grid_size": size})
        return Workload(name, (Call("simulate", None, ini),))
    if name == "probe-scan":
        count, size, repeats = (8, 100, 2) if tiny else (20, 400, 5)
        return Workload(name, (Call("pruss-scan", "thm-a2", _probe_ini(THM_A2, count, size)),
                               Call("pruss-scan", "thm-a3", _probe_ini(THM_A3, count, size))),
                        repeats)
    raise KeyError(name)


NAMES = ("edec-decay", "gp1-sweep", "wide-simulate", "probe-scan")


# --- checks ------------------------------------------------------------
#
# check(call, out_dir) returns one entry per operation of the call: None
# when its outputs are right, else the reason they are not.


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _steps(manifest: dict) -> dict[str, dict]:
    return {s["name"]: s for s in manifest["steps"]}


def _detail_value(detail: str, key: str) -> float:
    for part in detail.replace(",", " ").split():
        if part.startswith(key + "="):
            return float(part[len(key) + 1:])
    raise ValueError(f"{key} missing from {detail!r}")


def spectrum(domain: dict, count: int) -> list[float]:
    """First ``count`` Dirichlet eigenvalues of -Laplace, ascending."""
    lengths = [float(x) for x in domain["lengths"].split(",")]
    if domain["kind"] == "interval":
        return [(n * math.pi / lengths[0]) ** 2 for n in range(1, count + 1)]
    lx, ly = lengths
    # grow the enumeration box until the count-th value cannot change
    box = 1
    while True:
        values = sorted((j * math.pi / lx) ** 2 + (k * math.pi / ly) ** 2
                        for j in range(1, box + 1) for k in range(1, box + 1))
        cap = (box * math.pi / max(lx, ly)) ** 2
        if len(values) >= count and values[count - 1] <= cap:
            return values[:count]
        box *= 2


def initial_modal_energies(call: Call) -> list[float]:
    """Order-0 modal energies of "spectral-decay p" data with rest histories:
    g^2 c^2 + v^2 + theta^2 with c = n^-p, v = c/2, theta = -c/2."""
    p = float(call.ini["initial"]["preset"].split()[1])
    count = int(call.ini["domain"]["modes"])
    return [g * g * c * c + 0.5 * c * c
            for g, c in zip(spectrum(call.ini["domain"], count),
                            ((n + 1) ** -p for n in range(count)))]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _rising(series: list[float]) -> int | None:
    """Index of the first sample above its predecessor beyond roundoff."""
    for k in range(1, len(series)):
        if series[k] > series[k - 1] * (1.0 + ENERGY_RTOL):
            return k
    return None


def check_decay(call: Call, out: Path) -> list[str | None]:
    e0 = sum(initial_modal_energies(call))
    _, rows = _read_csv(out / "decay.csv")
    results = []
    for k, (sigma, tau, eps) in enumerate(call.points):
        _, series = _read_csv(out / f"energy_{k}.csv")
        energy = [r[1] for r in series]
        bad = _rising(energy)
        if len(rows) != len(call.points) or rows[k][:3] != [sigma, tau, eps]:
            results.append("decay.csv rows do not match the parameter grid")
        elif len(energy) != call.steps(sigma, eps) + 1:
            results.append(f"energy_{k}.csv has {len(energy)} samples, "
                           f"expected one per step")
        elif not _close(energy[0], e0, CLOSED_FORM_RTOL):
            results.append(f"initial energy {energy[0]!r} != closed form {e0!r}")
        elif bad is not None:
            results.append(f"energy rises at sample {bad}")
        elif not rows[k][4] > 0.0:
            results.append(f"fitted rate {rows[k][4]} is not positive")
        else:
            results.append(None)
    return results


def check_simulate(call: Call, out: Path) -> list[str | None]:
    header, rows = _read_csv(out / "trajectory.csv")
    col = {name: i for i, name in enumerate(header)}
    modes = int(call.ini["domain"]["modes"])
    sigma, _, eps = call.points[0]
    samples = call.steps(sigma, eps) + 1
    if len(rows) != modes * samples:
        return [f"trajectory.csv has {len(rows)} rows, expected {modes * samples}"]
    expected = initial_modal_energies(call)
    for i, e in enumerate(expected):
        got = rows[i][col["modal_energy"]]
        if rows[i][col["t"]] != 0.0 or not _close(got, e, CLOSED_FORM_RTOL):
            return [f"mode {i} starts at energy {got!r}, closed form {e!r}"]
    me = col["modal_energy"]
    totals = [math.fsum(rows[k * modes + i][me] for i in range(modes))
              for k in range(samples)]
    bad = _rising(totals)
    if bad is not None:
        return [f"summed modal energy rises at sample {bad}"]
    manifest = json.loads((out / "manifest.json").read_text())
    status = _steps(manifest).get("energy-monotone", {}).get("status")
    if status != "ok":
        return [f"manifest energy-monotone step is {status!r}"]
    return [None]


def check_limit_sweep(call: Call, out: Path) -> list[str | None]:
    header, rows = _read_csv(out / "sweep.csv")
    col = {name: i for i, name in enumerate(header)}
    steps = _steps(json.loads((out / "manifest.json").read_text()))
    results = []
    for k, (sigma, tau, eps) in enumerate(call.points):
        if len(rows) != len(call.points):
            results.append("sweep.csv rows do not match the parameter grid")
            continue
        row = rows[k]
        flat = eps ** 0.25 + sigma ** 0.25 + tau ** 0.25
        sharp = 2.0 * tau ** 0.5
        env = steps.get(f"envelope[{k}]")
        margins = ([_detail_value(env["detail"], key) for key in ("eta_margin", "xi_margin")]
                   if env else [])
        if [row[col[c]] for c in ("sigma", "tau", "eps")] != [sigma, tau, eps]:
            results.append("sweep.csv row does not match the parameter grid")
        elif not (_close(row[col["pi_flat"]], flat, CLOSED_FORM_RTOL)
                  and _close(row[col["pi_sharp"]], sharp, CLOSED_FORM_RTOL)):
            results.append(f"pi_flat/pi_sharp {row[col['pi_flat']]!r}/"
                           f"{row[col['pi_sharp']]!r} != {flat!r}/{sharp!r}")
        elif k > 0 and not row[col["sup_distance"]] < rows[k - 1][col["sup_distance"]]:
            results.append("sup_distance does not decrease along the diagonal")
        elif len(margins) != 2 or min(margins) < ENVELOPE_FLOOR:
            results.append(f"envelope[{k}] margins {margins}")
        else:
            results.append(None)
    return results


def _log_slope(x: list[float], y: list[float]) -> float:
    lx, ly = [math.log(v) for v in x], [math.log(v) for v in y]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def check_pruss_scan(call: Call, out: Path) -> list[str | None]:
    pr = call.ini["probe"]
    alpha, c = float(pr["alpha"]), float(pr["coupling"])
    w1, w2 = float(pr["omega1"]), float(pr["omega2"])
    shear = pr["with_shear"] == "true"
    k0 = math.gamma(1.0 - w1)
    h0 = math.gamma(1.0 - w2) if shear else 0.0
    header, rows = _read_csv(out / "scan.csv")
    col = {name: i for i, name in enumerate(header)}
    count, lo, hi = int(pr["gamma_count"]), float(pr["gamma_lo"]), float(pr["gamma_hi"])
    gammas = [10 ** (lo + (hi - lo) * k / (count - 1)) for k in range(count)]
    if len(rows) != count:
        return [f"scan.csv has {len(rows)} rows, expected {count}"]
    for g, row in zip(gammas, rows):
        lam, zt = row[col["lam"]], row[col["z_tilde_norm"]]
        b = (1.0 + h0) * g ** 2 + g ** (2 * c) + k0 * g ** alpha
        quartic = (lam ** 2 - (1 + h0) * g ** 2) * (lam ** 2 - k0 * g ** alpha) \
            - g ** (2 * c) * lam ** 2
        if not _close(row[col["gamma"]], g, CLOSED_FORM_RTOL):
            return [f"scan scale {row[col['gamma']]!r} != {g!r}"]
        if abs(quartic) > QUARTIC_RTOL * b * b:
            return [f"lam {lam!r} misses the quartic at gamma {g:.6g} "
                    f"by {abs(quartic) / (b * b):.3e} of B^2"]
        if not shear and not _close(zt, math.sqrt(k0), CLOSED_FORM_RTOL):
            return [f"z_tilde_norm {zt!r} != sqrt(k0) at gamma {g:.6g}"]
    if shear:
        # ||z_tilde||^2 = k0 + h0 (gamma |Lambda|)^2
        gamma_lam = [math.sqrt((r[col["z_tilde_norm"]] ** 2 - k0) / h0) for r in rows]
        slope, target, tol = _log_slope(gammas, gamma_lam), 2 - w1 - alpha / 2 - c + w2, 0.15
        label = "gamma_lam"
    else:
        slope, target, tol = _log_slope(gammas, [r[col["z_norm"]] for r in rows]), 0.25, 0.025
        label = "z_norm"
    if abs(slope - target) > tol:
        return [f"{label} slope {slope:.4f} outside {target:.4f} +- {tol}"]
    steps = _steps(json.loads((out / "manifest.json").read_text()))
    status = steps.get("residual-halving", {}).get("status")
    if status != "ok":
        return [f"manifest residual-halving step is {status!r}"]
    return [None]


CHECKS = {"decay": check_decay, "simulate": check_simulate,
          "limit-sweep": check_limit_sweep, "pruss-scan": check_pruss_scan}


def check(call: Call, out: Path) -> list[str | None]:
    """Per-operation verdicts; an unreadable output fails every operation."""
    try:
        return CHECKS[call.command](call, out)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable output: {exc!r}"] * call.operations
