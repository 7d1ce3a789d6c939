"""Spans around the program's layer boundaries, set from outside the program.

``Tracer.install`` replaces a fixed list of public functions and methods of
the ``memoplate`` modules by timing wrappers, everywhere a loaded module
holds a reference to them, and ``uninstall`` puts the originals back. Spans
(name, start, end, parent, work) stay in memory; ``metrics`` turns them into
the per-layer figures of one round. A layer's self time is its span minus
the spans directly inside it.
"""
from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

# (module, attribute path, span name, work counter or None)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("history", "build_history_grid", "history.build_history_grid", None),
    ("modes", "build_phase_space", "modes.build_phase_space", None),
    ("dynamics", "MidpointStepper.__init__", "dynamics.MidpointStepper.init", None),
    ("dynamics", "TransportStepper.__init__", "dynamics.TransportStepper.init", None),
    # work: modes x history nodes the step advances (0 for the collapsed system)
    ("dynamics", "MidpointStepper.step", "dynamics.step",
     lambda args, out: args[1].size * sum(h.shape[0] for h in args[4:6] if h is not None)),
    ("dynamics", "TransportStepper.solve", "dynamics.transport_solve", None),
    ("dynamics", "evolve", "dynamics.evolve", None),
    ("decay", "fit_decay_rate", "decay.fit_decay_rate", None),
    ("decay", "check_differential_inequalities", "decay.check_differential_inequalities",
     None),
    ("limits", "compare_trajectories", "limits.compare_trajectories", None),
    ("limits", "history_envelopes", "limits.history_envelopes", None),
    # work: scan scales
    ("probe", "resolvent_scan", "probe.resolvent_scan", lambda args, out: len(args[1])),
    # work: nodes x channels
    ("probe", "residual_check", "probe.residual_check",
     lambda args, out: args[2] * (2 if args[0].with_shear else 1)),
    # work: bytes written
    ("config", "write_csv", "config.write_csv", lambda args, out: Path(out).stat().st_size),
    ("config", "Manifest.write", "config.manifest_write", None),
)

NAME, START, END, PARENT, WORK = range(5)

# unit of every per-layer metric; bench.trace_overhead_s is the traced minus
# the untraced wall_s of the same run
UNITS = {
    "history.grid_build_ms": "ms",
    "modes.phase_space_build_ms": "ms",
    "dynamics.stepper_init_ms": "ms",
    "dynamics.step_us": "us",
    "dynamics.transport_solve_us": "us",
    "dynamics.step_ns_per_mode_node": "ns",
    "dynamics.transport_solves_per_step": "count",
    "dynamics.evolve_self_us_per_step": "us",
    "decay.fit_ms": "ms",
    "limits.compare_us_per_step": "us",
    "limits.compare_self_us_per_step": "us",
    "limits.envelope_ms": "ms",
    "probe.scan_us_per_scale": "us",
    "probe.residual_ns_per_node": "ns",
    "probe.residual_calls": "count",
    "config.csv_write_ms": "ms",
    "config.csv_mb_per_s": "MB/s",
    "config.manifest_write_ms": "ms",
    "cli.self_s": "s",
    "bench.trace_overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if work is not None:
                span[WORK] = work(args, out)
            return out
        return traced

    def install(self) -> None:
        loaded = [m for key, m in sys.modules.items()
                  if key == "memoplate" or key.startswith("memoplate.")]
        for module_name, path, name, work in TARGETS:
            owner = sys.modules[f"memoplate.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, work)
            holders = [owner] if outer else [m for m in loaded
                                             if getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded so far."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]

        def pick(name, cond=lambda i: True):
            return [i for i, s in enumerate(spans) if s[NAME] == name and cond(i)]

        def total(ids, self_time=False):
            return sum(dur[i] - (child[i] if self_time else 0.0) for i in ids)

        def ratio(num, den):
            return num / den if den else 0.0

        def under(i, name):
            return spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == name

        steps = pick("dynamics.step", lambda i: spans[i][WORK] > 0)
        solves = pick("dynamics.transport_solve")
        inits = pick("dynamics.MidpointStepper.init") + pick(
            "dynamics.TransportStepper.init",
            lambda i: not under(i, "dynamics.MidpointStepper.init"))
        evolves = pick("dynamics.evolve")
        evolve_steps = pick("dynamics.step", lambda i: under(i, "dynamics.evolve"))
        compares = pick("limits.compare_trajectories")
        compare_steps = [i for i in steps if under(i, "limits.compare_trajectories")]
        scans = pick("probe.resolvent_scan")
        residuals = pick("probe.residual_check")
        csvs = pick("config.write_csv")
        return {
            "history.grid_build_ms": 1e3 * total(pick("history.build_history_grid")),
            "modes.phase_space_build_ms": 1e3 * total(pick("modes.build_phase_space")),
            "dynamics.stepper_init_ms": 1e3 * total(inits),
            "dynamics.step_us": 1e6 * ratio(total(steps), len(steps)),
            "dynamics.transport_solve_us": 1e6 * ratio(total(solves), len(solves)),
            "dynamics.step_ns_per_mode_node":
                1e9 * ratio(total(steps), sum(spans[i][WORK] for i in steps)),
            "dynamics.transport_solves_per_step": ratio(len(solves), len(steps)),
            "dynamics.evolve_self_us_per_step":
                1e6 * ratio(total(evolves, self_time=True), len(evolve_steps)),
            "decay.fit_ms": 1e3 * (total(pick("decay.fit_decay_rate"))
                                   + total(pick("decay.check_differential_inequalities"))),
            "limits.compare_us_per_step": 1e6 * ratio(total(compares), len(compare_steps)),
            "limits.compare_self_us_per_step":
                1e6 * ratio(total(compares, self_time=True), len(compare_steps)),
            "limits.envelope_ms": 1e3 * total(pick("limits.history_envelopes")),
            "probe.scan_us_per_scale":
                1e6 * ratio(total(scans), sum(spans[i][WORK] for i in scans)),
            "probe.residual_ns_per_node":
                1e9 * ratio(total(residuals), sum(spans[i][WORK] for i in residuals)),
            "probe.residual_calls": float(len(residuals)),
            "config.csv_write_ms": 1e3 * total(csvs),
            "config.csv_mb_per_s":
                1e-6 * ratio(sum(spans[i][WORK] for i in csvs), total(csvs)),
            "config.manifest_write_ms": 1e3 * total(pick("config.manifest_write")),
            "cli.self_s": total(pick("cli.main"), self_time=True),
        }
