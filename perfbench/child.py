"""The measured rounds of one benchmark run, in a fresh interpreter.

Started by run.py with the BLAS/OpenMP thread variables already set to 1 and
``PYTHONPATH`` pointing at the checkout's ``src``. After one untimed warm-up
round of the tiny workload it repeats whole rounds while the next one,
taking as long as the last, should end within ``--seconds``. Prints one JSON
object (only ``setup_s`` with ``--setup-only``):

- ``setup_s``: the import of ``memoplate.cli`` and the numerical stack, plus
  ``build_phase_space`` and ``MidpointStepper`` for every point;
- ``rounds``: per round, ``wall_s`` (the time of its ``main()`` calls),
  ``traced`` and, when traced, ``layers`` (the per-layer figures);
- ``peak_rss_mb``: this process's peak resident memory after the first
  round, which is never traced;
- ``failures``: one entry per operation of every round, ``null`` when it
  succeeded; ``wrong`` counts those whose output check failed.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _setup_points(config, modes, dynamics, call, ini_path):
    """The phase spaces and steppers main() will build for the call's points."""
    cfg = config.load_config(ini_path, config.preset(call.preset) if call.preset
                             else config.default_config())
    if call.command == "pruss-scan":
        return []
    built = []
    for sigma, tau, eps in cfg.parameter_grid():
        space = modes.build_phase_space(
            modes.dirichlet_eigenvalues(cfg.domain(), cfg.mode_count),
            modes.Params(sigma, tau, eps, cfg.scalar_model()),
            grid_size=cfg.grid_size, base_mu=cfg.base_mu(), base_beta=cfg.base_beta(),
            ratio=cfg.grid_ratio, tail=cfg.tail, weight_policy=cfg.weight_policy)
        built.append(dynamics.MidpointStepper(space, cfg.dt_for(sigma, tau, eps)))
    return built


def _blas_threads():
    """OpenBLAS's thread count as NumPy's copy reports it, or None."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _write_inis(workload, out: Path) -> list[Path]:
    paths = []
    for call in workload.calls:
        path = out / f"{call.tag}.ini"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(call.ini_text())
        paths.append(path)
    return paths


def _round(cli, workload, ini_paths, out: Path):
    """One round's main() calls: (seconds spent in them, [(call, code, dir)])."""
    wall, codes = 0.0, []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for rep in range(workload.repeats):
            for call, ini in zip(workload.calls, ini_paths):
                run_dir = out / f"{call.tag}.{rep}"
                argv = call.argv(ini, run_dir)
                t = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:
                    traceback.print_exc()
                    code = -1
                wall += time.perf_counter() - t
                codes.append((call, code, run_dir))
    return wall, codes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from memoplate import cli, config, decay, dynamics, limits, modes, probe  # noqa: F401
    import_s = time.perf_counter() - START

    import tracing
    import workloads
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"memoplate was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, tiny=args.tiny)
    out = Path(args.out)
    ini_paths = _write_inis(workload, out)

    start = time.perf_counter()
    built = [_setup_points(config, modes, dynamics, c, p)
             for c, p in zip(workload.calls, ini_paths)]
    setup_s = import_s + time.perf_counter() - start
    del built
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # untimed warm-up: the tiny workload runs the same code at a small size
    warm = workloads.build(args.workload, tiny=True)
    _round(cli, warm, _write_inis(warm, out / "warm-up"), out / "warm-up")
    shutil.rmtree(out / "warm-up", ignore_errors=True)

    begin = time.perf_counter()
    # a traced run needs at least one untraced and one traced round; past
    # that, a round starts only if it should end within the window
    minimum = 2 if args.trace else 1
    rounds, failures, wrong, last = [], [], 0, 0.0
    while len(rounds) < minimum or time.perf_counter() - begin + last <= args.seconds:
        round_start = time.perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            wall, codes = _round(cli, workload, ini_paths, out / f"round{len(rounds)}")
        finally:
            if tracer:
                tracer.uninstall()
        for call, code, run_dir in codes:
            if code != 0:
                failures += [f"{call.tag} exited {code}"] * call.operations
                continue
            verdicts = workloads.check(call, run_dir)
            wrong += sum(v is not None for v in verdicts)
            failures += verdicts
        shutil.rmtree(out / f"round{len(rounds)}", ignore_errors=True)
        rounds.append({"wall_s": wall, "traced": traced,
                       "layers": tracer.metrics() if tracer else None})
        if len(rounds) == 1:
            # later rounds add only the allocator's drift, which grows with
            # their number, and traced rounds also hold their spans
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last = time.perf_counter() - round_start
    print(json.dumps({
        "setup_s": setup_s, "rounds": rounds, "peak_rss_mb": peak_rss_mb,
        "node_updates": workload.node_updates, "failures": failures,
        "wrong": wrong, "blas_threads": _blas_threads()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
