"""Benchmark runner for memoplate's command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload edec-decay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

A run first samples set-up in interpreters that do nothing else, then starts
one fresh interpreter (child.py) that repeats whole rounds of the workload
while the next one should end within ``--seconds``. Every child's
BLAS/OpenMP thread variables are set to 1 before NumPy loads, and children
run one after another from this single process. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics (medians over the rounds), with ``--trace 1`` the
per-layer metrics of the traced rounds, which alternate with untraced ones
so that the tracing overhead is measured in the same run.

The inputs contain no randomness; ``--seed`` is accepted and recorded, and
every seed runs the same inputs.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170.0        # a run must end within 180 s
SETUPS = 4                 # set-up-only interpreters that open every run

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "node_updates_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def _child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("MEMOPLATE_THREADS", None)
    env["PYTHONPATH"] = str(src)
    return env


def _child(workload: str, out: Path, trace: bool, tiny: bool, env: dict,
           timeout: float, seconds: float = 0.0, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--out", str(out), "--trace", str(int(trace)), "--seconds", repr(seconds)]
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("blas_threads") not in (None, 1):
        raise RuntimeError(f"OpenBLAS runs {result['blas_threads']} threads, not 1")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return result


def run(workload: str, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Whole rounds until ``seconds`` have passed; one result object."""
    src = Path.cwd() / "src"
    env = _child_env(src)
    runs_dir = HERE / ".runs"
    begin = time.perf_counter()

    def child(tag, **kwargs):
        return _child(workload, runs_dir / f"{os.getpid()}-{tag}", trace, tiny, env,
                      RUN_LIMIT_S - (time.perf_counter() - begin), **kwargs)

    # set-up is sampled in interpreters of its own as well, so that it has a
    # median; these also warm the file cache for the measured child
    setups = [child(f"setup{k}", setup_only=True)["setup_s"] for k in range(SETUPS)]
    result = child("rounds", seconds=seconds - (time.perf_counter() - begin))
    with contextlib.suppress(OSError):
        runs_dir.rmdir()
    rounds = result["rounds"]
    for k, r in enumerate(rounds):
        print(f"{workload} round {k + 1}{' traced' if r['traced'] else ''}: "
              f"wall_s {r['wall_s']:.4f}", flush=True)
    failures = result["failures"]
    for reason in sorted({f for f in failures if f is not None}):
        print(f"{workload} failed operation: {reason}", file=sys.stderr)
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["bench.trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                            - statistics.median(plain))
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in values.items()}
    else:
        wall_s = statistics.median(plain)
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups + [result["setup_s"]]),
            "node_updates_per_s": result["node_updates"] / wall_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return {"correct": result["wrong"] == 0,
            "attempted": len(failures),
            "failed": sum(f is not None for f in failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the inputs contain no randomness")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # end through SystemExit on SIGTERM, so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (Path.cwd() / "src" / "memoplate" / "cli.py").is_file():
        print("run from the root of a memoplate checkout: src/memoplate/cli.py "
              "is missing", file=sys.stderr)
        return 2
    print(f"seed {args.seed}: the inputs do not depend on it")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run(name, args.seconds, bool(args.trace), args.tiny)
        res = results[name]
        for metric, m in res["metrics"].items():
            print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
