"""Benchmark entry point: one workload, one run, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
The run makes the workload's inputs from the seed (inputs.py), measures
set-up time as the median of several fresh interpreter starts (trace 0
only), runs the workload in a child process (workload.py) with
PYTHONHASHSEED fixed, checks the outputs (checks.py) and prints, as the
last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are wall_s, setup_s and peak_rss_mb;
with ``--trace 1`` they are the per-layer metrics of a traced run.
Inputs, results and spans go to bench/out/ (ignored by git).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH))
from inputs import BUILDERS, WORKLOADS  # noqa: E402

# Fresh interpreter starts per run for setup_s; one more runs first,
# untimed, so that the byte-code cache is written before timing.
SETUP_STARTS = 9
_READY = "import sys, ltlim.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"

LAYER_UNITS = {
    "solver.nodes_per_s": "nodes/s",
    "oracle.rows_per_s": "rows/s",
}


def _unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _start_once(env: dict) -> float:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _READY], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=30)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import ltlim.cli")
    return elapsed


def setup_seconds(env: dict) -> float:
    _start_once(env)
    return statistics.median(_start_once(env) for _ in range(SETUP_STARTS))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ltlim" / "cli.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    out = Path("bench") / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    plan = BUILDERS[args.workload](args.seed, out)
    (out / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))

    setup_s = setup_seconds(env) if not args.trace else None

    result_path = out / "result.json"
    child = [
        sys.executable, str(BENCH / "workload.py"),
        "--plan", str(out / "plan.json"),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--result", str(result_path),
    ]
    try:
        subprocess.run(child, env=env, check=True, timeout=args.seconds + 120)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 3
    result = json.loads(result_path.read_text(encoding="utf-8"))

    problems = list(result["mismatches"])
    if Path(result["ltlim_file"]).resolve() != (SRC / "ltlim" / "cli.py").resolve():
        problems.append(f"ltlim was imported from {result['ltlim_file']}, not {SRC}")
    passed = [
        (item, output)
        for item, output in zip(plan, result["outputs"])
        if output["code"] == 0
    ]
    sys.path.insert(0, str(SRC))
    try:
        from checks import CHECKS

        problems += CHECKS[args.workload]([i for i, _ in passed], [o for _, o in passed])
    except Exception:  # a malformed output fails the check, it does not crash the run
        problems.append("checks raised:\n" + traceback.format_exc())
    for line in result["failures"] + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)

    rounds = result["round_times"]
    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
        + " ".join(f"{t:.3f}" for t in rounds)
        + (f" s; setup {setup_s:.4f} s" if setup_s is not None else " s"),
        file=sys.stderr,
    )
    if args.trace:
        layers = dict(result["layers"], **{"trace.wall_s": statistics.median(rounds)})
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
