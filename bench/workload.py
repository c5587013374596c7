"""Run one workload's commands through ltlim.cli.main, in this process.

Started by run.py with PYTHONHASHSEED fixed and ``src`` on PYTHONPATH.
It runs whole rounds of the plan's commands, one after the other on one
thread, until the next round would end past ``--seconds``; at least one
round always runs.  A garbage collection precedes every command and is
not timed.  The first round's outputs are kept for the correctness
checks; every later round must reproduce them byte for byte.

Writes a JSON result: round and command times, the first round's
outputs and exit codes, the failed commands, the rounds whose outputs
differ, the process's peak resident memory and, with ``--trace 1``, the
per-layer metrics (the spans go to a file beside it).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import time
import traceback
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    argvs = [item["argv"] for item in plan]

    import ltlim.cli

    tracer = None
    run_command = ltlim.cli.main
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

        def run_command(argv):
            return tracer.span("cli", ltlim.cli.main, (argv,), {})

    round_times: list[float] = []
    item_times: list[list[float]] = []
    first: list[dict] | None = None
    failures: list[str] = []
    mismatches: list[str] = []
    attempted = failed = 0
    clock = time.perf_counter
    start = clock()
    while True:
        outputs = []
        times = []
        for index, argv in enumerate(argvs):
            if tracer is not None:
                tracer.item = index
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            attempted += 1
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_command(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except Exception:  # a traceback is a failed command, not a crash
                code = None
                err.write(traceback.format_exc())
            times.append(clock() - t0)
            if code != 0:
                failed += 1
                if first is None:
                    failures.append(f"{' '.join(argv)}: exit {code}: {err.getvalue()[-2000:]}")
            outputs.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
        round_times.append(sum(times))
        item_times.append(times)
        if first is None:
            first = outputs
        elif outputs != first:
            mismatches.append(f"round {len(round_times)} output differs from round 1")
        spent = clock() - start
        if spent + round_times[-1] > args.seconds:
            break

    result = {
        "round_times": round_times,
        "item_times": item_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "mismatches": mismatches,
        "outputs": first,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ltlim_file": ltlim.cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(round_times))
        tracer.write(Path(args.result).with_name("spans.jsonl"))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
