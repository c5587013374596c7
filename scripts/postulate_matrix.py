"""Print the compliance matrix, certify the expected failures, and sweep.

For every cell expected to hold, runs a seeded random sweep and reports
the instance counts; the cells of one postulate share one sweep.  For
every cell expected to fail, recomputes the curated counterexample, or
reports the impossibility note for the two atom-count cells that
provably admit none.  Exits nonzero if a sweep finds a violation or a
certificate stops violating.
"""

import argparse
import sys
import time

from ltlim.postulates import (
    EXPECTED_MATRIX,
    Outcome,
    Postulate,
    curated_violation,
    run_curated,
    search_violation,
    sweep,
)

POSTULATES = tuple(Postulate)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweep", type=int, default=200, metavar="N",
                        help="instances per expected-holds cell (default 200)")
    parser.add_argument("--hunt", type=int, default=150, metavar="N",
                        help="instances when hunting the impossible cells")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    print("expected compliance matrix:")
    print(f"  {'measure':<8}" + "".join(f"{p.value:>5}" for p in POSTULATES))
    for measure_id, row in EXPECTED_MATRIX.items():
        marks = "".join(f"{'yes' if row[p] else 'NO':>5}" for p in POSTULATES)
        print(f"  {measure_id:<8}{marks}")

    problems = 0
    t0 = time.perf_counter()

    print(f"\nsweeping expected-holds cells ({args.sweep} instances, seed {args.seed}):")
    # One sweep per postulate checks each instance against all of the
    # postulate's expected-holds measures.
    swept = {
        (result.measure_id, postulate): result
        for postulate in POSTULATES
        for result in sweep(
            [mid for mid, row in EXPECTED_MATRIX.items() if row[postulate]],
            postulate,
            instances=args.sweep,
            seed=args.seed,
        )
    }
    for measure_id, row in EXPECTED_MATRIX.items():
        for postulate in POSTULATES:
            if not row[postulate]:
                continue
            result = swept[measure_id, postulate]
            status = "clean" if result.clean else "VIOLATIONS"
            print(
                f"  {measure_id:<6} {postulate.value}: holds={result.holds}"
                f" n/a={result.not_applicable}"
                f" violations={len(result.violations)} [{status}]"
            )
            if not result.clean:
                problems += 1
                detail = result.violations[0].details
                print(f"    first violating instance: {detail}")

    print("\ncertifying expected-fails cells:")
    for measure_id, row in EXPECTED_MATRIX.items():
        for postulate in POSTULATES:
            if row[postulate]:
                continue
            recipe = curated_violation(measure_id, postulate)
            if recipe is None:
                found = search_violation(
                    measure_id, postulate, instances=args.hunt, seed=args.seed
                )
                if found is None:
                    print(
                        f"  {measure_id:<6} {postulate.value}: no counterexample"
                        f" exists (monotone, free-formula blind); {args.hunt}-instance"
                        " hunt agrees"
                    )
                else:
                    problems += 1
                    print(
                        f"  {measure_id:<6} {postulate.value}: HUNT FOUND A"
                        f" VIOLATION, impossibility argument is wrong: {found.details}"
                    )
                continue
            verdict = run_curated(measure_id, postulate)
            values = {
                key: value
                for key, value in verdict.details.items()
                if key.startswith("value")
            }
            if verdict.outcome is Outcome.VIOLATED:
                print(f"  {measure_id:<6} {postulate.value}: certified {values}")
            else:
                problems += 1
                print(
                    f"  {measure_id:<6} {postulate.value}: CERTIFICATE NO LONGER"
                    f" VIOLATES ({verdict.outcome.value}) {values}"
                )

    elapsed = time.perf_counter() - t0
    if problems:
        print(f"\n{problems} PROBLEM CELLS in {elapsed:.1f}s")
        return 1
    print(f"\nmatrix fully certified in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
