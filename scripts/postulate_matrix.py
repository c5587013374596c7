"""Check the compliance matrix that ``ltlim postulates`` reports.

Reads two JSON reports of ``ltlim postulates``, run in process: the
matrix, which recomputes the curated certificate of each expected-fails
cell, and ``--sweep N --seed S``, which checks N seeded random instances
against every cell.  A cell is a surprise when its certificate no longer
violates its postulate, or when it has no certificate and its sweep
found a violation: the expected-holds cells, and the two atom-count
cells that provably admit no counterexample.  Prints one line per cell
and exits 1 on any surprise.
"""

import argparse
import contextlib
import io
import json
import sys

from ltlim.cli import main as ltlim


def report(*argv: str) -> dict:
    """The JSON report of ``ltlim postulates`` with ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ltlim(["postulates", "--format", "json", *argv])
    if code:
        raise SystemExit(f"ltlim postulates {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweep", type=int, default=200, metavar="N",
                        help="instances per cell (default 200)")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    matrix = report()["cells"]
    swept = report("--sweep", str(args.sweep), "--seed", str(args.seed))["cells"]
    print(f"compliance matrix, {args.sweep} instances per cell, seed {args.seed}:")
    surprises = 0
    for cell, sweep in zip(matrix, swept):
        certificate = cell.get("certificate")
        violations = len(sweep["violations"])
        if certificate:
            surprise = certificate["outcome"] != "violated"
            evidence = f"certificate {certificate['outcome']}"
        else:
            surprise = violations > 0
            evidence = "no certificate"
        surprises += surprise
        print(
            f"  {cell['measure']:<6} {cell['postulate']}: expected {cell['expected']:<5}"
            f" {evidence}; sweep holds={sweep['holds']} n/a={sweep['not_applicable']}"
            f" violations={violations}" + (" SURPRISE" if surprise else "")
        )
    if surprises:
        print(f"{surprises} surprising cells")
        return 1
    print("every cell as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
