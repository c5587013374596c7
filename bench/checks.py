"""Correctness checks on the outputs of one round, made after timing.

The expected values come from closed forms derived in README.md, not
from the program.  Beyond them, every witness is re-evaluated with
``ltlim.semantics.satisfies3`` (the clause-by-clause evaluator, separate
from the search) and its cost is recounted from its cells; the
exhaustive oracle recomputes every base of at most 12 cells; and the
inequalities that hold by definition are checked wherever the measures
involved are reported:

    d = [LTL_c > 0],  LTL_d <= LTL_c,  c <= LTL_c,  r <= MI.

Each check function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import itertools
import json

from ltlim.declare import load_declare, translate_model
from ltlim.formula import GMode, load_kb
from ltlim.measures import run_measures
from ltlim.oracle import DEFAULT_CELL_CAP, oracle_min_cost, oracle_minimal_conflict_bases
from ltlim.postulates import EXPECTED_MATRIX, Postulate
from ltlim.semantics import Interpretation3, satisfies3

from inputs import next_depth

INF = "inf"


def _num(value):
    return float("inf") if value == INF else value


def _cells(kb) -> int:
    return (kb.trace_length_m + 1) * len(kb.atoms())


def inequalities(values: dict) -> list[str]:
    v = {key: _num(value) for key, value in values.items()}
    problems = []
    if "d" in v and "LTL_c" in v and v["d"] != int(v["LTL_c"] > 0):
        problems.append(f"d={values['d']} but LTL_c={values['LTL_c']}")
    if "LTL_d" in v and "LTL_c" in v and not v["LTL_d"] <= v["LTL_c"]:
        problems.append(f"LTL_d={values['LTL_d']} > LTL_c={values['LTL_c']}")
    if "c" in v and "LTL_c" in v and not v["c"] <= v["LTL_c"]:
        problems.append(f"c={values['c']} > LTL_c={values['LTL_c']}")
    if "r" in v and "MI" in v and not v["r"] <= v["MI"]:
        problems.append(f"r={values['r']} > MI={values['MI']}")
    return problems


def witness(payload: dict | None, kb, *, affected=None, cells=None) -> list[str]:
    """Re-evaluate a witness and recount its cost from its cells."""
    if payload is None:
        wanted = affected if affected is not None else cells
        return [] if wanted == INF else [f"no witness for finite value {wanted}"]
    nu = Interpretation3.from_json_dict(payload)
    problems = []
    if not satisfies3(nu, kb):
        problems.append("witness is not a three-valued model of the base")
    glut = [
        (state, atom)
        for state, row in enumerate(payload["states"])
        for atom, token in row.items()
        if token == "B"
    ]
    states = sorted({state for state, _ in glut})
    if payload["affected_states"] != states:
        problems.append(f"affected_states {payload['affected_states']} != recount {states}")
    if sorted(map(tuple, payload["conflict_base"])) != sorted(glut):
        problems.append("conflict_base differs from the recounted glut cells")
    if affected is not None and len(states) != affected:
        problems.append(f"witness touches {len(states)} states, value is {affected}")
    if cells is not None and len(glut) != cells:
        problems.append(f"witness has {len(glut)} glut cells, value is {cells}")
    return problems


def _oracle_values(kb) -> dict:
    values = run_measures(kb, use_oracle=True, oracle_cell_cap=DEFAULT_CELL_CAP).values
    return {key: INF if value == float("inf") else int(value) for key, value in values.items()}


# ------------------------------------------------------------ declare

def declare_expected(family: str, m: int, n: int | None) -> dict:
    """Closed forms of all eight measures (README.md, "Closed forms")."""
    if family == "overlap":
        return dict(d=1, MI=1, p=3, r=1, c=1, at=2, LTL_d=1, LTL_c=1)
    if family == "double_overlap":
        return dict(d=1, MI=2, p=5, r=1, c=2, at=3, LTL_d=1, LTL_c=2)
    if family == "bounded":
        return dict(d=1, MI=1, p=2, r=1, c=1, at=1, LTL_d=n - 1, LTL_c=n - 1)
    if family == "chain":
        return dict(d=1, MI=1, p=3, r=1, c=1, at=2, LTL_d=1, LTL_c=1)
    if family == "end_chain":
        return dict(d=1, MI=1, p=2, r=1, c=1, at=2, LTL_d=1, LTL_c=1)
    if family == "beyond":
        return dict(d=1, MI=1, p=1, r=1, c=INF, at=1, LTL_d=INF, LTL_c=INF)
    raise ValueError(family)


def check_declare_ladder(plan: list[dict], outputs: list[dict]) -> list[str]:
    problems = []
    for item, output in zip(plan, outputs):
        e = item["expect"]
        tag = f"{e['family']} m={e['m']}"
        out = json.loads(output["stdout"])
        kb = translate_model(load_declare(e["decl"]), m=e["m"])
        got = out["measures"]
        want = declare_expected(e["family"], e["m"], e["n"])
        found = []
        if got != want:
            found.append(f"measures {got} != closed form {want}")
        found += inequalities(got)
        found += witness(out["witness_min_states"], kb, affected=got["LTL_d"])
        found += witness(out["witness_min_conflict"], kb, cells=got["LTL_c"])
        if _cells(kb) <= DEFAULT_CELL_CAP and _oracle_values(kb) != got:
            found.append(f"oracle {_oracle_values(kb)} != {got}")
        problems += [f"{tag}: {p}" for p in found]
    return problems


# ------------------------------------------------------ trace-localise

def trace_expected(family: str, m: int, k: int, atoms: list[str]):
    """(LTL_d, LTL_c, minimal conflict bases) of a trace family."""
    if family == "bounded":
        # C(m + 1, k - 1) bases: any k - 1 of the m + 1 states.
        bases = [
            tuple((s, atoms[0]) for s in states)
            for states in itertools.combinations(range(m + 1), k - 1)
        ]
        return k - 1, k - 1, bases
    if family == "overlap":
        a, b = atoms
        return 1, 1, [((0, a),)] + [((j, b),) for j in range(1, m + 1)]
    if family == "always":
        base = tuple(sorted((j, x) for j in range(1, m + 1) for x in atoms))
        return m, len(atoms) * m, [base]
    if family == "next":
        base = tuple(sorted((next_depth(i), x) for i, x in enumerate(atoms)))
        return len({s for s, _ in base}), len(atoms), [base]
    raise ValueError(family)


def _ordered(bases) -> list:
    return sorted((tuple(map(tuple, b)) for b in bases), key=lambda b: (len(b), sorted(b)))


def check_trace_localise(plan: list[dict], outputs: list[dict]) -> list[str]:
    problems = []
    seen: dict[str, dict] = {}
    for item, output in zip(plan, outputs):
        e = item["expect"]
        tag = f"{e['family']} m={e['m']} k={e['k']} {item['argv'][0]}"
        out = json.loads(output["stdout"])
        kb = load_kb(e["kb"], g_mode=GMode(e["g_mode"]))
        ltl_d, ltl_c, bases = trace_expected(e["family"], e["m"], e["k"], e["atoms"])
        values = seen.setdefault(e["kb"], {})
        found = []
        if item["argv"][0] == "measure":
            got = out["measures"]
            values.update(got)
            if "LTL_d" in got:
                if got != {"LTL_d": ltl_d}:
                    found.append(f"{got} != LTL_d={ltl_d}")
                found += witness(out["witness_min_states"], kb, affected=got["LTL_d"])
            else:
                if got != {"LTL_c": ltl_c}:
                    found.append(f"{got} != LTL_c={ltl_c}")
                found += witness(out["witness_min_conflict"], kb, cells=got["LTL_c"])
        else:
            got_bases = [tuple(map(tuple, b)) for b in out["conflict_bases"]]
            if out["min_affected_states"] != ltl_d:
                found.append(f"min_affected_states {out['min_affected_states']} != {ltl_d}")
            if out["signature_count"] != len(bases) or out["conflict_bases_shown"] != len(bases):
                found.append(f"{out['signature_count']} bases, closed form {len(bases)}")
            if got_bases != _ordered(bases):
                found.append("conflict bases differ from the closed form")
            found += witness(out["witness"], kb, affected=out["min_affected_states"])
            if _cells(kb) <= DEFAULT_CELL_CAP:
                o_d = oracle_min_cost(kb, "affected_states")[0]
                o_c = oracle_min_cost(kb, "conflict_base")[0]
                o_min, o_bases, _ = oracle_minimal_conflict_bases(kb)
                if (o_d, o_c, o_min) != (ltl_d, ltl_c, ltl_d) or _ordered(o_bases) != got_bases:
                    found.append(f"oracle gives LTL_d={o_d} LTL_c={o_c} and other bases")
        found += inequalities(values)
        problems += [f"{tag}: {p}" for p in found]
    return problems


# -------------------------------------------------------- oracle-check

def check_oracle_check(plan: list[dict], outputs: list[dict]) -> list[str]:
    problems = []
    for item, output in zip(plan, outputs):
        e = item["expect"]
        out = json.loads(output["stdout"])
        results = out["results"]
        if not out["all_agree"]:
            problems.append(f"{e['inputs']}: solver and oracle disagree")
        if [r["input"] for r in results] != e["inputs"] or [r["m"] for r in results] != e["m"]:
            problems.append(f"{e['inputs']}: results do not match the inputs")
        for entry in results:
            solver = {mid: pair["solver"] for mid, pair in entry["measures"].items()}
            oracle = {mid: pair["oracle"] for mid, pair in entry["measures"].items()}
            if solver != oracle or not entry["agree"]:
                problems.append(f"{entry['input']}: solver {solver} != oracle {oracle}")
            problems += [f"{entry['input']}: {p}" for p in inequalities(solver)]
    return problems


# ----------------------------------------------------- postulate-sweep

def check_postulate_sweep(plan: list[dict], outputs: list[dict]) -> list[str]:
    problems = []
    for item, output in zip(plan, outputs):
        n = item["expect"]["instances"]
        out = json.loads(output["stdout"])
        cells = out["cells"]
        got = [[cell["measure"], cell["postulate"]] for cell in cells]
        if got != item["expect"]["cells"]:
            problems.append(f"cells {got} != {item['expect']['cells']}")
        for cell in cells:
            tag = f"({cell['measure']}, {cell['postulate']})"
            expected = EXPECTED_MATRIX[cell["measure"]][Postulate(cell["postulate"])]
            if cell["expected"] != ("holds" if expected else "fails"):
                problems.append(f"{tag}: reported as expected to {cell['expected']}")
            total = cell["holds"] + cell["not_applicable"] + len(cell["violations"])
            if cell["instances"] != n or total != n:
                problems.append(f"{tag}: holds + n/a + violations = {total}, N = {n}")
            if cell["expected"] == "holds" and cell["violations"]:
                problems.append(f"{tag}: {len(cell['violations'])} violations of a holding cell")
    return problems


CHECKS = {
    "declare-ladder": check_declare_ladder,
    "trace-localise": check_trace_localise,
    "oracle-check": check_oracle_check,
    "postulate-sweep": check_postulate_sweep,
}


if __name__ == "__main__":
    # Print the closed forms of every rung:
    #   PYTHONPATH=src:bench python3 bench/checks.py
    from inputs import LADDER, TRACE_BASES

    for family, m, n in LADDER:
        print("declare", family, f"m={m}", f"n={n}", declare_expected(family, m, n))
    for family, m, k in TRACE_BASES:
        atoms = list("abcdefgh"[: {"bounded": 1, "overlap": 2}.get(family, k)])
        ltl_d, ltl_c, bases = trace_expected(family, m, k, atoms)
        print("trace", family, f"m={m}", f"k={k}", f"LTL_d={ltl_d} LTL_c={ltl_c} bases={len(bases)}")
