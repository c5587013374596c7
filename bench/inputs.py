"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own code: no function of ``ltlim``
is called, so a change to ``ltlim.generators`` or to the translators
cannot change what the benchmark feeds the program.  The one exception
is ``postulate-sweep``, whose instances come from the program's sweep
generator through ``postulates --sweep N --seed S``.

Each builder writes its input files into ``out`` and returns a plan:
a list of items, each with the ``argv`` of one ``ltlim`` command (paths
relative to the checkout root) and an ``expect`` record that the
correctness checks read.  One round of a workload runs every item once.

For the families with closed forms (``declare-ladder`` and
``trace-localise``) the seed renames the atoms and shuffles the order of
formulas and constraints.  The new names keep the sorted order of the
canonical ones, and the search orders cells by sorted atom name, so the
search does the same work on every seed while the text differs.  For
``oracle-check`` the seed draws the connectives and leaves of formulas
over fixed skeletons, so the cell count and the shape of every base,
which set the oracle's cost, do not depend on the seed.
"""

from __future__ import annotations

import random
import re
import string
from pathlib import Path

# Instances per postulate cell in one sweep command.
SWEEP_INSTANCES = 250

_FIRST = string.ascii_lowercase
_REST = string.ascii_lowercase + string.digits


def fresh_names(rng: random.Random, k: int) -> list[str]:
    """k distinct atom names, sorted, so index order equals name order."""
    names: set[str] = set()
    while len(names) < k:
        name = rng.choice(_FIRST) + "".join(
            rng.choice(_REST) for _ in range(rng.randint(0, 3))
        )
        if name not in ("true", "false"):
            names.add(name)
    return sorted(names)


# ---------------------------------------------------------------- declare

# Constraint families over canonical activities a, b, c.  Each entry
# gives the activities and the constraint lines for a trace length m.
def _decl_family(family: str, m: int, n: int | None) -> tuple[list[str], list[str]]:
    if family == "overlap":
        return ["a", "b"], ["Init(a)", "Response(a, b)", "NotResponse(a, b)"]
    if family == "double_overlap":
        return ["a", "b", "c"], [
            "Init(a)",
            "Response(a, b)",
            "NotResponse(a, b)",
            "Response(a, c)",
            "NotResponse(a, c)",
        ]
    if family == "bounded":
        return ["a"], ["AtMost(a, 1)", f"AtLeast(a, {n})"]
    if family == "chain":
        return ["a", "b"], ["Init(a)", "ChainResponse(a, b)", "NotChainResponse(a, b)"]
    if family == "end_chain":
        return ["a", "b"], ["End(a)", "ChainResponse(a, b)"]
    if family == "beyond":
        # More occurrences than the trace has states.
        return ["a"], [f"AtLeast(a, {m + 2})"]
    raise ValueError(family)


# (family, m, n): rungs at growing m.  Together they take 5-7 s on a
# 2-core x86-64 machine; double_overlap at m=4 is half of that.
LADDER = (
    ("overlap", 2, None),
    ("overlap", 3, None),
    ("overlap", 4, None),
    ("overlap", 5, None),
    ("double_overlap", 2, None),
    ("double_overlap", 3, None),
    ("double_overlap", 4, None),
    ("bounded", 6, 2),
    ("bounded", 6, 4),
    ("bounded", 8, 2),
    ("bounded", 8, 4),
    ("chain", 3, None),
    ("chain", 4, None),
    ("chain", 5, None),
    ("end_chain", 4, None),
    ("end_chain", 5, None),
    ("end_chain", 6, None),
    ("beyond", 3, None),
    ("beyond", 4, None),
)


def _rename(text: str, mapping: dict[str, str]) -> str:
    """Rename whole words; canonical atoms are single lowercase letters."""
    return re.sub(r"\w+", lambda word: mapping.get(word.group(), word.group()), text)


def declare_ladder(seed: int, out: Path) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for index, (family, m, n) in enumerate(LADDER):
        canonical, lines = _decl_family(family, m, n)
        names = fresh_names(rng, len(canonical))
        mapping = dict(zip(canonical, names))
        lines = [_rename(line, mapping) for line in lines]
        rng.shuffle(lines)
        text = f"activities: {', '.join(names)}\n" + "\n".join(lines) + "\n"
        path = out / f"ladder{index:02d}_{family}_m{m}.decl"
        path.write_text(text, encoding="utf-8")
        emit = path.with_suffix(".ltlkb")
        items.append(
            {
                "argv": [
                    "declare", str(path), "--m", str(m), "--measure", "all",
                    "--emit", str(emit), "--format", "json",
                ],
                "expect": {
                    "family": family, "m": m, "n": n, "atoms": names,
                    "decl": str(path),
                },
            }
        )
    return items


# ---------------------------------------------------------- trace bases

def at_least(atom: str, n: int) -> str:
    """AtLeast(atom, n) spelled out, the reading of the constraint model."""
    if n == 1:
        return f"({atom} | (F {atom}))"
    step = f"({atom} & (X {at_least(atom, n - 1)}))"
    return f"({step} | (F {step}))"


def at_most_once(atom: str) -> str:
    return f"(G ((! {atom}) | (X (G (! {atom})))))"


def _trace_family(family: str, m: int, k: int) -> tuple[list[str], list[str], str]:
    """Canonical atoms, formula lines and the G reading of one base."""
    atoms = list("abcdefgh"[:k])
    if family == "bounded":
        # k is the occurrence bound n here; the base has one atom.
        return ["a"], [at_most_once("a"), at_least("a", k)], "reflexive"
    if family == "overlap":
        return ["a", "b"], ["a", "(G (a -> (F b)))", "(G (a -> (! (F b))))"], "reflexive"
    if family == "always":
        lines = []
        for x in atoms:
            lines += [f"(G {x})", f"(G (! {x}))"]
        return atoms, lines, "strict"
    if family == "next":
        lines = []
        for i, x in enumerate(atoms):
            prefix = "X " * next_depth(i)
            lines += [f"({prefix}{x})", f"({prefix}(! {x}))"]
        return atoms, lines, "strict"
    raise ValueError(family)


def next_depth(i: int) -> int:
    """Depth of the X prefix on the i-th atom of a next-clash."""
    return 1 + i % 2


# (family, m, k): k is the bound n for bounded occurrence, else the
# number of atoms.  About 4.5 s per round on a 2-core x86-64 machine.
TRACE_BASES = (
    ("bounded", 8, 4),
    ("bounded", 10, 3),
    ("overlap", 6, 2),
    ("always", 5, 2),
    ("always", 10, 3),
    ("next", 3, 3),
    ("next", 10, 3),
)


def trace_localise(seed: int, out: Path) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for index, (family, m, k) in enumerate(TRACE_BASES):
        canonical, lines, g_mode = _trace_family(family, m, k)
        names = fresh_names(rng, len(canonical))
        mapping = dict(zip(canonical, names))
        lines = [_rename(line, mapping) for line in lines]
        rng.shuffle(lines)
        path = out / f"trace{index:02d}_{family}_m{m}_k{k}.ltlkb"
        path.write_text(f"m = {m}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        common = ["--g-semantics", g_mode, "--format", "json"]
        expect = {
            "family": family, "m": m, "k": k, "atoms": names,
            "kb": str(path), "g_mode": g_mode,
        }
        for command in (
            ["measure", str(path), "--measure", "LTL_d"],
            ["measure", str(path), "--measure", "LTL_c"],
            ["explain", str(path), "--max-bases", "100000"],
        ):
            items.append({"argv": command + common, "expect": expect})
    return items


# ----------------------------------------------------------- oracle bases

# Formula skeletons: "L" is a leaf (an atom), ("B", l, r) a binary
# propositional node (& or |, same cost in every evaluator), ("U", l, r)
# until, ("X", c) next and ("N", c) negation.  Only leaves and the
# choice of & or | depend on the seed.
_SKELETONS = (
    ("U", "L", ("B", "L", "L")),
    ("N", ("U", "L", "L")),
    ("X", ("B", "L", ("N", "L"))),
)

# (atoms, m): every slot has exactly 12 cells, the default oracle cap.
ORACLE_SLOTS = ((2, 5), (3, 3), (4, 2), (2, 5), (3, 3), (4, 2), (2, 5), (3, 3))
ORACLE_BATCH = 4


def _leaves(node) -> int:
    return 1 if node == "L" else sum(_leaves(c) for c in node[1:])


def _render(node, leaves, rng: random.Random) -> str:
    if node == "L":
        return next(leaves)
    kind = node[0]
    if kind == "U":
        return f"({_render(node[1], leaves, rng)} U {_render(node[2], leaves, rng)})"
    if kind == "B":
        op = rng.choice("&|")
        return f"({_render(node[1], leaves, rng)} {op} {_render(node[2], leaves, rng)})"
    if kind == "X":
        return f"(X {_render(node[1], leaves, rng)})"
    return f"(! {_render(node[1], leaves, rng)})"


def oracle_base_text(rng: random.Random, n_atoms: int, m: int) -> str:
    """A base over exactly n_atoms atoms: every atom fills a leaf."""
    atoms = fresh_names(rng, n_atoms)
    total = sum(_leaves(s) for s in _SKELETONS)
    leaves = atoms + [rng.choice(atoms) for _ in range(total - n_atoms)]
    rng.shuffle(leaves)
    it = iter(leaves)
    lines = [_render(s, it, rng) for s in _SKELETONS]
    return f"m = {m}\n" + "\n".join(lines) + "\n"


def oracle_check(seed: int, out: Path) -> list[dict]:
    rng = random.Random(seed)
    paths = []
    for index, (n_atoms, m) in enumerate(ORACLE_SLOTS):
        path = out / f"oracle{index:02d}_a{n_atoms}_m{m}.ltlkb"
        path.write_text(oracle_base_text(rng, n_atoms, m), encoding="utf-8")
        paths.append(str(path))
    items = []
    for start in range(0, len(paths), ORACLE_BATCH):
        batch = paths[start : start + ORACLE_BATCH]
        ms = [m for _, m in ORACLE_SLOTS[start : start + ORACLE_BATCH]]
        items.append(
            {
                "argv": ["oracle-check", *batch, "--format", "json"],
                "expect": {"inputs": batch, "m": ms},
            }
        )
    return items


# The compliance matrix, minus one cell.  (LTL_d, IN) is expected to
# hold, but some seeds find a violation (see CHANGES.md), and a check
# that fails on some seeds only cannot be part of a steady workload.
MEASURES = ("d", "MI", "p", "r", "c", "at", "LTL_d", "LTL_c")
POSTULATES = ("CO", "MO", "IN", "DO", "TS")
SWEEP_LEFT_OUT = (("LTL_d", "IN"),)


def postulate_sweep(seed: int, out: Path) -> list[dict]:
    cells = [(m, p) for p in POSTULATES for m in MEASURES if (m, p) not in SWEEP_LEFT_OUT]
    # One command per postulate over all measures, or per cell where a
    # cell is left out; every cell draws its own instances from the seed.
    items = []
    for postulate in POSTULATES:
        row = [m for m, p in cells if p == postulate]
        for measure in ["all"] if len(row) == len(MEASURES) else row:
            items.append(
                {
                    "argv": [
                        "postulates", "--sweep", str(SWEEP_INSTANCES), "--seed", str(seed),
                        "--measure", measure, "--postulate", postulate, "--format", "json",
                    ],
                    "expect": {"instances": SWEEP_INSTANCES, "cells": [
                        [m, postulate] for m in (row if measure == "all" else [measure])
                    ]},
                }
            )
    return items


BUILDERS = {
    "declare-ladder": declare_ladder,
    "trace-localise": trace_localise,
    "oracle-check": oracle_check,
    "postulate-sweep": postulate_sweep,
}
WORKLOADS = tuple(BUILDERS)
