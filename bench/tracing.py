"""Spans around the public functions of each ltlim layer.

The tracer patches names from the outside: every function is wrapped
where it is looked up, because several modules import a function by
name (``ltlim.measures`` holds its own references to ``sat2``,
``minimize`` and ``decide_b_atoms``).  A name that a later version of
the program no longer has is skipped, and its metrics read 0.

Spans are kept in memory as ``[name, start, end, parent, item, counts]``
lists and written out when the run ends.  A span is not opened while a
span of the same name is already open, so recursion and re-entry are
counted once.  Layer times are inclusive span times; ``*.self_s`` is a
span's time minus the time of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from functools import cached_property
from pathlib import Path

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: set[str] = set()
        self.item = -1
        self.counters: Counter = Counter()

    # -- recording ---------------------------------------------------
    def span(self, name: str, fn, args, kwargs, count=None):
        if name in self.open_names:
            return fn(*args, **kwargs)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.item, None]
        index = len(self.spans)
        self.spans.append(record)
        self.stack.append(index)
        self.open_names.add(name)
        record[1] = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = _clock()
            self.stack.pop()
            self.open_names.discard(name)
        if count is not None:
            record[5] = count(result, args, kwargs)
        return result

    # -- patching ----------------------------------------------------
    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, count)

        return wrapper

    def install(self) -> None:
        def patch(module_names, attr, make):
            """Replace attr in each module with make(original)."""
            for module_name in module_names:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is not None:
                    setattr(module, attr, make(original))

        def plain(name, count=None):
            return lambda fn: self.wrap(fn, name, count)

        def nodes(result, args, kwargs):
            return {"nodes": result.nodes, "found": int(result.found)}

        patch(["ltlim.formula", "ltlim.postulates"], "parse_formula", plain("formula.parse"))
        patch(["ltlim.cli"], "translate_model", plain("declare.translate"))
        patch(["ltlim.cli"], "translation_pairs", plain("declare.translate"))
        patch(["ltlim.solver"], "satisfies3", plain("semantics.satisfies3"))
        patch(
            ["ltlim.measures", "ltlim.postulates", "ltlim.generators"],
            "sat2",
            plain("solver.sat2", nodes),
        )
        patch(["ltlim.measures"], "decide_b_atoms", plain("solver.decide_b_atoms", nodes))
        minimize_span = plain(
            "solver.minimize",
            lambda r, a, k: {"nodes": r.nodes, "probes": r.probes},
        )
        patch(["ltlim.solver"], "minimize", minimize_span)
        patch(
            ["ltlim.measures"],
            "minimize",
            lambda fn: self._per_measure(minimize_span(fn)),
        )
        patch(
            ["ltlim.cli"],
            "count_min_conflict_signatures",
            plain("solver.explain", lambda r, a, k: {"bases": len(r.bases)}),
        )
        patch(["ltlim.measures"], "_sat2_check", self._sat2_check)
        patch(
            ["ltlim.measures"],
            "_mis_index_sets",
            plain("measures.mis", lambda r, a, k: {"found": len(r)}),
        )
        patch(["ltlim.measures"], "_b_atoms_minimum", plain("measures.c"))
        patch(["ltlim.oracle"], "oracle_sat2", plain("oracle.sat2"))
        three = plain("oracle.three_valued")
        patch(["ltlim.oracle"], "oracle_min_b_atoms", three)
        patch(["ltlim.oracle"], "oracle_minimal_conflict_bases", three)
        patch(
            ["ltlim.oracle"],
            "oracle_min_cost",
            lambda fn: self._per_measure(three(fn)),
        )
        patch(["ltlim.oracle"], "_model_space", self._model_space)
        patch(["ltlim.cli"], "sweep", plain("postulates"))

        # Derived connectives are expanded once per base, in the
        # cached core_formulas property.
        formula = importlib.import_module("ltlim.formula")
        prop = formula.KnowledgeBase.__dict__.get("core_formulas")
        if isinstance(prop, cached_property):
            wrapped = cached_property(self.wrap(prop.func, "formula.expand"))
            wrapped.__set_name__(formula.KnowledgeBase, "core_formulas")
            formula.KnowledgeBase.core_formulas = wrapped

    def _per_measure(self, fn):
        """Attribute a minimisation to LTL_d or LTL_c by its second
        argument, a CostMode for the solver and a string for the oracle."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kind = getattr(args[1], "value", args[1])
            name = "measures.ltl_d" if kind == "affected_states" else "measures.ltl_c"
            return self.span(name, fn, args, kwargs)

        return wrapper

    def _sat2_check(self, fn):
        """The d measure is the one satisfiability check made outside
        the minimal-subset enumeration; inside it, count tested subsets."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if "measures.mis" in self.open_names:
                self.counters["measures.mis.tested"] += 1
                return fn(*args, **kwargs)
            return self.span("measures.d", fn, args, kwargs)

        return wrapper

    def _model_space(self, fn):
        """Count enumerations and the rows they enumerate, computed as
        base ** cells from the arguments rather than read off the grid."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            kb = args[0]
            signature = args[1] if len(args) > 1 else kwargs.get("signature")
            atoms = signature if signature is not None else kb.atoms()
            cells = (kb.trace_length_m + 1) * len(atoms)
            self.counters["oracle.enumerations"] += 1
            self.counters["oracle.rows"] += (2 if kwargs.get("two_valued") else 3) ** cells
            return result

        return wrapper

    # -- output ------------------------------------------------------
    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round layer metrics from the recorded spans."""
        time_in: dict[str, float] = {}
        calls: dict[str, int] = {}
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            name, start, end, parent, _, counts = record
            duration = end - start
            time_in[name] = time_in.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] += duration
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        self_time: dict[str, float] = {}
        for index, record in enumerate(self.spans):
            name = record[0]
            self_time[name] = self_time.get(name, 0.0) + (
                record[2] - record[1] - child_time[index]
            )

        def t(name):
            return time_in.get(name, 0.0)

        def n(key):
            return totals.get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        solver_nodes = (
            n("solver.sat2.nodes") + n("solver.decide_b_atoms.nodes") + n("solver.minimize.nodes")
        )
        solver_s = t("solver.sat2") + t("solver.decide_b_atoms") + t("solver.minimize")
        oracle_s = t("oracle.sat2") + t("oracle.three_valued")
        metrics = {
            "formula.parse_s": t("formula.parse"),
            "formula.expand_s": t("formula.expand"),
            "declare.translate_s": t("declare.translate"),
            "semantics.satisfies3_s": t("semantics.satisfies3"),
            "semantics.satisfies3_calls": calls.get("semantics.satisfies3", 0),
            "solver.sat2_s": t("solver.sat2"),
            "solver.sat2_calls": calls.get("solver.sat2", 0),
            "solver.sat2_nodes": n("solver.sat2.nodes"),
            "solver.decide_b_atoms_s": t("solver.decide_b_atoms"),
            "solver.decide_b_atoms_calls": calls.get("solver.decide_b_atoms", 0),
            "solver.decide_b_atoms_nodes": n("solver.decide_b_atoms.nodes"),
            "solver.minimize_s": t("solver.minimize"),
            "solver.minimize_probes": n("solver.minimize.probes"),
            "solver.minimize_nodes": n("solver.minimize.nodes"),
            "solver.explain_s": t("solver.explain"),
            "solver.explain_bases": n("solver.explain.bases"),
            "measures.d_s": t("measures.d"),
            "measures.mis_s": t("measures.mis"),
            "measures.c_s": t("measures.c"),
            "measures.ltl_d_s": t("measures.ltl_d"),
            "measures.ltl_c_s": t("measures.ltl_c"),
            "oracle.sat2_s": t("oracle.sat2"),
            "oracle.sat2_calls": calls.get("oracle.sat2", 0),
            "oracle.three_valued_s": t("oracle.three_valued"),
            "oracle.enumerations": self.counters["oracle.enumerations"],
            "oracle.rows": self.counters["oracle.rows"],
            "postulates.self_s": self_time.get("postulates", 0.0),
            "cli.self_s": self_time.get("cli", 0.0),
        }
        metrics = {key: value / rounds for key, value in metrics.items()}
        # Ratios are taken over the totals, not divided by rounds.
        metrics["solver.decide_b_atoms_found_ratio"] = ratio(
            n("solver.decide_b_atoms.found"), calls.get("solver.decide_b_atoms", 0)
        )
        metrics["solver.nodes_per_s"] = ratio(solver_nodes, solver_s)
        metrics["measures.mis_found_ratio"] = ratio(
            n("measures.mis.found"), self.counters["measures.mis.tested"]
        )
        metrics["oracle.rows_per_s"] = ratio(self.counters["oracle.rows"], oracle_s)
        return metrics
