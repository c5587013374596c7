"""Command-line front end.

Subcommands:

* ``measure``       load a ``.ltlkb`` base and evaluate measures.
* ``declare``       compile a ``.decl`` constraint model, emit the
                    translated ``.ltlkb``, and measure the result.
* ``explain``       locate a conflict: witness, affected states, and
                    the distinct minimal conflict bases.
* ``postulates``    compliance matrix, curated counterexamples, and
                    seeded random sweeps.
* ``oracle-check``  recompute every measure by exhaustive enumeration
                    and compare against the search backend.

Exit codes: 0 success, 1 oracle-check disagreement, 2 input or parse
error, 3 work budget exceeded.  JSON reports contain no timestamps or
environment echoes, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Sequence

from .declare import DeclareParseError, load_declare, translate_model, translation_pairs
from .formula import (
    DEFAULT_TRACE_LENGTH,
    FormulaParseError,
    GMode,
    KBParseError,
    KnowledgeBase,
    format_kb_text,
    load_kb,
    render_formula,
)
from .measures import (
    MEASURE_IDS,
    MeasureRun,
    horizon_message,
    horizon_warning,
    run_measures,
)
from .postulates import (
    EXPECTED_MATRIX,
    Postulate,
    Verdict,
    _json_value,
    curated_violation,
    run_curated,
    sweep,
)
from .semantics import (
    DEFAULT_CELL_CAP, MAX_CELL_CAP, Interpretation3, affected_states, conflict_base
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    count_min_conflict_signatures,
)

__all__ = ["main"]

_MEASURE_CHOICES = MEASURE_IDS + ("all",)
_POSTULATE_ORDER = tuple(Postulate)


def _witness_dict(nu: Interpretation3 | None) -> dict | None:
    if nu is None:
        return None
    payload = nu.to_json_dict()
    payload["affected_states"] = sorted(affected_states(nu))
    payload["conflict_base"] = [[s, a] for s, a in sorted(conflict_base(nu))]
    return payload


def _witness_lines(label: str, nu: Interpretation3 | None) -> list[str]:
    if nu is None:
        return [f"{label}: none (no admissible model)"]
    lines = [f"{label}:"]
    for state in range(nu.m + 1):
        cells = " ".join(f"{a}={nu.value(state, a).token}" for a in nu.atoms)
        lines.append(f"  t{state}: {cells}" if cells else f"  t{state}: (no atoms)")
    affected = ", ".join(f"t{s}" for s in sorted(affected_states(nu))) or "none"
    base = ", ".join(f"(t{s}, {a})" for s, a in sorted(conflict_base(nu))) or "empty"
    lines.append(f"  affected states: {affected}")
    lines.append(f"  conflict base: {base}")
    return lines


def _kb_echo(command: str, source: str | None, kb: KnowledgeBase) -> dict:
    return {
        "command": command,
        "input": source,
        "m": kb.trace_length_m,
        "g_mode": kb.g_mode.value,
        "formulas": [render_formula(f) for f in kb.formulas],
        "ground_cells": [[s, a] for s, a in sorted(kb.ground_cells)],
    }


def _stats_dict(nodes: int, probes: int, args) -> dict:
    return {
        "nodes": nodes,
        "probes": probes,
        "budget": args.budget,
        "oracle": args.oracle,
    }


def _run_measures(kb: KnowledgeBase, args) -> tuple[MeasureRun, BudgetExceededError | None]:
    """The run that measure and declare report, and the error if the
    budget ran out: the run then holds the measures computed before."""
    try:
        run = run_measures(
            kb, _measure_ids(args.measure), budget=args.budget, use_oracle=args.oracle,
            oracle_cell_cap=args.oracle_cap,
        )
    except BudgetExceededError as exc:
        return exc.run, exc
    return run, None


def _report_values(run: MeasureRun, args) -> dict[str, int | str]:
    """Each requested measure's reported value: "unknown" for one that
    the budget did not reach."""
    return {
        mid: _json_value(run.values[mid]) if mid in run.values else "unknown"
        for mid in _measure_ids(args.measure)
    }


def _exit_code(exhausted: BudgetExceededError | None) -> int:
    """0 for a complete report; 3, naming the measure, for a partial one."""
    if exhausted is None:
        return 0
    print(
        f"error: {exhausted} (measure {exhausted.measure_id});"
        " the measures it did not reach are reported as unknown",
        file=sys.stderr,
    )
    return 3


def _run_fields(run: MeasureRun, args) -> dict:
    """The report fields that measure and declare share, in order."""
    return {
        "measures": _report_values(run, args),
        "witness_min_states": _witness_dict(run.witness_affected),
        "witness_min_conflict": _witness_dict(run.witness_conflict),
        "warnings": list(run.warnings),
        "solver_stats": _stats_dict(run.nodes, run.probes, args),
    }


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(text_lines))


def _measure_ids(selection: str) -> tuple[str, ...]:
    return MEASURE_IDS if selection == "all" else (selection,)


def _load_kb(args, source: str) -> KnowledgeBase:
    return load_kb(
        source,
        m=args.m,
        g_mode=GMode(args.g_semantics),
        allow_short_trace=args.allow_short_trace,
    )


def _measure_text(source: str, kb: KnowledgeBase, run: MeasureRun, args) -> list[str]:
    lines = [
        f"knowledge base: {source} (m={kb.trace_length_m}, {kb.g_mode.value} G)"
    ]
    if kb.ground_cells:
        ground = ", ".join(f"(t{s}, {a})" for s, a in sorted(kb.ground_cells))
        lines.append(f"ground cells (pinned two-valued): {ground}")
    for i, f in enumerate(kb.formulas, start=1):
        lines.append(f"  {i}. {render_formula(f)}")
    if not kb.formulas:
        lines.append("  (empty base)")
    lines.append("measures:")
    values = _report_values(run, args)
    width = max(len(i) for i in values)
    for mid, value in values.items():
        lines.append(f"  {mid:<{width}} = {value}")
    if "LTL_d" in run.values:
        lines += _witness_lines(
            "witness (minimal affected states)", run.witness_affected
        )
    if "LTL_c" in run.values:
        lines += _witness_lines(
            "witness (minimal conflict base)", run.witness_conflict
        )
    for warning in run.warnings:
        lines.append(f"warning: {warning}")
    lines.append(
        f"stats: nodes={run.nodes} probes={run.probes} budget={args.budget}"
        f" oracle={'yes' if args.oracle else 'no'}"
    )
    return lines


def _cmd_measure(args) -> int:
    kb = _load_kb(args, args.input)
    run, exhausted = _run_measures(kb, args)
    payload = _kb_echo("measure", args.input, kb) | _run_fields(run, args)
    _emit(payload, _measure_text(args.input, kb, run, args), args.format)
    return _exit_code(exhausted)


def _cmd_declare(args) -> int:
    model = load_declare(args.input)
    if args.m is None:
        raise ValueError(
            "--m is required for declare: constraint files carry no"
            " trace length directive"
        )
    kb = translate_model(
        model,
        m=args.m,
        g_mode=GMode(args.g_semantics),
        ground_init=not args.no_ground_init,
        allow_short_trace=args.allow_short_trace,
    )
    emit_path = Path(args.emit) if args.emit else Path(args.input).with_suffix(".ltlkb")
    emit_path.write_text(format_kb_text(kb), encoding="utf-8")
    run, exhausted = _run_measures(kb, args)

    payload = _kb_echo("declare", args.input, kb)
    payload["constraints"] = [str(c) for c in model.constraints]
    payload["translation"] = [
        {"constraint": str(c), "formula": render_formula(f)}
        for c, f in translation_pairs(model)
    ]
    payload["emitted"] = str(emit_path)
    payload |= _run_fields(run, args)

    lines = [f"constraint model: {args.input} ({len(model.constraints)} constraints)"]
    for c, f in translation_pairs(model):
        lines.append(f"  {str(c):<28} -> {render_formula(f)}")
    lines.append(f"translated base written to {emit_path}")
    if kb.ground_cells:
        lines.append(
            "note: Init pinning is applied in this run but has no file syntax;"
            " reloading the emitted base drops it"
        )
    lines += _measure_text(str(emit_path), kb, run, args)[1:]
    _emit(payload, lines, args.format)
    return _exit_code(exhausted)


def _cmd_explain(args) -> int:
    kb = _load_kb(args, args.input)
    if args.oracle:
        from .oracle import _minimal_conflicts

        min_affected, bases, raw_models, witness = _minimal_conflicts(
            kb, cell_cap=args.oracle_cap
        )
        nodes = probes = 0
    else:
        summary = count_min_conflict_signatures(kb, budget=args.budget)
        min_affected, bases, raw_models = (
            summary.min_affected,
            summary.bases,
            None,
        )
        witness, nodes, probes = summary.witness, summary.nodes, summary.probes
    warnings = (
        [horizon_message("LTL_d", kb.trace_length_m)]
        if horizon_warning(witness)
        else []
    )

    shown = list(bases[: args.max_bases])
    payload = _kb_echo("explain", args.input, kb)
    payload["min_affected_states"] = min_affected
    payload["signature_count"] = len(bases)
    payload["conflict_bases"] = [
        [[s, a] for s, a in base] for base in shown
    ]
    payload["conflict_bases_shown"] = len(shown)
    payload["raw_model_count"] = raw_models
    payload["witness"] = _witness_dict(witness)
    payload["warnings"] = warnings
    payload["solver_stats"] = _stats_dict(nodes, probes, args)

    lines = [
        f"knowledge base: {args.input} (m={kb.trace_length_m}, {kb.g_mode.value} G)",
        f"minimal affected states: {min_affected}",
        f"distinct minimal conflict bases: {len(bases)}"
        + (f" (showing {len(shown)})" if len(shown) < len(bases) else ""),
    ]
    for i, base in enumerate(shown, start=1):
        cells = ", ".join(f"(t{s}, {a})" for s, a in base)
        lines.append(f"  {i}. {{{cells}}}")
    if raw_models is not None:
        lines.append(f"minimal-cost models before deduplication: {raw_models}")
    lines += _witness_lines("witness (minimal affected states)", witness)
    for warning in warnings:
        lines.append(f"warning: {warning}")
    _emit(payload, lines, args.format)
    return 0


def _verdict_dict(verdict: Verdict) -> dict:
    return {
        "measure": verdict.measure_id,
        "postulate": verdict.postulate.value,
        "outcome": verdict.outcome.value,
        "details": verdict.details,
    }


def _cmd_postulates(args) -> int:
    measures = _measure_ids(args.measure)
    postulates = (
        _POSTULATE_ORDER
        if args.postulate == "all"
        else tuple(p for p in _POSTULATE_ORDER if p.value == args.postulate)
    )
    # One sweep per postulate checks each instance against every measure.
    swept = {}
    if args.sweep:
        for postulate in postulates:
            for result in sweep(
                measures,
                postulate,
                instances=args.sweep,
                seed=args.seed,
                m=args.m,
                budget=args.budget,
            ):
                swept[result.measure_id, postulate] = result
    cells = []
    for mid in measures:
        for postulate in postulates:
            expected = EXPECTED_MATRIX[mid][postulate]
            cell: dict = {
                "measure": mid,
                "postulate": postulate.value,
                "expected": "holds" if expected else "fails",
            }
            if args.sweep:
                result = swept[mid, postulate]
                cell["instances"] = result.instances
                cell["holds"] = result.holds
                cell["not_applicable"] = result.not_applicable
                cell["violations"] = [_verdict_dict(v) for v in result.violations]
            elif not expected:
                recipe = curated_violation(mid, postulate)
                if recipe is None:
                    cell["certificate"] = None
                    cell["note"] = (
                        "no counterexample exists: the unnormalized atom count"
                        " is monotone and ignores free formulas by construction"
                    )
                else:
                    cell["certificate"] = _verdict_dict(
                        run_curated(mid, postulate, m=args.m, budget=args.budget)
                    )
            cells.append(cell)

    payload = {
        "command": "postulates",
        "m": args.m,
        "seed": args.seed,
        "sweep": args.sweep,
        "cells": cells,
    }

    lines = []
    if args.sweep:
        lines.append(
            f"sweeps: {args.sweep} instances per cell, seed {args.seed}"
        )
        for cell in cells:
            status = "clean" if not cell["violations"] else "VIOLATIONS FOUND"
            lines.append(
                f"  {cell['measure']:<6} {cell['postulate']}: expected"
                f" {cell['expected']:<6} holds={cell['holds']}"
                f" n/a={cell['not_applicable']}"
                f" violations={len(cell['violations'])} [{status}]"
            )
    else:
        lines.append("expected compliance matrix (curated certificates for fails):")
        header = "  measure " + "".join(f"{p.value:>8}" for p in _POSTULATE_ORDER)
        lines.append(header)
        by_measure: dict[str, dict[str, dict]] = {}
        for cell in cells:
            by_measure.setdefault(cell["measure"], {})[cell["postulate"]] = cell
        for mid in measures:
            row = f"  {mid:<8}"
            for postulate in _POSTULATE_ORDER:
                cell = by_measure.get(mid, {}).get(postulate.value)
                row += f"{(cell['expected'] if cell else '-'):>8}"
            lines.append(row)
        for cell in cells:
            if cell["expected"] == "fails":
                cert = cell.get("certificate")
                if cert is None and "note" in cell:
                    lines.append(
                        f"  ({cell['measure']}, {cell['postulate']}):"
                        f" {cell['note']}"
                    )
                elif cert is not None:
                    lines.append(
                        f"  ({cell['measure']}, {cell['postulate']}):"
                        f" certificate outcome {cert['outcome']}"
                    )
    _emit(payload, lines, args.format)
    return 0


def _cmd_oracle_check(args) -> int:
    results = []
    all_agree = True
    for source in args.inputs:
        kb = _load_kb(args, source)
        solver_run = run_measures(kb, budget=args.budget)
        oracle_run = run_measures(
            kb, budget=args.budget, use_oracle=True, oracle_cell_cap=args.oracle_cap
        )
        comparison = {
            mid: {
                "solver": _json_value(solver_run.values[mid]),
                "oracle": _json_value(oracle_run.values[mid]),
            }
            for mid in MEASURE_IDS
        }
        agree = all(
            solver_run.values[mid] == oracle_run.values[mid] for mid in MEASURE_IDS
        )
        all_agree &= agree
        results.append(
            {"input": source, "m": kb.trace_length_m, "agree": agree, "measures": comparison}
        )

    payload = {"command": "oracle-check", "results": results, "all_agree": all_agree}
    lines = []
    for entry in results:
        status = "agree" if entry["agree"] else "MISMATCH"
        lines.append(f"{entry['input']} (m={entry['m']}): {status}")
        for mid in MEASURE_IDS:
            pair = entry["measures"][mid]
            marker = "" if pair["solver"] == pair["oracle"] else "   <-- differs"
            lines.append(
                f"  {mid:<6} solver={pair['solver']} oracle={pair['oracle']}{marker}"
            )
    lines.append("all inputs agree" if all_agree else "DISAGREEMENT FOUND")
    _emit(payload, lines, args.format)
    return 0 if all_agree else 1


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _oracle_cap(text: str) -> int:
    value = _nonnegative_int(text)
    if value > MAX_CELL_CAP:
        raise argparse.ArgumentTypeError(
            f"the oracle enumerates at most {MAX_CELL_CAP} cells, got {value}"
        )
    return value


def _sweep_trace_length(text: str) -> int:
    """The postulate checks build bases that need m >= 2."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 2:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 2, got {text!r}")
    return value


# Each subcommand: its handler, its help, and the defaults it sets over
# those of its options.
_COMMANDS = {
    "measure": (_cmd_measure, "evaluate measures on a .ltlkb base", {}),
    "declare": (_cmd_declare, "translate a .decl constraint model and measure it",
                {"g_semantics": "reflexive"}),
    "explain": (_cmd_explain, "show where a conflict can occur and in how many ways", {}),
    "postulates": (_cmd_postulates, "compliance matrix, certificates, and sweeps", {}),
    "oracle-check": (_cmd_oracle_check,
                     "compare search backend against exhaustive enumeration", {}),
}
# The subcommands that load bases, and those of them that take one base
# and may hand it to the oracle instead of the search.
_LOADERS = ("measure", "declare", "explain", "oracle-check")
_SEARCHERS = ("measure", "declare", "explain")
_TRACE_HELP = "number of future states in the trace (t_0..t_m)"

# The options in the order --help lists them: the subcommands that read
# each, its names, and its keywords.  postulates has its own --m, which
# has a default and must be at least 2.
_OPTIONS = (
    (_SEARCHERS, ("input",), {}),
    (("oracle-check",), ("inputs",), {"nargs": "+"}),
    (("measure", "declare", "postulates"), ("--measure",),
     {"choices": _MEASURE_CHOICES, "default": "all"}),
    (("declare",), ("--emit",), {"help": "path for the translated .ltlkb (default: input stem)"}),
    (("declare",), ("--no-ground-init",),
     {"action": "store_true", "help": "skip pinning Init activities two-valued at t_0"}),
    (("explain",), ("--max-bases",), {"type": _nonnegative_int, "default": 10}),
    (("postulates",), ("--postulate",),
     {"choices": tuple(p.value for p in _POSTULATE_ORDER) + ("all",), "default": "all"}),
    (("postulates",), ("--sweep",),
     {"type": _nonnegative_int, "default": 0, "metavar": "N",
      "help": "run N seeded random instances per cell instead of the matrix"}),
    (_LOADERS, ("--m", "--trace-length"), {"type": int, "help": _TRACE_HELP}),
    (("postulates",), ("--m", "--trace-length"),
     {"type": _sweep_trace_length, "default": DEFAULT_TRACE_LENGTH,
      "help": _TRACE_HELP + " (default: %(default)s, at least 2)"}),
    (_LOADERS, ("--g-semantics",),
     {"choices": ("strict", "reflexive"), "default": "strict",
      "help": "reading of the always operator (default: strict; declare defaults to reflexive)"}),
    (tuple(_COMMANDS), ("--format",), {"choices": ("text", "json"), "default": "text"}),
    (tuple(_COMMANDS), ("--budget",), {"type": _nonnegative_int, "default": DEFAULT_NODE_BUDGET}),
    (_LOADERS, ("--allow-short-trace",), {"action": "store_true"}),
    (_SEARCHERS, ("--oracle",),
     {"action": "store_true", "help": "recompute by exhaustive enumeration (small bases only)"}),
    (_LOADERS, ("--oracle-cap",), {"type": _oracle_cap, "default": DEFAULT_CELL_CAP}),
    (("postulates",), ("--seed",), {"type": int, "default": 0}),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process.  No option
    may be abbreviated, so that an option a subcommand lacks is never
    read as the prefix of one it has (``--oracle`` of ``--oracle-cap``)."""
    parser = argparse.ArgumentParser(
        prog="ltlim",
        description=(
            "Inconsistency measurement for linear temporal logic over"
            " fixed-length traces"
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, defaults) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for readers, flags, keywords in _OPTIONS:
            if name in readers:
                command.add_argument(*flags, **keywords)
        # After the options, so that these defaults replace theirs.
        command.set_defaults(func=func, **defaults)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        KBParseError,
        FormulaParseError,
        DeclareParseError,
        FileNotFoundError,
        IsADirectoryError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
