"""The inconsistency measures.

Eight measures are exposed under short string ids:

* ``d``      drastic: 1 if the base is classically unsatisfiable.
* ``MI``     number of minimal unsatisfiable subsets.
* ``p``      number of formulas lying in some minimal unsatisfiable subset.
* ``r``      size of a smallest repair: the formulas outside a largest
             satisfiable subset.
* ``c``      fewest distinct atoms that hold the glut value at some
             state in an admissible three-valued model.
* ``at``     number of atoms occurring in formulas of minimal subsets.
* ``LTL_d``  fewest trace states touched by glut cells in a model.
* ``LTL_c``  fewest glut cells in a model.

The first six treat time through satisfiability only; the last two read
the temporal structure directly and can tell a conflict pinned to one
state from one smeared over the whole trace.  ``c``, ``LTL_d`` and
``LTL_c`` are minimal model costs, and are inf when the base has no
admissible three-valued model.

``d``, ``r`` and the minimal-subset family behind ``MI``, ``p`` and
``at`` need only to know which subsets of the base are classically
satisfiable.  Each backend answers that for every subset at once, as the
set of the formulas' truth vectors at t_0, made at most once per run:
the solver with one two-valued pass over the states
(:func:`ltlim.solver.root_vectors`), charged to the run's account, and
the oracle backend with one enumeration of the base's two-valued
interpretations (:func:`ltlim.oracle.oracle_root_vectors`).  A
smallest repair keeps a widest vector (Liffiton & Sakallah, JAR 2008),
and the minimal subsets come from a table of every subset that the
run's account bounds (:func:`_mis_index_sets`).  ``c`` reads the same
pass run with atoms held at B; the search minimises the rest, down to
``LTL_d`` from the state pass (:func:`ltlim.solver.minimize`), and
``LTL_c`` down to the larger of ``c`` and ``LTL_d`` when the run has
computed them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable

from .formula import Formula, KnowledgeBase, atoms_of
from .semantics import DEFAULT_CELL_CAP, Interpretation3, conflict_base
from .solver import Budget, BudgetExceededError, CostMode, DEFAULT_NODE_BUDGET, minimize
from .solver import min_glut_atoms, root_vectors

__all__ = [
    "INF",
    "MEASURE_IDS",
    "MeasureRun",
    "free_formulas",
    "horizon_message",
    "horizon_warning",
    "measure",
    "run_measures",
]

INF = float("inf")

MEASURE_IDS = ("d", "MI", "p", "r", "c", "at", "LTL_d", "LTL_c")

# Each cost measure's name in the oracle; LTL_d's and LTL_c's are CostMode values.
_COSTS = {"c": "b_atoms", "LTL_d": "affected_states", "LTL_c": "conflict_base"}


def _mis_index_sets(
    kb: KnowledgeBase,
    vectors: Callable[[], Collection[int]],
    *,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
) -> list[frozenset[int]]:
    """The minimal unsatisfiable subsets, as index sets, by size, then
    by position.

    A subset is satisfiable iff some truth vector of ``vectors()`` has
    all of its bits set.  So the vectors, and the empty subset, are
    marked in a table of 2^n marks, one per subset of the n formulas,
    and the marks are closed downward; a subset is then minimal
    unsatisfiable when it is unmarked and every subset one formula
    smaller is marked.  The marks are set in a ``bytearray`` and read as
    one int, bit s marking subset s, so that a step of the closure
    handles every subset at once, and the minimal subsets are read off
    its bytes: each step is linear in the table.  Before the vectors are
    read, ``budget`` refuses a table of more subsets than it has units
    left; one that fits is not charged.  An empty base reads nothing.
    """
    n = len(kb.formulas)
    if not n:
        return []
    subsets = 1 << n
    Budget.of(budget).afford(subsets)
    marks = bytearray(subsets + 7 >> 3)
    marks[0] = 1
    for vector in vectors():
        marks[vector >> 3] |= 1 << (vector & 7)
    satisfiable = int.from_bytes(marks, "little")
    # The subsets that hold formula n - 1.  Formula i - 1's mask is
    # formula i's with its blocks halved, so the loops keep two masks, not n.
    top = (1 << (subsets >> 1)) - 1 << (subsets >> 1)
    held = top
    for i in range(n - 1, -1, -1):
        satisfiable |= (satisfiable & held) >> (1 << i)
        held ^= held >> (1 << i >> 1)
    minimal = (1 << subsets) - 1 & ~satisfiable
    held = top
    for i in range(n - 1, -1, -1):
        minimal &= ~held | (satisfiable & ~held) << (1 << i)
        held ^= held >> (1 << i >> 1)
    found = []
    for index, byte in enumerate(minimal.to_bytes(len(marks), "little")):
        while byte:
            low = byte & -byte
            byte ^= low
            mask = index << 3 | low.bit_length() - 1
            found.append([i for i in range(n) if mask >> i & 1])
    found.sort(key=lambda indices: (len(indices), indices))
    return [frozenset(indices) for indices in found]


def free_formulas(
    kb: KnowledgeBase, *, budget: Budget | int = DEFAULT_NODE_BUDGET
) -> tuple[Formula, ...]:
    """Formulas that belong to no minimal unsatisfiable subset."""
    index_sets = _mis_index_sets(kb, lambda: root_vectors(kb, budget=budget), budget=budget)
    bound = set().union(*index_sets) if index_sets else set()
    return tuple(f for i, f in enumerate(kb.formulas) if i not in bound)


def horizon_warning(nu: Interpretation3) -> bool:
    """Whether every glut cell of the witness sits at the last state.

    Such a conflict lives exactly at the trace horizon: the verdict may
    change if the base is read over a longer trace, so reports flag it.
    """
    base = conflict_base(nu)
    return bool(base) and all(state == nu.m for state, _ in base)


def horizon_message(measure_id: str, m: int) -> str:
    """The report line for a witness that :func:`horizon_warning` flags."""
    return (
        f"{measure_id}: every glut cell of the witness sits at the last state "
        f"t_{m}; the verdict may differ on longer traces"
    )


@dataclass
class MeasureRun:
    """Outcome of evaluating a set of measures over one base."""

    values: dict[str, int | float] = field(default_factory=dict)
    witness_affected: Interpretation3 | None = None
    witness_conflict: Interpretation3 | None = None
    nodes: int = 0
    probes: int = 0
    warnings: tuple[str, ...] = ()


def run_measures(
    kb: KnowledgeBase,
    ids: Iterable[str] = MEASURE_IDS,
    *,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
    use_oracle: bool = False,
    oracle_cell_cap: int = DEFAULT_CELL_CAP,
) -> MeasureRun:
    """Evaluate the requested measures, charging one work account.

    With ``use_oracle`` the values come from exhaustive enumeration
    (subject to the cell cap) instead of backtracking search; results
    must agree, which is what the oracle-check command verifies.  The
    run's ``nodes`` is what it charged to the account.

    When the run has computed ``c`` or ``LTL_d``, the larger of them is
    a proven lower bound on ``LTL_c``, and its minimisation stops at the
    first witness that meets it (:func:`ltlim.solver.minimize`): the
    value and the witness are those of ``LTL_c`` alone, in fewer nodes.

    When the account runs out, the :class:`BudgetExceededError` carries
    the id of the measure that ran out and the run so far, whose
    ``values`` hold the measures computed before it, and ``nodes`` and
    ``probes`` count the search that ran out.
    """
    requested = list(ids)
    unknown = [i for i in requested if i not in MEASURE_IDS]
    if unknown:
        raise ValueError(f"unknown measure ids {unknown!r}; expected {MEASURE_IDS}")
    budget = Budget.of(budget)
    start, started = budget.spent, budget.probes
    run = MeasureRun()
    warnings: list[str] = []

    vectors: Collection[int] | None = None

    def need_vectors() -> Collection[int]:
        nonlocal vectors
        if vectors is None:
            if use_oracle:
                from .oracle import oracle_root_vectors

                vectors = oracle_root_vectors(kb, cell_cap=oracle_cell_cap)
            else:
                vectors = root_vectors(kb, budget=budget)
        return vectors

    index_sets: list[frozenset[int]] | None = None

    def need_mis() -> list[frozenset[int]]:
        nonlocal index_sets
        if index_sets is None:
            index_sets = _mis_index_sets(kb, need_vectors, budget=budget)
        return index_sets

    oracle_costs: dict[str, tuple[int | float, Interpretation3 | None]] | None = None

    def need_oracle_costs() -> dict[str, tuple[int | float, Interpretation3 | None]]:
        nonlocal oracle_costs
        if oracle_costs is None:
            from .oracle import oracle_min_costs

            oracle_costs = oracle_min_costs(
                kb,
                [cost for mid, cost in _COSTS.items() if mid in requested],
                cell_cap=oracle_cell_cap,
            )
        return oracle_costs

    try:
        for mid in MEASURE_IDS:
            if mid not in requested:
                continue
            if mid == "d":
                run.values[mid] = int((1 << len(kb.formulas)) - 1 not in need_vectors())
            elif mid == "MI":
                run.values[mid] = len(need_mis())
            elif mid == "p":
                mis = need_mis()
                run.values[mid] = len(set().union(*mis)) if mis else 0
            elif mid == "r":
                # A smallest repair keeps a widest vector; an empty base reads none.
                n = len(kb.formulas)
                kept = n and max((v.bit_count() for v in need_vectors()), default=0)
                run.values[mid] = n - kept
            elif mid == "at":
                mis = need_mis()
                names: set[str] = set()
                for indices in mis:
                    for i in indices:
                        names.update(atoms_of(kb.formulas[i]))
                run.values[mid] = len(names)
            elif mid == "c" and use_oracle:
                run.values[mid] = need_oracle_costs()["b_atoms"][0]
            elif mid == "c":
                run.values[mid] = min_glut_atoms(kb, budget=budget)
            else:
                if use_oracle:
                    value, witness = need_oracle_costs()[_COSTS[mid]]
                else:
                    proven = (
                        max(run.values.get("c", 0), run.values.get("LTL_d", 0))
                        if mid == "LTL_c"
                        else 0
                    )
                    summary = minimize(
                        kb, CostMode(_COSTS[mid]), budget=budget, lower_bound=proven
                    )
                    value, witness = summary.value, summary.witness
                run.values[mid] = value
                if mid == "LTL_d":
                    run.witness_affected = witness
                elif mid == "LTL_c":
                    run.witness_conflict = witness
                if witness is not None and horizon_warning(witness):
                    warnings.append(horizon_message(mid, kb.trace_length_m))
    except BudgetExceededError as exc:
        exc.measure_id, exc.run = mid, run
        raise
    finally:
        run.nodes = budget.spent - start
        run.probes = budget.probes - started
        run.warnings = tuple(warnings)
    return run


def measure(
    kb: KnowledgeBase,
    measure_id: str,
    *,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
    use_oracle: bool = False,
) -> int | float:
    """Evaluate one measure and return its value."""
    return run_measures(kb, (measure_id,), budget=budget, use_oracle=use_oracle).values[
        measure_id
    ]
