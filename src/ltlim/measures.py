"""The inconsistency measures.

Eight measures are exposed under short string ids:

* ``d``      drastic: 1 if the base is classically unsatisfiable.
* ``MI``     number of minimal unsatisfiable subsets.
* ``p``      number of formulas lying in some minimal unsatisfiable subset.
* ``r``      size of a smallest hitting set of the minimal subsets.
* ``c``      fewest distinct atoms that hold the glut value at some
             state in an admissible three-valued model.
* ``at``     number of atoms occurring in formulas of minimal subsets.
* ``LTL_d``  fewest trace states touched by glut cells in a model.
* ``LTL_c``  fewest glut cells in a model.

The first six treat time through satisfiability only; the last two read
the temporal structure directly and can tell a conflict pinned to one
state from one smeared over the whole trace.  ``c``, ``LTL_d`` and
``LTL_c`` are minimal model costs under the three cost modes of the
solver, and are inf when the base has no admissible three-valued model.

``d`` and the minimal-subset family behind ``MI``, ``p``, ``r`` and
``at`` need only to know which subsets of the base are classically
satisfiable.  The solver answers that for every subset at once with one
two-valued pass over the states (:func:`ltlim.solver.root_vectors`),
made at most once per run; the oracle backend still enumerates the
interpretations of each subset it tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .formula import Formula, KnowledgeBase, atoms_of
from .semantics import Interpretation3, conflict_base
from . import oracle as oracle_mod
from .solver import (
    BudgetExceededError,
    CostMode,
    DEFAULT_NODE_BUDGET,
    minimize,
    root_vectors,
)

__all__ = [
    "DEFAULT_FORMULA_CAP",
    "INF",
    "MEASURE_IDS",
    "MeasureRun",
    "MisCapExceeded",
    "free_formulas",
    "horizon_message",
    "horizon_warning",
    "measure",
    "mis_enumerate",
    "run_measures",
]

INF = float("inf")

MEASURE_IDS = ("d", "MI", "p", "r", "c", "at", "LTL_d", "LTL_c")

DEFAULT_FORMULA_CAP = 12

_COST_MODES = {
    "c": CostMode.B_ATOMS,
    "LTL_d": CostMode.AFFECTED_STATES,
    "LTL_c": CostMode.CONFLICT_BASE,
}


class MisCapExceeded(ValueError):
    """Too many formulas for exhaustive minimal-subset enumeration."""


class _BudgetPool:
    """A work budget shared across the solver calls of one run: search
    nodes, and the steps of the satisfiability pass."""

    def __init__(self, budget: int):
        self.budget = budget
        self.spent = 0

    @property
    def remaining(self) -> int:
        return max(self.budget - self.spent, 0)

    def charge(self, nodes: int) -> None:
        self.spent += nodes


# Classical satisfiability of the formulas whose bits are set in a mask.
_Satisfiable = Callable[[int], bool]


def _solver_satisfiable(kb: KnowledgeBase, pool: _BudgetPool) -> _Satisfiable:
    """Read subsets off the root vectors, computed on the first call."""
    vectors: frozenset[int] | None = None

    def satisfiable(mask: int) -> bool:
        nonlocal vectors
        if vectors is None:
            try:
                vectors, work = root_vectors(kb, budget=pool.remaining)
            except BudgetExceededError as exc:
                raise BudgetExceededError(pool.budget, pool.spent + exc.nodes) from None
            pool.charge(work)
        return any(vector & mask == mask for vector in vectors)

    return satisfiable


def _oracle_satisfiable(kb: KnowledgeBase, cell_cap: int) -> _Satisfiable:
    """Enumerate the two-valued interpretations of each subset tested."""

    def satisfiable(mask: int) -> bool:
        subset = kb.replace_formulas(
            f for i, f in enumerate(kb.formulas) if mask >> i & 1
        )
        return oracle_mod.oracle_sat2(subset, cell_cap=cell_cap)[0]

    return satisfiable


def _mis_index_sets(
    kb: KnowledgeBase, satisfiable: _Satisfiable, *, formula_cap: int
) -> list[frozenset[int]]:
    formulas = kb.formulas
    if len(formulas) > formula_cap:
        raise MisCapExceeded(
            f"{len(formulas)} formulas exceed the minimal-subset cap of {formula_cap}"
        )
    found: list[frozenset[int]] = []
    for size in range(1, len(formulas) + 1):
        for combo in itertools.combinations(range(len(formulas)), size):
            candidate = frozenset(combo)
            if any(mis <= candidate for mis in found):
                continue
            if not satisfiable(sum(1 << i for i in combo)):
                found.append(candidate)
    return found


def mis_enumerate(
    kb: KnowledgeBase,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    formula_cap: int = DEFAULT_FORMULA_CAP,
) -> tuple[tuple[Formula, ...], ...]:
    """All minimal classically-unsatisfiable subsets, smallest first.

    Subsets are returned as tuples in the base's formula order; the
    family is ordered by size, then by position.
    """
    satisfiable = _solver_satisfiable(kb, _BudgetPool(budget))
    index_sets = _mis_index_sets(kb, satisfiable, formula_cap=formula_cap)
    return tuple(
        tuple(kb.formulas[i] for i in sorted(indices))
        for indices in sorted(index_sets, key=lambda s: (len(s), sorted(s)))
    )


def free_formulas(
    kb: KnowledgeBase, *, budget: int = DEFAULT_NODE_BUDGET
) -> tuple[Formula, ...]:
    """Formulas that belong to no minimal unsatisfiable subset."""
    satisfiable = _solver_satisfiable(kb, _BudgetPool(budget))
    index_sets = _mis_index_sets(kb, satisfiable, formula_cap=DEFAULT_FORMULA_CAP)
    bound = set().union(*index_sets) if index_sets else set()
    return tuple(f for i, f in enumerate(kb.formulas) if i not in bound)


def _min_hitting_set_size(index_sets: Sequence[frozenset[int]]) -> int:
    if not index_sets:
        return 0
    universe = sorted(set().union(*index_sets))
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(chosen & mis for mis in index_sets):
                return size
    return len(universe)


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
    budget: int = DEFAULT_NODE_BUDGET,
    use_oracle: bool = False,
    oracle_cell_cap: int = oracle_mod.DEFAULT_CELL_CAP,
    formula_cap: int = DEFAULT_FORMULA_CAP,
) -> MeasureRun:
    """Evaluate the requested measures, sharing one node budget.

    With ``use_oracle`` the values come from exhaustive enumeration
    (subject to the cell cap) instead of backtracking search; results
    must agree, which is what the oracle-check command verifies.
    """
    requested = list(ids)
    unknown = [i for i in requested if i not in MEASURE_IDS]
    if unknown:
        raise ValueError(f"unknown measure ids {unknown!r}; expected {MEASURE_IDS}")
    pool = _BudgetPool(budget)
    run = MeasureRun()
    warnings: list[str] = []
    probes = 0

    satisfiable = (
        _oracle_satisfiable(kb, oracle_cell_cap)
        if use_oracle
        else _solver_satisfiable(kb, pool)
    )
    index_sets: list[frozenset[int]] | None = None

    def need_mis() -> list[frozenset[int]]:
        nonlocal index_sets
        if index_sets is None:
            index_sets = _mis_index_sets(kb, satisfiable, formula_cap=formula_cap)
        return index_sets

    oracle_costs: dict[str, tuple[int | float, Interpretation3 | None]] | None = None

    def need_oracle_costs() -> dict[str, tuple[int | float, Interpretation3 | None]]:
        nonlocal oracle_costs
        if oracle_costs is None:
            oracle_costs = oracle_mod.oracle_min_costs(
                kb,
                [mode.value for mid, mode in _COST_MODES.items() if mid in requested],
                cell_cap=oracle_cell_cap,
            )
        return oracle_costs

    for mid in MEASURE_IDS:
        if mid not in requested:
            continue
        if mid == "d":
            run.values[mid] = 0 if satisfiable((1 << len(kb.formulas)) - 1) else 1
        elif mid == "MI":
            run.values[mid] = len(need_mis())
        elif mid == "p":
            mis = need_mis()
            run.values[mid] = len(set().union(*mis)) if mis else 0
        elif mid == "r":
            run.values[mid] = _min_hitting_set_size(need_mis())
        elif mid == "at":
            mis = need_mis()
            names: set[str] = set()
            for indices in mis:
                for i in indices:
                    names.update(atoms_of(kb.formulas[i]))
            run.values[mid] = len(names)
        else:
            mode = _COST_MODES[mid]
            if use_oracle:
                value, witness = need_oracle_costs()[mode.value]
            else:
                try:
                    summary = minimize(kb, mode, budget=pool.remaining)
                except BudgetExceededError as exc:
                    raise BudgetExceededError(
                        pool.budget, pool.spent + exc.nodes
                    ) from None
                pool.charge(summary.nodes)
                probes += summary.probes
                value, witness = summary.value, summary.witness
            run.values[mid] = value
            if mid == "LTL_d":
                run.witness_affected = witness
            elif mid == "LTL_c":
                run.witness_conflict = witness
            if mid != "c" and witness is not None and horizon_warning(witness):
                warnings.append(horizon_message(mid, kb.trace_length_m))

    run.values = {mid: run.values[mid] for mid in MEASURE_IDS if mid in run.values}
    run.nodes = pool.spent
    run.probes = probes
    run.warnings = tuple(warnings)
    return run


def measure(
    kb: KnowledgeBase,
    measure_id: str,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    use_oracle: bool = False,
) -> int | float:
    """Evaluate one measure and return its value."""
    return run_measures(kb, (measure_id,), budget=budget, use_oracle=use_oracle).values[
        measure_id
    ]
