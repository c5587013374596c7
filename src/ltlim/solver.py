"""Backtracking search for three-valued models of minimal cost.

The search assigns truth values to (state, atom) cells in state-major
order, trying 1, then 0, then B at each cell.  After every assignment
an abstract pass recomputes, per subformula and state, the set of truth
values still achievable by some completion of the partial assignment
(sets are bitmasks over {0, B, 1} and connectives act on them through
precomputed tables).  Two facts about these sets drive the search:

* they over-approximate, so a formula whose set at t_0 contains no
  designated value can never be repaired by the remaining cells, and
  the branch is pruned;
* for the same reason, when every formula's set at t_0 contains only
  designated values the branch is decided, and the cheapest completion
  fills every open cell with 0.

Three cost modes say what a model is charged for: the states touched
by B (affected states), the B cells themselves (conflict base), or the
distinct atoms that hold B at some state (B atoms).  Branches whose
running cost exceeds the bound are cut.  A bound of 0 rules out B
cells altogether, open cells included, so classical satisfiability is
the bound-0 decision in any mode.  Minimization wraps the decision
procedure in a binary search over the bound.  All entry points share a
node budget and raise :class:`BudgetExceededError` when it runs out,
which callers must treat as "unknown", never as "no model".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .formula import (
    And,
    Atom,
    FalseConst,
    Finally,
    Formula,
    Globally,
    Implies,
    KnowledgeBase,
    Next,
    Not,
    Or,
    TrueConst,
    Until,
)
from .semantics import Interpretation3, SignatureMismatchError, TruthValue3, satisfies3

__all__ = [
    "BudgetExceededError",
    "CostMode",
    "DEFAULT_NODE_BUDGET",
    "DecisionResult",
    "INF",
    "MinimizeResult",
    "SignatureCount",
    "count_min_conflict_signatures",
    "decide_upper",
    "minimize",
    "sat2",
]

INF = float("inf")

DEFAULT_NODE_BUDGET = 10_000_000


class CostMode(enum.Enum):
    """What a three-valued model is charged for."""

    AFFECTED_STATES = "affected_states"
    CONFLICT_BASE = "conflict_base"
    B_ATOMS = "b_atoms"


class BudgetExceededError(RuntimeError):
    """The node budget ran out before the search reached a verdict."""

    def __init__(self, budget: int, nodes: int):
        self.budget = budget
        self.nodes = nodes
        super().__init__(f"search exceeded the node budget of {budget}")


@dataclass(frozen=True)
class DecisionResult:
    found: bool
    witness: Interpretation3 | None
    nodes: int


@dataclass(frozen=True)
class MinimizeResult:
    value: int | float
    witness: Interpretation3 | None
    nodes: int
    probes: int


@dataclass(frozen=True)
class SignatureCount:
    """Inclusion-minimal conflict bases over the minimal-cost models.

    ``witness`` and ``probes`` come from the minimization of the
    affected-state count; ``nodes`` also counts the collection search.
    """

    min_affected: int
    bases: tuple[tuple[tuple[int, str], ...], ...]
    witness: Interpretation3
    nodes: int
    probes: int

    @property
    def count(self) -> int:
        return len(self.bases)


# Achievable-value sets are bitmasks: bit 0 = value 0, bit 1 = B,
# bit 2 = 1.  The tables below give the exact image of each connective.
_MASK_F = 1
_MASK_B = 2
_MASK_T = 4
_MASK_ANY = 7
_MASK_TWO = _MASK_F | _MASK_T
_DESIGNATED = _MASK_B | _MASK_T

_VALUE_MASK = {
    TruthValue3.FALSE: _MASK_F,
    TruthValue3.BOTH: _MASK_B,
    TruthValue3.TRUE: _MASK_T,
}


def _build_tables() -> tuple[list[int], list[list[int]], list[list[int]]]:
    def values(mask: int) -> list[int]:
        return [v for v in (0, 1, 2) if mask & (1 << v)]

    neg = [0] * 8
    conj = [[0] * 8 for _ in range(8)]
    disj = [[0] * 8 for _ in range(8)]
    for p in range(8):
        for v in values(p):
            neg[p] |= 1 << (2 - v)
        for q in range(8):
            for v in values(p):
                for w in values(q):
                    conj[p][q] |= 1 << min(v, w)
                    disj[p][q] |= 1 << max(v, w)
    return neg, conj, disj


_NEG, _CONJ, _DISJ = _build_tables()


def _abstract_eval(
    formula: Formula,
    cell_masks: dict[str, list[int]],
    m: int,
    memo: dict[int, list[int]],
) -> list[int]:
    """Per-state achievable-value masks for a core formula."""
    key = id(formula)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(formula, TrueConst):
        result = [_MASK_T] * (m + 1)
    elif isinstance(formula, FalseConst):
        result = [_MASK_F] * (m + 1)
    elif isinstance(formula, Atom):
        try:
            result = cell_masks[formula.name]
        except KeyError:
            raise SignatureMismatchError(
                f"atom {formula.name!r} is not in the search signature"
            ) from None
    elif isinstance(formula, Not):
        inner = _abstract_eval(formula.operand, cell_masks, m, memo)
        result = [_NEG[mask] for mask in inner]
    elif isinstance(formula, And):
        left = _abstract_eval(formula.left, cell_masks, m, memo)
        right = _abstract_eval(formula.right, cell_masks, m, memo)
        result = [_CONJ[l][r] for l, r in zip(left, right)]
    elif isinstance(formula, Or):
        left = _abstract_eval(formula.left, cell_masks, m, memo)
        right = _abstract_eval(formula.right, cell_masks, m, memo)
        result = [_DISJ[l][r] for l, r in zip(left, right)]
    elif isinstance(formula, Next):
        inner = _abstract_eval(formula.operand, cell_masks, m, memo)
        result = inner[1:] + [_MASK_F]
    elif isinstance(formula, Until):
        left = _abstract_eval(formula.left, cell_masks, m, memo)
        right = _abstract_eval(formula.right, cell_masks, m, memo)
        result = [0] * (m + 1)
        result[m] = _MASK_F
        for i in range(m - 1, -1, -1):
            result[i] = _CONJ[left[i]][_DISJ[right[i + 1]][result[i + 1]]]
    elif isinstance(formula, (Finally, Globally, Implies)):
        raise ValueError(
            f"derived connective in solver input: {formula!r}; expand_derived first"
        )
    else:
        raise TypeError(f"not a formula node: {formula!r}")
    memo[key] = result
    return result


class _Search:
    """One backtracking run over the cell grid of a knowledge base."""

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        cost_mode: CostMode,
        max_cost: int,
        budget: int,
        signature: tuple[str, ...] | None,
        collect_bases: bool = False,
    ):
        self.kb = kb
        self.m = kb.trace_length_m
        self.atoms = tuple(signature) if signature is not None else kb.atoms()
        missing = set(kb.atoms()) - set(self.atoms)
        if missing:
            raise SignatureMismatchError(
                f"signature {self.atoms!r} misses atoms {sorted(missing)!r} of the base"
            )
        self.cells = [
            (state, atom) for state in range(self.m + 1) for atom in self.atoms
        ]
        self.formulas = kb.core_formulas
        self.cost_mode = cost_mode
        self.max_cost = max_cost
        self.budget = budget
        self.nodes = 0
        self.collect_bases = collect_bases
        self.bases: set[frozenset[tuple[int, str]]] = set()
        ground = kb.ground_cells
        self.b_ok = [cell not in ground and max_cost > 0 for cell in self.cells]
        self.assignment: list[TruthValue3 | None] = [None] * len(self.cells)
        self.state_b_count = [0] * (self.m + 1)
        self.atom_b_count = dict.fromkeys(self.atoms, 0)

    def _cell_masks(self) -> dict[str, list[int]]:
        masks: dict[str, list[int]] = {
            atom: [0] * (self.m + 1) for atom in self.atoms
        }
        for index, (state, atom) in enumerate(self.cells):
            value = self.assignment[index]
            if value is not None:
                masks[atom][state] = _VALUE_MASK[value]
            elif self.b_ok[index]:
                masks[atom][state] = _MASK_ANY
            else:
                masks[atom][state] = _MASK_TWO
        return masks

    def _status(self) -> str:
        """"dead", "decided", or "open" for the current partial assignment."""
        masks = self._cell_masks()
        memo: dict[int, list[int]] = {}
        decided = True
        for formula in self.formulas:
            root = _abstract_eval(formula, masks, self.m, memo)[0]
            if root & _DESIGNATED == 0:
                return "dead"
            if root & _MASK_F:
                decided = False
        return "decided" if decided else "open"

    def _witness(self) -> Interpretation3:
        width = len(self.atoms)
        rows = []
        for state in range(self.m + 1):
            row = tuple(
                self.assignment[state * width + i]
                if self.assignment[state * width + i] is not None
                else TruthValue3.FALSE
                for i in range(width)
            )
            rows.append(row)
        return Interpretation3(atoms=self.atoms, values=tuple(rows))

    def _record_base(self) -> None:
        base = frozenset(
            cell
            for index, cell in enumerate(self.cells)
            if self.assignment[index] is TruthValue3.BOTH
        )
        self.bases.add(base)

    def run(self) -> Interpretation3 | None:
        return self._dfs(0, 0)

    def _dfs(self, index: int, cost: int) -> Interpretation3 | None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(self.budget, self.nodes)
        status = self._status()
        if status == "dead":
            return None
        if status == "decided":
            if self.collect_bases:
                self._record_base()
                return None
            return self._witness()
        if index == len(self.cells):
            # All cells assigned but some formula still undecided can
            # not happen: masks are singletons here, so _status already
            # returned one of the branches above.
            return None
        state, atom = self.cells[index]
        for value in (TruthValue3.TRUE, TruthValue3.FALSE, TruthValue3.BOTH):
            if value is TruthValue3.BOTH:
                if not self.b_ok[index]:
                    continue
                if self.cost_mode is CostMode.CONFLICT_BASE:
                    increment = 1
                elif self.cost_mode is CostMode.B_ATOMS:
                    increment = 0 if self.atom_b_count[atom] else 1
                else:
                    increment = 0 if self.state_b_count[state] else 1
            else:
                increment = 0
            new_cost = cost + increment
            if new_cost > self.max_cost:
                continue
            self.assignment[index] = value
            if value is TruthValue3.BOTH:
                self.state_b_count[state] += 1
                self.atom_b_count[atom] += 1
            result = self._dfs(index + 1, new_cost)
            self.assignment[index] = None
            if value is TruthValue3.BOTH:
                self.state_b_count[state] -= 1
                self.atom_b_count[atom] -= 1
            if result is not None and not self.collect_bases:
                return result
        return None


def _model_cost(nu: Interpretation3, cost_mode: CostMode) -> int:
    from .semantics import affected_states, conflict_base

    if cost_mode is CostMode.AFFECTED_STATES:
        return len(affected_states(nu))
    if cost_mode is CostMode.B_ATOMS:
        return len({atom for _, atom in conflict_base(nu)})
    return len(conflict_base(nu))


def sat2(
    kb: KnowledgeBase,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    signature: tuple[str, ...] | None = None,
) -> DecisionResult:
    """Classical satisfiability: the bound-0 decision, which rules out B."""
    return decide_upper(
        kb, 0, CostMode.CONFLICT_BASE, budget=budget, signature=signature
    )


def decide_upper(
    kb: KnowledgeBase,
    max_cost: int,
    cost_mode: CostMode,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    signature: tuple[str, ...] | None = None,
) -> DecisionResult:
    """Is there an admissible three-valued model of cost at most max_cost?"""
    if max_cost < 0:
        raise ValueError(f"max_cost must be nonnegative, got {max_cost}")
    search = _Search(
        kb,
        cost_mode=cost_mode,
        max_cost=max_cost,
        budget=budget,
        signature=signature,
    )
    witness = search.run()
    return DecisionResult(witness is not None, witness, search.nodes)


def _cost_ceiling(kb: KnowledgeBase, cost_mode: CostMode) -> int:
    if cost_mode is CostMode.AFFECTED_STATES:
        return kb.trace_length_m + 1
    if cost_mode is CostMode.B_ATOMS:
        return len(kb.atoms())
    return (kb.trace_length_m + 1) * len(kb.atoms())


def minimize(
    kb: KnowledgeBase,
    cost_mode: CostMode,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    signature: tuple[str, ...] | None = None,
) -> MinimizeResult:
    """Minimal model cost via binary search over decide_upper bounds.

    Returns value inf with no witness when the base has no admissible
    three-valued model at all.  The budget is shared across probes.
    """
    ceiling = _cost_ceiling(kb, cost_mode)
    nodes = 0
    probes = 0

    def probe(bound: int) -> DecisionResult:
        nonlocal nodes, probes
        probes += 1
        try:
            result = decide_upper(
                kb, bound, cost_mode, budget=budget - nodes, signature=signature
            )
        except BudgetExceededError as exc:
            raise BudgetExceededError(budget, nodes + exc.nodes) from None
        nodes += result.nodes
        return result

    first = probe(ceiling)
    if not first.found:
        return MinimizeResult(INF, None, nodes, probes)
    best = first.witness
    low, high = 0, _model_cost(best, cost_mode)
    while low < high:
        mid = (low + high) // 2
        attempt = probe(mid)
        if attempt.found:
            best = attempt.witness
            high = _model_cost(best, cost_mode)
        else:
            low = mid + 1
    value = low
    if best is None or not satisfies3(best, kb) or _model_cost(best, cost_mode) != value:
        raise RuntimeError(
            "internal error: minimization witness failed re-verification"
        )
    return MinimizeResult(value, best, nodes, probes)


def count_min_conflict_signatures(
    kb: KnowledgeBase,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
    signature: tuple[str, ...] | None = None,
) -> SignatureCount:
    """Distinct inclusion-minimal conflict bases among the models with
    minimal affected-state count.

    Two minimal models that blur the same cells describe the same
    repair target, so bases are deduplicated and bases that strictly
    contain another collected base are dropped; what remains is a count
    of genuinely different minimal ways the base can be read as
    conflicted.  Requires 1 <= minimal cost < inf.
    """
    summary = minimize(kb, CostMode.AFFECTED_STATES, budget=budget, signature=signature)
    if summary.value == INF:
        raise ValueError("no admissible three-valued model exists")
    if summary.value == 0:
        raise ValueError("the base is classically consistent; no conflict to explain")
    search = _Search(
        kb,
        cost_mode=CostMode.AFFECTED_STATES,
        max_cost=int(summary.value),
        budget=budget - summary.nodes,
        signature=signature,
        collect_bases=True,
    )
    try:
        search.run()
    except BudgetExceededError as exc:
        raise BudgetExceededError(budget, summary.nodes + exc.nodes) from None
    bases = search.bases
    minimal = [b for b in bases if not any(other < b for other in bases)]
    ordered = tuple(
        tuple(sorted(b))
        for b in sorted(minimal, key=lambda b: (len(b), sorted(b)))
    )
    return SignatureCount(
        min_affected=int(summary.value),
        bases=ordered,
        witness=summary.witness,
        nodes=summary.nodes + search.nodes,
        probes=summary.probes,
    )
