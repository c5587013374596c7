"""Passes over the states, and the minimisations built on them and on
the search of :mod:`ltlim.search`.

Classical satisfiability of a base, and of every subset of it at once,
comes from :func:`root_vectors`, a pass over the same node table that
walks the states from t_m back to t_0, the way bounded model checking
unrolls a trace.  Its values are dual rail, as in ternary simulation,
so it also decides bases with chosen atoms held at B, which yields the
measure c (:func:`min_glut_atoms`).  The pass lets each state choose
among held-atom masks, each at a cost, and keeps each key's least
cost; :func:`root_vectors` is its one-choice case at no cost.  Every
connective is monotone in B, so a state touched by B may as well hold
all its cells that are not ground at B: the state pass, which offers
each state that choice at cost 1 beside two-valued at cost 0, yields
``LTL_d`` (:func:`min_glut_states`).  Minimization stops the search at
its first witness; when that costs more than 0 the two-valued pass
says whether the value is 0, and otherwise the same search runs on,
down to a floor: ``LTL_d`` when it is known, else 1.

Work is charged to one :class:`Budget` per run (:mod:`ltlim.search`).
Every entry point takes ``budget`` as an int, which opens a fresh
account, or as a :class:`Budget` that callers share.  The account
reads each pass from its table and charges it the first time it reads
it, however many measures read it.  Accounts may share one table, as
the checks of one sweep instance do, each still charged as if it ran
the passes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formula import KnowledgeBase
from .search import (
    DEFAULT_NODE_BUDGET, INF, Budget, BudgetExceededError, CostMode, _Choices, _Levels,
    _Pass, _PassKey, _Search
)
from .semantics import Interpretation3, affected_states, conflict_base, satisfies3

__all__ = [
    "Budget",
    "BudgetExceededError",
    "CostMode",
    "DEFAULT_NODE_BUDGET",
    "DecisionResult",
    "INF",
    "MinimizeResult",
    "SignatureCount",
    "count_min_conflict_signatures",
    "decide_upper",
    "is_satisfiable",
    "min_glut_atoms",
    "min_glut_states",
    "minimize",
    "root_vectors",
]

# The state pass: every state is two-valued at no cost, or holds every
# cell that is not ground at B at a cost of 1.
_STATE_CHOICES = ((0, 0), (-1, 1))


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

    One search collects them while it minimises the affected-state
    count, so ``probes`` is 1; ``witness`` is the first cheapest model it
    met, and ``nodes`` also counts the two-valued pass.
    """

    min_affected: int
    bases: tuple[tuple[tuple[int, str], ...], ...]
    witness: Interpretation3
    nodes: int
    probes: int

    @property
    def count(self) -> int:
        return len(self.bases)


def _columns(rows: list[int], full: int) -> set[int]:
    """The distinct columns of a bit matrix.

    Row p is an int whose bit a is the matrix entry (p, a); ``full`` has
    a bit for every column.  Column a is returned as the int whose bit p
    is entry (p, a).  The columns are found by splitting the set of
    column indices on each row in turn, so the cost grows with the
    number of distinct columns, not with the number of columns.
    """
    classes = [(full, 0)]
    for p, row in enumerate(rows):
        split = []
        for members, column in classes:
            ones = members & row
            if ones:
                split.append((ones, column | 1 << p))
            if ones != members:
                split.append((members ^ ones, column))
        classes = split
    return {column for _, column in classes}


# The pass evaluates the assignments of at most this many atoms side by
# side in one int and loops over the assignments of the others, so that
# no value exceeds 2^10 bits and the column classes of one evaluation
# stay within 2^20 bits however many atoms the base has.
_PARALLEL_ATOMS = 10


def _read_pass(budget: Budget, key: _PassKey) -> _Levels:
    """The vectors of the pass that ``key`` names, by least cost: run
    only when the account's table lacks them, and charged to the account
    the first time it reads them."""
    kept = budget.shared.get(key)
    if kept is None:
        kept = budget.shared[key] = _root_pass(*key, budget)
    if key not in budget.paid:
        budget.charge(kept[1])
        budget.paid.add(key)
    return kept[0]


def root_vectors(
    kb: KnowledgeBase, *, glut: int = 0, budget: Budget | int = DEFAULT_NODE_BUDGET
) -> frozenset[int]:
    """The truth vectors of the formulas at t_0, the ``glut`` atoms at B.

    Bit j of a vector is set when ``kb.formulas[j]`` is designated at
    t_0.  Bit i of ``glut`` holds atom ``kb.atoms()[i]`` at B at each of
    its cells that is not ground; every other cell is 0 or 1.  With
    ``glut`` 0, a subset of the formulas is classically satisfiable iff
    some vector has all of its bits set.  This is the pass of
    :func:`_root_pass` with one choice, at no cost.

    An account is charged a pass's work the first time it reads it, so
    a run charges a pass once, however many measures and checks read
    it.  The pass runs only when the account's table
    (:attr:`Budget.shared`) lacks it, so the accounts that share one
    table, those of one sweep instance, run it once.  An account that
    finds the pass there raises exactly when the pass would, because
    the pass refuses only when its whole work would exceed what is
    left; the error then reports that whole work as spent.  A fresh
    account runs the pass afresh.
    """
    return _read_pass(Budget.of(budget), (kb, ((glut, 0),)))[0]


def min_glut_states(
    kb: KnowledgeBase, *, budget: Budget | int = DEFAULT_NODE_BUDGET
) -> int | float:
    """The fewest states touched by B in an admissible model, inf if
    none: ``LTL_d``.  As every connective is monotone in B, a touched
    state may as well hold every cell that is not ground at B, so this
    is the least cost of the state pass (:data:`_STATE_CHOICES`) that
    designates every formula.  It is read and charged as
    :func:`root_vectors` is."""
    levels = _read_pass(Budget.of(budget), (kb, _STATE_CHOICES))
    full = (1 << len(kb.formulas)) - 1
    return next((cost for cost, vectors in enumerate(levels) if full in vectors), INF)


def _root_pass(kb: KnowledgeBase, choices: _Choices, budget: Budget) -> _Pass:
    """A pass over the states, run afresh: the vectors at t_0 by least
    cost, and the work, which it leaves to the caller to charge unless
    ``budget`` has too little left for it.

    Each state takes each of ``choices``, a mask of atoms held at B at
    the state's cells that are not ground (-1 holds them all) and what
    the state pays for it.  Element c of the result holds the vectors
    whose least total cost is c.

    The pass walks the states from t_m back to t_0.  A value is the pair
    (can be 1, can be 0), B being (1, 1), so ``!`` swaps it and ``&``
    and ``|`` are exact on it.  A state t_i reads t_{i+1} off a key: for
    reader p of r, an ``X`` node (its child) or a ``U`` node (``right |
    U``), bit p says the value can be 1 and bit r + p that it is B; past
    t_m the key is 0.  For each choice and each distinct key the table
    is evaluated over all 2^k assignments of the k atoms the choice
    enumerates at the state, many at once: each rail is an int with one
    bit per assignment.  Inside the state an ``X`` node is its key value
    and a ``U`` node is its left child and its key value.  The keys this
    state hands to t_{i-1} are deduplicated, each with its least cost,
    so the pass is linear in m and exponential in k.

    The pass costs 2^k units per choice, key and assignment, and raises
    :class:`BudgetExceededError` as soon as the keys expanded and the
    keys handed on to be expanded would take the account past its
    total, before expanding them.
    """
    atoms = kb.atoms()
    table, roots = kb.table
    everything = list(range(len(atoms)))
    ground = kb.ground_cells
    m = kb.trace_length_m

    held_masks, prices = zip(*choices)
    marked, dearest = any(held_masks), max(prices)

    def options(state: int) -> list[tuple[int, list[int]]]:
        """Each choice's cost and the atoms it enumerates at a state: all
        but the held ones off ground cells."""
        return [
            (price, [a for a in everything if not held >> a & 1 or (state, atoms[a]) in ground])
            if held
            else (price, everything)
            for held, price in choices
        ]

    # What the account has left; any charge past it raises.  The pass
    # expands one key at t_m under every choice, at 2^k units for k
    # enumerated atoms, and at least one key at every state, so a charge
    # past either bound is refused before the per-state lists are built.
    left = budget.total - budget.spent
    last = options(m)
    first = sum([1 << len(enumerated) for _, enumerated in last])
    if first > left:
        budget.charge(first)
    if m + 1 > left:
        budget.charge(m + 1)
    # Per state, the options and the steps of one key under them all;
    # without held atoms every state has those of t_m.
    free, steps = [last] * (m + 1), [first] * (m + 1)
    if marked:
        free[:m] = [options(state) for state in range(m)]
        steps = [sum([1 << len(enumerated) for _, enumerated in row]) for row in free]
    program = [(node, *table[node]) for node in range(len(atoms), len(table))]
    # Reader p hands on a | b: X's child, or U's right child and U itself.
    readers = [
        (i, y, i) if op == "U" else (i, x, x) for i, op, x, y in program if op in ("X", "U")
    ]
    high = {node: 1 << p for p, (node, _, _) in enumerate(readers)}
    both = {node: bit << len(readers) for node, bit in high.items()}
    one, zero = [0] * len(table), [0] * len(table)
    # levels[c]: the keys, and at last the vectors, of least cost c.
    levels: list[set[int]] = [{0}]
    current = None
    work = 0
    for state in range(m, -1, -1):
        ahead = steps[state - 1] if state else 0
        handed: list[set[int]] = []
        for price, enumerated in free[state]:
            # On a change of enumerated atoms: held atoms are B, and enumerated[i] is
            # true where bit i of the assignment is, i < inner (the rest per block).
            if enumerated != current:
                current = enumerated
                inner = min(len(enumerated), _PARALLEL_ATOMS)
                full = (1 << (1 << inner)) - 1
                one[: len(atoms)] = zero[: len(atoms)] = [full] * len(atoms)
                for i, atom in enumerate(enumerated[:inner]):
                    one[atom] = full // ((1 << (1 << i)) + 1) << (1 << i)
                    zero[atom] = full ^ one[atom]
            step = 1 << len(enumerated)
            while len(handed) < len(levels) + price:
                handed.append(set())
            # A key of least cost c hands on its keys at c + price.
            for keys, out in zip(levels, handed[price:]):
                for key in keys:
                    work += step
                    for block in range(step >> inner):
                        for i in range(inner, len(enumerated)):
                            one[enumerated[i]] = full if block >> (i - inner) & 1 else 0
                            zero[enumerated[i]] = full ^ one[enumerated[i]]
                        # X and U read the key: 0 unless it can be 1, B if marked.
                        for node, op, x, y in program:
                            if op == "!":
                                one[node], zero[node] = zero[x], one[x]
                            elif op == "U":
                                if key & high[node]:
                                    one[node] = one[x]
                                    zero[node] = full if key & both[node] else zero[x]
                                else:
                                    one[node], zero[node] = 0, full
                            elif op == "|":
                                one[node], zero[node] = one[x] | one[y], zero[x] & zero[y]
                            elif op == "&":
                                one[node], zero[node] = one[x] & one[y], zero[x] | zero[y]
                            elif op == "X":
                                one[node] = full if key & high[node] else 0
                                zero[node] = 0 if one[node] and not key & both[node] else full
                            else:
                                one[node], zero[node] = (full, 0) if op == "true" else (0, full)
                        if state:
                            rows = [one[a] | one[b] for _, a, b in readers]
                            if marked:
                                rows += [
                                    r & zero[a] & zero[b] for r, (_, a, b) in zip(rows, readers)
                                ]
                            out |= _columns(rows, full)
                        else:
                            out |= _columns([one[root] for root in roots], full)
                    # Every handed key costs a step at the next state.
                    if work + len(out) * ahead > left:
                        budget.charge(work + len(out) * ahead)
        # Each key keeps its least cost.
        if dearest:
            seen: set[int] = set()
            for keys in handed:
                keys -= seen
                seen |= keys
            if work + len(seen) * ahead > left:
                budget.charge(work + len(seen) * ahead)
        levels = handed
    return tuple(map(frozenset, levels)), work


def is_satisfiable(
    kb: KnowledgeBase, *, glut: int = 0, budget: Budget | int = DEFAULT_NODE_BUDGET
) -> bool:
    """Whether some trace of :func:`root_vectors` designates every formula."""
    return (1 << len(kb.formulas)) - 1 in root_vectors(kb, glut=glut, budget=budget)


def min_glut_atoms(
    kb: KnowledgeBase, *, budget: Budget | int = DEFAULT_NODE_BUDGET
) -> int | float:
    """The fewest atoms that hold B in an admissible model, inf if none:
    as every connective is monotone in B, the least k such that some k
    atoms held at B (:func:`root_vectors`) leave the base satisfiable."""
    budget = Budget.of(budget)
    everything = range(len(kb.atoms()))
    for size in range(len(everything) + 1):
        for chosen in itertools.combinations(everything, size):
            if is_satisfiable(kb, glut=sum(1 << a for a in chosen), budget=budget):
                return size
    return INF


def _model_cost(nu: Interpretation3, cost_mode: CostMode) -> int:
    if cost_mode is CostMode.AFFECTED_STATES:
        return len(affected_states(nu))
    return len(conflict_base(nu))


def decide_upper(
    kb: KnowledgeBase,
    max_cost: int,
    cost_mode: CostMode,
    *,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
) -> DecisionResult:
    """Is there an admissible three-valued model of cost at most max_cost?"""
    if max_cost < 0:
        raise ValueError(f"max_cost must be nonnegative, got {max_cost}")
    search = _Search(
        kb,
        cost_mode=cost_mode,
        max_cost=max_cost,
        budget=budget,
    )
    witness = search.run()
    return DecisionResult(witness is not None, witness, search.nodes)


def minimize(
    kb: KnowledgeBase,
    cost_mode: CostMode,
    *,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
) -> MinimizeResult:
    """Minimal model cost, from one branch-and-bound search.

    The search starts at the cell count, which cuts nothing, and stops
    at its first witness.  When that witness costs more than 0, the
    two-valued pass (:func:`is_satisfiable`) says whether the base is
    classically satisfiable.

    * On a satisfiable base the value is 0, and the witness comes from
      a second search, at bound 0.
    * Otherwise the value v is at least 1, and the search resumes with
      a floor until it meets a witness that costs at most the floor or
      is exhausted.  The floor is 1, or, when the first witness costs 2
      or more, ``LTL_d`` from the state pass (:func:`min_glut_states`):
      for affected states that is v, so the walk stops at its first
      witness of cost v and refutes nothing, and for conflict bases
      v is at least ``LTL_d``, which is read only when the account's
      table already holds the state pass.  The witness is the one
      a search at bound v returns: every bound of at least 1 admits B
      at the same cells, and the bound stays at least v until the first
      decided node of cost v is met.

    Returns value inf with no witness when the base has no admissible
    three-valued model at all.  The searches and the passes are charged
    to one account; ``nodes`` is what this minimisation charged to it
    and ``probes`` the searches it started.
    """
    budget = Budget.of(budget)
    start = budget.spent
    cells = (kb.trace_length_m + 1) * len(kb.atoms())
    search = _Search(kb, cost_mode=cost_mode, max_cost=cells, budget=budget)
    best, probes = search.run(), 1
    if best is None:
        return MinimizeResult(INF, None, budget.spent - start, probes)
    floor = 0
    if search.value and is_satisfiable(kb, budget=budget):
        best, probes = decide_upper(kb, 0, cost_mode, budget=budget).witness, 2
        value = 0
    else:
        floor = min(search.value, 1)
        if search.value > 1 and (
            cost_mode is CostMode.AFFECTED_STATES
            or (kb, _STATE_CHOICES) in budget.shared
        ):
            floor = min_glut_states(kb, budget=budget)
        search.floor = floor
        best = search.run()
        value = search.value
    if (
        best is None
        or not satisfies3(best, kb)
        or _model_cost(best, cost_mode) != value
        or value < floor
        or (cost_mode is CostMode.AFFECTED_STATES and value != floor)
    ):
        raise RuntimeError(
            "internal error: minimization witness failed re-verification"
        )
    return MinimizeResult(value, best, budget.spent - start, probes)


def count_min_conflict_signatures(
    kb: KnowledgeBase,
    *,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
) -> SignatureCount:
    """Distinct inclusion-minimal conflict bases among the models with
    minimal affected-state count.

    Two minimal models that blur the same cells describe the same
    repair target, so bases are deduplicated and bases that strictly
    contain another collected base are dropped; what remains is a count
    of genuinely different minimal ways the base can be read as
    conflicted.  Requires 1 <= minimal cost < inf.
    """
    budget = Budget.of(budget)
    start = budget.spent
    search = _Search(
        kb,
        cost_mode=CostMode.AFFECTED_STATES,
        max_cost=(kb.trace_length_m + 1) * len(kb.atoms()),
        budget=budget,
        collect_bases=True,
    )
    if search.run() is None:
        raise ValueError("no admissible three-valued model exists")
    if not search.value or is_satisfiable(kb, budget=budget):
        raise ValueError("the base is classically consistent; no conflict to explain")
    search.floor = -1
    search.run()
    bases = search.bases
    minimal = [b for b in bases if not any(other < b for other in bases)]
    ordered = tuple(
        tuple(sorted(b))
        for b in sorted(minimal, key=lambda b: (len(b), sorted(b)))
    )
    return SignatureCount(
        min_affected=search.value,
        bases=ordered,
        witness=search.witness,
        nodes=budget.spent - start,
        probes=1,
    )
