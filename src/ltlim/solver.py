"""Backtracking search for three-valued models of minimal cost.

The search assigns truth values to (state, atom) cells in state-major
order, trying 1, then 0, then B at each cell.  It walks the node table
of the base's core formulas, compiled once per base by
:attr:`ltlim.formula.KnowledgeBase.table`: structurally equal
subformulas share one node, and every node comes after its children.
For every node the search keeps the truth values still achievable by
some completion of the partial assignment, at each state, as three
Python ints over the states t_0..t_m: bit m - s of the first is set
when the value at t_s can be 0, of the second when it can be B, and of
the third when it can be 1, so t_0 is the top bit and t_m is bit 0.
Assigning a cell clears bits of its atom's three ints, and backtracking
sets them again.  Before each status the nodes above the atoms whose
cells changed since the last one, and only those, are recomputed in
table order, with a few bitwise operations each: ``!`` swaps the 0 and
1 bitsets, ``X`` is a shift, and ``U`` solves each of its three carry
chains with one integer addition.  Every node records the atoms below
it (:attr:`ltlim.formula.KnowledgeBase.atoms_below`), and the search
keeps the nodes to recompute for each set of changed atoms it meets.
These are the exact images of the connectives on value sets, computed
bit by bit, because no set is ever empty: a conjunction can be 0 when
either side can be 0, since the other side has some value to pair
with.  Two facts about these sets drive the search:

* they over-approximate, so a formula whose set at t_0 contains no
  designated value can never be repaired by the remaining cells, and
  the branch is pruned;
* for the same reason, when every formula's set at t_0 contains only
  designated values the branch is decided, and the cheapest completion
  fills every open cell with 0.

Two cost modes say what a model is charged for: the states touched by
B (affected states) or the B cells themselves (conflict base).  Branches
whose running cost exceeds the bound are cut.  A bound of 0 rules out B
cells altogether, so classical satisfiability is the bound-0 decision.
The search is a branch and bound: at each decided node it takes the
cheapest completion as its witness and lowers the bound below that
witness's cost, so one depth-first walk ends at a cheapest model and
visits no node twice.  It stops early once a witness costs at most its
floor, and resumes from there when asked again with a lower floor.

Classical satisfiability of a base, and of every subset of it at once,
comes from :func:`root_vectors`, a pass over the same node table that
walks the states from t_m back to t_0, the way bounded model checking
unrolls a trace.  Its values are dual rail, as in ternary simulation,
so it also decides bases with chosen atoms held at B, which yields the
measure c (:func:`min_glut_atoms`).  Minimization stops the search at
its first witness; when that costs more than 0 the pass says whether
the value is 0, and otherwise the same search runs on to the value.

Work is charged to one :class:`Budget` per run: a search node costs 1
and the pass costs its steps.  Every entry point takes ``budget`` as an
int, which opens a fresh account, or as a :class:`Budget` that callers
share.  The account charges each pass once however many measures read
it, and accounts may share the passes they ran, as the checks of one
sweep instance do, each still charged as if it ran them.  The search
and the pass raise :class:`BudgetExceededError` when the account runs
out, which callers must treat as "unknown", never as "no model".
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .formula import KnowledgeBase, _Node
from .semantics import (
    Interpretation3, TruthValue3, affected_states, conflict_base, satisfies3
)

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
    "minimize",
    "root_vectors",
]

INF = float("inf")

DEFAULT_NODE_BUDGET = 10_000_000


class CostMode(enum.Enum):
    """What a three-valued model is charged for."""

    AFFECTED_STATES = "affected_states"
    CONFLICT_BASE = "conflict_base"


# A pass of root_vectors is asked for by base and held atoms, and once
# finished it is its vectors and the work it cost.
_PassKey = tuple[KnowledgeBase, int]
_Pass = tuple[frozenset[int], int]


class BudgetExceededError(RuntimeError):
    """The node budget ran out before the search reached a verdict."""

    def __init__(self, budget: int, nodes: int):
        self.budget = budget
        self.nodes = nodes
        super().__init__(f"search exceeded the node budget of {budget}")


class Budget:
    """One run's work account: ``total`` units, of which ``spent`` are used.

    A search node costs one unit and a pass of :func:`root_vectors`
    costs its steps.  The account keeps each pass it has paid for, so
    that a run charges every pass once, however many measures read it.
    It finds the passes it has not paid for yet in ``shared``, a table of
    each pass's vectors and work that accounts may share: the accounts of
    one sweep instance run each pass once, and each of them is charged
    its work as if it had run the pass itself.
    """

    def __init__(self, total: int, shared: dict[_PassKey, _Pass] | None = None):
        self.total = total
        self.spent = 0
        # (kb, glut) -> the vectors of a pass this account has paid for.
        self.passes: dict[_PassKey, frozenset[int]] = {}
        # (kb, glut) -> the vectors and the work of a pass run so far.
        self.shared = {} if shared is None else shared

    @classmethod
    def of(cls, budget: Budget | int) -> Budget:
        """``budget`` itself, or a fresh account of that many units."""
        return budget if isinstance(budget, Budget) else cls(budget)

    def charge(self, work: int) -> None:
        """Spend ``work`` units; raise :class:`BudgetExceededError` when
        that takes the account past its total."""
        self.spent += work
        if self.spent > self.total:
            raise BudgetExceededError(self.total, self.spent)


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


_VALUE_ORDER = (TruthValue3.TRUE, TruthValue3.FALSE, TruthValue3.BOTH)


def _evaluate(
    table: list[_Node],
    nodes: Iterable[int],
    f: list[int],
    b: list[int],
    t: list[int],
    m: int,
) -> None:
    """Recompute the value sets of ``nodes``, which run in table order.

    ``f[n]``, ``b[n]`` and ``t[n]`` are node n's can-be-0, can-be-B and
    can-be-1 bitsets over the states t_0..t_m.  Bit m - s stands for
    t_s: t_0 is the top bit and t_m is bit 0, so that a value flows
    from t_{s+1} to t_s towards the higher bits, the way a carry does.
    Nodes not listed, the atom leaves among them, are read, never
    written; each listed node's children must be up to date.

    ``X`` shifts left by one, and its 0-plane gains t_m.  ``U`` is
    exactly 0 at t_m, and below it v(s) = left(s) & (right(s+1) |
    v(s+1)), so each of its three planes obeys a carry chain
    x_s = g_s | (p_s & x_{s+1}): g generates, p propagates.  One integer
    addition solves such a chain at every state, since (g | p) + g
    carries out of exactly the bits whose x is set; XOR with the sum
    bits p & ~g leaves the carries into each bit, one bit too high.
    """
    full = (2 << m) - 1
    for node in nodes:
        op, x, y = table[node]
        if op == "!":
            f[node], b[node], t[node] = t[x], b[x], f[x]
        elif op == "&":
            lb, lt, rb, rt = b[x], t[x], b[y], t[y]
            f[node] = f[x] | f[y]
            b[node] = (lb & (rb | rt)) | (rb & (lb | lt))
            t[node] = lt & rt
        elif op == "|":
            lf, lb, rf, rb = f[x], b[x], f[y], b[y]
            f[node] = lf & rf
            b[node] = (lb & (rb | rf)) | (rb & (lb | lf))
            t[node] = t[x] | t[y]
        elif op == "X":
            f[node] = ((f[x] << 1) & full) | 1
            b[node] = (b[x] << 1) & full
            t[node] = (t[x] << 1) & full
        elif op == "U":
            # The right child and v itself are read at t_{s+1}: one bit
            # lower, hence a left shift.  Only the 0-plane's propagate
            # bits can spill past t_0; every other g and p is masked by
            # a plane of the left child.
            lb, lt = b[x], t[x]
            rf, rb, rt = (f[y] << 1) & full, b[y] << 1, t[y] << 1
            g, p = f[x] | 1, rf
            vf = (((g | p) + g) ^ (p & ~g)) >> 1
            g, p = lt & rt, lt
            vt = (((g | p) + g) ^ (p & ~g)) >> 1
            lbt = lb | lt
            g = (lb & (rt | (vt << 1))) | (lbt & rb & (vf << 1))
            p = lbt & (rb | rf)
            b[node] = (((g | p) + g) ^ (p & ~g)) >> 1
            f[node], t[node] = vf, vt
        elif op == "true":
            f[node], b[node], t[node] = 0, 0, full
        elif op == "false":
            f[node], b[node], t[node] = full, 0, 0


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


def root_vectors(
    kb: KnowledgeBase, *, glut: int = 0, budget: Budget | int = DEFAULT_NODE_BUDGET
) -> frozenset[int]:
    """The truth vectors of the formulas at t_0, the ``glut`` atoms at B.

    Bit j of a vector is set when ``kb.formulas[j]`` is designated at
    t_0.  Bit i of ``glut`` holds atom ``kb.atoms()[i]`` at B at each of
    its cells that is not ground; every other cell is 0 or 1.  With
    ``glut`` 0, a subset of the formulas is classically satisfiable iff
    some vector has all of its bits set.

    The pass walks the states from t_m back to t_0.  A value is the pair
    (can be 1, can be 0), B being (1, 1), so ``!`` swaps it and ``&``
    and ``|`` are exact on it.  A state t_i reads t_{i+1} off a key: for
    reader p of r, an ``X`` node (its child) or a ``U`` node (``right |
    U``), bit p says the value can be 1 and bit r + p that it is B; past
    t_m the key is 0.  For each distinct key the table is evaluated over
    all 2^k assignments of the state's k enumerated atoms, many at once:
    each rail is an int with one bit per assignment.  Inside the state
    an ``X`` node is its key value and a ``U`` node is its left child
    and its key value.  The keys this state hands to t_{i-1} are
    deduplicated, so the pass is linear in m and exponential in k.

    The pass costs 2^k units per key, one per key and assignment, and
    raises :class:`BudgetExceededError` as soon as the keys expanded and
    the keys handed on to be expanded would take the account past its
    total, before expanding them.  An account is charged a pass's work
    the first time it reads it, and keeps its vectors, so a run charges
    a pass once, however many measures and checks read it.  The pass
    runs only when the account's table (:attr:`Budget.shared`) lacks it,
    so the accounts that share one table, those of one sweep instance,
    run it once.  An account that finds the pass there raises exactly when the
    pass would, because the pass refuses only when its whole work would
    exceed what is left; the error then reports that whole work as
    spent.  A fresh account runs the pass afresh.
    """
    budget = Budget.of(budget)
    key = (kb, glut)
    vectors = budget.passes.get(key)
    if vectors is None:
        kept = budget.shared.get(key)
        if kept is None:
            kept = budget.shared[key] = _root_pass(kb, glut, budget)
        budget.charge(kept[1])
        vectors = budget.passes[key] = kept[0]
    return vectors


def _root_pass(kb: KnowledgeBase, glut: int, budget: Budget) -> _Pass:
    """The pass of :func:`root_vectors`, run afresh: its vectors and its
    work, which it leaves to the caller to charge unless ``budget`` has
    too little left for it."""
    atoms = kb.atoms()
    table, roots = kb.table
    everything = list(range(len(atoms)))
    m = kb.trace_length_m

    def enumerated_at(state: int) -> list[int]:
        """The atoms enumerated at a state: all but the held ones off ground cells."""
        if not glut:
            return everything
        return [
            a for a in everything if not glut >> a & 1 or (state, atoms[a]) in kb.ground_cells
        ]

    # What the account has left; any charge past it raises.  The pass
    # expands one key at t_m, at 2^k units for its k enumerated atoms,
    # and at least one key at every state, so a charge past either bound
    # is refused before the per-state lists are built.
    left = budget.total - budget.spent
    if 1 << len(enumerated_at(m)) > left:
        budget.charge(1 << len(enumerated_at(m)))
    if m + 1 > left:
        budget.charge(m + 1)
    free = [enumerated_at(state) for state in range(m + 1)]
    steps = [1 << len(enumerated) for enumerated in free]
    program = [(node, *table[node]) for node in range(len(atoms), len(table))]
    # Reader p hands on a | b: X's child, or U's right child and U itself.
    readers = [
        (i, y, i) if op == "U" else (i, x, x) for i, op, x, y in program if op in ("X", "U")
    ]
    high = {node: 1 << p for p, (node, _, _) in enumerate(readers)}
    both = {node: bit << len(readers) for node, bit in high.items()}
    one, zero = [0] * len(table), [0] * len(table)
    vectors: set[int] = set()
    keys = {0}
    work = 0
    for state in range(kb.trace_length_m, -1, -1):
        enumerated = free[state]
        # On a change of enumerated atoms: held atoms are B, and enumerated[i] is
        # true where bit i of the assignment is, i < inner (the rest per block).
        if free[state + 1 : state + 2] != [enumerated]:
            inner = min(len(enumerated), _PARALLEL_ATOMS)
            full = (1 << (1 << inner)) - 1
            one[: len(atoms)] = zero[: len(atoms)] = [full] * len(atoms)
            for i, atom in enumerate(enumerated[:inner]):
                one[atom] = full // ((1 << (1 << i)) + 1) << (1 << i)
                zero[atom] = full ^ one[atom]
        handed: set[int] = set()
        step = steps[state]
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
                    if glut:
                        rows += [r & zero[a] & zero[b] for r, (_, a, b) in zip(rows, readers)]
                    handed |= _columns(rows, full)
                else:
                    vectors |= _columns([one[root] for root in roots], full)
            # Every handed key costs a step at the next state (none at t_0).
            if work + len(handed) * steps[state - 1] > left:
                budget.charge(work + len(handed) * steps[state - 1])
        keys = handed
    return frozenset(vectors), work


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


class _Search:
    """One resumable branch-and-bound walk over the cell grid of a base."""

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        cost_mode: CostMode,
        max_cost: int,
        budget: Budget | int,
        collect_bases: bool = False,
    ):
        self.kb = kb
        self.m = kb.trace_length_m
        self.atoms = kb.atoms()
        # A cell is (state, atom index), in state-major order.
        self.cells = [
            (state, atom)
            for state in range(self.m + 1)
            for atom in range(len(self.atoms))
        ]
        self.table, self.roots = kb.table
        self.cost_mode = cost_mode
        self.max_cost = self.floor = max_cost
        self.budget = Budget.of(budget)
        self.nodes = 0
        # Where the walk stands, depth -1 once it is exhausted, and the
        # cheapest witness it has met.
        self.depth = 0
        self.tried = [0] * len(self.cells)
        self.cost = [0] * (len(self.cells) + 1)
        self.value: int | float = INF
        self.witness: Interpretation3 | None = None
        self.collect_bases = collect_bases
        self.bases: set[frozenset[tuple[int, str]]] = set()
        ground = kb.ground_cells
        self.b_ok = [
            (state, self.atoms[atom]) not in ground and max_cost > 0
            for state, atom in self.cells
        ]
        self.assignment: list[TruthValue3 | None] = [None] * len(self.cells)
        self.state_b_count = [0] * (self.m + 1)
        # Bit m - s of a bitset stands for t_s (see _evaluate), so a
        # cell's bit is 1 << (m - state), and the roots are read at t_0.
        self.cell_bit = [1 << (self.m - state) for state, _ in self.cells]
        self.top = 1 << self.m
        # Every cell starts open: it can be 0 or 1, and B where b_ok.
        full = (2 << self.m) - 1
        self.f = [full] * len(self.table)
        self.b = [0] * len(self.table)
        self.t = [full] * len(self.table)
        for index, (_, atom) in enumerate(self.cells):
            if self.b_ok[index]:
                self.b[atom] |= self.cell_bit[index]
        _evaluate(
            self.table,
            range(len(self.atoms), len(self.table)),
            self.f,
            self.b,
            self.t,
            self.m,
        )
        # Later evaluations recompute only the nodes above the atoms
        # whose cells changed since the last one: the dirty atoms, as a
        # mask, and for each mask met so far its nodes in table order.
        self.dirty = 0
        self.cones: dict[int, list[int]] = {}

    def _status(self) -> str:
        """"dead", "decided", or "open" for the current partial assignment."""
        f, b, t = self.f, self.b, self.t
        dirty = self.dirty
        cone = self.cones.get(dirty)
        if cone is None:
            below = self.kb.atoms_below
            cone = self.cones[dirty] = [
                node
                for node in range(len(self.atoms), len(self.table))
                if below[node] & dirty
            ]
        _evaluate(self.table, cone, f, b, t, self.m)
        self.dirty = 0
        top = self.top
        decided = True
        for root in self.roots:
            if not (b[root] | t[root]) & top:
                return "dead"
            if f[root] & top:
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

    def _assign_next(self, index: int, tried: list[int], cost: list[int]) -> bool:
        """Assign cell ``index`` the next value in order that the bound
        admits, pruning B where the cell may not hold it."""
        state, atom = self.cells[index]
        while tried[index] < len(_VALUE_ORDER):
            value = _VALUE_ORDER[tried[index]]
            tried[index] += 1
            if value is TruthValue3.BOTH:
                if not self.b_ok[index]:
                    continue
                if self.cost_mode is CostMode.CONFLICT_BASE:
                    increment = 1
                else:
                    increment = 0 if self.state_b_count[state] else 1
            else:
                increment = 0
            new_cost = cost[index] + increment
            if new_cost > self.max_cost:
                continue
            cost[index + 1] = new_cost
            self.assignment[index] = value
            self.dirty |= 1 << atom
            drop = ~self.cell_bit[index]
            if value is TruthValue3.TRUE:
                self.f[atom] &= drop
                self.b[atom] &= drop
            elif value is TruthValue3.FALSE:
                self.b[atom] &= drop
                self.t[atom] &= drop
            else:
                self.f[atom] &= drop
                self.t[atom] &= drop
                self.state_b_count[state] += 1
            return True
        return False

    def _unassign(self, index: int) -> None:
        state, atom = self.cells[index]
        bit = self.cell_bit[index]
        self.dirty |= 1 << atom
        if self.assignment[index] is TruthValue3.BOTH:
            self.state_b_count[state] -= 1
        self.assignment[index] = None
        self.f[atom] |= bit
        self.t[atom] |= bit
        if self.b_ok[index]:
            self.b[atom] |= bit

    def run(self) -> Interpretation3 | None:
        """Depth-first branch and bound; the node at depth d has cells
        0..d-1 assigned.

        A decided node whose completion, every open cell 0, is cheaper
        than the witness becomes the witness, and the bound drops one
        below its cost, or to its cost when collecting the bases of the
        cheapest decided nodes.  Returns the witness, None if there is
        none, once it costs at most ``floor`` or the walk is exhausted;
        a later call with a lower ``floor`` resumes there.  Each call
        charges its nodes to the budget, which raises when it stopped
        for want of nodes.
        """
        n = len(self.cells)
        tried, cost = self.tried, self.cost
        start = self.nodes
        limit = start + self.budget.total - self.budget.spent
        while self.value > self.floor and self.depth >= 0:
            self.nodes += 1
            if self.nodes > limit:
                break
            depth = self.depth
            status = self._status()
            if status == "decided":
                if cost[depth] < self.value:
                    self.value, self.witness = cost[depth], self._witness()
                    self.max_cost = cost[depth] if self.collect_bases else cost[depth] - 1
                    self.bases.clear()
                if self.collect_bases:
                    self.bases.add(
                        frozenset(
                            (state, self.atoms[atom])
                            for index, (state, atom) in enumerate(self.cells)
                            if self.assignment[index] is TruthValue3.BOTH
                        )
                    )
            # With every cell assigned the sets are singletons, so an
            # open status can not reach depth n.
            if status == "open" and depth < n:
                tried[depth] = 0
                level = depth
            else:
                level = depth - 1
            while level >= 0:
                if self.assignment[level] is not None:
                    self._unassign(level)
                if self._assign_next(level, tried, cost):
                    break
                level -= 1
            self.depth = level + 1 if level >= 0 else -1
        self.budget.charge(self.nodes - start)
        return self.witness


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
      floor 1 until it meets a witness of cost 1 or is exhausted.  The
      witness is the one a search at bound v returns: every bound of at
      least 1 admits B at the same cells, and the bound stays at least
      v until the first decided node of cost v is met.

    Returns value inf with no witness when the base has no admissible
    three-valued model at all.  The searches and the pass are charged to
    one account; ``nodes`` is what this minimisation charged to it and
    ``probes`` the searches it started.
    """
    budget = Budget.of(budget)
    start = budget.spent
    cells = (kb.trace_length_m + 1) * len(kb.atoms())
    search = _Search(kb, cost_mode=cost_mode, max_cost=cells, budget=budget)
    best, probes = search.run(), 1
    if best is None:
        return MinimizeResult(INF, None, budget.spent - start, probes)
    if search.value and is_satisfiable(kb, budget=budget):
        best, probes = decide_upper(kb, 0, cost_mode, budget=budget).witness, 2
        value = 0
    else:
        search.floor = 1
        best = search.run()
        value = search.value
    if best is None or not satisfies3(best, kb) or _model_cost(best, cost_mode) != value:
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
