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

Three cost modes say what a model is charged for: the states touched
by B (affected states), the B cells themselves (conflict base), or the
distinct atoms that hold B at some state (B atoms).  Branches whose
running cost exceeds the bound are cut.  A bound of 0 rules out B
cells altogether, open cells included, so classical satisfiability is
the bound-0 decision in any mode.

Classical satisfiability of a base, and of every subset of it at once,
comes from :func:`root_vectors`, a two-valued pass over the same node
table that walks the states from t_m back to t_0, the way bounded model
checking unrolls a trace.  Minimization probes the decision procedure
first at the cost ceiling.  When the pass says the base is classically
unsatisfiable, each further probe asks for a model cheaper than the
last witness, so the one probe that refutes runs just below the value;
otherwise the value is 0 and the bound is halved.  All entry points
share a node budget (search nodes, and for the pass its steps) and
raise :class:`BudgetExceededError` when it runs out, which callers must
treat as "unknown", never as "no model".
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

from .formula import KnowledgeBase, _Node
from .semantics import Interpretation3, TruthValue3, satisfies3

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
    "root_vectors",
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


# Where root_vectors keeps a completed pass: in the base object's own
# attributes, like its cached table, so that it dies with the base.
_PASS_KEY = "_root_vectors"


def root_vectors(
    kb: KnowledgeBase, *, budget: int = DEFAULT_NODE_BUDGET
) -> tuple[frozenset[int], int]:
    """The truth vectors of the formulas at t_0 over all two-valued traces.

    Bit j of a vector is the value of ``kb.formulas[j]`` at t_0, and the
    set holds the vector of every trace over the base's atoms, so a
    subset of the formulas is classically satisfiable iff some vector
    has all of its bits set.  Ground cells only forbid B and play no
    part here.

    The pass walks the states from t_m back to t_0.  What a state t_i
    needs of its successor is a key with one bit per ``X`` node (its
    child's value at t_{i+1}) and one per ``U`` node (``right | U`` at
    t_{i+1}); the key past t_m is all zero, so both are false at t_m.
    For each distinct key the table is evaluated over all 2^k
    assignments of the state's k atoms, many at once: each node's value
    is an int with one bit per assignment.  Inside the state an ``X``
    node is its key bit and a ``U`` node is its left child and its key
    bit.  The keys this state hands to t_{i-1} are deduplicated, so the
    pass is linear in m and exponential in k.

    Returns the vectors and the work spent: 2^k units per key, one per
    key and assignment.  Raises :class:`BudgetExceededError` as soon as
    the keys expanded and the keys handed on to be expanded would take
    the work past ``budget``, before expanding them.

    The base object keeps its last completed pass, so the pass runs once
    per base however many measures and checks ask for it.  Each call
    still returns the work of the pass, to be charged again.  No budget
    check of a pass exceeds its total work, so a budget of at least that
    total is met; a smaller one runs the pass again, which raises where
    it always would.
    """
    kept = kb.__dict__.get(_PASS_KEY)
    if kept is None or kept[1] > budget:
        kept = kb.__dict__[_PASS_KEY] = _root_pass(kb, budget)
    return kept


def _root_pass(kb: KnowledgeBase, budget: int) -> tuple[frozenset[int], int]:
    """The pass of :func:`root_vectors`, run afresh."""
    atoms = kb.atoms()
    table, roots = kb.table
    step = 1 << len(atoms)
    if step > budget:
        raise BudgetExceededError(budget, step)
    inner = min(len(atoms), _PARALLEL_ATOMS)
    width = 1 << inner
    full = (1 << width) - 1
    # Atom i < inner is true in the assignments whose bit i is set; the
    # other atoms are constant over one block of width assignments.
    values = [
        sum(1 << a for a in range(width) if a >> i & 1) for i in range(inner)
    ] + [0] * (len(table) - inner)
    readers = [node for node, (op, _, _) in enumerate(table) if op in ("X", "U")]
    key_bit = {node: 1 << p for p, node in enumerate(readers)}
    vectors: set[int] = set()
    keys = {0}
    work = 0
    for state in range(kb.trace_length_m, -1, -1):
        handed: set[int] = set()
        for key in keys:
            work += step
            for block in range(step >> inner):
                for atom in range(inner, len(atoms)):
                    values[atom] = full if block >> (atom - inner) & 1 else 0
                for node in range(len(atoms), len(table)):
                    op, x, y = table[node]
                    if op == "&":
                        values[node] = values[x] & values[y]
                    elif op == "|":
                        values[node] = values[x] | values[y]
                    elif op == "!":
                        values[node] = full ^ values[x]
                    elif op == "X":
                        values[node] = full if key & key_bit[node] else 0
                    elif op == "U":
                        values[node] = values[x] if key & key_bit[node] else 0
                    else:
                        values[node] = full if op == "true" else 0
                if state:
                    handed |= _columns(
                        [
                            values[table[node][1]]
                            if table[node][0] == "X"
                            else values[table[node][2]] | values[node]
                            for node in readers
                        ],
                        full,
                    )
                else:
                    vectors |= _columns([values[root] for root in roots], full)
            # Every handed key costs a step at the next state.
            if work + len(handed) * step > budget:
                raise BudgetExceededError(budget, work + len(handed) * step)
        keys = handed
    return frozenset(vectors), work


class _Search:
    """One backtracking run over the cell grid of a knowledge base."""

    def __init__(
        self,
        kb: KnowledgeBase,
        *,
        cost_mode: CostMode,
        max_cost: int,
        budget: int,
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
        self.max_cost = max_cost
        self.budget = budget
        self.nodes = 0
        self.collect_bases = collect_bases
        self.bases: set[frozenset[tuple[int, str]]] = set()
        ground = kb.ground_cells
        self.b_ok = [
            (state, self.atoms[atom]) not in ground and max_cost > 0
            for state, atom in self.cells
        ]
        self.assignment: list[TruthValue3 | None] = [None] * len(self.cells)
        self.state_b_count = [0] * (self.m + 1)
        self.atom_b_count = [0] * len(self.atoms)
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

    def _record_base(self) -> None:
        base = frozenset(
            (state, self.atoms[atom])
            for index, (state, atom) in enumerate(self.cells)
            if self.assignment[index] is TruthValue3.BOTH
        )
        self.bases.add(base)

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
                elif self.cost_mode is CostMode.B_ATOMS:
                    increment = 0 if self.atom_b_count[atom] else 1
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
                self.atom_b_count[atom] += 1
            return True
        return False

    def _unassign(self, index: int) -> None:
        state, atom = self.cells[index]
        bit = self.cell_bit[index]
        self.dirty |= 1 << atom
        if self.assignment[index] is TruthValue3.BOTH:
            self.state_b_count[state] -= 1
            self.atom_b_count[atom] -= 1
        self.assignment[index] = None
        self.f[atom] |= bit
        self.t[atom] |= bit
        if self.b_ok[index]:
            self.b[atom] |= bit

    def run(self) -> Interpretation3 | None:
        """Depth-first search; the node at depth d has cells 0..d-1 assigned.

        Returns the first decided model in value order, or None when
        there is none (always None when collecting bases).
        """
        n = len(self.cells)
        tried = [0] * n
        cost = [0] * (n + 1)
        depth = 0
        while True:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceededError(self.budget, self.nodes)
            status = self._status()
            if status == "decided":
                if not self.collect_bases:
                    return self._witness()
                self._record_base()
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
            if level < 0:
                return None
            depth = level + 1


def _model_cost(nu: Interpretation3, cost_mode: CostMode) -> int:
    from .semantics import affected_states, conflict_base

    if cost_mode is CostMode.AFFECTED_STATES:
        return len(affected_states(nu))
    if cost_mode is CostMode.B_ATOMS:
        return len({atom for _, atom in conflict_base(nu)})
    return len(conflict_base(nu))


def decide_upper(
    kb: KnowledgeBase,
    max_cost: int,
    cost_mode: CostMode,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
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
) -> MinimizeResult:
    """Minimal model cost, from decide_upper probes below the cost of
    each witness found.

    The first probe runs at the cost ceiling.  When its witness costs
    more than 0, the two-valued pass (:func:`root_vectors`) says whether
    the base is classically satisfiable, and its work is charged like
    that of every other reader of the pass.

    * On a satisfiable base the value is 0, so every probe finds a
      model; the bound is halved until a witness costs 0.
    * Otherwise the value v is at least 1.  Each probe runs one below
      the cost of the last witness, so bound 0 is never searched and
      the only probe that refutes runs at v - 1.  The witness is still
      the one a probe at v returns: every bound of at least 1 admits B
      at the same cells, so a probe at any bound b >= v walks the same
      tree, cut at b, and a first decided node of cost v there is the
      first of cost at most v.

    Returns value inf with no witness when the base has no admissible
    three-valued model at all.  The budget is shared across the probes
    and the pass.
    """
    ceiling = _cost_ceiling(kb, cost_mode)
    nodes = 0
    probes = 0

    def probe(bound: int) -> DecisionResult:
        nonlocal nodes, probes
        probes += 1
        try:
            result = decide_upper(kb, bound, cost_mode, budget=budget - nodes)
        except BudgetExceededError as exc:
            raise BudgetExceededError(budget, nodes + exc.nodes) from None
        nodes += result.nodes
        return result

    first = probe(ceiling)
    if not first.found:
        return MinimizeResult(INF, None, nodes, probes)
    best = first.witness
    low, high = 0, _model_cost(best, cost_mode)
    if high:
        try:
            vectors, work = root_vectors(kb, budget=budget - nodes)
        except BudgetExceededError as exc:
            raise BudgetExceededError(budget, nodes + exc.nodes) from None
        nodes += work
        if (1 << len(kb.formulas)) - 1 not in vectors:
            low = 1
    while low < high:
        attempt = probe(high - 1 if low else high // 2)
        if attempt.found:
            best = attempt.witness
            high = _model_cost(best, cost_mode)
        else:
            low = high
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
) -> SignatureCount:
    """Distinct inclusion-minimal conflict bases among the models with
    minimal affected-state count.

    Two minimal models that blur the same cells describe the same
    repair target, so bases are deduplicated and bases that strictly
    contain another collected base are dropped; what remains is a count
    of genuinely different minimal ways the base can be read as
    conflicted.  Requires 1 <= minimal cost < inf.
    """
    summary = minimize(kb, CostMode.AFFECTED_STATES, budget=budget)
    if summary.value == INF:
        raise ValueError("no admissible three-valued model exists")
    if summary.value == 0:
        raise ValueError("the base is classically consistent; no conflict to explain")
    search = _Search(
        kb,
        cost_mode=CostMode.AFFECTED_STATES,
        max_cost=int(summary.value),
        budget=budget - summary.nodes,
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
