"""The branch-and-bound search for three-valued models of least cost,
and the work account that it shares with the passes of
:mod:`ltlim.solver`.

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

Work is charged to one :class:`Budget` per run: a search node costs 1
and a pass costs its steps.  The search keeps a few entries per cell,
so it refuses a grid of more cells than its account has left before
it builds anything.  The search and the passes raise
:class:`BudgetExceededError` when the account runs out, which callers
must treat as "unknown", never as "no model".
"""

from __future__ import annotations

import copy
import enum
from collections.abc import Iterable

from .formula import KnowledgeBase, _Node
from .semantics import Interpretation3, TruthValue3

__all__ = ["Budget", "BudgetExceededError", "CostMode", "DEFAULT_NODE_BUDGET", "INF"]

INF = float("inf")

DEFAULT_NODE_BUDGET = 10_000_000


class CostMode(enum.Enum):
    """What a three-valued model is charged for."""

    AFFECTED_STATES = "affected_states"
    CONFLICT_BASE = "conflict_base"


# A pass of :mod:`ltlim.solver` lets each state take one of its
# choices: a mask of the atoms held at B, -1 for all of them, and the
# cost of taking it.  It is asked for by base and choices.  Once run it
# is its vectors by least cost, and its work.
_Choices = tuple[tuple[int, int], ...]
_PassKey = tuple[KnowledgeBase, _Choices]
_Levels = tuple[frozenset[int], ...]
_Pass = tuple[_Levels, int]


class BudgetExceededError(RuntimeError):
    """The node budget ran out before the search reached a verdict."""

    def __init__(self, budget: int, nodes: int):
        self.budget = budget
        self.nodes = nodes
        super().__init__(f"search exceeded the node budget of {budget}")


class Budget:
    """One run's work account: ``total`` units, of which ``spent`` are used.

    A search node costs one unit and a pass over the states costs its
    steps.  The account finds each pass in ``shared``, a table of each
    pass's vectors and work that accounts may share, and keeps the keys
    of the passes it has paid for in ``paid``, so that a run charges
    every pass once, however many measures read it.  The accounts of one
    sweep instance share one table, so they run each pass once, and each
    of them is charged its work as if it had run the pass itself.
    """

    def __init__(self, total: int, shared: dict[_PassKey, _Pass] | None = None):
        self.total = total
        self.spent = 0
        self.paid: set[_PassKey] = set()
        # (kb, choices) -> the vectors and the work of a pass run so far.
        self.shared = {} if shared is None else shared

    def fork(self) -> Budget:
        """A copy of this account, on the same table, that keeps its own
        paid keys from here on."""
        account = copy.copy(self)
        account.paid = set(self.paid)
        return account

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
        self.budget = Budget.of(budget)
        # The walk keeps a few entries per cell, so a grid of more cells
        # than the account has units left is refused before it is built.
        grid = (self.m + 1) * len(self.atoms)
        if grid > self.budget.total - self.budget.spent:
            self.budget.charge(grid)
        # A cell is (state, atom index), in state-major order.
        self.cells = [
            (state, atom)
            for state in range(self.m + 1)
            for atom in range(len(self.atoms))
        ]
        self.table, self.roots = kb.table
        self.cost_mode = cost_mode
        self.max_cost = self.floor = max_cost
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
