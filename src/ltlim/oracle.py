"""Exhaustive reference evaluation over small interpretation spaces.

Everything here enumerates the full space of interpretations for a
knowledge base signature, so it only works below a cell cap, but inside
that cap it is a trustworthy oracle: measures are computed by brute
force rather than by search.

Cells are ordered state major ((t_0, a), (t_0, b), ..., (t_1, a), ...)
with atoms sorted, and enumeration is lexicographic over cells with the
per-cell value order 0 < 1 < B (0 < 1 for two-valued spaces), so
iteration order and tie-breaking are deterministic: a minimum is always
witnessed by the first admissible row of minimal cost.

The space is held column major, as a (cells, rows) grid of TruthValue3
ordinals whose column r is the r-th interpretation; each cell's values
are one contiguous row, filled by broadcasting the value order over
blocks rather than by dividing a row index.  An atom's values over the
trace are then an (m+1, rows) view of the grid.  The formulas are
evaluated by one walk over the base's node table
(:attr:`ltlim.formula.KnowledgeBase.table`, the table the solver also
reads), in table order: each node's values are computed from its
children's over all rows at once with numpy, one contiguous state row
at a time, using the backward recurrence for until

    u(m) = 0,   u(i) = min(left(i), max(right(i+1), u(i+1)))

which tests/test_oracle.py checks against the clause-by-clause
evaluator in the semantics module.  Sharing the table leaves the oracle
an independent arbiter of the search: it has its own enumeration and
its own evaluation step, and the compilation is checked on its own.

A base is enumerated once for all of its cost measures: the costs of
``c``, ``LTL_d`` and ``LTL_c`` are all read off the same grid's B plane
(:func:`oracle_min_costs`).  No grid outlives the call that built it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .formula import KnowledgeBase, _Node
from .semantics import DEFAULT_CELL_CAP, MAX_CELL_CAP, Interpretation3, TruthValue3

__all__ = [
    "DEFAULT_CELL_CAP",
    "MAX_CELL_CAP",
    "OracleCapExceeded",
    "oracle_min_cost",
    "oracle_min_costs",
    "oracle_minimal_conflict_bases",
    "oracle_sat2",
]

INF = float("inf")

# Digit-to-ordinal tables for the enumeration orders 0 < 1 (two-valued)
# and 0 < 1 < B (three-valued); ordinals follow TruthValue3.
_LUT2 = np.array([0, 2], dtype=np.uint8)
_LUT3 = np.array([0, 2, 1], dtype=np.uint8)

_BOTH = int(TruthValue3.BOTH)

# Above every cost, so masking rows with it leaves the admissible minimum.
_NO_MODEL = np.uint8(255)


class OracleCapExceeded(ValueError):
    """The signature has too many cells for exhaustive enumeration."""


def _check_cap(n_cells: int, cell_cap: int) -> None:
    if n_cells > cell_cap:
        raise OracleCapExceeded(
            f"{n_cells} cells exceed the oracle cap of {cell_cap}"
        )


def _digit_grid(n_cells: int, lut: np.ndarray) -> np.ndarray:
    """All length-n digit strings over 0..len(lut)-1 with each digit d
    written as lut[d], shape (cells, rows).

    Row r (the column grid[:, r]) spells r in base len(lut), most
    significant digit first, so rows are in lexicographic order.
    """
    base = len(lut)
    grid = np.empty((n_cells, base**n_cells), dtype=np.uint8)
    for cell in range(n_cells):
        block = grid[cell].reshape(base**cell, base, base ** (n_cells - 1 - cell))
        block[...] = lut[None, :, None]
    return grid


def _walk(
    table: list[_Node], cube: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield every node of a table with its ordinal values, in table order.

    ``cube`` holds the atoms' values, shape (m+1, atoms, rows), and each
    node's values have shape (m+1, rows); they may be a read-only view
    of the cube or of a constant.  The walk keeps a node's values only
    until the last node that reads them, so callers that need them
    longer keep them themselves.
    """
    m = cube.shape[0] - 1
    shape = (m + 1, cube.shape[2])
    children = [
        () if op in ("atom", "true", "false") else {x, y} - {-1}
        for op, x, y in table
    ]
    last_reader = list(range(len(table)))
    for node, read in enumerate(children):
        for child in read:
            last_reader[child] = node
    values: dict[int, np.ndarray] = {}
    for node, (op, x, y) in enumerate(table):
        if op == "atom":
            out = cube[:, x]
        elif op == "true":
            out = np.broadcast_to(np.uint8(2), shape)
        elif op == "false":
            out = np.broadcast_to(np.uint8(0), shape)
        elif op == "!":
            out = 2 - values[x]
        elif op == "&":
            out = np.minimum(values[x], values[y])
        elif op == "|":
            out = np.maximum(values[x], values[y])
        elif op == "X":
            out = np.zeros(shape, dtype=np.uint8)
            out[:m] = values[x][1:]
        else:
            left, right = values[x], values[y]
            out = np.zeros(shape, dtype=np.uint8)
            for i in range(m - 1, -1, -1):
                np.maximum(right[i + 1], out[i + 1], out=out[i])
                np.minimum(left[i], out[i], out=out[i])
        for child in children[node]:
            if last_reader[child] == node:
                del values[child]
        if last_reader[node] > node:
            values[node] = out
        yield node, out


def _model_space(
    kb: KnowledgeBase,
    *,
    cell_cap: int,
    two_valued: bool = False,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Enumerate the space and flag the admissible models.

    Returns (atoms, ordinal grid of shape (cells, rows), model mask).
    The grid rows follow the documented enumeration order.
    """
    atoms = kb.atoms()
    m = kb.trace_length_m
    n_cells = (m + 1) * len(atoms)
    _check_cap(n_cells, cell_cap)
    grid = _digit_grid(n_cells, _LUT2 if two_valued else _LUT3)
    cube = grid.reshape(m + 1, len(atoms), grid.shape[1])
    table, roots = kb.table
    mask = np.ones(grid.shape[1], dtype=bool)
    # Fold each root in as the walk yields it, so that no root's values
    # outlive their last reader.
    for node, values in _walk(table, cube):
        if node in roots:
            mask &= values[0] >= 1
    if not two_valued:
        for state, atom in kb.ground_cells:
            mask &= cube[state, atoms.index(atom)] != _BOTH
    return atoms, grid, mask


def _row_interpretation(
    atoms: tuple[str, ...], grid: np.ndarray, row: int, m: int
) -> Interpretation3:
    cells = grid[:, row].reshape(m + 1, len(atoms))
    return Interpretation3(
        atoms=atoms,
        values=tuple(
            tuple(TruthValue3(int(v)) for v in state_row) for state_row in cells
        ),
    )


def oracle_sat2(
    kb: KnowledgeBase,
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> tuple[bool, Interpretation3 | None]:
    """Classical satisfiability by enumerating two-valued interpretations."""
    atoms, grid, mask = _model_space(kb, cell_cap=cell_cap, two_valued=True)
    hits = np.flatnonzero(mask)
    if hits.size == 0:
        return False, None
    return True, _row_interpretation(atoms, grid, int(hits[0]), kb.trace_length_m)


def _costs(grid: np.ndarray, n_atoms: int, m: int, cost: str) -> np.ndarray:
    """Per-row cost of the given kind, read off the grid's B plane.

    Costs count cells, so they fit in uint8 under any enumerable cap.
    """
    both = (grid == _BOTH).reshape(m + 1, n_atoms, grid.shape[1])
    if cost == "affected_states":
        return np.logical_or.reduce(both, axis=1).sum(axis=0, dtype=np.uint8)
    if cost == "conflict_base":
        return both.sum(axis=(0, 1), dtype=np.uint8)
    if cost == "b_atoms":
        return np.logical_or.reduce(both, axis=0).sum(axis=0, dtype=np.uint8)
    raise ValueError(f"unknown cost kind {cost!r}")


def _min_by(
    kb: KnowledgeBase,
    costs: np.ndarray,
    mask: np.ndarray,
    atoms: tuple[str, ...],
    grid: np.ndarray,
) -> tuple[int | float, Interpretation3 | None]:
    """The first admissible row of minimal cost, with its cost."""
    if not mask.any():
        return INF, None
    row = int(np.argmin(np.where(mask, costs, _NO_MODEL)))
    return int(costs[row]), _row_interpretation(atoms, grid, row, kb.trace_length_m)


def oracle_min_costs(
    kb: KnowledgeBase,
    costs: Iterable[str],
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> dict[str, tuple[int | float, Interpretation3 | None]]:
    """Minimum model costs of several kinds from one enumeration.

    ``costs`` names the kinds, each as in :func:`oracle_min_cost`; the
    result maps each kind to its (minimum, witness) pair.
    """
    atoms, grid, mask = _model_space(kb, cell_cap=cell_cap)
    m = kb.trace_length_m
    return {
        cost: _min_by(kb, _costs(grid, len(atoms), m, cost), mask, atoms, grid)
        for cost in costs
    }


def oracle_min_cost(
    kb: KnowledgeBase,
    cost: str,
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> tuple[int | float, Interpretation3 | None]:
    """Minimum model cost by brute force.

    ``cost`` selects what is counted: "affected_states" counts states
    holding at least one B cell, "conflict_base" counts B cells, and
    "b_atoms" counts distinct atoms holding B at some state.
    Returns (inf, None) when no admissible model exists.
    """
    return oracle_min_costs(kb, (cost,), cell_cap=cell_cap)[cost]


def oracle_minimal_conflict_bases(
    kb: KnowledgeBase,
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> tuple[int, tuple[tuple[tuple[int, str], ...], ...], int]:
    """Conflict bases of the models with minimal affected-state count.

    Returns (minimal affected-state count, the inclusion-minimal
    distinct conflict bases as sorted tuples, and the raw number of
    minimal-cost interpretations).  Requires the base to be properly
    but not hopelessly inconsistent: the minimal cost must be finite
    and at least 1.
    """
    return _minimal_conflicts(kb, cell_cap=cell_cap)[:3]


def _minimal_conflicts(
    kb: KnowledgeBase,
    *,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> tuple[int, tuple[tuple[tuple[int, str], ...], ...], int, Interpretation3]:
    """:func:`oracle_minimal_conflict_bases` plus its witness, the first
    admissible row of minimal affected-state count, which is the
    witness :func:`oracle_min_cost` gives for that count."""
    atoms, grid, mask = _model_space(kb, cell_cap=cell_cap)
    costs = _costs(grid, len(atoms), kb.trace_length_m, "affected_states")
    if not mask.any():
        raise ValueError("no admissible three-valued model exists")
    best = int(costs[mask].min())
    if best == 0:
        raise ValueError("the base is classically consistent; no conflict to explain")
    rows = np.flatnonzero(mask & (costs == best))
    bases: list[frozenset[tuple[int, str]]] = []
    seen: set[frozenset[tuple[int, str]]] = set()
    for row in rows:
        cells = np.flatnonzero(grid[:, row] == _BOTH)
        base = frozenset(
            (int(c) // len(atoms), atoms[int(c) % len(atoms)]) for c in cells
        )
        if base not in seen:
            seen.add(base)
            bases.append(base)
    minimal = [b for b in bases if not any(o < b for o in seen)]
    ordered = tuple(
        tuple(sorted(b)) for b in sorted(minimal, key=lambda b: (len(b), sorted(b)))
    )
    witness = _row_interpretation(atoms, grid, int(rows[0]), kb.trace_length_m)
    return best, ordered, int(rows.size), witness
