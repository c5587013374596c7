"""Exhaustive reference evaluation over small interpretation spaces.

Everything here enumerates the full space of interpretations for a
knowledge base signature, so it only works below a cell cap, but inside
that cap it is a trustworthy oracle: measures are computed by brute
force rather than by search.

Cells are ordered state major ((t_0, a), (t_0, b), ..., (t_1, a), ...)
with atoms sorted, and enumeration is lexicographic over cells with the
per-cell value order 0 < 1 < B, so iteration order and tie-breaking
are deterministic: a minimum is always witnessed by the first
admissible row of minimal cost.

The space is never materialized.  It is a product of numpy broadcast
axes, one per trace state, each of size 3 ** k for k atoms; index j of
state s's axis spells that state's cells in base 3, atoms in order,
most significant first.  So the C-order flat index of a point of the
space is the row index r, spelled by its cells, and a row decodes with
``np.unravel_index`` over the per-cell shape (3,) * cells.  Cell (s, a)
is a uint8 vector of TruthValue3 ordinals along axis s, size 1 on every
other axis.  The two-valued space of :func:`oracle_root_vectors` is
laid out the same way in base 2, with the order 0 < 1.

The formulas are evaluated by one walk over the base's node table
(:attr:`ltlim.formula.KnowledgeBase.table`, the table the solver also
reads), in table order.  A node's values are one array per state, and
each spans only the axes of the states it depends on: an atom's values
at t_i span axis i, ``X`` shifts the list by one state, ``&`` is numpy's
min, broadcast, and a negated edge reads its node's values as ``2 - v``.
Until uses the backward recurrence

    u(m) = 0,   u(i) = min(left(i), max(right(i+1), u(i+1)))

so u(i) spans the axes of t_i..t_m at most; tests/test_oracle.py checks
the walk against the clause-by-clause evaluator in the semantics
module.  Sharing the table leaves the oracle an independent arbiter of
the search: it has its own enumeration and its own evaluation step, and
the compilation is checked on its own.

The admissible models are a boolean mask over the whole space: every
root designated at t_0, and no ground cell at B.  The subset measures
read one two-valued enumeration of the whole base instead
(:func:`oracle_root_vectors`): the set of the formulas' truth vectors at
t_0, which answers every subset at once.  A base is enumerated
once for all of its cost measures (:func:`oracle_min_costs`): each cost
is a sum of B indicators, per state for ``LTL_d`` and ``LTL_c`` and per
atom for ``c``, built by broadcasting the cells' B indicators.  No space
outlives the call that built it.
"""

from __future__ import annotations

import functools
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
    "oracle_root_vectors",
]

INF = float("inf")

# Digit-to-ordinal tables for the enumeration orders 0 < 1 (two-valued)
# and 0 < 1 < B (three-valued); ordinals follow TruthValue3.
_LUT2 = np.array([0, 2], dtype=np.uint8)
_LUT3 = np.array([0, 2, 1], dtype=np.uint8)

_BOTH = int(TruthValue3.BOTH)

# Constants as uint8 scalars, so that every value, a constant's too,
# stays uint8 under numpy's promotion rules old and new.
_FALSE = np.uint8(0)
_TRUE = np.uint8(2)

# Above every cost, so masking rows with it leaves the admissible minimum.
_NO_MODEL = np.uint8(255)

# A node's values: one array per state, broadcastable over the space.
_Values = list[np.ndarray]


class OracleCapExceeded(ValueError):
    """The signature has too many cells for exhaustive enumeration."""


def _check_cap(n_cells: int, cell_cap: int) -> None:
    if n_cells > cell_cap:
        raise OracleCapExceeded(
            f"{n_cells} cells exceed the oracle cap of {cell_cap}"
        )


def _cells(m: int, n_atoms: int, lut: np.ndarray) -> list[_Values]:
    """The space's cells: ``cells[s][a]`` holds the ordinals of cell
    (t_s, atom a) along axis s, size 1 on the other axes."""
    base = len(lut)
    index = np.arange(base**n_atoms)
    digits = [lut[index // base ** (n_atoms - 1 - a) % base] for a in range(n_atoms)]
    return [
        [d.reshape((1,) * s + (-1,) + (1,) * (m - s)) for d in digits]
        for s in range(m + 1)
    ]


def _walk(table: list[_Node], cells: list[_Values]) -> Iterator[tuple[int, _Values]]:
    """Yield every node of a table with its ordinal values, in table order.

    ``cells`` holds the atoms' values, as :func:`_cells` gives them, and
    a node's values are one array per state, broadcastable over the
    space; a negated edge reads them as ``2 - v``.  They may share
    memory with the cells or with another node's, so they are
    read-only.  The walk keeps a node's values only until the last node
    that reads them, so callers that need them longer keep them
    themselves.
    """
    m = len(cells) - 1
    children = [() if op in ("atom", "true") else {x >> 1, y >> 1} - {-1} for op, x, y in table]
    last_reader = list(range(len(table)))
    for node, read in enumerate(children):
        for child in read:
            last_reader[child] = node
    values: dict[int, _Values] = {}

    def edge(e: int) -> _Values:
        return [_TRUE - v for v in values[e >> 1]] if e & 1 else values[e >> 1]

    for node, (op, x, y) in enumerate(table):
        if op == "atom":
            out = [state[x] for state in cells]
        elif op == "true":
            out = [_TRUE] * (m + 1)
        elif op == "&":
            out = list(map(np.minimum, edge(x), edge(y)))
        elif op == "X":
            out = edge(x)[1:] + [_FALSE]
        else:
            left, right = edge(x), edge(y)
            out = [_FALSE] * (m + 1)
            for i in range(m - 1, -1, -1):
                out[i] = np.minimum(left[i], np.maximum(right[i + 1], out[i + 1]))
        for child in children[node]:
            if last_reader[child] == node:
                del values[child]
        if last_reader[node] > node:
            values[node] = out
        yield node, out


def _designated(kb: KnowledgeBase, cells: list[_Values]) -> Iterator[tuple[int, np.ndarray]]:
    """Each formula's index and where over the space it is designated at
    t_0, yielded as the walk reaches its root, so that no root's values
    outlive their last reader.  A negated root is designated where its
    node is at most B."""
    table, roots = kb.table
    formulas: dict[int, list[int]] = {}
    for index, root in enumerate(roots):
        formulas.setdefault(root >> 1, []).append(index)
    for node, values in _walk(table, cells):
        for index in formulas.get(node, ()):
            yield index, values[0] <= 1 if roots[index] & 1 else values[0] >= 1


def _model_space(
    kb: KnowledgeBase, *, cell_cap: int
) -> tuple[tuple[str, ...], list[_Values], np.ndarray]:
    """Enumerate the space and flag the admissible models.

    Returns (atoms, the cells as :func:`_cells` gives them, model mask).
    The mask spans the whole space, and its C-order flat index is the
    row index of the documented enumeration order.
    """
    atoms = kb.atoms()
    m = kb.trace_length_m
    _check_cap((m + 1) * len(atoms), cell_cap)
    cells = _cells(m, len(atoms), _LUT3)
    # With no atoms the space is one point and gets no axes, however
    # long the trace: numpy allows only a few dozen axes.
    mask = np.ones((3 ** len(atoms),) * (m + 1) if atoms else (), dtype=bool)
    for _, designated in _designated(kb, cells):
        mask &= designated
    for state, atom in kb.ground_cells:
        mask &= cells[state][atoms.index(atom)] != _BOTH
    return atoms, cells, mask


def oracle_root_vectors(kb: KnowledgeBase, *, cell_cap: int = DEFAULT_CELL_CAP) -> set[int]:
    """The truth vectors of the formulas at t_0, from one enumeration of
    the two-valued interpretations that serves every subset of them.

    Bit j of a vector is set when ``kb.formulas[j]`` is designated, as
    in :func:`ltlim.solver.root_vectors`, so a subset is classically
    satisfiable iff some vector has all of its bits set.  The bits are
    packed 64 formulas to a uint64 word, each word spanning only the
    axes its formulas read, and each distinct row of words becomes one
    Python int.
    """
    m, atoms = kb.trace_length_m, kb.atoms()
    _check_cap((m + 1) * len(atoms), cell_cap)
    words = [np.uint64(0)] * (len(kb.formulas) // 64 + 1)
    for index, designated in _designated(kb, _cells(m, len(atoms), _LUT2)):
        bit = designated.astype(np.uint64) << np.uint64(index % 64)
        words[index // 64] = words[index // 64] | bit
    rows = set(zip(*(word.ravel().tolist() for word in np.broadcast_arrays(*words))))
    return {sum(word << 64 * i for i, word in enumerate(row)) for row in rows}


def _row_interpretation(
    atoms: tuple[str, ...], m: int, lut: np.ndarray, row: int
) -> Interpretation3:
    """The interpretation at a row index, decoded over the per-cell
    shape (base,) * cells."""
    digits = np.unravel_index(row, (len(lut),) * ((m + 1) * len(atoms)))
    cells = lut[np.array(digits, dtype=np.intp)].reshape(m + 1, len(atoms))
    return Interpretation3(
        atoms=atoms,
        values=tuple(
            tuple(TruthValue3(int(v)) for v in state_row) for state_row in cells
        ),
    )


def _costs(cells: list[_Values], cost: str) -> np.ndarray:
    """Per-row cost of the given kind, a sum broadcast over the space:
    per state of whether it holds a B (``affected_states``) or of how
    many B cells it holds (``conflict_base``), or per atom of whether
    it holds a B at some state (``b_atoms``).

    Costs count cells, so they fit in uint8 under any enumerable cap.
    """
    both = [[(c == _BOTH).view(np.uint8) for c in state] for state in cells]
    if cost == "affected_states":
        parts = (functools.reduce(np.maximum, state, _FALSE) for state in both)
    elif cost == "conflict_base":
        parts = (sum(state, _FALSE) for state in both)
    elif cost == "b_atoms":
        parts = (functools.reduce(np.maximum, atom, _FALSE) for atom in zip(*both))
    else:
        raise ValueError(f"unknown cost kind {cost!r}")
    return sum(parts, _FALSE)


def _blocked(mask: np.ndarray) -> np.ndarray:
    """255 at the rows the mask rules out, 0 at the others, so that a
    cost or'ed with it is the cost at every admissible row and above
    every cost at the others.  This is ``np.where(mask, cost, 255)``,
    and many times faster on the mixed masks of real bases."""
    return (~mask).view(np.uint8) * _NO_MODEL


def _min_by(
    kb: KnowledgeBase,
    masked: np.ndarray,
    atoms: tuple[str, ...],
) -> tuple[int | float, Interpretation3 | None]:
    """The first admissible row of minimal cost, with its cost, from
    the costs masked by :func:`_blocked`."""
    row = int(masked.argmin())
    if masked.flat[row] == _NO_MODEL:
        return INF, None
    return int(masked.flat[row]), _row_interpretation(
        atoms, kb.trace_length_m, _LUT3, row
    )


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
    atoms, cells, mask = _model_space(kb, cell_cap=cell_cap)
    blocked = _blocked(mask)
    return {cost: _min_by(kb, _costs(cells, cost) | blocked, atoms) for cost in costs}


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
    atoms, cells, mask = _model_space(kb, cell_cap=cell_cap)
    masked = _costs(cells, "affected_states") | _blocked(mask)
    best, witness = _min_by(kb, masked, atoms)
    if witness is None:
        raise ValueError("no admissible three-valued model exists")
    if best == 0:
        raise ValueError("the base is classically consistent; no conflict to explain")
    # Bit s * k + a of a row's key is set when cell (t_s, atom a) is B.
    k = len(atoms)
    keys = sum(
        sum(
            (c == _BOTH).astype(np.uint32) << np.uint32(s * k + a)
            for a, c in enumerate(state)
        )
        for s, state in enumerate(cells)
    )
    minimal_rows = masked == best
    bases = {
        frozenset(
            (bit // k, atoms[bit % k])
            for bit in range(len(cells) * k)
            if key >> bit & 1
        )
        for key in np.unique(keys[minimal_rows]).tolist()
    }
    minimal = [b for b in bases if not any(o < b for o in bases)]
    ordered = tuple(
        tuple(sorted(b)) for b in sorted(minimal, key=lambda b: (len(b), sorted(b)))
    )
    return best, ordered, int(np.count_nonzero(minimal_rows)), witness
