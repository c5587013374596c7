"""Two- and three-valued trace semantics.

An interpretation assigns a truth value to every (state, atom) cell of
a fixed trace t_0 .. t_m.  The two-valued evaluator is classical.  The
three-valued evaluator adds the glut value B ("both"), ordered between
false and true: conjunction takes the minimum, disjunction the maximum,
and negation maps B to itself.  A formula is three-valued satisfied at
a state when it evaluates to 1 or B there.

Until looks strictly into the future.  It is true at i when its right
argument is true at some later j and the left argument is true in
between; it is B when some later j makes every value on that pattern
at least B with a B among them; otherwise it is false.  At the last
state there is no future, so X phi and until are false there.

F, G and implication have clauses of their own.  F phi at i is the
largest value of phi over the states after i, and false at the last
state; G phi is the least value over the same states, and true at the
last state, and the reflexive reading of G counts state i too; phi ->
psi is the larger of the values of !phi and psi.  These are the values
of true U phi, !(true U !phi) and !(phi & !psi), the forms that the
node table interns them as.  The reading of G is an argument of the
evaluators, and the satisfaction tests take it from the base.

Both evaluators are deliberately written as direct transcriptions of
those clauses, walking the formula dataclasses.  The fast evaluators
walk the node table that :attr:`KnowledgeBase.table` compiles once per
base instead: the solver's search and two-valued pass, and the oracle's
vectorized evaluation.  The test suite checks them against these
clauses and against each other, and so checks the compiler's rewrite of
F, G and implication by its meaning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Union

from .formula import (
    And,
    Atom,
    FalseConst,
    Finally,
    Formula,
    Globally,
    GMode,
    Implies,
    KnowledgeBase,
    Next,
    Not,
    Or,
    SignatureMismatchError,
    TrueConst,
    Until,
)

__all__ = [
    "DEFAULT_CELL_CAP",
    "Interpretation3",
    "MAX_CELL_CAP",
    "SignatureMismatchError",
    "TruthValue3",
    "affected_states",
    "conflict_base",
    "eval2",
    "eval3",
    "land",
    "lnot",
    "lor",
    "satisfies2",
    "satisfies3",
]

# The most (state, atom) cells whose interpretations the exhaustive
# oracle (ltlim.oracle) enumerates by default, and the largest cap the
# command line accepts.  Peak memory grows about 3x per cell: the numpy
# memory that one run of every oracle measure traces peaks at 6 MB at 13
# cells on a one-atom base, and at 55-61 MB at 15 cells on bases of 1, 3
# and 5 atoms, so 15 cells stay far under 1 GB.  They live here, not in
# the oracle, so that reading them does not import numpy.
DEFAULT_CELL_CAP = 12
MAX_CELL_CAP = 15


class TruthValue3(enum.IntEnum):
    """The three truth values, encoded along the truth ordering.

    FALSE < BOTH < TRUE as integers 0 < 1 < 2, which lets conjunction
    and disjunction be plain min and max.
    """

    FALSE = 0
    BOTH = 1
    TRUE = 2

    @property
    def designated(self) -> bool:
        """Whether the value counts as satisfied (TRUE or BOTH)."""
        return self is not TruthValue3.FALSE

    @property
    def token(self) -> str:
        return _VALUE_TOKEN[self]

    @classmethod
    def from_token(cls, token: str) -> "TruthValue3":
        try:
            return _TOKEN_VALUE[token]
        except KeyError:
            raise ValueError(f"unknown truth value token {token!r}") from None

    @classmethod
    def from_bool(cls, value: bool) -> "TruthValue3":
        return cls.TRUE if value else cls.FALSE


_VALUE_TOKEN = {
    TruthValue3.FALSE: "0",
    TruthValue3.BOTH: "B",
    TruthValue3.TRUE: "1",
}
_TOKEN_VALUE = {token: value for value, token in _VALUE_TOKEN.items()}


def lnot(value: TruthValue3) -> TruthValue3:
    return TruthValue3(2 - value)


def land(left: TruthValue3, right: TruthValue3) -> TruthValue3:
    return min(left, right)


def lor(left: TruthValue3, right: TruthValue3) -> TruthValue3:
    return max(left, right)


CellValue = Union[TruthValue3, int, bool, str]


def _coerce_value(value: CellValue) -> TruthValue3:
    if isinstance(value, TruthValue3):
        return value
    if isinstance(value, bool):
        return TruthValue3.from_bool(value)
    if isinstance(value, int):
        return TruthValue3(value)
    if isinstance(value, str):
        return TruthValue3.from_token(value)
    raise TypeError(f"cannot interpret {value!r} as a truth value")


@dataclass(frozen=True)
class Interpretation3:
    """A full assignment of truth values to the cells of a trace.

    ``values[i]`` is the row for state t_i, aligned with ``atoms``.
    Two-valued interpretations are the special case without B cells.
    """

    atoms: tuple[str, ...]
    values: tuple[tuple[TruthValue3, ...], ...]

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        if len(set(atoms)) != len(atoms):
            raise ValueError(f"duplicate atoms in signature {atoms!r}")
        rows = []
        for row in self.values:
            cells = tuple(_coerce_value(v) for v in row)
            if len(cells) != len(atoms):
                raise ValueError(
                    f"row width {len(cells)} does not match signature size {len(atoms)}"
                )
            rows.append(cells)
        if not rows:
            raise ValueError("an interpretation needs at least state t_0")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "values", tuple(rows))

    @property
    def m(self) -> int:
        """Index of the last state."""
        return len(self.values) - 1

    @cached_property
    def _column(self) -> dict[str, int]:
        return {atom: i for i, atom in enumerate(self.atoms)}

    def value(self, state: int, atom: str) -> TruthValue3:
        if not 0 <= state <= self.m:
            raise IndexError(f"state {state} outside 0..{self.m}")
        try:
            column = self._column[atom]
        except KeyError:
            raise SignatureMismatchError(
                f"atom {atom!r} is not in the signature {self.atoms!r}"
            ) from None
        return self.values[state][column]

    @property
    def is_two_valued(self) -> bool:
        return all(v is not TruthValue3.BOTH for row in self.values for v in row)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "atoms": list(self.atoms),
            "states": [
                {atom: row[i].token for i, atom in enumerate(self.atoms)}
                for row in self.values
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Interpretation3":
        atoms = tuple(data["atoms"])
        rows = tuple(
            tuple(TruthValue3.from_token(state[atom]) for atom in atoms)
            for state in data["states"]
        )
        return cls(atoms=atoms, values=rows)


def affected_states(nu: Interpretation3) -> frozenset[int]:
    """States where at least one atom carries the glut value."""
    return frozenset(
        state
        for state, row in enumerate(nu.values)
        if any(v is TruthValue3.BOTH for v in row)
    )


def conflict_base(nu: Interpretation3) -> frozenset[tuple[int, str]]:
    """The (state, atom) cells carrying the glut value."""
    return frozenset(
        (state, atom)
        for state, row in enumerate(nu.values)
        for atom, v in zip(nu.atoms, row)
        if v is TruthValue3.BOTH
    )


def eval2(
    omega: Interpretation3, state: int, formula: Formula, g_mode: GMode = GMode.STRICT
) -> bool:
    """Classical evaluation of a formula at a state, G read as ``g_mode``.

    ``omega`` must be two-valued.
    """
    if not omega.is_two_valued:
        raise ValueError("eval2 requires a two-valued interpretation")
    memo: dict[tuple[int, int], bool] = {}
    # G reads from the next state on, or under the reflexive reading from this one.
    first = g_mode is GMode.STRICT

    def value(state: int, formula: Formula) -> bool:
        key = (id(formula), state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(formula, TrueConst):
            result = True
        elif isinstance(formula, FalseConst):
            result = False
        elif isinstance(formula, Atom):
            result = omega.value(state, formula.name) is TruthValue3.TRUE
        elif isinstance(formula, Not):
            result = not value(state, formula.operand)
        elif isinstance(formula, And):
            result = value(state, formula.left) and value(state, formula.right)
        elif isinstance(formula, Or):
            result = value(state, formula.left) or value(state, formula.right)
        elif isinstance(formula, Implies):
            result = not value(state, formula.left) or value(state, formula.right)
        elif isinstance(formula, Next):
            result = state < omega.m and value(state + 1, formula.operand)
        elif isinstance(formula, Finally):
            result = any(value(j, formula.operand) for j in range(state + 1, omega.m + 1))
        elif isinstance(formula, Globally):
            result = all(value(j, formula.operand) for j in range(state + first, omega.m + 1))
        elif isinstance(formula, Until):
            result = any(
                value(j, formula.right) and all(value(k, formula.left) for k in range(state, j))
                for j in range(state + 1, omega.m + 1)
            )
        else:
            raise TypeError(f"not a formula node: {formula!r}")
        memo[key] = result
        return result

    return value(state, formula)


def eval3(
    nu: Interpretation3, state: int, formula: Formula, g_mode: GMode = GMode.STRICT
) -> TruthValue3:
    """Three-valued evaluation of a formula at a state, G read as ``g_mode``."""
    memo: dict[tuple[int, int], TruthValue3] = {}
    # G reads from the next state on, or under the reflexive reading from this one.
    first = g_mode is GMode.STRICT

    def value(state: int, formula: Formula) -> TruthValue3:
        key = (id(formula), state)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(formula, TrueConst):
            result = TruthValue3.TRUE
        elif isinstance(formula, FalseConst):
            result = TruthValue3.FALSE
        elif isinstance(formula, Atom):
            result = nu.value(state, formula.name)
        elif isinstance(formula, Not):
            result = lnot(value(state, formula.operand))
        elif isinstance(formula, And):
            result = land(value(state, formula.left), value(state, formula.right))
        elif isinstance(formula, Or):
            result = lor(value(state, formula.left), value(state, formula.right))
        elif isinstance(formula, Implies):
            result = lor(lnot(value(state, formula.left)), value(state, formula.right))
        elif isinstance(formula, Next):
            result = value(state + 1, formula.operand) if state < nu.m else TruthValue3.FALSE
        elif isinstance(formula, Finally):
            result = max(
                (value(j, formula.operand) for j in range(state + 1, nu.m + 1)),
                default=TruthValue3.FALSE,
            )
        elif isinstance(formula, Globally):
            result = min(
                (value(j, formula.operand) for j in range(state + first, nu.m + 1)),
                default=TruthValue3.TRUE,
            )
        elif isinstance(formula, Until):
            result = _until3(value, nu.m, state, formula)
        else:
            raise TypeError(f"not a formula node: {formula!r}")
        memo[key] = result
        return result

    return value(state, formula)


def _until3(value, m: int, state: int, formula: Until) -> TruthValue3:
    """The until clauses at ``state``, reading subformulas through ``value``."""
    # True clause: a strictly later j where the right argument is true
    # and the left argument is true throughout the gap.
    for j in range(state + 1, m + 1):
        if value(j, formula.right) is TruthValue3.TRUE and all(
            value(k, formula.left) is TruthValue3.TRUE for k in range(state, j)
        ):
            return TruthValue3.TRUE
    # Glut clause: some j makes the same pattern hold with every value
    # designated and at least one B among them.
    for j in range(state + 1, m + 1):
        window = [value(j, formula.right)]
        window.extend(value(k, formula.left) for k in range(state, j))
        if all(v.designated for v in window) and any(v is TruthValue3.BOTH for v in window):
            return TruthValue3.BOTH
    return TruthValue3.FALSE


def satisfies2(omega: Interpretation3, kb: KnowledgeBase) -> bool:
    """Whether a two-valued interpretation classically models the base."""
    return all(eval2(omega, 0, f, kb.g_mode) for f in kb.formulas)


def satisfies3(nu: Interpretation3, kb: KnowledgeBase) -> bool:
    """Whether an interpretation is an admissible three-valued model.

    Admissibility means every ground cell of the base stays two valued
    in ``nu``; on top of that every formula must evaluate to a
    designated value at t_0.
    """
    for state, atom in kb.ground_cells:
        if nu.value(state, atom) is TruthValue3.BOTH:
            return False
    return all(eval3(nu, 0, f, kb.g_mode).designated for f in kb.formulas)
