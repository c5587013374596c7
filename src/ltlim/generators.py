"""Seeded random formulas and bases for sweeps."""

from __future__ import annotations

import random
from typing import Sequence

from .formula import (
    And,
    Atom,
    FALSE,
    Finally,
    Formula,
    GMode,
    Globally,
    Implies,
    KnowledgeBase,
    Next,
    Not,
    Or,
    TRUE,
    Until,
)
from .solver import DEFAULT_NODE_BUDGET, Budget, root_vectors

__all__ = [
    "is_contingent",
    "random_contingent_formula",
    "random_formula",
    "random_kb",
]

_PROP_NODES = ("not", "and", "or", "implies")
_TEMPORAL_NODES = ("next", "until", "finally", "globally")


def random_formula(
    rng: random.Random,
    atoms: Sequence[str],
    max_depth: int,
    *,
    temporal: bool = True,
    allow_constants: bool = False,
    core_only: bool = False,
) -> Formula:
    """A random formula of syntactic depth at most max_depth.

    Constant leaves are off by default: most sweeps quantify over
    contingent structure and constants only add noise there.  With
    ``core_only`` the sample stays in the primitive fragment (atoms,
    not, and, or, next, until), without constants: the
    glut-preservation property of the all-B interpretation is stated
    over exactly that grammar.  G leaves it, because G reads every state
    up to t_m, where X and until are false, and so do the constants.
    """
    if max_depth <= 0 or rng.random() < 0.25:
        if allow_constants and not core_only and rng.random() < 0.15:
            return TRUE if rng.random() < 0.5 else FALSE
        return Atom(rng.choice(list(atoms)))
    if core_only:
        kinds: tuple[str, ...] = ("not", "and", "or") + (
            ("next", "until") if temporal else ()
        )
    else:
        kinds = _PROP_NODES + (_TEMPORAL_NODES if temporal else ())
    kind = rng.choice(kinds)
    sub = lambda: random_formula(
        rng,
        atoms,
        max_depth - 1,
        temporal=temporal,
        allow_constants=allow_constants,
        core_only=core_only,
    )
    if kind == "not":
        return Not(sub())
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "implies":
        return Implies(sub(), sub())
    if kind == "next":
        return Next(sub())
    if kind == "until":
        return Until(sub(), sub())
    if kind == "finally":
        return Finally(sub())
    return Globally(sub())


def random_kb(
    rng: random.Random,
    *,
    atoms: Sequence[str],
    m: int,
    min_formulas: int = 1,
    max_formulas: int = 4,
    max_depth: int = 3,
    g_mode: GMode = GMode.STRICT,
    temporal: bool = True,
    allow_constants: bool = False,
) -> KnowledgeBase:
    count = rng.randint(min_formulas, max_formulas)
    formulas = tuple(
        random_formula(
            rng, atoms, max_depth, temporal=temporal, allow_constants=allow_constants
        )
        for _ in range(count)
    )
    return KnowledgeBase(formulas=formulas, trace_length_m=m, g_mode=g_mode)


def random_contingent_formula(
    rng: random.Random,
    atoms: Sequence[str],
    max_depth: int,
    *,
    m: int,
    temporal: bool = False,
    max_tries: int = 64,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
) -> Formula | None:
    """A random formula that is neither valid nor unsatisfiable.

    Returns None when no contingent sample shows up within max_tries.
    Every try's :func:`is_contingent` test is charged to one account
    (:class:`ltlim.solver.Budget`); :func:`ltlim.postulates.check_ts`
    makes the same test, so a check on the same account reads the
    accepted formula's pass back.
    """
    budget = Budget.of(budget)
    for _ in range(max_tries):
        candidate = random_formula(rng, atoms, max_depth, temporal=temporal)
        if is_contingent(candidate, m=m, budget=budget):
            return candidate
    return None


def is_contingent(
    phi: Formula, *, m: int, budget: Budget | int = DEFAULT_NODE_BUDGET
) -> bool:
    """Whether some trace of length m makes phi true at t_0 and some
    makes it false, read off the two-valued pass of the strict base
    ``{phi, !phi}``: every trace makes exactly one of them true there, so
    phi is contingent iff the traces give both truth vectors."""
    both = KnowledgeBase((phi, Not(phi)), m, GMode.STRICT)
    return root_vectors(both, budget=budget) == {0b01, 0b10}
