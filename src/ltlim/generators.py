"""Seeded random formulas, bases, and interpretations for sweeps."""

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
from .semantics import Interpretation3, TruthValue3
from .solver import root_vectors

__all__ = [
    "random_contingent_formula",
    "random_formula",
    "random_interpretation",
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
    not, and, or, next, until): the glut-preservation property of the
    all-B interpretation is stated over exactly that grammar, and the
    derived operators leave it (their expansions contain a constant
    leaf, which is not glut-preserving).
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


def random_interpretation(
    rng: random.Random,
    atoms: Sequence[str],
    m: int,
    *,
    three_valued: bool = True,
) -> Interpretation3:
    choices = (
        (TruthValue3.FALSE, TruthValue3.BOTH, TruthValue3.TRUE)
        if three_valued
        else (TruthValue3.FALSE, TruthValue3.TRUE)
    )
    rows = tuple(
        tuple(rng.choice(choices) for _ in atoms) for _ in range(m + 1)
    )
    return Interpretation3(atoms=tuple(atoms), values=rows)


def random_contingent_formula(
    rng: random.Random,
    atoms: Sequence[str],
    max_depth: int,
    *,
    m: int,
    temporal: bool = False,
    max_tries: int = 64,
) -> Formula | None:
    """A random formula that is neither valid nor unsatisfiable.

    Returns None when no contingent sample shows up within max_tries.
    """
    for _ in range(max_tries):
        candidate = random_formula(rng, atoms, max_depth, temporal=temporal)
        # Every trace makes exactly one of the candidate and its negation
        # true at t_0, so it is contingent iff the traces give both
        # truth vectors.
        both = KnowledgeBase.of(candidate, Not(candidate), m=m, allow_short_trace=True)
        if root_vectors(both) == {0b01, 0b10}:
            return candidate
    return None
