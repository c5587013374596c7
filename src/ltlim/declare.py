"""Constraint templates over activities, and their temporal reading.

A constraint model is a list of template instances over named
activities, e.g. ``Response(a, b)`` or ``AtLeast(a, 2)``.  Each
instance compiles to one temporal formula; a whole model compiles to a
knowledge base whose always operator defaults to the reflexive reading,
because a constraint like Response is meant to cover the state where
its trigger fires, not only the strictly later ones.

``Init(a)`` translates to the bare atom, and additionally pins the cell
(t_0, a) as ground in the resulting base: the first activity is fixed
by construction, so a paraconsistent model must not be able to dissolve
a conflict by declaring the start itself ambiguous.  The pin can be
switched off to study the difference.

The text format, one constraint per line::

    # comment
    activities: a, b, c
    Init(a)
    Response(a, b)
    AtLeast(a, 2)

The activities header is optional; when present, constraints may only
use declared names.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .formula import (
    And,
    Atom,
    Finally,
    Formula,
    GMode,
    Globally,
    GroundCell,
    Implies,
    KnowledgeBase,
    Next,
    Not,
    Or,
)

__all__ = [
    "Constraint",
    "DeclareModel",
    "DeclareParseError",
    "Template",
    "load_declare",
    "parse_declare_text",
    "translate_constraint",
    "translate_model",
]


class Template(enum.Enum):
    INIT = "Init"
    END = "End"
    RESPONSE = "Response"
    NOT_RESPONSE = "NotResponse"
    CHAIN_RESPONSE = "ChainResponse"
    NOT_CHAIN_RESPONSE = "NotChainResponse"
    AT_LEAST = "AtLeast"
    AT_MOST = "AtMost"


# Arity shape per template: activity arguments, plus whether a count
# argument follows.
_SHAPES: dict[Template, tuple[int, bool]] = {
    Template.INIT: (1, False),
    Template.END: (1, False),
    Template.RESPONSE: (2, False),
    Template.NOT_RESPONSE: (2, False),
    Template.CHAIN_RESPONSE: (2, False),
    Template.NOT_CHAIN_RESPONSE: (2, False),
    Template.AT_LEAST: (1, True),
    Template.AT_MOST: (1, True),
}

_BY_NAME = {t.value: t for t in Template}

_ACTIVITY_RE = re.compile(r"^[a-z][a-zA-Z0-9_]*$")
_LINE_RE = re.compile(r"^(?P<name>[A-Za-z][A-Za-z0-9]*)\s*\((?P<args>[^()]*)\)$")


@dataclass(frozen=True)
class Constraint:
    template: Template
    activities: tuple[str, ...]
    count: int | None = None

    def __post_init__(self) -> None:
        n_acts, counted = _SHAPES[self.template]
        if len(self.activities) != n_acts:
            raise ValueError(
                f"{self.template.value} takes {n_acts} activit"
                f"{'y' if n_acts == 1 else 'ies'}, got {len(self.activities)}"
            )
        if counted:
            if self.count is None or self.count < 1:
                raise ValueError(
                    f"{self.template.value} needs a count of at least 1, got {self.count!r}"
                )
        elif self.count is not None:
            raise ValueError(f"{self.template.value} takes no count argument")
        for name in self.activities:
            if not _ACTIVITY_RE.match(name):
                raise ValueError(f"invalid activity name {name!r}")

    def __str__(self) -> str:
        args = list(self.activities)
        if self.count is not None:
            args.append(str(self.count))
        return f"{self.template.value}({', '.join(args)})"


@dataclass(frozen=True)
class DeclareModel:
    """Parsed constraint model; activities is None without a header."""

    constraints: tuple[Constraint, ...]
    activities: tuple[str, ...] | None = None


class DeclareParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_declare_text(text: str) -> DeclareModel:
    """Parse constraint-model text (see the module docstring)."""
    activities: tuple[str, ...] | None = None
    constraints: list[Constraint] = []
    seen_constraint = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("activities:"):
            if activities is not None:
                raise DeclareParseError("duplicate activities header", lineno)
            if seen_constraint:
                raise DeclareParseError(
                    "the activities header must precede all constraints", lineno
                )
            names = [n.strip() for n in line[len("activities:"):].split(",") if n.strip()]
            for name in names:
                if not _ACTIVITY_RE.match(name):
                    raise DeclareParseError(f"invalid activity name {name!r}", lineno)
            if len(set(names)) != len(names):
                raise DeclareParseError("duplicate activity in header", lineno)
            activities = tuple(names)
            continue
        match = _LINE_RE.match(line)
        if not match:
            raise DeclareParseError(f"cannot parse constraint {line!r}", lineno)
        name = match.group("name")
        template = _BY_NAME.get(name)
        if template is None:
            raise DeclareParseError(f"unknown template {name!r}", lineno)
        args = [a.strip() for a in match.group("args").split(",")] if match.group(
            "args"
        ).strip() else []
        n_acts, counted = _SHAPES[template]
        expected = n_acts + (1 if counted else 0)
        if len(args) != expected:
            raise DeclareParseError(
                f"{name} takes {expected} argument{'s' if expected != 1 else ''}, "
                f"got {len(args)}",
                lineno,
            )
        count: int | None = None
        if counted:
            count_text = args[-1]
            args = args[:-1]
            try:
                count = int(count_text)
            except ValueError:
                raise DeclareParseError(
                    f"count argument of {name} must be an integer, got {count_text!r}",
                    lineno,
                ) from None
            if count < 1:
                raise DeclareParseError(
                    f"count argument of {name} must be positive, got {count}", lineno
                )
        for arg in args:
            if not _ACTIVITY_RE.match(arg):
                raise DeclareParseError(f"invalid activity name {arg!r}", lineno)
            if activities is not None and arg not in activities:
                raise DeclareParseError(
                    f"activity {arg!r} is not declared in the header", lineno
                )
        try:
            constraints.append(
                Constraint(template=template, activities=tuple(args), count=count)
            )
        except ValueError as exc:
            raise DeclareParseError(str(exc), lineno) from exc
        seen_constraint = True
    return DeclareModel(constraints=tuple(constraints), activities=activities)


def load_declare(path: str | Path) -> DeclareModel:
    return parse_declare_text(Path(path).read_text(encoding="utf-8"))


def _now_or_eventually(formula: Formula) -> Formula:
    # The eventuality operator is strictly future-looking, so "phi at
    # this state or any later one" needs the explicit disjunction.
    return Or(formula, Finally(formula))


def _at_least(atom: Atom, count: int) -> Formula:
    if count == 1:
        return _now_or_eventually(atom)
    # Each level must admit an occurrence at the state where counting
    # resumes, otherwise consecutive occurrences are skipped and the
    # constraint stops being satisfiable even when count occurrences
    # fit the trace.
    return _now_or_eventually(And(atom, Next(_at_least(atom, count - 1))))


def _at_most(atom: Atom, count: int) -> Formula:
    if count == 0:
        return Globally(Not(atom))
    return Globally(Or(Not(atom), Next(_at_most(atom, count - 1))))


def translate_constraint(
    constraint: Constraint,
) -> tuple[Formula, frozenset[GroundCell]]:
    """Compile one constraint to (formula, ground cells it pins)."""
    atoms = [Atom(name) for name in constraint.activities]
    template = constraint.template
    if template is Template.INIT:
        return atoms[0], frozenset({(0, constraint.activities[0])})
    if template is Template.END:
        return Globally(Or(atoms[0], Finally(atoms[0]))), frozenset()
    if template is Template.RESPONSE:
        return Globally(Implies(atoms[0], Finally(atoms[1]))), frozenset()
    if template is Template.NOT_RESPONSE:
        return Globally(Implies(atoms[0], Not(Finally(atoms[1])))), frozenset()
    if template is Template.CHAIN_RESPONSE:
        return Globally(Implies(atoms[0], Next(atoms[1]))), frozenset()
    if template is Template.NOT_CHAIN_RESPONSE:
        return Globally(Implies(atoms[0], Not(Next(atoms[1])))), frozenset()
    if template is Template.AT_LEAST:
        return _at_least(atoms[0], constraint.count or 1), frozenset()
    if template is Template.AT_MOST:
        return _at_most(atoms[0], constraint.count or 1), frozenset()
    raise ValueError(f"unknown template {template!r}")


def translate_model(
    model: DeclareModel,
    *,
    m: int,
    g_mode: GMode = GMode.REFLEXIVE,
    ground_init: bool = True,
    allow_short_trace: bool = False,
) -> KnowledgeBase:
    """Compile a constraint model to a knowledge base.

    The always operator defaults to the reflexive reading here, unlike
    raw formula bases which default to strict.  ``ground_init=False``
    drops the Init cell pinning (useful only for comparison studies).
    """
    formulas: list[Formula] = []
    ground: set[GroundCell] = set()
    for constraint in model.constraints:
        formula, cells = translate_constraint(constraint)
        formulas.append(formula)
        if ground_init:
            ground |= cells
    return KnowledgeBase(
        formulas=tuple(formulas),
        trace_length_m=m,
        g_mode=g_mode,
        ground_cells=frozenset(ground),
        allow_short_trace=allow_short_trace,
    )


def translation_pairs(
    model: DeclareModel,
) -> tuple[tuple[Constraint, Formula], ...]:
    """(constraint, formula) pairs, for display alongside a report."""
    return tuple((c, translate_constraint(c)[0]) for c in model.constraints)
