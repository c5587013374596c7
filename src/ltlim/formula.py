"""Formula AST, parser, renderer, and knowledge bases.

The logic is a linear temporal logic read over traces with a fixed last
state index m, so a trace is the state sequence t_0 .. t_m and nothing
exists beyond t_m.  Core connectives are atoms, the constants true and
false, negation, conjunction, disjunction, next, and a strictly
future-looking until.  Eventually (F), always (G), and implication are
derived connectives; :func:`expand_derived` rewrites them into the core
fragment and the evaluators accept only core formulas.

Two readings of G are supported.  The strict reading takes G phi as
"phi holds in every strictly later state", i.e. not (true U not phi).
The reflexive reading additionally demands phi now, which is the
natural reading when constraint templates are compiled down to temporal
formulas.  The choice is carried by the knowledge base so that a
given base is expanded the same way everywhere.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Union

__all__ = [
    "Atom",
    "And",
    "DEFAULT_TRACE_LENGTH",
    "FALSE",
    "FalseConst",
    "Finally",
    "Formula",
    "FormulaParseError",
    "GMode",
    "Globally",
    "Implies",
    "KBParseError",
    "KnowledgeBase",
    "Next",
    "Not",
    "Or",
    "SignatureMismatchError",
    "TRUE",
    "TrueConst",
    "Until",
    "atoms_of",
    "expand_derived",
    "format_kb_text",
    "load_kb",
    "parse_formula",
    "parse_kb_text",
    "render_formula",
    "temporal_depth",
]

DEFAULT_TRACE_LENGTH = 3


class GMode(enum.Enum):
    """Expansion mode for the always operator G."""

    STRICT = "strict"
    REFLEXIVE = "reflexive"


class Formula:
    """Base class for AST nodes.  Instances are immutable and hashable.

    The operators ``~``, ``&`` and ``|`` are overloaded as negation,
    conjunction and disjunction so tests can build formulas tersely.
    """

    def __invert__(self) -> "Not":
        return Not(self)

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Or":
        return Or(self, other)

    def __repr__(self) -> str:
        return render_formula(self)


def _hash_once(cls: type) -> type:
    """Keep the hash the dataclass generates for each instance once it is
    computed, so that a shared operand is hashed once, not at every
    occurrence, and a base's formulas are hashed once per base."""
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = field_hash(self)
        return cached

    cls.__hash__ = __hash__
    return cls


def _node(cls: type) -> type:
    """A frozen dataclass formula node, its hash kept by :func:`_hash_once`."""
    return _hash_once(dataclass(frozen=True, repr=False)(cls))


@_node
class TrueConst(Formula):
    pass


@_node
class FalseConst(Formula):
    pass


@_node
class Atom(Formula):
    name: str


@_node
class Not(Formula):
    operand: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Next(Formula):
    operand: Formula


@_node
class Finally(Formula):
    operand: Formula


@_node
class Globally(Formula):
    operand: Formula


@_node
class Until(Formula):
    left: Formula
    right: Formula


TRUE = TrueConst()
FALSE = FalseConst()

_BINARY_SYMBOL = {And: "&", Or: "|", Implies: "->", Until: "U"}
_UNARY_SYMBOL = {Not: "!", Next: "X", Finally: "F", Globally: "G"}


def render_formula(formula: Formula) -> str:
    """Render a formula with full parentheses.

    The output round-trips: parsing it yields an equal AST.
    """
    if isinstance(formula, TrueConst):
        return "true"
    if isinstance(formula, FalseConst):
        return "false"
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, (Not, Next, Finally, Globally)):
        op = _UNARY_SYMBOL[type(formula)]
        return f"({op} {render_formula(formula.operand)})"
    if isinstance(formula, (And, Or, Implies, Until)):
        op = _BINARY_SYMBOL[type(formula)]
        return f"({render_formula(formula.left)} {op} {render_formula(formula.right)})"
    raise TypeError(f"not a formula node: {formula!r}")


class FormulaParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<arrow>->)
    | (?P<bang>!)
    | (?P<amp>&)
    | (?P<pipe>\|)
    | (?P<lpar>\()
    | (?P<rpar>\))
    | (?P<temporal>[XUFG])
    | (?P<name>[a-z][a-zA-Z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise FormulaParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        value = match.group()
        if kind == "name" and value in ("true", "false"):
            kind = value
        if kind != "ws":
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list.

    Precedence from tightest to loosest: unary (!, X, F, G), then &,
    then |, then ->, then U.  The binary connectives &, | and -> are
    left associative; U associates to the right.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind:
            raise FormulaParseError(
                f"expected {kind!r} but found {token[1] or 'end of input'!r}",
                token[2],
            )
        return self.advance()

    def parse(self) -> Formula:
        formula = self.until_level()
        token = self.peek()
        if token[0] != "end":
            raise FormulaParseError(f"unexpected trailing {token[1]!r}", token[2])
        return formula

    def until_level(self) -> Formula:
        left = self.implies_level()
        if self.peek()[0] == "temporal" and self.peek()[1] == "U":
            self.advance()
            return Until(left, self.until_level())
        return left

    def implies_level(self) -> Formula:
        node = self.or_level()
        if self.peek()[0] == "arrow":
            self.advance()
            return Implies(node, self.implies_level())
        return node

    def or_level(self) -> Formula:
        node = self.and_level()
        while self.peek()[0] == "pipe":
            self.advance()
            node = Or(node, self.and_level())
        return node

    def and_level(self) -> Formula:
        node = self.unary_level()
        while self.peek()[0] == "amp":
            self.advance()
            node = And(node, self.unary_level())
        return node

    def unary_level(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "bang":
            self.advance()
            return Not(self.unary_level())
        if kind == "temporal":
            if value == "U":
                raise FormulaParseError("U is a binary connective", pos)
            self.advance()
            ctor = {"X": Next, "F": Finally, "G": Globally}[value]
            return ctor(self.unary_level())
        return self.primary()

    def primary(self) -> Formula:
        kind, value, pos = self.advance()
        if kind == "name":
            return Atom(value)
        if kind == "true":
            return TRUE
        if kind == "false":
            return FALSE
        if kind == "lpar":
            inner = self.until_level()
            self.expect("rpar")
            return inner
        raise FormulaParseError(
            f"expected a formula but found {value or 'end of input'!r}", pos
        )


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST."""
    return _Parser(text).parse()


def expand_derived(formula: Formula, g_mode: GMode = GMode.STRICT) -> Formula:
    """Rewrite F, G and -> into the core connectives.

    F phi becomes true U phi.  Under the strict reading G phi becomes
    !(true U !phi); the reflexive reading conjoins phi itself.  The
    function is idempotent: expanding an already core formula returns
    an equal formula.

    A subformula object met twice is expanded once and its expansion
    shared, so a formula that reuses one operand at every level, as
    counted constraint templates do, expands in linear time.
    """
    return _expand(formula, g_mode, {})


def _expand(formula: Formula, g_mode: GMode, memo: dict[int, Formula]) -> Formula:
    """:func:`expand_derived`, with ``memo`` holding the expansions made
    so far in the call, keyed by the id of the subformula expanded."""
    kind = type(formula)
    if kind is Atom or kind is TrueConst or kind is FalseConst:
        return formula
    key = id(formula)
    done = memo.get(key)
    if done is not None:
        return done
    if kind is Not:
        done = Not(_expand(formula.operand, g_mode, memo))
    elif kind is And:
        done = And(_expand(formula.left, g_mode, memo), _expand(formula.right, g_mode, memo))
    elif kind is Or:
        done = Or(_expand(formula.left, g_mode, memo), _expand(formula.right, g_mode, memo))
    elif kind is Implies:
        done = Or(
            Not(_expand(formula.left, g_mode, memo)), _expand(formula.right, g_mode, memo)
        )
    elif kind is Next:
        done = Next(_expand(formula.operand, g_mode, memo))
    elif kind is Until:
        done = Until(_expand(formula.left, g_mode, memo), _expand(formula.right, g_mode, memo))
    elif kind is Finally:
        done = Until(TRUE, _expand(formula.operand, g_mode, memo))
    elif kind is Globally:
        inner = _expand(formula.operand, g_mode, memo)
        done = Not(Until(TRUE, Not(inner)))
        if g_mode is GMode.REFLEXIVE:
            done = And(inner, done)
    else:
        raise TypeError(f"not a formula node: {formula!r}")
    memo[key] = done
    return done


def temporal_depth(formula: Formula) -> int:
    """Nesting depth of temporal connectives (X, U, F, G)."""
    if isinstance(formula, (TrueConst, FalseConst, Atom)):
        return 0
    if isinstance(formula, Not):
        return temporal_depth(formula.operand)
    if isinstance(formula, (And, Or, Implies)):
        return max(temporal_depth(formula.left), temporal_depth(formula.right))
    if isinstance(formula, (Next, Finally, Globally)):
        return 1 + temporal_depth(formula.operand)
    if isinstance(formula, Until):
        return 1 + max(temporal_depth(formula.left), temporal_depth(formula.right))
    raise TypeError(f"not a formula node: {formula!r}")


def atoms_of(formula: Formula) -> frozenset[str]:
    """The set of atom names occurring in the formula.

    Each subformula object is walked once, however often it is shared.
    """
    names: set[str] = set()
    walked: set[int] = set()
    stack = [formula]
    while stack:
        current = stack.pop()
        kind = type(current)
        if kind is Atom:
            names.add(current.name)
        elif kind is TrueConst or kind is FalseConst or id(current) in walked:
            continue
        elif kind in _BINARY_SYMBOL:
            walked.add(id(current))
            stack.append(current.right)
            stack.append(current.left)
        elif kind in _UNARY_SYMBOL:
            walked.add(id(current))
            stack.append(current.operand)
        else:
            raise TypeError(f"not a formula node: {current!r}")
    return frozenset(names)


class SignatureMismatchError(LookupError):
    """An atom required by evaluation is missing from the interpretation."""


_Node = tuple[str, int, int]

# Opcodes of the compiled node table, by formula class.
_UNARY_OPS = {Not: "!", Next: "X"}
_BINARY_OPS = {And: "&", Or: "|", Until: "U"}


def _compile(
    formulas: tuple[Formula, ...], atoms: tuple[str, ...]
) -> tuple[list[_Node], list[int]]:
    """Intern core formulas into a topologically ordered node table.

    A node is ``(op, x, y)``.  Node ``i < len(atoms)`` is
    ``("atom", i, -1)``, the atom ``atoms[i]``; ``("true", -1, -1)``
    and ``("false", -1, -1)`` are the constants; ``"!"`` and ``"X"``
    have the one child ``x``; ``"&"``, ``"|"`` and ``"U"`` have the
    children ``x`` and ``y``.  Structurally equal subformulas share one
    node, and every child comes before its parent.  Returns the table
    and the root node of each formula.
    """
    table: list[_Node] = [("atom", i, -1) for i in range(len(atoms))]
    interned = {node: i for i, node in enumerate(table)}
    atom_ids = {name: i for i, name in enumerate(atoms)}
    # Expansion shares operand objects between subformulas, so each
    # object is walked once, keyed by identity.
    compiled: dict[int, int] = {}
    roots = []
    for formula in formulas:
        # A formula object is popped once to be checked and to push its
        # children, left on top, and once more to be interned; so bad
        # input is reported at the node a left-to-right recursive walk
        # would meet first.
        stack = [(formula, False)]
        while stack:
            current, children_done = stack.pop()
            if id(current) in compiled:
                continue
            kind = type(current)
            if kind in _BINARY_OPS:
                if not children_done:
                    stack.append((current, True))
                    stack.append((current.right, False))
                    stack.append((current.left, False))
                    continue
                node = (
                    _BINARY_OPS[kind],
                    compiled[id(current.left)],
                    compiled[id(current.right)],
                )
            elif kind in _UNARY_OPS:
                if not children_done:
                    stack.append((current, True))
                    stack.append((current.operand, False))
                    continue
                node = (_UNARY_OPS[kind], compiled[id(current.operand)], -1)
            elif kind is Atom:
                try:
                    compiled[id(current)] = atom_ids[current.name]
                except KeyError:
                    raise SignatureMismatchError(
                        f"atom {current.name!r} is not in the signature"
                    ) from None
                continue
            elif kind is TrueConst:
                node = ("true", -1, -1)
            elif kind is FalseConst:
                node = ("false", -1, -1)
            elif isinstance(current, (Finally, Globally, Implies)):
                raise ValueError(
                    f"derived connective in compiler input: {current!r};"
                    " expand_derived first"
                )
            else:
                raise TypeError(f"not a formula node: {current!r}")
            index = interned.get(node)
            if index is None:
                index = interned[node] = len(table)
                table.append(node)
            compiled[id(current)] = index
        roots.append(compiled[id(formula)])
    return table, roots


GroundCell = tuple[int, str]


@_hash_once
@dataclass(frozen=True)
class KnowledgeBase:
    """An ordered, duplicate-free set of formulas plus trace parameters.

    ``trace_length_m`` is the index of the last trace state, so a
    knowledge base at m = 3 is read over four states.  Values below 2
    degenerate (X and U can become unsatisfiable for trivial reasons)
    and are rejected unless ``allow_short_trace`` is set.

    ``ground_cells`` lists (state, atom) pairs that must stay two
    valued in every three-valued model.  Constraint translation uses
    this to pin cells whose truth is fixed by construction rather than
    asserted, so that paraconsistent models cannot dodge a conflict by
    blurring them.
    """

    formulas: tuple[Formula, ...]
    trace_length_m: int
    g_mode: GMode = GMode.STRICT
    ground_cells: frozenset[GroundCell] = frozenset()
    allow_short_trace: bool = False

    def __post_init__(self) -> None:
        deduped = tuple(dict.fromkeys(self.formulas))
        object.__setattr__(self, "formulas", deduped)
        object.__setattr__(self, "ground_cells", frozenset(self.ground_cells))
        m = self.trace_length_m
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"trace_length_m must be a nonnegative integer, got {m!r}")
        if m < 2 and not self.allow_short_trace:
            raise ValueError(
                f"trace_length_m = {m} is degenerate; pass allow_short_trace=True to permit it"
            )
        for state, atom in self.ground_cells:
            if not 0 <= state <= m:
                raise ValueError(f"ground cell state {state} outside 0..{m}")
            if not isinstance(atom, str):
                raise ValueError(f"ground cell atom must be a string, got {atom!r}")

    @classmethod
    def of(
        cls,
        *formulas: Union[Formula, str],
        m: int = DEFAULT_TRACE_LENGTH,
        g_mode: GMode = GMode.STRICT,
        ground_cells: Iterable[GroundCell] = (),
        allow_short_trace: bool = False,
    ) -> "KnowledgeBase":
        """Build a knowledge base, parsing any formulas given as text."""
        parsed = tuple(
            parse_formula(f) if isinstance(f, str) else f for f in formulas
        )
        return cls(
            formulas=parsed,
            trace_length_m=m,
            g_mode=g_mode,
            ground_cells=frozenset(ground_cells),
            allow_short_trace=allow_short_trace,
        )

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)

    def atoms(self) -> tuple[str, ...]:
        """All atom names in the base, sorted."""
        return self._atoms

    @cached_property
    def _atoms(self) -> tuple[str, ...]:
        """:meth:`atoms`, collected once per base."""
        names: set[str] = set()
        for formula in self.formulas:
            names |= atoms_of(formula)
        names |= {atom for _, atom in self.ground_cells}
        return tuple(sorted(names))

    @cached_property
    def core_formulas(self) -> tuple[Formula, ...]:
        """The formulas with derived connectives expanded under g_mode."""
        return tuple(expand_derived(f, self.g_mode) for f in self.formulas)

    @cached_property
    def table(self) -> tuple[list[_Node], list[int]]:
        """The core formulas compiled over ``atoms()``: the node table
        and each formula's root, as :func:`_compile` returns them.

        Every evaluator of a base (the search, the two-valued pass and
        the oracle) reads this one table; none may modify it.
        """
        return _compile(self.core_formulas, self.atoms())

    @cached_property
    def atoms_below(self) -> list[int]:
        """For each node of :attr:`table`, the atoms it depends on, as a
        mask with bit i set for atom ``atoms()[i]``.

        A node's value can change only when a cell of one of these
        atoms does.
        """
        table, _ = self.table
        below: list[int] = []
        for op, x, y in table:
            if op == "atom":
                below.append(1 << x)
            else:
                below.append((below[x] if x >= 0 else 0) | (below[y] if y >= 0 else 0))
        return below

    def replace_formulas(self, formulas: Iterable[Formula]) -> "KnowledgeBase":
        return KnowledgeBase(
            formulas=tuple(formulas),
            trace_length_m=self.trace_length_m,
            g_mode=self.g_mode,
            ground_cells=self.ground_cells,
            allow_short_trace=self.allow_short_trace,
        )

    def without(self, formula: Formula) -> "KnowledgeBase":
        return self.replace_formulas(f for f in self.formulas if f != formula)

    def extended(self, extra: Iterable[Formula]) -> "KnowledgeBase":
        return self.replace_formulas(self.formulas + tuple(extra))


class KBParseError(ValueError):
    """Raised on malformed knowledge base text; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


_M_DIRECTIVE_RE = re.compile(r"^m\s*=\s*(\d+)$")


def parse_kb_text(
    text: str,
    *,
    m: int | None = None,
    g_mode: GMode = GMode.STRICT,
    allow_short_trace: bool = False,
) -> KnowledgeBase:
    """Parse knowledge base text: one formula per line.

    Blank lines are skipped and ``#`` starts a comment.  The first
    significant line may be a directive ``m = <int>`` fixing the trace
    length; an explicit ``m`` argument takes precedence over it.  The
    trace length must come from one of the two since every measure is
    relative to a fixed horizon, so with neither this raises.
    """
    directive_m: int | None = None
    formulas: list[Formula] = []
    seen_significant = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive = _M_DIRECTIVE_RE.match(line)
        if directive:
            if seen_significant:
                raise KBParseError(
                    "the m directive must be the first significant line", lineno
                )
            directive_m = int(directive.group(1))
            seen_significant = True
            continue
        seen_significant = True
        try:
            formulas.append(parse_formula(line))
        except FormulaParseError as exc:
            raise KBParseError(str(exc), lineno) from exc
    trace_length = m if m is not None else directive_m
    if trace_length is None:
        raise KBParseError(
            "no trace length: pass m explicitly or start the file with"
            " an 'm = <int>' directive"
        )
    try:
        return KnowledgeBase(
            formulas=tuple(formulas),
            trace_length_m=trace_length,
            g_mode=g_mode,
            allow_short_trace=allow_short_trace,
        )
    except ValueError as exc:
        raise KBParseError(str(exc)) from exc


def load_kb(
    path: str | Path,
    *,
    m: int | None = None,
    g_mode: GMode = GMode.STRICT,
    allow_short_trace: bool = False,
) -> KnowledgeBase:
    """Read a knowledge base file (see :func:`parse_kb_text`)."""
    return parse_kb_text(
        Path(path).read_text(encoding="utf-8"),
        m=m,
        g_mode=g_mode,
        allow_short_trace=allow_short_trace,
    )


def format_kb_text(kb: KnowledgeBase) -> str:
    """Serialize a knowledge base in the text format read by load_kb.

    Ground cells have no syntax in the format; they are noted in a
    comment so the information is visible even though a reload will
    not restore it.
    """
    lines = [f"m = {kb.trace_length_m}"]
    if kb.ground_cells:
        cells = ", ".join(f"(t_{s}, {a})" for s, a in sorted(kb.ground_cells))
        lines.append(f"# ground cells (not restored on reload): {cells}")
    lines.extend(render_formula(f) for f in kb.formulas)
    return "\n".join(lines) + "\n"
