"""Formula AST, parser, renderer, and knowledge bases.

The logic is a linear temporal logic read over traces with a fixed last
state index m, so a trace is the state sequence t_0 .. t_m and nothing
exists beyond t_m.  Core connectives are atoms, the constants true and
false, negation, conjunction, disjunction, next, and a strictly
future-looking until.  Eventually (F), always (G), and implication are
abbreviations over the core connectives.

There is one object per formula: building a node returns the live one
with the same class and fields (hash-consing; Filliatre & Conchon, 2006),
so equality and hashing are object identity and never walk a formula.

One connective table (class and symbol) serves the tokenizer, the
precedence-climbing parser, the renderer and the opcodes of the node
table.  One iterative post-order walk, which visits each distinct
subformula object once, serves rendering, temporal depth, atom
collection and compilation, so shared operands cost nothing extra and
depth needs no recursion.  :func:`_compile` rewrites the derived
connectives into the core ones as it interns a base's formulas, with
negation as a bit on the edges of the table rather than a node of its
own.  It is the only place the rewrite rules live; the reference
evaluators of :mod:`ltlim.semantics` read the derived connectives by
their own clauses, so the two can be checked against each other.

Two readings of G are supported.  The strict reading takes G phi as
"phi holds in every strictly later state", i.e. not (true U not phi).
The reflexive reading additionally demands phi now, which is the
natural reading when constraint templates are compiled down to temporal
formulas.  The choice is carried by the knowledge base so that a
given base is compiled and evaluated the same way everywhere.
"""

from __future__ import annotations

import enum
import re
import threading
import weakref
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Iterable, Union

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
    "format_kb_text",
    "load_kb",
    "parse_formula",
    "parse_kb_text",
    "render_formula",
    "render_length",
    "temporal_depth",
]

DEFAULT_TRACE_LENGTH = 3


class GMode(enum.Enum):
    """Reading of the always operator G."""

    STRICT = "strict"
    REFLEXIVE = "reflexive"


# The live formula nodes by class and fields, and the lock under which
# each is looked up and made, so that two threads make one node.
_NODES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NODES_LOCK = threading.Lock()


class _Interned(type):
    """The type of the formula classes: frozen dataclasses whose nodes
    are made once, so a node's key hashes its children by identity."""

    def __init__(cls, *args):
        super().__init__(*args)
        dataclass(frozen=True, eq=False, repr=False)(cls)

    def __call__(cls, *args):
        key = (cls, *args)
        with _NODES_LOCK:
            node = _NODES.get(key)
            if node is None:
                node = _NODES[key] = super().__call__(*args)
        return node


class Formula(metaclass=_Interned):
    """Base class for AST nodes.  There is one object per formula, so
    equality and hashing are identity, and copies and pickles return it.

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

    def __reduce__(self):
        return type(self), tuple(getattr(self, field.name) for field in fields(self))


class TrueConst(Formula):
    pass


class FalseConst(Formula):
    pass


class Atom(Formula):
    name: str


class Not(Formula):
    operand: Formula


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Implies(Formula):
    left: Formula
    right: Formula


class Next(Formula):
    operand: Formula


class Finally(Formula):
    operand: Formula


class Globally(Formula):
    operand: Formula


class Until(Formula):
    left: Formula
    right: Formula


TRUE = TrueConst()
FALSE = FalseConst()

# Each connective's class and symbol, read by the tokenizer, the parser
# and the renderer.  ``&``, ``X`` and ``U`` are also opcodes of the node
# table (:func:`_compile`).
_SYMBOL = {
    Not: "!", Next: "X", Finally: "F", Globally: "G",
    And: "&", Or: "|", Implies: "->", Until: "U",
}
_CONNECTIVE = {symbol: kind for kind, symbol in _SYMBOL.items()}

# Binding power and right grouping of each binary connective.  Every
# unary prefix binds tighter than all of them.
_BINDING = {"&": (3, False), "|": (2, False), "->": (1, True), "U": (0, True)}
_BINARY = frozenset(_CONNECTIVE[symbol] for symbol in _BINDING)


def _postorder(formulas: Iterable[Formula]) -> list[Formula]:
    """Each distinct subformula object of ``formulas`` once, children
    before parents and left before right, walked without recursion."""
    order: list[Formula] = []
    seen: set[int] = set()
    for formula in formulas:
        # None above an object on the stack: list it once its children are.
        stack = [formula]
        while stack:
            node = stack.pop()
            if node is None:
                order.append(stack.pop())
            elif id(node) not in seen:
                seen.add(id(node))
                kind = type(node)
                if kind is Atom or kind is TrueConst or kind is FalseConst:
                    order.append(node)
                elif kind in _BINARY:
                    stack += (node, None, node.right, node.left)
                elif kind in _SYMBOL:
                    stack += (node, None, node.operand)
                else:
                    raise TypeError(f"not a formula node: {node!r}")
    return order


def render_formula(formula: Formula) -> str:
    """Render a formula with full parentheses.

    The output round-trips: parsing it yields an equal AST.
    """
    text: dict[int, str] = {}
    for node in _postorder((formula,)):
        kind = type(node)
        if kind in _BINARY:
            out = f"({text[id(node.left)]} {_SYMBOL[kind]} {text[id(node.right)]})"
        elif kind in _SYMBOL:
            out = f"({_SYMBOL[kind]} {text[id(node.operand)]})"
        elif kind is Atom:
            out = node.name
        else:
            out = "true" if kind is TrueConst else "false"
        text[id(node)] = out
    return text[id(formula)]


def render_length(formula: Formula) -> int:
    """``len(render_formula(formula))``, summed over the formula's
    distinct subformulas without building a string: the text of a
    shared operand repeats at every occurrence, so its length can grow
    exponentially in the formula's size."""
    length: dict[int, int] = {}
    for node in _postorder((formula,)):
        kind = type(node)
        if kind in _BINARY:
            # "(left symbol right)"
            out = length[id(node.left)] + length[id(node.right)] + len(_SYMBOL[kind]) + 4
        elif kind in _SYMBOL:
            # "(symbol operand)"
            out = length[id(node.operand)] + len(_SYMBOL[kind]) + 3
        elif kind is Atom:
            out = len(node.name)
        else:
            out = 4 if kind is TrueConst else 5
        length[id(node)] = out
    return length[id(formula)]


class FormulaParseError(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<name>[a-z][a-zA-Z0-9_]*)|(?P<op>"
    + "|".join(re.escape(symbol) for symbol in sorted(_CONNECTIVE, key=len, reverse=True))
    + r")|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value, pos = match[kind], match.start(kind)
        if kind == "bad":
            raise FormulaParseError(f"unexpected character {value!r}", pos)
        tokens.append((value if value in ("true", "false") else kind, value, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Precedence climbing over the token list (Pratt, 1973): the binary
    connectives bind as :data:`_BINDING` says, and unary prefixes bind
    tightest."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def expression(self, floor: int) -> Formula:
        """The formula at the cursor, up to the first binary connective
        that binds looser than ``floor``."""
        left = self.operand()
        while True:
            value = self.tokens[self.index][1]
            binding = _BINDING.get(value)
            if binding is None or binding[0] < floor:
                return left
            self.index += 1
            power, right_grouping = binding
            right = self.expression(power if right_grouping else power + 1)
            left = _CONNECTIVE[value](left, right)

    def operand(self) -> Formula:
        """A primary formula under its unary prefixes."""
        prefixes = []
        while True:
            kind, value, pos = self.tokens[self.index]
            self.index += 1
            if kind != "op" or value in _BINDING:
                break
            prefixes.append(_CONNECTIVE[value])
        if kind == "name":
            formula: Formula = Atom(value)
        elif kind == "true" or kind == "false":
            formula = TRUE if kind == "true" else FALSE
        elif kind == "lpar":
            formula = self.expression(0)
            kind, value, pos = self.tokens[self.index]
            if kind != "rpar":
                raise FormulaParseError(
                    f"expected 'rpar' but found {value or 'end of input'!r}", pos
                )
            self.index += 1
        elif value == "U":
            raise FormulaParseError("U is a binary connective", pos)
        else:
            raise FormulaParseError(
                f"expected a formula but found {value or 'end of input'!r}", pos
            )
        for prefix in reversed(prefixes):
            formula = prefix(formula)
        return formula


def parse_formula(text: str) -> Formula:
    """Parse formula text into an AST."""
    parser = _Parser(text)
    formula = parser.expression(0)
    kind, value, pos = parser.tokens[parser.index]
    if kind != "end":
        raise FormulaParseError(f"unexpected trailing {value!r}", pos)
    return formula


def temporal_depth(formula: Formula) -> int:
    """Nesting depth of temporal connectives (X, U, F, G)."""
    depth: dict[int, int] = {}
    for node in _postorder((formula,)):
        kind = type(node)
        if kind in _BINARY:
            below = max(depth[id(node.left)], depth[id(node.right)])
        elif kind in _SYMBOL:
            below = depth[id(node.operand)]
        else:
            below = 0
        depth[id(node)] = below + (kind in (Next, Until, Finally, Globally))
    return depth[id(formula)]


def atoms_of(formula: Formula) -> frozenset[str]:
    """The set of atom names occurring in the formula."""
    return frozenset(node.name for node in _postorder((formula,)) if type(node) is Atom)


class SignatureMismatchError(LookupError):
    """An atom required by evaluation is missing from the interpretation."""


_Node = tuple[str, int, int]


def _compile(
    formulas: tuple[Formula, ...],
    atoms: tuple[str, ...],
    g_mode: GMode = GMode.STRICT,
    order: list[Formula] | None = None,
) -> tuple[list[_Node], list[int]]:
    """Intern formulas into a topologically ordered node table over the
    core connectives, given the walk ``order`` of ``formulas`` if the
    caller has it.

    Every reference to a node is an edge, ``2 * node + negated``, as in
    an And-Inverter Graph: negation is the edge's low bit and has no
    node.  A node is ``(op, x, y)``.  Node ``i < len(atoms)`` is
    ``("atom", i, -1)``, the atom ``atoms[i]``; ``("true", -1, -1)`` is
    the constant, and false is its negated edge; ``"X"`` has the one
    child edge ``x``; ``"&"`` and ``"U"`` have the child edges ``x``
    and ``y``.  Structurally equal subformulas share one node, and
    every child comes before its parent.  Returns the table and the
    root edge of each formula.

    ``!`` swaps the values 0 and 1 and keeps B, so De Morgan holds and
    phi | psi is interned as !(!phi & !psi), and phi -> psi as
    !(phi & !psi).  F phi is interned as true U phi, and G phi as
    !(true U !phi), conjoined with phi under the reflexive reading.
    """
    # Insertion order is table order, so the table is the dict's keys.
    interned: dict[_Node, int] = {("atom", i, -1): i for i in range(len(atoms))}

    def intern(op: str, x: int = -1, y: int = -1) -> int:
        return 2 * interned.setdefault((op, x, y), len(interned))

    atom_ids = {name: i for i, name in enumerate(atoms)}
    compiled: dict[int, int] = {}
    for node in _postorder(formulas) if order is None else order:
        kind = type(node)
        if kind is Atom:
            try:
                edge = 2 * atom_ids[node.name]
            except KeyError:
                raise SignatureMismatchError(
                    f"atom {node.name!r} is not in the signature"
                ) from None
        elif kind is TrueConst or kind is FalseConst:
            edge = intern("true") ^ (kind is FalseConst)
        elif kind in _BINARY:
            x, y = compiled[id(node.left)], compiled[id(node.right)]
            if kind is Or or kind is Implies:
                edge = intern("&", x ^ (kind is Or), y ^ 1) ^ 1
            else:
                edge = intern(_SYMBOL[kind], x, y)
        else:
            x = compiled[id(node.operand)]
            if kind is Not:
                edge = x ^ 1
            elif kind is Finally:
                edge = intern("U", intern("true"), x)
            elif kind is Globally:
                edge = intern("U", intern("true"), x ^ 1) ^ 1
                if g_mode is GMode.REFLEXIVE:
                    edge = intern("&", x, edge)
            else:
                edge = intern("X", x)
        compiled[id(node)] = edge
    return list(interned), [compiled[id(formula)] for formula in formulas]


GroundCell = tuple[int, str]


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

    def atoms(self) -> tuple[str, ...]:
        """All atom names in the base, sorted."""
        return self._atoms

    @cached_property
    def _subformulas(self) -> list[Formula]:
        """The base's one walk (:func:`_postorder`): :meth:`atoms` and
        :attr:`table` both read it."""
        return _postorder(self.formulas)

    @cached_property
    def _atoms(self) -> tuple[str, ...]:
        """:meth:`atoms`, collected once per base."""
        names = {node.name for node in self._subformulas if type(node) is Atom}
        names.update(atom for _, atom in self.ground_cells)
        return tuple(sorted(names))

    @cached_property
    def rendered(self) -> dict[Formula, str]:
        """Each formula's :func:`render_formula` text, rendered once."""
        return {formula: render_formula(formula) for formula in self.formulas}

    @cached_property
    def table(self) -> tuple[list[_Node], list[int]]:
        """The formulas compiled over ``atoms()`` under ``g_mode``, as
        :func:`_compile` returns them.

        Every evaluator of a base (the search, the two-valued pass and
        the oracle) reads this one table; none may modify it.
        """
        return _compile(self.formulas, self.atoms(), self.g_mode, self._subformulas)

    @cached_property
    def atoms_below(self) -> list[int]:
        """For each node of :attr:`table`, the atoms it depends on, as a
        mask with bit i set for atom ``atoms()[i]``; a negated edge
        depends on the atoms of its node.

        A node's value can change only when a cell of one of these
        atoms does.
        """
        table, _ = self.table
        below: list[int] = []
        for op, x, y in table:
            if op == "atom":
                below.append(1 << x)
            else:
                below.append((below[x >> 1] if x >= 0 else 0) | (below[y >> 1] if y >= 0 else 0))
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
    lines.extend(kb.rendered.values())
    return "\n".join(lines) + "\n"
