"""Inconsistency measurement for linear temporal logic over fixed traces."""

from .formula import (
    Atom,
    And,
    FALSE,
    FalseConst,
    Finally,
    Formula,
    FormulaParseError,
    GMode,
    Globally,
    Implies,
    KBParseError,
    KnowledgeBase,
    Next,
    Not,
    Or,
    TRUE,
    TrueConst,
    Until,
    atoms_of,
    format_kb_text,
    load_kb,
    parse_formula,
    parse_kb_text,
    render_formula,
    temporal_depth,
)
from .semantics import (
    Interpretation3,
    SignatureMismatchError,
    TruthValue3,
    affected_states,
    conflict_base,
    eval2,
    eval3,
    satisfies2,
    satisfies3,
)

__version__ = "0.1.0"
