import random
import time

import pytest
from hypothesis import given, strategies as st

from ltlim.formula import (
    And,
    Atom,
    FALSE,
    Finally,
    FormulaParseError,
    Globally,
    GMode,
    Implies,
    KBParseError,
    KnowledgeBase,
    Next,
    Not,
    Or,
    TRUE,
    Until,
    atoms_of,
    expand_derived,
    format_kb_text,
    parse_formula,
    parse_kb_text,
    render_formula,
    temporal_depth,
)
from ltlim.declare import _at_least
from ltlim.generators import random_formula

a, b, c = Atom("a"), Atom("b"), Atom("c")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a", a),
        ("true", TRUE),
        ("false", FALSE),
        ("! a", Not(a)),
        ("a & b", And(a, b)),
        ("a | b", Or(a, b)),
        ("a -> b", Implies(a, b)),
        ("X a", Next(a)),
        ("F a", Finally(a)),
        ("G a", Globally(a)),
        ("a U b", Until(a, b)),
        ("((a))", a),
    ],
)
def test_parse_basic(text, expected):
    assert parse_formula(text) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        # U binds loosest and associates to the right
        ("a U b U c", Until(a, Until(b, c))),
        ("a -> b -> c", Implies(a, Implies(b, c))),
        ("a | b & c", Or(a, And(b, c))),
        ("! a & b", And(Not(a), b)),
        ("X a U b", Until(Next(a), b)),
        ("a U b -> c", Until(a, Implies(b, c))),
        ("a -> b | c", Implies(a, Or(b, c))),
        ("X X X a", Next(Next(Next(a)))),
        ("! X a", Not(Next(a))),
        ("G (a -> F b)", Globally(Implies(a, Finally(b)))),
        ("(a U b) U c", Until(Until(a, b), c)),
    ],
)
def test_parse_precedence(text, expected):
    assert parse_formula(text) == expected


@pytest.mark.parametrize("text", ["", "a &", "(a", "a b", "U a", "a -> -> b", "1x"])
def test_parse_rejects_garbage(text):
    with pytest.raises(FormulaParseError):
        parse_formula(text)


def test_parse_error_carries_position():
    with pytest.raises(FormulaParseError) as exc:
        parse_formula("a & ")
    assert exc.value.position is not None


@given(st.integers(0, 2**32 - 1))
def test_render_parse_round_trip(seed):
    rng = random.Random(seed)
    formula = random_formula(rng, ("a", "b", "c"), 5, allow_constants=True)
    assert parse_formula(render_formula(formula)) == formula


def test_operator_sugar_builds_nodes():
    assert ~a == Not(a)
    assert (a & b) == And(a, b)
    assert (a | b) == Or(a, b)


def test_expand_finally_is_strict_until():
    assert expand_derived(Finally(a)) == Until(TRUE, a)


def test_expand_globally_strict():
    assert expand_derived(Globally(a), GMode.STRICT) == Not(Until(TRUE, Not(a)))


def test_expand_globally_reflexive_adds_current_state():
    expanded = expand_derived(Globally(a), GMode.REFLEXIVE)
    assert expanded == And(a, Not(Until(TRUE, Not(a))))


def test_expand_implies():
    assert expand_derived(Implies(a, b)) == Or(Not(a), b)


def _core_kinds_only(formula):
    stack = [formula]
    while stack:
        node = stack.pop()
        assert not isinstance(node, (Finally, Globally, Implies)), node
        for name in ("child", "left", "right"):
            sub = getattr(node, name, None)
            if sub is not None:
                stack.append(sub)


@given(st.integers(0, 2**32 - 1), st.sampled_from(GMode))
def test_expand_removes_all_derived_nodes_and_is_idempotent(seed, mode):
    rng = random.Random(seed)
    formula = random_formula(rng, ("a", "b"), 4, allow_constants=True)
    expanded = expand_derived(formula, mode)
    _core_kinds_only(expanded)
    assert expand_derived(expanded, mode) == expanded


@given(st.integers(0, 2**32 - 1), st.sampled_from(GMode))
def test_expand_preserves_temporal_depth(seed, mode):
    rng = random.Random(seed)
    formula = random_formula(rng, ("a", "b"), 4, allow_constants=True)
    assert temporal_depth(expand_derived(formula, mode)) == temporal_depth(formula)


@pytest.mark.parametrize(
    "text,depth",
    [
        ("a", 0),
        ("a & ! b", 0),
        ("X a", 1),
        ("X X X a", 3),
        ("a U b", 1),
        ("a U X b", 2),
        ("G a", 1),
        ("F (a & X b)", 2),
    ],
)
def test_temporal_depth(text, depth):
    assert temporal_depth(parse_formula(text)) == depth


def test_atoms_of_collects_each_atom_once():
    assert atoms_of(parse_formula("(a U b) & X a & true")) == frozenset({"a", "b"})


def test_kb_deduplicates_preserving_order():
    kb = KnowledgeBase.of("a", "b", "a", m=3)
    assert kb.formulas == (a, b)


def test_a_formula_hashes_each_shared_operand_once():
    # Each level of AtLeast shares one operand between both branches of
    # a disjunction, so a hash walked per occurrence doubles per level.
    start = time.perf_counter()
    kb = KnowledgeBase((_at_least(a, 24),), 3)
    assert time.perf_counter() - start < 0.1
    assert hash(kb.formulas[0]) == hash(_at_least(a, 24))
    # Equal formulas built apart compare equal and hash as the dataclass
    # would, by the tuple of their fields.
    first, second = _at_least(a, 3), _at_least(a, 3)
    assert first is not second and first == second
    assert hash(first) == hash(second) == hash((first.left, first.right))
    assert hash(a) == hash(("a",)) and hash(TRUE) == hash(())


def test_kb_atoms_sorted():
    kb = KnowledgeBase.of("c | b", "a", m=3)
    assert kb.atoms() == ("a", "b", "c")


def test_kb_rejects_short_trace():
    with pytest.raises(ValueError):
        KnowledgeBase.of("a", m=1)
    kb = KnowledgeBase.of("a", m=1, allow_short_trace=True)
    assert kb.trace_length_m == 1


def test_kb_rejects_ground_cell_outside_trace():
    with pytest.raises(ValueError):
        KnowledgeBase(
            formulas=(a,), trace_length_m=3, ground_cells=frozenset({(4, "a")})
        )


def test_kb_without_and_extended():
    kb = KnowledgeBase.of("a", "b", m=3)
    assert kb.without(a).formulas == (b,)
    assert kb.extended((c,)).formulas == (a, b, c)
    assert kb.extended((a,)).formulas == (a, b)


def test_parse_kb_text_directive_and_comments():
    kb = parse_kb_text("# header\nm = 4\n\nX a  # trailing\nG b\n")
    assert kb.trace_length_m == 4
    assert kb.formulas == (Next(a), Globally(b))


def test_parse_kb_explicit_m_wins_over_directive():
    kb = parse_kb_text("m = 4\na\n", m=2)
    assert kb.trace_length_m == 2


def test_parse_kb_without_any_m_is_an_error():
    with pytest.raises(KBParseError, match="trace length"):
        parse_kb_text("a\n")


def test_parse_kb_directive_must_come_first():
    with pytest.raises(KBParseError) as exc:
        parse_kb_text("a\nm = 4\n")
    assert exc.value.line == 2


def test_parse_kb_reports_formula_error_line():
    with pytest.raises(KBParseError) as exc:
        parse_kb_text("a\nb\na &\n")
    assert exc.value.line == 3


def test_parse_kb_empty_base_is_fine():
    kb = parse_kb_text("# nothing\n", m=3)
    assert kb.formulas == ()


def test_format_round_trip_keeps_formulas_and_m():
    kb = KnowledgeBase.of("X a", "G (a -> F b)", m=5)
    again = parse_kb_text(format_kb_text(kb))
    assert again.formulas == kb.formulas
    assert again.trace_length_m == 5


def test_format_notes_ground_cells_but_reload_drops_them():
    kb = KnowledgeBase(
        formulas=(a,), trace_length_m=3, ground_cells=frozenset({(0, "a")})
    )
    text = format_kb_text(kb)
    assert "(t_0, a)" in text
    assert parse_kb_text(text).ground_cells == frozenset()
