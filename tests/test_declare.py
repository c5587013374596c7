import pytest

from ltlim.declare import (
    Constraint,
    DeclareParseError,
    Template,
    parse_declare_text,
    translate_constraint,
    translate_model,
    translation_pairs,
)
from ltlim.formula import GMode, KnowledgeBase, parse_formula
from ltlim.measures import measure
from ltlim.solver import CostMode, decide_upper

OVERLAP = "activities: a, b\nInit(a)\nResponse(a, b)\nNotResponse(a, b)\n"
CHAIN = "activities: a, b\nInit(a)\nChainResponse(a, b)\nNotChainResponse(a, b)\n"
DOUBLE_OVERLAP = (
    "activities: a, b, c\n"
    "Init(a)\n"
    "Response(a, b)\nNotResponse(a, b)\n"
    "Response(a, c)\nNotResponse(a, c)\n"
)


def test_parse_keeps_constraint_and_activity_order():
    model = parse_declare_text(OVERLAP)
    assert model.activities == ("a", "b")
    assert [str(c) for c in model.constraints] == [
        "Init(a)",
        "Response(a, b)",
        "NotResponse(a, b)",
    ]


def test_parse_counted_templates_and_comments():
    model = parse_declare_text(
        "# bounded occurrence model\nactivities: a\nAtLeast(a, 2)\nAtMost(a, 1)\n"
    )
    assert model.constraints[0].count == 2
    assert model.constraints[1].template is Template.AT_MOST


def test_header_is_optional_and_order_comes_from_use():
    model = parse_declare_text("Response(b, a)\nInit(a)\n")
    assert model.activities is None
    assert [c.activities for c in model.constraints] == [("b", "a"), ("a",)]


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("activities: a\nPrecedence(a, a)\n", 2, "unknown template"),
        ("activities: a, b\nInit(a, b)\n", 2, "argument"),
        ("activities: a\nAtLeast(a, x)\n", 2, "integer"),
        ("activities: a\nAtLeast(a, 0)\n", 2, "positive"),
        ("activities: a\nResponse(a, b)\n", 2, "not declared"),
        ("activities: a\nactivities: b\n", 2, "duplicate activities"),
        ("Init(a)\nactivities: a\n", 2, "must precede"),
        ("activities: a, a\nInit(a)\n", 1, "duplicate activity"),
        ("activities: a\nInit(a) extra\n", 2, "cannot parse"),
        ("activities: 1a\n", 1, "invalid activity"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(DeclareParseError) as exc:
        parse_declare_text(text)
    assert exc.value.line == line
    assert needle in str(exc.value)


def test_constraint_validation_outside_parser():
    with pytest.raises(ValueError):
        Constraint(template=Template.INIT, activities=("a", "b"))
    with pytest.raises(ValueError):
        Constraint(template=Template.AT_LEAST, activities=("a",), count=0)
    with pytest.raises(ValueError):
        Constraint(template=Template.INIT, activities=("a",), count=2)


@pytest.mark.parametrize(
    "line,expected",
    [
        ("Init(a)", "a"),
        ("End(a)", "G (a | (F a))"),
        ("Response(a, b)", "G (a -> (F b))"),
        ("NotResponse(a, b)", "G (a -> (! (F b)))"),
        ("ChainResponse(a, b)", "G (a -> (X b))"),
        ("NotChainResponse(a, b)", "G (a -> (! (X b)))"),
        ("AtLeast(a, 1)", "a | (F a)"),
        (
            "AtLeast(a, 2)",
            "(a & (X (a | (F a)))) | (F (a & (X (a | (F a)))))",
        ),
        ("AtMost(a, 1)", "G ((! a) | (X (G (! a))))"),
    ],
)
def test_template_translations(line, expected):
    model = parse_declare_text(f"activities: a, b\n{line}\n")
    formula, _ = translate_constraint(model.constraints[0])
    assert formula == parse_formula(expected)


def test_at_most_one_wraps_in_globally():
    model = parse_declare_text("activities: a\nAtMost(a, 1)\n")
    formula, _ = translate_constraint(model.constraints[0])
    assert str(formula) == "(G ((! a) | (X (G (! a)))))"


def test_init_pins_a_ground_cell():
    model = parse_declare_text("activities: a\nInit(a)\n")
    _, cells = translate_constraint(model.constraints[0])
    assert cells == frozenset({(0, "a")})


def test_translate_model_defaults_to_reflexive_with_ground_cells():
    kb = translate_model(parse_declare_text(OVERLAP), m=3)
    assert kb.g_mode is GMode.REFLEXIVE
    assert kb.ground_cells == frozenset({(0, "a")})
    assert len(kb.formulas) == 3


def test_translate_model_atoms_stay_within_activities():
    model = parse_declare_text(DOUBLE_OVERLAP)
    kb = translate_model(model, m=3)
    assert set(kb.atoms()) <= set(model.activities)


def test_empty_model_translates_to_empty_base():
    kb = translate_model(parse_declare_text(""), m=3)
    assert kb.formulas == ()


def test_translation_pairs_align_with_constraints():
    model = parse_declare_text(CHAIN)
    pairs = translation_pairs(model)
    assert [str(c) for c, _ in pairs] == [str(c) for c in model.constraints]
    assert str(pairs[1][1]) == "(G (a -> (X b)))"


def test_overlap_models_conflict_width():
    overlap = translate_model(parse_declare_text(OVERLAP), m=3)
    double = translate_model(parse_declare_text(DOUBLE_OVERLAP), m=3)
    assert measure(overlap, "LTL_c") == 1
    assert measure(double, "LTL_c") == 2
    assert measure(overlap, "LTL_d") == 1
    assert measure(double, "LTL_d") == 1


def test_ground_pinning_blocks_the_start_state_escape():
    model = parse_declare_text(DOUBLE_OVERLAP)
    pinned = translate_model(model, m=3)
    loose = translate_model(model, m=3, ground_init=False)
    assert measure(pinned, "LTL_c") == 2
    assert measure(loose, "LTL_c") == 1


def test_at_least_feasibility_depends_on_trace_room():
    for m in (2, 3):
        for n in (1, 2, 3, 4):
            model = parse_declare_text(f"activities: a\nAtLeast(a, {n})\n")
            kb = translate_model(model, m=m)
            found = decide_upper(kb, 0, CostMode.CONFLICT_BASE).found
            assert found == (n <= m + 1), (m, n)


def distinct_objects(formula) -> int:
    """The number of distinct subformula objects, shared ones counted once."""
    seen = {}
    stack = [formula]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(
                getattr(node, name)
                for name in ("operand", "left", "right")
                if hasattr(node, name)
            )
    return len(seen)


def test_a_counted_template_expands_its_shared_operands_once():
    # Each level of AtLeast reuses one operand object in both branches of
    # a disjunction, so a compilation that rebuilt it per occurrence would
    # double the table at every level: it holds 4 nodes per count.
    kb = translate_model(parse_declare_text("activities: a\nAtLeast(a, 12)\n"), m=3)
    assert distinct_objects(kb.formulas[0]) == 47
    table, _ = kb.table
    assert len(table) == 48
    assert kb.atoms() == ("a",)


def test_counted_conflict_grows_with_demand():
    def bounded(n):
        model = parse_declare_text(
            f"activities: a\nAtMost(a, 1)\nAtLeast(a, {n})\n"
        )
        return translate_model(model, m=6)

    assert measure(bounded(2), "LTL_d") < measure(bounded(4), "LTL_d")
