import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from ltlim.formula import (
    And,
    Atom,
    FALSE,
    FalseConst,
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
    TrueConst,
    Until,
    _compile,
    atoms_of,
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


# Binding power and right grouping of each binary connective, as the
# grammar states them; & binds tightest, U loosest.
BINARY = {
    "&": (And, 3, False),
    "|": (Or, 2, False),
    "->": (Implies, 1, True),
    "U": (Until, 0, True),
}


@pytest.mark.parametrize("first,second", itertools.product(BINARY, repeat=2))
def test_parse_groups_every_pair_of_binary_connectives(first, second):
    (outer, p1, _), (inner, p2, right) = BINARY[first], BINARY[second]
    parsed = parse_formula(f"a {first} b {second} c")
    if p1 > p2 or (p1 == p2 and not right):
        assert parsed == inner(outer(a, b), c)
    else:
        assert parsed == outer(a, inner(b, c))


def test_parse_applies_unary_prefix_chains_innermost_last():
    unary = {"!": Not, "X": Next, "F": Finally, "G": Globally}
    for length in range(4):
        for chain in itertools.product(unary, repeat=length):
            left, right = a, b
            for symbol in reversed(chain):
                left = unary[symbol](left)
            for symbol in chain:
                right = unary[symbol](right)
            text = f"{' '.join(chain)} a -> {' '.join(reversed(chain))} b"
            assert parse_formula(text) == Implies(left, right), text


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


def compiled(formula, mode=GMode.STRICT):
    """The node table and roots of the one-formula base of ``formula``."""
    return KnowledgeBase((formula,), 3, g_mode=mode).table


def test_expand_finally_is_strict_until():
    assert compiled(Finally(a)) == compiled(Until(TRUE, a))


def test_expand_globally_strict():
    assert compiled(Globally(a)) == compiled(Not(Until(TRUE, Not(a))))


def test_expand_globally_reflexive_adds_current_state():
    assert compiled(Globally(a), GMode.REFLEXIVE) == compiled(
        And(a, Not(Until(TRUE, Not(a)))), GMode.REFLEXIVE
    )


def test_expand_implies():
    assert compiled(Implies(a, b)) == compiled(Or(Not(a), b))


def reference_expand(formula, mode):
    """The abbreviations F, G and -> rewritten clause by clause."""
    if isinstance(formula, (Atom, TrueConst, FalseConst)):
        return formula
    if isinstance(formula, Finally):
        return Until(TRUE, reference_expand(formula.operand, mode))
    if isinstance(formula, Globally):
        inner = reference_expand(formula.operand, mode)
        always = Not(Until(TRUE, Not(inner)))
        return And(inner, always) if mode is GMode.REFLEXIVE else always
    if isinstance(formula, Implies):
        left = reference_expand(formula.left, mode)
        return Or(Not(left), reference_expand(formula.right, mode))
    if isinstance(formula, (Not, Next)):
        return type(formula)(reference_expand(formula.operand, mode))
    return type(formula)(
        reference_expand(formula.left, mode), reference_expand(formula.right, mode)
    )


def table_formulas(table, atoms=("a", "b", "c")) -> list:
    """The core formula each edge of a compiled table stands for, edge
    2 * node + negated, in the normal form of :func:`read_back`."""
    rebuilt = []
    for op, x, y in table:
        if op == "atom":
            rebuilt += (Atom(atoms[x]), Not(Atom(atoms[x])))
        elif op == "true":
            rebuilt += (TRUE, FALSE)
        elif op == "&":
            rebuilt += (And(rebuilt[x], rebuilt[y]), Or(rebuilt[x ^ 1], rebuilt[y ^ 1]))
        else:
            node = Next(rebuilt[x]) if op == "X" else Until(rebuilt[x], rebuilt[y])
            rebuilt += (node, Not(node))
    return rebuilt


def read_back(formula, negated=False):
    """A core formula in the normal form of :func:`table_formulas`, with
    ``negated`` for a negation above it: negations move onto the edges
    of & (De Morgan, with | as !(!phi & !psi)), cancel in pairs, and
    turn true into false and back."""
    kind = type(formula)
    if kind is Not:
        return read_back(formula.operand, not negated)
    if kind in (TrueConst, FalseConst):
        return FALSE if (kind is TrueConst) == negated else TRUE
    if kind in (And, Or):
        # & under an even number of negations stays &; | is a negated &.
        sides = (read_back(formula.left, negated), read_back(formula.right, negated))
        return (And if (kind is And) != negated else Or)(*sides)
    if kind is Atom:
        core = formula
    elif kind is Next:
        core = Next(read_back(formula.operand))
    else:
        core = Until(read_back(formula.left), read_back(formula.right))
    return Not(core) if negated else core


@pytest.mark.parametrize("mode", list(GMode))
def test_expansion_matches_the_clause_by_clause_reference(mode):
    rng = random.Random(13)
    for _ in range(250):
        formulas = [
            random_formula(rng, ("a", "b", "c"), 4, allow_constants=True)
            for _ in range(rng.randint(1, 3))
        ]
        for formula in formulas:
            table, roots = _compile((formula,), ("a", "b", "c"), mode)
            expected = read_back(reference_expand(formula, mode))
            assert table_formulas(table)[roots[0]] == expected
        kb = KnowledgeBase(tuple(formulas), 3, g_mode=mode)
        table, roots = kb.table
        rebuilt = table_formulas(table, kb.atoms())
        assert [rebuilt[root] for root in roots] == [
            read_back(reference_expand(f, mode)) for f in kb.formulas
        ]


@given(st.integers(0, 2**32 - 1), st.sampled_from(GMode))
def test_expand_preserves_temporal_depth(seed, mode):
    rng = random.Random(seed)
    formula = random_formula(rng, ("a", "b"), 4, allow_constants=True)
    table, roots = compiled(formula, mode)
    # The X and U nodes on the longest path down from each node.
    depth = []
    for op, x, y in table:
        below = 0 if op in ("atom", "true") else max(depth[e >> 1] for e in (x, y) if e >= 0)
        depth.append(below + (op in ("X", "U")))
    assert depth[roots[0] >> 1] == temporal_depth(formula)


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


def test_temporal_depth_walks_each_shared_operand_once():
    # AtLeast shares one operand between both branches of a disjunction at
    # every level, so a depth computed per occurrence doubles per level.
    start = time.perf_counter()
    assert temporal_depth(_at_least(a, 200)) == 399
    assert time.perf_counter() - start < 0.1


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
