import random

import pytest
from hypothesis import given, strategies as st

from ltlim.formula import (
    GMode,
    KnowledgeBase,
    parse_formula,
    temporal_depth,
)
from ltlim.generators import random_formula
from ltlim.semantics import (
    Interpretation3,
    SignatureMismatchError,
    TruthValue3,
    affected_states,
    conflict_base,
    eval2,
    eval3,
    land,
    lnot,
    lor,
    satisfies2,
    satisfies3,
)

F, B, T = TruthValue3.FALSE, TruthValue3.BOTH, TruthValue3.TRUE


def random_interpretation(rng, atoms, m, *, three_valued=True):
    """A seeded interpretation, drawn cell by cell, state major."""
    choices = (F, B, T) if three_valued else (F, T)
    rows = [[rng.choice(choices) for _ in atoms] for _ in range(m + 1)]
    return Interpretation3(tuple(atoms), rows)


def from_map(assignment, *, atoms, m):
    """The interpretation that is 0 at every cell outside ``assignment``."""
    rows = [[F] * len(atoms) for _ in range(m + 1)]
    for (state, atom), value in assignment.items():
        rows[state][atoms.index(atom)] = value
    return Interpretation3(atoms, rows)


def with_value(nu, state, atom, value):
    """``nu`` with one cell changed; an atom outside it raises."""
    nu.value(state, atom)
    rows = [list(row) for row in nu.values]
    rows[state][nu.atoms.index(atom)] = value
    return Interpretation3(nu.atoms, rows)


@pytest.fixture
def nu():
    # t0: a=1 b=0 / t1: a=B b=B / t2: a=0 b=1
    return Interpretation3(atoms=("a", "b"), values=((T, F), (B, B), (F, T)))


def test_connective_tables():
    order = (F, B, T)
    for x in order:
        assert lnot(x) is order[2 - x]
        for y in order:
            assert land(x, y) is min(x, y)
            assert lor(x, y) is max(x, y)


def test_designated_values():
    assert not F.designated
    assert B.designated
    assert T.designated


def test_tokens_round_trip():
    for v in (F, B, T):
        assert TruthValue3.from_token(v.token) is v
    with pytest.raises(ValueError):
        TruthValue3.from_token("2")


def test_eval3_atoms_and_negation(nu):
    assert eval3(nu, 0, parse_formula("a")) is T
    assert eval3(nu, 1, parse_formula("a")) is B
    assert eval3(nu, 2, parse_formula("! a")) is T
    assert eval3(nu, 1, parse_formula("! a")) is B


def test_eval3_next_hits_glut(nu):
    assert eval3(nu, 0, parse_formula("X a")) is B
    assert eval3(nu, 0, parse_formula("X (! a)")) is B
    assert eval3(nu, 1, parse_formula("X b")) is T


def test_next_at_horizon_is_false(nu):
    assert eval3(nu, 2, parse_formula("X a")) is F
    assert eval3(nu, 2, parse_formula("X (! a)")) is F


def test_eval3_until_glut_clause(nu):
    # No strictly later state gives b = 1 with a = 1 across the gap,
    # but t1 offers a designated window containing a glut.
    assert eval3(nu, 0, parse_formula("a U b")) is B


def test_eval3_until_true_clause_wins_over_glut():
    grid = Interpretation3(atoms=("a", "b"), values=((T, F), (T, B), (T, T)))
    assert eval3(grid, 0, parse_formula("a U b")) is T


def test_eval3_until_needs_left_from_current_state():
    grid = Interpretation3(atoms=("a", "b"), values=((F, F), (F, T), (F, F)))
    assert eval3(grid, 0, parse_formula("a U b")) is F


def test_strict_finally_ignores_current_state():
    grid = Interpretation3(atoms=("a",), values=((T,), (F,), (F,)))
    assert eval3(grid, 0, parse_formula("F a")) is F
    assert eval3(grid, 0, parse_formula("a | F a")) is T


def test_reflexive_globally_covers_current_state():
    grid = Interpretation3(atoms=("a",), values=((F,), (T,), (T,)))
    assert eval3(grid, 0, parse_formula("G a"), GMode.REFLEXIVE) is F
    assert eval3(grid, 0, parse_formula("G a"), GMode.STRICT) is T


def test_eval_reads_derived_nodes_by_their_clauses(nu):
    # t0: a=1 b=0 / t1: a=B b=B / t2: a=0 b=1
    strict, reflexive = GMode.STRICT, GMode.REFLEXIVE
    values = {
        "F a": (B, F, F),
        "F b": (T, T, F),
        "a -> b": (F, B, T),
        "G b": (B, T, T),
        "G a": (F, F, T),
    }
    for text, expected in values.items():
        formula = parse_formula(text)
        assert tuple(eval3(nu, s, formula, strict) for s in range(3)) == expected, text
    # The reflexive G also reads the state itself.
    assert tuple(eval3(nu, s, parse_formula("G b"), reflexive) for s in range(3)) == (F, B, T)
    assert tuple(eval3(nu, s, parse_formula("G a"), reflexive) for s in range(3)) == (F, F, F)
    # Each clause gives the value of the core form that the table interns.
    for derived, core_form in [
        ("F (a & b)", "true U (a & b)"),
        ("G (a | X b)", "! (true U ! (a | X b))"),
        ("a -> X b", "! (a & ! X b)"),
    ]:
        for mode in (strict, reflexive):
            core = parse_formula(core_form)
            if mode is reflexive and derived.startswith("G"):
                core = parse_formula(f"(a | X b) & {core_form}")
            for state in range(3):
                got = eval3(nu, state, parse_formula(derived), mode)
                assert got is eval3(nu, state, core, mode), (derived, mode, state)


def test_eval2_rejects_three_valued_input(nu):
    with pytest.raises(ValueError):
        eval2(nu, 0, parse_formula("a"))


def test_eval2_classical_until():
    omega = Interpretation3(atoms=("a", "b"), values=((T, F), (F, F), (F, T)))
    # the gap needs a at both t0 and t1, but a fails at t1
    assert eval2(omega, 0, parse_formula("a U b")) is False
    assert eval2(omega, 1, parse_formula("a U b")) is False
    assert eval2(omega, 0, parse_formula("F b")) is True
    assert eval2(omega, 0, parse_formula("G a")) is False


@given(st.integers(0, 2**32 - 1))
def test_faithfulness_on_two_valued_interpretations(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    omega = random_interpretation(rng, ("a", "b"), m, three_valued=False)
    formula, mode = random_surface_formula(rng)
    state = rng.randint(0, m)
    classical = eval2(omega, state, formula, mode)
    three_valued = eval3(omega, state, formula, mode)
    assert three_valued in (T, F)
    assert (three_valued is T) == classical


def random_surface_formula(rng):
    """A seeded formula with F, G, -> and constants, and a G reading."""
    mode = rng.choice(list(GMode))
    return random_formula(rng, ("a", "b"), 5, allow_constants=True), mode


@given(st.integers(0, 2**32 - 1))
def test_all_glut_interpretation_yields_glut_on_core_fragment(seed):
    rng = random.Random(seed)
    formula = random_formula(rng, ("a", "b"), 4, core_only=True)
    m = max(temporal_depth(formula), 2)
    nu = Interpretation3(("a", "b"), ((B, B),) * (m + 1))
    assert eval3(nu, 0, formula) is B


def test_affected_states_and_conflict_base(nu):
    assert affected_states(nu) == frozenset({1})
    assert conflict_base(nu) == frozenset({(1, "a"), (1, "b")})


def test_interpretation_validation():
    with pytest.raises(ValueError):
        Interpretation3(atoms=("a", "a"), values=((T, T),))
    with pytest.raises(ValueError):
        Interpretation3(atoms=("a",), values=((T, F),))
    with pytest.raises(ValueError):
        Interpretation3(atoms=("a",), values=())


def test_interpretation_coerces_mixed_cell_spellings():
    grid = Interpretation3(atoms=("a", "b"), values=((1, "B"), (True, 0)))
    assert grid.value(0, "a") is B
    assert grid.value(0, "b") is B
    assert grid.value(1, "a") is T
    assert grid.value(1, "b") is F


def test_from_map_and_defaults():
    grid = from_map(
        {(1, "a"): B, (2, "b"): T}, atoms=("a", "b"), m=2
    )
    assert grid.value(0, "a") is F
    assert grid.value(1, "a") is B
    assert grid.value(2, "b") is T
    assert grid.m == 2


def test_value_bounds_and_signature(nu):
    with pytest.raises(IndexError):
        nu.value(3, "a")
    with pytest.raises(SignatureMismatchError):
        nu.value(0, "zz")
    with pytest.raises(SignatureMismatchError):
        with_value(nu, 0, "zz", T)


def test_with_value_is_functional(nu):
    changed = with_value(nu, 2, "a", B)
    assert changed.value(2, "a") is B
    assert nu.value(2, "a") is F


def test_two_valued_flag(nu):
    assert not nu.is_two_valued
    assert Interpretation3(atoms=("a",), values=((T,), (F,))).is_two_valued


def test_json_round_trip(nu):
    assert Interpretation3.from_json_dict(nu.to_json_dict()) == nu


def test_satisfies3_checks_designation_at_start():
    kb = KnowledgeBase.of("X a", "X (! a)", m=2)
    model = from_map({(1, "a"): B}, atoms=("a",), m=2)
    assert satisfies3(model, kb)
    broken = with_value(model, 1, "a", T)
    assert not satisfies3(broken, kb)


def test_satisfies3_enforces_ground_cells():
    kb = KnowledgeBase(
        formulas=(parse_formula("a"),),
        trace_length_m=2,
        ground_cells=frozenset({(0, "a")}),
    )
    pinned = from_map({(0, "a"): T}, atoms=("a",), m=2)
    assert satisfies3(pinned, kb)
    glutted = with_value(pinned, 0, "a", B)
    assert not satisfies3(glutted, kb)


def test_satisfies2_on_simple_base():
    kb = KnowledgeBase.of("a", "X b", m=2)
    omega = Interpretation3(atoms=("a", "b"), values=((T, F), (F, T), (F, F)))
    assert satisfies2(omega, kb)
    assert not satisfies2(with_value(omega, 1, "b", F), kb)
