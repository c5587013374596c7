import random

import pytest

from ltlim.formula import KnowledgeBase
from ltlim.generators import random_kb
from ltlim.oracle import oracle_min_cost, oracle_sat2
from ltlim.semantics import satisfies3
from ltlim.solver import (
    BudgetExceededError,
    CostMode,
    count_min_conflict_signatures,
    decide_upper,
    minimize,
    sat2,
)

INF = float("inf")


def small_kb(seed: int) -> KnowledgeBase:
    rng = random.Random(seed)
    m = rng.randint(2, 3)
    atoms = ("a", "b")[: rng.randint(1, 2)]
    return random_kb(
        rng, atoms=atoms, m=m, max_formulas=3, max_depth=3, allow_constants=True
    )


@pytest.mark.parametrize("seed", range(60))
def test_sat2_matches_oracle(seed):
    kb = small_kb(seed)
    assert sat2(kb).found == oracle_sat2(kb)[0]


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("mode", list(CostMode))
def test_minimize_matches_oracle(seed, mode):
    kb = small_kb(seed + 1000)
    summary = minimize(kb, mode)
    expected, _ = oracle_min_cost(kb, mode.value)
    assert summary.value == expected
    if summary.witness is not None:
        assert satisfies3(summary.witness, kb)


def test_minimize_witness_cost_equals_value():
    kb = KnowledgeBase.of("G a", "G (! a)", m=3)
    summary = minimize(kb, CostMode.AFFECTED_STATES)
    assert summary.value == 3
    witness = summary.witness
    glutted = [
        s
        for s in range(witness.m + 1)
        if any(witness.value(s, x).name == "BOTH" for x in witness.atoms)
    ]
    assert len(glutted) == 3


def test_minimize_consistent_base_is_zero():
    kb = KnowledgeBase.of("a", "X b", m=3)
    for mode in CostMode:
        summary = minimize(kb, mode)
        assert summary.value == 0
        assert summary.witness.is_two_valued


def test_minimize_unsatisfiable_at_any_cost_is_inf():
    kb = KnowledgeBase.of("X X X a", m=2)
    for mode in CostMode:
        summary = minimize(kb, mode)
        assert summary.value == INF
        assert summary.witness is None


def test_decide_upper_threshold_behaviour():
    kb = KnowledgeBase.of("G a", "G (! a)", m=3)
    assert not decide_upper(kb, 2, CostMode.AFFECTED_STATES).found
    found = decide_upper(kb, 3, CostMode.AFFECTED_STATES)
    assert found.found
    assert satisfies3(found.witness, kb)


@pytest.mark.parametrize("seed", range(25))
def test_decide_upper_is_monotone_in_the_bound(seed):
    kb = small_kb(seed + 2000)
    ceiling = kb.trace_length_m + 1
    answers = [
        decide_upper(kb, k, CostMode.AFFECTED_STATES).found
        for k in range(ceiling + 1)
    ]
    assert answers == sorted(answers)


def test_b_atoms_bound_controls_how_many_atoms_may_glut():
    kb = KnowledgeBase.of("(a & (! a)) & b", "! b", m=2)
    assert not decide_upper(kb, 0, CostMode.B_ATOMS).found
    assert not decide_upper(kb, 1, CostMode.B_ATOMS).found
    both = decide_upper(kb, 2, CostMode.B_ATOMS)
    assert both.found
    assert satisfies3(both.witness, kb)


@pytest.mark.parametrize("seed", range(40))
def test_b_atoms_reachability_matches_oracle(seed):
    kb = small_kb(seed + 3000)
    best, _ = oracle_min_cost(kb, "b_atoms")
    bounds = range(len(kb.atoms()) + 1)
    answers = [decide_upper(kb, k, CostMode.B_ATOMS).found for k in bounds]
    assert answers == [k >= best for k in bounds]


@pytest.mark.parametrize("seed", range(60))
def test_bound_zero_is_classical_satisfiability_in_every_mode(seed):
    kb = small_kb(seed)
    expected = sat2(kb)
    for mode in CostMode:
        result = decide_upper(kb, 0, mode)
        assert (result.found, result.witness) == (expected.found, expected.witness)


def test_budget_is_enforced():
    kb = KnowledgeBase.of("G a", "G (! a)", "G b", "G (! b)", m=4)
    with pytest.raises(BudgetExceededError) as exc:
        minimize(kb, CostMode.CONFLICT_BASE, budget=10)
    assert exc.value.budget == 10
    assert exc.value.nodes >= 10


def test_signature_count_single_next_conflict():
    kb = KnowledgeBase.of("X a", "X (! a)", m=3)
    summary = count_min_conflict_signatures(kb)
    assert summary.min_affected == 1
    assert summary.bases == (((1, "a"),),)
    assert summary.count == 1


def test_signature_count_always_conflict_has_one_base():
    kb = KnowledgeBase.of("G a", "G (! a)", m=3)
    summary = count_min_conflict_signatures(kb)
    assert summary.min_affected == 3
    assert summary.bases == (((1, "a"), (2, "a"), (3, "a")),)


def test_signature_count_rejects_consistent_base():
    with pytest.raises(ValueError):
        count_min_conflict_signatures(KnowledgeBase.of("a", m=2))


def test_signature_count_rejects_unreachable_base():
    with pytest.raises(ValueError):
        count_min_conflict_signatures(KnowledgeBase.of("X X X a", m=2))
