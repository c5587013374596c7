import random

import pytest

import ltlim.formula
from ltlim.declare import load_declare, translate_model
from ltlim.formula import KnowledgeBase, parse_formula
from ltlim.generators import random_kb
from ltlim.measures import (
    MEASURE_IDS,
    MisCapExceeded,
    free_formulas,
    horizon_warning,
    measure,
    mis_enumerate,
    run_measures,
)
from ltlim.semantics import Interpretation3, conflict_base
from ltlim.solver import BudgetExceededError

INF = float("inf")

PROP_MIX = ("a", "! a", "b", "(! b) & c & d", "(! a) | (! b)")


def kb_of(*texts, m=3, **kw):
    return KnowledgeBase.of(*texts, m=m, **kw)


def test_measure_ids_are_fixed():
    assert MEASURE_IDS == ("d", "MI", "p", "r", "c", "at", "LTL_d", "LTL_c")


def test_unknown_measure_id_rejected():
    with pytest.raises(ValueError):
        measure(kb_of("a"), "zz")


def test_a_base_collects_its_atoms_once_per_run(monkeypatch):
    calls = []
    original = ltlim.formula.atoms_of

    def counted(formula):
        calls.append(formula)
        return original(formula)

    monkeypatch.setattr(ltlim.formula, "atoms_of", counted)
    assert kb_of(*PROP_MIX).atoms() == ("a", "b", "c", "d")
    once = len(calls)
    calls.clear()
    # ``at`` reads the atoms of the minimal subsets' formulas itself.
    run = run_measures(kb_of(*PROP_MIX), [mid for mid in MEASURE_IDS if mid != "at"])
    # c reads passes; the minimisations of LTL_d and LTL_c probe thrice.
    assert run.probes == 3
    assert len(calls) == once


def test_propositional_mix_baseline_block():
    values = run_measures(kb_of(*PROP_MIX)).values
    assert (
        values["d"],
        values["MI"],
        values["p"],
        values["r"],
        values["c"],
        values["at"],
    ) == (1, 3, 5, 2, 2, 4)


def test_mis_enumeration_order_and_content():
    kb = kb_of(*PROP_MIX)
    family = mis_enumerate(kb)
    texts = tuple(tuple(str(f) for f in subset) for subset in family)
    assert texts == (
        ("a", "(! a)"),
        ("b", "(((! b) & c) & d)"),
        ("a", "b", "((! a) | (! b))"),
    )


def test_mis_respects_formula_cap():
    kb = kb_of(*(f"a{i}" for i in range(13)))
    with pytest.raises(MisCapExceeded):
        mis_enumerate(kb)


def test_free_formulas():
    assert free_formulas(kb_of(*PROP_MIX)) == ()
    iceberg = kb_of("a & (! a) & b", "! b")
    assert free_formulas(iceberg) == (parse_formula("! b"),)
    padded = kb_of("X a", "X (! a)", "b")
    assert free_formulas(padded) == (parse_formula("b"),)


def test_baselines_cannot_tell_next_from_always():
    ids = ("d", "MI", "p", "r", "c", "at")
    next_clash = run_measures(kb_of("X a", "X (! a)"), ids).values
    always_clash = run_measures(kb_of("G a", "G (! a)"), ids).values
    assert next_clash == always_clash
    assert next_clash["c"] == 1


def test_temporal_measures_tell_them_apart():
    assert measure(kb_of("X a", "X (! a)"), "LTL_d") == 1
    assert measure(kb_of("G a", "G (! a)"), "LTL_d") == 3
    assert measure(kb_of("X a", "X (! a)"), "LTL_c") == 1
    assert measure(kb_of("G a", "G (! a)"), "LTL_c") == 3


def test_conflict_width_scales_with_atom_pairs():
    four_next = kb_of("X a", "X (! a)", "X b", "X (! b)")
    four_always = kb_of("G a", "G (! a)", "G b", "G (! b)")
    assert measure(four_next, "LTL_d") == 1
    assert measure(four_next, "LTL_c") == 2
    assert measure(four_always, "LTL_d") == 3
    assert measure(four_always, "LTL_c") == 6


def test_unreachable_depth_gives_infinity():
    kb = kb_of("X X X a", m=2)
    values = run_measures(kb).values
    assert values["LTL_d"] == INF
    assert values["LTL_c"] == INF
    assert values["c"] == INF
    assert values["d"] == 1
    assert values["MI"] == 1


def test_empty_base_measures_to_zero():
    values = run_measures(KnowledgeBase(formulas=(), trace_length_m=3)).values
    assert all(v == 0 for v in values.values())


def test_glut_atoms_measure_on_iceberg():
    iceberg = kb_of("a & (! a) & b", "! b")
    assert measure(iceberg, "c") == 2
    assert measure(iceberg.without(parse_formula("! b")), "c") == 1


def test_glut_atoms_zero_on_consistent_temporal_base():
    assert measure(kb_of("a", "X (! a)"), "c") == 0


def test_run_measures_returns_requested_subset_in_canonical_order():
    run = run_measures(kb_of("X a", "X (! a)"), ("LTL_c", "d"))
    assert list(run.values) == ["d", "LTL_c"]
    assert run.witness_conflict is not None
    assert run.witness_affected is None


def test_witnesses_have_minimal_cost():
    run = run_measures(kb_of("X a", "X (! a)", "X b", "X (! b)"))
    assert len(conflict_base(run.witness_conflict)) == run.values["LTL_c"]


def test_horizon_warning_detection():
    at_edge = Interpretation3.from_map({(2, "a"): "B"}, atoms=("a",), m=2)
    inside = Interpretation3.from_map({(1, "a"): "B"}, atoms=("a",), m=2)
    clean = Interpretation3.from_map({}, atoms=("a",), m=2)
    assert horizon_warning(at_edge)
    assert not horizon_warning(inside)
    assert not horizon_warning(clean)


def test_end_chain_conflict_sits_at_the_horizon():
    model = load_declare_text("activities: a, b\nEnd(a)\nChainResponse(a, b)\n")
    kb = translate_model(model, m=3)
    run = run_measures(kb, ("LTL_d", "LTL_c"))
    assert run.values["LTL_d"] == 1
    assert run.values["LTL_c"] == 1
    assert conflict_base(run.witness_affected) == frozenset({(3, "a")})
    assert any("last state" in w for w in run.warnings)


def load_declare_text(text):
    from ltlim.declare import parse_declare_text

    return parse_declare_text(text)


def test_budget_shared_across_measures():
    kb = kb_of("G a", "G (! a)", "G b", "G (! b)", m=4)
    with pytest.raises(BudgetExceededError):
        run_measures(kb, ("LTL_d", "LTL_c"), budget=20)


def test_minimal_subsets_of_a_long_response_chain():
    # A single refutation per subset took the search 14.6M nodes here.
    model = load_declare_text(
        "activities: a0, a1, a2, a3\nInit(a0)\n"
        "Response(a0, a1)\nResponse(a1, a2)\nResponse(a2, a3)\n"
        "NotResponse(a0, a3)\nChainResponse(a2, a3)\n"
    )
    kb = translate_model(model, m=6)
    values = run_measures(kb, ("d", "MI", "p", "r", "at")).values
    assert values == {"d": 1, "MI": 2, "p": 6, "r": 1, "at": 4}


def test_subset_measures_report_the_whole_budget():
    kb = kb_of("G a", "G (! a)", "G b", "G (! b)", m=4)
    with pytest.raises(BudgetExceededError) as exc:
        run_measures(kb, ("d", "MI"), budget=20)
    assert exc.value.budget == 20
    assert exc.value.nodes > 20


@pytest.mark.parametrize("seed", range(25))
def test_oracle_backend_agrees_on_random_bases(seed):
    rng = random.Random(seed)
    kb = random_kb(
        rng, atoms=("a", "b"), m=2, max_formulas=3, max_depth=2, allow_constants=True
    )
    fast = run_measures(kb).values
    slow = run_measures(kb, use_oracle=True).values
    assert fast == slow
