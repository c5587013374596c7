import itertools
import random
import tracemalloc

import pytest

import ltlim.formula
from ltlim.declare import load_declare, translate_model
from ltlim.formula import KnowledgeBase, load_kb, parse_formula
from ltlim.generators import random_kb
from ltlim.measures import (
    MEASURE_IDS,
    _mis_index_sets,
    free_formulas,
    horizon_warning,
    measure,
    run_measures,
)
from ltlim.semantics import conflict_base
from ltlim.solver import DEFAULT_NODE_BUDGET, Budget, BudgetExceededError, root_vectors
from test_semantics import from_map

INF = float("inf")

PROP_MIX = ("a", "! a", "b", "(! b) & c & d", "(! a) | (! b)")


def kb_of(*texts, m=3, **kw):
    return KnowledgeBase.of(*texts, m=m, **kw)


def mis_enumerate(kb, budget=DEFAULT_NODE_BUDGET):
    """The minimal unsatisfiable subsets as tuples of formulas, in order."""
    found = _mis_index_sets(kb, lambda: root_vectors(kb, budget=budget), budget=budget)
    return tuple(tuple(kb.formulas[i] for i in sorted(indices)) for indices in found)


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
    # c reads passes; the minimisations of LTL_d and LTL_c search once each.
    assert run.probes == 2
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


def reference_mis_index_sets(n: int, vectors) -> list[frozenset[int]]:
    """The subset loop that the downward-closed table replaced: each
    subset by size, then by position, that contains no subset found so
    far and that no vector covers.  The widest vectors are tried first,
    so that a covered subset is found covered early."""
    vectors = sorted(vectors, key=int.bit_count, reverse=True)
    found: list[frozenset[int]] = []
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            candidate = frozenset(combo)
            if any(mis <= candidate for mis in found):
                continue
            mask = sum(1 << i for i in combo)
            if not any(v & mask == mask for v in vectors):
                found.append(candidate)
    return found


def reference_min_hitting_set_size(index_sets) -> int:
    """The hitting-set loop that ``r`` replaced: the size of a smallest
    set of formulas that meets every minimal subset, by size."""
    if not index_sets:
        return 0
    universe = sorted(set().union(*index_sets))
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            chosen = set(combo)
            if all(chosen & mis for mis in index_sets):
                return size
    return len(universe)


def seeded_vector_sets(n):
    """60 seeded sets of 1..12 vectors over n formulas, the empty set and
    the full one."""
    rng = random.Random(n)
    drawn = [{rng.randrange(1 << n) for _ in range(rng.randint(1, 12))} for _ in range(60)]
    return [set(), set(range(1 << n)), *drawn]


@pytest.mark.parametrize("n", range(15))
def test_the_closure_table_finds_the_minimal_subsets_of_the_subset_loop(n):
    kb = kb_of(*(f"a{i}" for i in range(n)))
    for vectors in seeded_vector_sets(n):
        assert _mis_index_sets(kb, lambda: vectors) == reference_mis_index_sets(n, vectors)


@pytest.mark.parametrize("n", range(15))
def test_r_is_the_smallest_hitting_set_of_the_minimal_subsets(monkeypatch, n):
    kb = kb_of(*(f"a{i}" for i in range(n)))
    for vectors in seeded_vector_sets(n):
        monkeypatch.setattr("ltlim.measures.root_vectors", lambda kb, budget: vectors)
        expected = reference_min_hitting_set_size(_mis_index_sets(kb, lambda: vectors))
        assert measure(kb, "r") == expected


def test_r_is_the_smallest_hitting_set_on_every_data_base(data_dir):
    bases = [
        load_kb(str(path), m=m)
        for path in sorted(data_dir.glob("*.ltlkb"))
        if path.name != "bad.ltlkb"
        for m in (2, 3, 4)
    ] + [
        translate_model(load_declare(path), m=m)
        for path in sorted(data_dir.glob("*.decl"))
        for m in (2, 3, 4)
    ]
    for kb in bases:
        expected = reference_min_hitting_set_size(_mis_index_sets(kb, lambda: root_vectors(kb)))
        assert measure(kb, "r") == expected


# 20 formulas over two atoms at m = 2: 6 cells, 64 vectors at most.
TWO_ATOMS = (
    "a", "! a", "b", "! b", "X a", "X (! a)", "X b", "X (! b)", "X X a", "X X (! a)",
    "X X b", "X X (! b)", "a | b", "(! a) | (! b)", "G a", "G (! b)", "F a", "F (! a)",
    "a -> X b", "b -> X (! a)",
)


@pytest.mark.parametrize("n", range(13, 21))
def test_bases_past_twelve_formulas_find_the_minimal_subsets_of_the_subset_loop(n):
    kb = kb_of(*TWO_ATOMS[:n], m=2)
    expected = reference_mis_index_sets(n, root_vectors(kb))
    assert mis_enumerate(kb) == tuple(
        tuple(kb.formulas[i] for i in sorted(indices)) for indices in expected
    )


def test_the_budget_bounds_the_minimal_subset_table():
    # 24 formulas have 2^24 subsets, more than 10^6 units: the table is
    # refused before the pass is read, as a pass refuses its states.  The
    # error reports the table's units, and the refusal spends none.
    kb = kb_of(*(text for i in range(12) for text in (f"a{i}", f"! a{i}")), m=2)
    budget = Budget(10**6)
    with pytest.raises(BudgetExceededError) as exc:
        mis_enumerate(kb, budget=budget)
    assert exc.value.nodes == 1 << 24 and budget.spent == 0
    assert not budget.paid and not budget.shared


def test_the_minimal_subset_table_keeps_two_masks_not_one_per_formula():
    # 20 clashing formulas: a table of 2^20 bits.  One mask per formula
    # would peak above 20 tables; halving each mask into the next keeps
    # the peak a small constant multiple of one.
    kb = kb_of(*(text for i in range(10) for text in (f"a{i}", f"! a{i}")), m=2)
    vectors = root_vectors(kb)
    tracemalloc.start()
    try:
        found = _mis_index_sets(kb, lambda: vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == [frozenset({2 * i, 2 * i + 1}) for i in range(10)]
    assert peak < 12 * (1 << 20) // 8


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


def test_the_subset_family_of_an_empty_base_reads_no_pass():
    # No subset is tested, so the truth vectors are never read, and the
    # run charges nothing, as when the family tested subsets one by one.
    run = run_measures(KnowledgeBase(formulas=(), trace_length_m=3), ("MI", "p", "r", "at"))
    assert run.values == dict.fromkeys(("MI", "p", "r", "at"), 0)
    assert run.nodes == 0


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
    at_edge = from_map({(2, "a"): "B"}, atoms=("a",), m=2)
    inside = from_map({(1, "a"): "B"}, atoms=("a",), m=2)
    clean = from_map({}, atoms=("a",), m=2)
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


def test_a_trace_longer_than_the_budget_is_refused_before_allocating():
    # The pass costs at least one unit per state, so m + 1 units past the
    # budget are refused before any per-state list is built.
    kb = kb_of("a & (! a)", m=10**6)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            run_measures(kb, ("d",), budget=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("seed", range(25))
def test_oracle_backend_agrees_on_random_bases(seed):
    rng = random.Random(seed)
    kb = random_kb(
        rng, atoms=("a", "b"), m=2, max_formulas=3, max_depth=2, allow_constants=True
    )
    fast = run_measures(kb).values
    slow = run_measures(kb, use_oracle=True).values
    assert fast == slow
