"""Acceptance gate: eleven criteria, one test per criterion.

``pytest -v tests/test_acceptance.py`` prints one pass or fail line per
criterion.  Each test also prints a ``criterion NN PASS`` line carrying
the checked values, visible with ``-s`` or ``-rA``.
"""

import random
import time

from ltlim.declare import parse_declare_text, translate_model
from ltlim.formula import (
    GMode,
    KnowledgeBase,
    temporal_depth,
)
from ltlim.generators import random_formula, random_kb
from ltlim.measures import measure, run_measures
from ltlim.oracle import oracle_min_cost
from ltlim.postulates import (
    EXPECTED_MATRIX,
    Outcome,
    curated_violation,
    run_curated,
    search_violation,
    sweep,
)
from ltlim.semantics import Interpretation3, TruthValue3, eval2, eval3
from ltlim.solver import CostMode, count_min_conflict_signatures, minimize
from test_semantics import random_interpretation

BASELINES = ("d", "MI", "p", "r", "c", "at")

OVERLAP = "activities: a, b\nInit(a)\nResponse(a, b)\nNotResponse(a, b)\n"
DOUBLE_OVERLAP = (
    "activities: a, b, c\nInit(a)\nResponse(a, b)\nNotResponse(a, b)\n"
    "Response(a, c)\nNotResponse(a, c)\n"
)
CHAIN = "activities: a, b\nInit(a)\nChainResponse(a, b)\nNotChainResponse(a, b)\n"


class stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def test_criterion_01_classical_baselines_on_a_mixed_base():
    kb = KnowledgeBase.of("a", "! a", "b", "(! b) & c & d", "(! a) | (! b)", m=3)
    with stopwatch() as clock:
        run = run_measures(kb, BASELINES)
    assert dict(run.values) == {"d": 1, "MI": 3, "p": 5, "r": 2, "c": 2, "at": 4}
    assert clock.seconds < 1.0
    print(
        f"criterion 01 PASS: baseline values {dict(run.values)}"
        f" in {clock.seconds:.3f}s"
    )


def test_criterion_02_baselines_are_blind_to_temporal_spread():
    next_clash = KnowledgeBase.of("X a", "X (! a)", m=3)
    always_clash = KnowledgeBase.of("G a", "G (! a)", m=3)
    with stopwatch() as clock:
        run_next = run_measures(next_clash, BASELINES)
        run_always = run_measures(always_clash, BASELINES)
    assert run_next.values == run_always.values
    assert run_next.values["c"] == 1
    assert clock.seconds < 1.0
    print(
        f"criterion 02 PASS: identical baseline values {dict(run_next.values)}"
        f" on both clash bases in {clock.seconds:.3f}s"
    )


def test_criterion_03_trace_window_measures_tell_the_clashes_apart():
    with stopwatch() as clock:
        for m in (2, 3, 4):
            next_clash = KnowledgeBase.of("X a", "X (! a)", m=m)
            always_clash = KnowledgeBase.of("G a", "G (! a)", m=m)
            assert measure(next_clash, "LTL_d") == 1
            assert measure(always_clash, "LTL_d") == m
        four_next = KnowledgeBase.of("X a", "X (! a)", "X b", "X (! b)", m=3)
        four_always = KnowledgeBase.of("G a", "G (! a)", "G b", "G (! b)", m=3)
        assert measure(four_next, "LTL_d") == 1
        assert measure(four_always, "LTL_d") == 3
        assert measure(KnowledgeBase.of("X a", "X (! a)", m=3), "LTL_c") == 1
        assert measure(four_next, "LTL_c") == 2
        assert measure(four_always, "LTL_c") == 6
    assert clock.seconds < 5.0
    print(
        "criterion 03 PASS: LTL_d next=1 always=m for m in 2..4;"
        f" four-pair bases (1, 3) and LTL_c (1, 2, 6) in {clock.seconds:.3f}s"
    )


def test_criterion_04_unreachable_depth_has_no_model_at_any_cost():
    kb = KnowledgeBase.of("X (X (X a))", m=2)
    assert measure(kb, "LTL_d") == float("inf")
    assert measure(kb, "LTL_c") == float("inf")
    print("criterion 04 PASS: nesting past the trace end gives LTL_d = LTL_c = inf")


def test_criterion_05_constraint_models_measure_their_overlap_width():
    overlap = translate_model(parse_declare_text(OVERLAP), m=3)
    double = translate_model(parse_declare_text(DOUBLE_OVERLAP), m=3)
    assert overlap.g_mode is GMode.REFLEXIVE
    values = {}
    for name, kb in (("overlap", overlap), ("double_overlap", double)):
        got = measure(kb, "LTL_c")
        want, _ = oracle_min_cost(kb, CostMode.CONFLICT_BASE.value)
        assert got == want, (name, got, want)
        values[name] = got
    assert values == {"overlap": 1, "double_overlap": 2}
    print(f"criterion 05 PASS: reflexive LTL_c {values}, oracle agrees on both")


def test_criterion_06_bounded_occurrence_conflicts_grow_with_demand():
    def bounded(n):
        text = f"activities: a\nAtMost(a, 1)\nAtLeast(a, {n})\n"
        return translate_model(parse_declare_text(text), m=6)

    with stopwatch() as clock:
        low = measure(bounded(2), "LTL_d")
        high = measure(bounded(4), "LTL_d")
    assert low < high
    assert (low, high) == (1, 3)
    assert clock.seconds < 30.0
    print(
        f"criterion 06 PASS: m=6 cap-one base, LTL_d {low} < {high}"
        f" as the demanded count rises, in {clock.seconds:.3f}s"
    )


def test_criterion_07_conflict_localization_counts_the_options():
    counts = {}
    for m in (3, 4):
        overlap = translate_model(parse_declare_text(OVERLAP), m=m)
        chain = translate_model(parse_declare_text(CHAIN), m=m)
        counts[("overlap", m)] = count_min_conflict_signatures(overlap).count
        chain_summary = count_min_conflict_signatures(chain)
        counts[("chain", m)] = chain_summary.count
        assert chain_summary.bases == (((1, "b"),),)
    assert counts == {
        ("overlap", 3): 3,
        ("overlap", 4): 4,
        ("chain", 3): 1,
        ("chain", 4): 1,
    }
    print(
        "criterion 07 PASS: overlap admits m distinct minimal conflict bases,"
        " the chain variant exactly one at (t1, b)"
    )


def test_criterion_08_three_valued_evaluation_is_faithful_when_two_valued():
    rng = random.Random(88)
    failures = 0
    for _ in range(1000):
        m = rng.randint(1, 4)
        omega = random_interpretation(rng, ("a", "b"), m, three_valued=False)
        formula = random_formula(rng, ("a", "b"), rng.randint(1, 5), allow_constants=True)
        state = rng.randint(0, m)
        expected = TruthValue3.TRUE if eval2(omega, state, formula) else TruthValue3.FALSE
        if eval3(omega, state, formula) is not expected:
            failures += 1
    assert failures == 0
    print("criterion 08 PASS: 1000 random formula/model pairs, zero disagreements")


def test_criterion_09_core_formulas_are_glutted_on_the_all_glut_model():
    rng = random.Random(99)
    failures = 0
    for _ in range(500):
        formula = random_formula(rng, ("a", "b"), rng.randint(1, 4), core_only=True)
        m = rng.randint(max(temporal_depth(formula), 1), 4)
        nu = Interpretation3(("a", "b"), ((TruthValue3.BOTH,) * 2,) * (m + 1))
        if eval3(nu, 0, formula) is not TruthValue3.BOTH:
            failures += 1
    assert failures == 0
    print(
        "criterion 09 PASS: 500 core-fragment formulas all evaluate to B"
        " on the all-glut model"
    )


def test_criterion_10_search_backend_matches_the_oracle():
    rng = random.Random(20260819)
    plans = [(("a",), (2, 3, 4), 90), (("a", "b"), (2, 3, 4), 160), (("a", "b", "c"), (2, 3), 50)]
    checked = 0
    with stopwatch() as clock:
        for atoms, sizes, count in plans:
            for _ in range(count):
                m = rng.choice(sizes)
                kb = random_kb(rng, atoms=atoms, m=m, max_formulas=4, max_depth=3)
                for mode in (CostMode.AFFECTED_STATES, CostMode.CONFLICT_BASE):
                    got = minimize(kb, mode).value
                    want, _ = oracle_min_cost(kb, mode.value)
                    assert got == want, (kb, mode, got, want)
                checked += 1
    assert checked == 300
    assert clock.seconds < 120.0
    print(
        f"criterion 10 PASS: {checked} random bases, both cost modes match"
        f" the exhaustive oracle in {clock.seconds:.1f}s"
    )


def test_criterion_11_compliance_matrix_is_certified_and_swept():
    certified = 0
    swept = 0
    hunted = 0
    with stopwatch() as clock:
        for measure_id, row in EXPECTED_MATRIX.items():
            for postulate, expected in row.items():
                if expected:
                    result = sweep(measure_id, postulate, instances=200, seed=11)
                    assert result.clean, (measure_id, postulate, result.violations[:1])
                    swept += 1
                elif curated_violation(measure_id, postulate) is None:
                    found = search_violation(
                        measure_id, postulate, instances=150, seed=5
                    )
                    assert found is None, (measure_id, postulate, found)
                    hunted += 1
                else:
                    verdict = run_curated(measure_id, postulate)
                    assert verdict.outcome is Outcome.VIOLATED, (measure_id, postulate)
                    certified += 1
    assert (certified, hunted, swept) == (12, 2, 26)
    print(
        f"criterion 11 PASS: {certified} violations certified, {hunted} cells"
        f" provably unviolatable (hunts empty), {swept} cells clean over"
        f" 200-instance sweeps in {clock.seconds:.1f}s"
    )
