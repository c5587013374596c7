"""Postulate checks, the compliance matrix, and the sweep harness."""

import random

import pytest

import ltlim.postulates
import ltlim.solver
from ltlim.cli import main
from ltlim.formula import KnowledgeBase, parse_formula
from ltlim.measures import MEASURE_IDS, run_measures
from ltlim.postulates import (
    EXPECTED_MATRIX,
    Outcome,
    Postulate,
    check_co,
    check_do,
    check_in,
    check_mo,
    check_ts,
    curated_violation,
    run_curated,
    _sweep_instance,
    search_violation,
    sweep,
)
from ltlim.solver import DEFAULT_NODE_BUDGET, Budget, BudgetExceededError


def test_matrix_covers_every_measure_and_postulate():
    assert set(EXPECTED_MATRIX) == set(MEASURE_IDS)
    for row in EXPECTED_MATRIX.values():
        assert set(row) == set(Postulate)


def test_matrix_expected_values():
    # CO, MO, IN, DO, TS per measure, frozen as a regression net.
    expected = {
        "d": (True, True, True, True, False),
        "MI": (True, True, True, False, False),
        "p": (True, True, True, False, False),
        "r": (True, True, True, False, False),
        "c": (True, True, False, True, False),
        "at": (True, False, False, False, False),
        "LTL_d": (True, True, True, True, True),
        "LTL_c": (True, True, False, True, True),
    }
    order = (
        Postulate.CONSISTENCY_NULL,
        Postulate.MONOTONICITY,
        Postulate.FREE_FORMULA_INDEPENDENCE,
        Postulate.DOMINANCE,
        Postulate.TIME_SENSITIVITY,
    )
    for measure_id, flags in expected.items():
        assert tuple(EXPECTED_MATRIX[measure_id][p] for p in order) == flags


def test_check_co_holds_on_both_sides_of_consistency():
    consistent = check_co("d", KnowledgeBase.of("a", "b", m=3))
    assert consistent.outcome is Outcome.HOLDS
    assert consistent.details["consistent"] is True
    assert consistent.details["value"] == 0

    clashing = check_co("d", KnowledgeBase.of("a", "! a", m=3))
    assert clashing.outcome is Outcome.HOLDS
    assert clashing.details["consistent"] is False
    assert clashing.details["value"] == 1


@pytest.mark.parametrize(
    "check, passes, outcome",
    [(check_co, 1, Outcome.HOLDS), (check_in, 2, Outcome.HOLDS)],
)
def test_the_two_valued_pass_runs_once_per_base(monkeypatch, check, passes, outcome):
    walked = []
    real = ltlim.solver._root_pass

    def counted(kb, choices, budget):
        walked.append(kb)
        return real(kb, choices, budget)

    monkeypatch.setattr(ltlim.solver, "_root_pass", counted)
    # check_co asks twice about one base; check_in asks twice about the
    # base and once about it without its free formula "b".
    kb = KnowledgeBase.of("G a", "G (! a)", "b", m=3)
    assert check(kb=kb, measure_id="MI").outcome is outcome
    assert len(walked) == len({id(base) for base in walked}) == passes


def test_a_dominance_instance_runs_each_pass_once(monkeypatch):
    walked = []
    real = ltlim.solver._root_pass

    def counted(kb, choices, budget):
        walked.append((kb, choices))
        return real(kb, choices, budget)

    monkeypatch.setattr(ltlim.solver, "_root_pass", counted)
    # The sampling tests alpha, then check_do tests an equal base again;
    # one account per instance runs its pass once.
    verdict = _sweep_instance(
        random.Random(0), "LTL_d", Postulate.DOMINANCE, m=3,
        budget=DEFAULT_NODE_BUDGET,
    )
    assert verdict.outcome is Outcome.HOLDS
    assert (KnowledgeBase.of(verdict.details["alpha"], m=3), ((0, 0),)) in walked
    assert len(walked) == len(set(walked)) == 2
    walked.clear()
    sweep("LTL_d", Postulate.DOMINANCE, instances=250, seed=1)
    # 540 two-valued passes, and one state pass for an LTL_d whose
    # first witness costs 2.
    assert len(walked) == 541
    assert sum(choices != ((0, 0),) for _, choices in walked) == 1


def test_the_measures_of_a_sweep_instance_share_its_passes(monkeypatch, capsys):
    walked = []
    real = ltlim.solver._root_pass

    def counted(kb, choices, budget):
        walked.append((kb, choices))
        return real(kb, choices, budget)

    monkeypatch.setattr(ltlim.solver, "_root_pass", counted)
    argv = ["postulates", "--measure", "all", "--postulate", "DO"]
    assert main(argv + ["--sweep", "250", "--seed", "1"]) == 0
    # The eight measures of an instance share its passes, the one state
    # pass among them too; eight sweeps of one measure each run 7172.
    assert len(walked) == 1083


def test_the_ts_sampler_charges_its_tries_to_the_instance(monkeypatch):
    walked = []
    real = ltlim.solver._root_pass

    def counted(kb, choices, budget):
        kept = real(kb, choices, budget)
        walked.append((kb, kept[1]))
        return kept

    monkeypatch.setattr(ltlim.solver, "_root_pass", counted)
    account = Budget(DEFAULT_NODE_BUDGET)
    rng = random.Random(0)
    verdict = _sweep_instance(rng, "d", Postulate.TIME_SENSITIVITY, m=3, budget=account)
    assert verdict.outcome is Outcome.VIOLATED
    # Two tries sample phi; check_ts reads the accepted try's pass back,
    # and runs only the passes of its spread and pinned bases.
    assert len(walked) == len({kb for kb, _ in walked}) == 4
    assert account.spent == sum(work for _, work in walked)
    # So the budget bounds the sampling too.
    with pytest.raises(BudgetExceededError):
        rng = random.Random(0)
        _sweep_instance(rng, "d", Postulate.TIME_SENSITIVITY, m=3, budget=account.spent - 1)


def test_a_ts_sweep_runs_one_clash_pass_per_instance(monkeypatch, capsys):
    walked = []
    real = ltlim.solver._root_pass

    def counted(kb, choices, budget):
        walked.append(choices)
        return real(kb, choices, budget)

    monkeypatch.setattr(ltlim.solver, "_root_pass", counted)
    argv = ["postulates", "--postulate", "TS", "--measure", "LTL_d"]
    assert main(argv + ["--sweep", "250", "--seed", "1"]) == 0
    # 790 two-valued passes, each instance's clash base once among them
    # (1040 when the sampler built an unequal one), and 250 state passes.
    assert len(walked) == 1040
    assert walked.count(((0, 0),)) == 790


@pytest.mark.parametrize(
    "postulate, seed, budget",
    [
        pytest.param(
            postulate, seed, budget,
            id=f"{postulate.value}-{seed}"
            + ("" if budget == DEFAULT_NODE_BUDGET else f"-budget{budget}"),
        )
        for budget in (DEFAULT_NODE_BUDGET, 0, 30, 300, 5000)
        for postulate in Postulate
        for seed in (1, 2, 3)
    ],
)
def test_a_sweep_of_every_measure_matches_a_sweep_of_each(postulate, seed, budget):
    def answer(measure_ids):
        try:
            return sweep(measure_ids, postulate, instances=30, seed=seed, budget=budget)
        except BudgetExceededError:
            return None

    grouped = answer(MEASURE_IDS)
    alone = {mid: answer(mid) for mid in MEASURE_IDS}
    # A grouped sweep runs out only where some sweep of one measure does,
    # and every cell whose own sweep answers equals it.
    if grouped is None:
        assert None in alone.values()
        return
    assert [result.measure_id for result in grouped] == list(MEASURE_IDS)
    for result in grouped:
        # Equal holds, n/a counts and violation lists.
        assert alone[result.measure_id] in (None, result)
    if (postulate, seed, budget) == (Postulate.TIME_SENSITIVITY, 2, 300):
        # Alone, LTL_c runs out; grouped, it reads the state pass that
        # LTL_d's check left in the instance's table as its floor.
        assert alone["LTL_c"] is None


@pytest.mark.parametrize("postulate", list(Postulate), ids=lambda p: p.value)
def test_each_check_of_a_sweep_instance_is_charged_as_if_alone(monkeypatch, postulate):
    accounts = []
    fork = Budget.fork

    def recorded(self):
        accounts.append(fork(self))
        return accounts[-1]

    monkeypatch.setattr(Budget, "fork", recorded)
    sweep(MEASURE_IDS, postulate, instances=10, seed=1)
    grouped = [account.spent for account in accounts]
    alone = []
    for mid in MEASURE_IDS:
        rng = random.Random(1)
        for _ in range(10):
            account = Budget(DEFAULT_NODE_BUDGET)
            _sweep_instance(rng, mid, postulate, m=3, budget=account)
            alone.append(account.spent)
    # Instance by instance, each measure's check is charged its sampling
    # and every pass it reads, as if it were sampled and checked alone.
    # LTL_c is left out: grouped, it may read the state pass of LTL_d's
    # check as its floor, which changes its walk.
    n = len(MEASURE_IDS)
    for j, mid in enumerate(MEASURE_IDS):
        if mid != "LTL_c":
            assert grouped[j::n] == alone[10 * j : 10 * (j + 1)], mid


def test_a_sweep_draws_each_instance_once(monkeypatch):
    calls = []
    for name in ("random_kb", "random_formula", "random_contingent_formula"):
        real = getattr(ltlim.postulates, name)

        def counted(*args, real=real, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)

        monkeypatch.setattr(ltlim.postulates, name, counted)
    for postulate in Postulate:
        sweep("d", postulate, instances=20, seed=1)
        alone = len(calls)
        calls.clear()
        sweep(MEASURE_IDS, postulate, instances=20, seed=1)
        assert len(calls) == alone > 0, postulate
        calls.clear()


def test_the_budget_bounds_a_check_as_a_whole():
    small = KnowledgeBase.of("G a", "G (! a)", m=3)
    large = small.extended((parse_formula("b U a"),))
    whole = sum(run_measures(kb, ("LTL_c",)).nodes for kb in (small, large))
    account = Budget(whole)
    assert check_mo("LTL_c", small, large, budget=account).outcome is Outcome.HOLDS
    assert account.spent == whole
    with pytest.raises(BudgetExceededError) as exc:
        check_mo("LTL_c", small, large, budget=whole - 1)
    assert exc.value.budget == whole - 1


def test_check_mo_requires_a_subset_pair():
    small = KnowledgeBase.of("c", m=3)
    large = KnowledgeBase.of("a", "b", m=3)
    with pytest.raises(ValueError):
        check_mo("d", small, large)


def test_check_mo_requires_matching_trace_parameters():
    small = KnowledgeBase.of("a", m=2)
    large = KnowledgeBase.of("a", "b", m=3)
    with pytest.raises(ValueError):
        check_mo("d", small, large)


def test_check_mo_holds_on_a_growing_base():
    small = KnowledgeBase.of("a", m=3)
    large = KnowledgeBase.of("a", "! a", m=3)
    verdict = check_mo("MI", small, large)
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.details["value"] == 0
    assert verdict.details["value_superset"] == 1


def test_check_in_not_applicable_without_free_formulas():
    verdict = check_in("d", KnowledgeBase.of("a", "! a", m=3))
    assert verdict.outcome is Outcome.NOT_APPLICABLE
    assert "free" in verdict.details["reason"]


def test_check_in_reports_the_breaking_free_formula():
    iceberg = KnowledgeBase.of("a & (! a) & b", "! b", m=3)
    verdict = check_in("c", iceberg)
    assert verdict.outcome is Outcome.VIOLATED
    assert parse_formula(verdict.details["free_formula"]) == parse_formula("! b")
    assert verdict.details["value"] == 2
    assert verdict.details["value_without"] == 1


def test_check_do_skips_unsatisfiable_alpha():
    verdict = check_do(
        "d",
        KnowledgeBase.of("! a", m=3),
        parse_formula("a & (! a)"),
        parse_formula("a"),
    )
    assert verdict.outcome is Outcome.NOT_APPLICABLE
    assert "unsatisfiable" in verdict.details["reason"]


def test_check_do_skips_non_entailing_pairs():
    verdict = check_do(
        "d",
        KnowledgeBase.of("! a", m=3),
        parse_formula("a"),
        parse_formula("b"),
    )
    assert verdict.outcome is Outcome.NOT_APPLICABLE
    assert "entail" in verdict.details["reason"]


def test_check_do_holds_for_the_drastic_measure():
    verdict = check_do(
        "d",
        KnowledgeBase.of("! a", m=3),
        parse_formula("a"),
        parse_formula("a | b"),
    )
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.details["value_with_alpha"] == 1
    assert verdict.details["value_with_beta"] == 0


def test_check_ts_rejects_temporal_phi():
    with pytest.raises(ValueError):
        check_ts("d", parse_formula("X a"))


def test_check_ts_not_applicable_for_tautologies():
    verdict = check_ts("d", parse_formula("a | (! a)"))
    assert verdict.outcome is Outcome.NOT_APPLICABLE


def test_check_ts_separates_the_trace_window_measures():
    spread_wins = check_ts("LTL_d", parse_formula("a"))
    assert spread_wins.outcome is Outcome.HOLDS
    assert spread_wins.details["value_spread"] == 3
    assert spread_wins.details["value_pinned"] == 1

    blind = check_ts("d", parse_formula("a"))
    assert blind.outcome is Outcome.VIOLATED
    assert blind.details["value_spread"] == 1
    assert blind.details["value_pinned"] == 1


def test_check_ts_composite_phi_needs_one_glut_cell_per_state():
    # A single glut cell per state already makes a conjunction glutted,
    # so the spread side costs m cells, not one per conjunct.
    verdict = check_ts("LTL_c", parse_formula("a & b"))
    assert verdict.outcome is Outcome.HOLDS
    assert verdict.details["value_spread"] == 3
    assert verdict.details["value_pinned"] == 1


def test_curated_violation_rejects_expected_holds_cells():
    with pytest.raises(KeyError):
        curated_violation("d", Postulate.CONSISTENCY_NULL)


def test_run_curated_rejects_cells_without_counterexamples():
    with pytest.raises(ValueError):
        run_curated("at", Postulate.MONOTONICITY)


def test_every_expected_fails_cell_is_certified_or_impossible():
    impossible = {
        ("at", Postulate.MONOTONICITY),
        ("at", Postulate.FREE_FORMULA_INDEPENDENCE),
    }
    for measure_id, row in EXPECTED_MATRIX.items():
        for postulate, expected in row.items():
            if expected:
                continue
            if curated_violation(measure_id, postulate) is None:
                assert (measure_id, postulate) in impossible
                continue
            verdict = run_curated(measure_id, postulate)
            assert verdict.outcome is Outcome.VIOLATED, (measure_id, postulate)


@pytest.mark.parametrize(
    "measure_id,spread,pinned",
    [("d", 1, 1), ("MI", 1, 1), ("p", 2, 2), ("r", 1, 1), ("c", 1, 1), ("at", 1, 1)],
)
def test_time_sensitivity_certificates(measure_id, spread, pinned):
    verdict = run_curated(measure_id, Postulate.TIME_SENSITIVITY)
    assert verdict.outcome is Outcome.VIOLATED
    assert verdict.details["value_spread"] == spread
    assert verdict.details["value_pinned"] == pinned


@pytest.mark.parametrize(
    "measure_id,with_alpha,with_beta",
    [("MI", 1, 2), ("p", 2, 4), ("r", 1, 2), ("at", 1, 2)],
)
def test_dominance_certificates(measure_id, with_alpha, with_beta):
    verdict = run_curated(measure_id, Postulate.DOMINANCE)
    assert verdict.outcome is Outcome.VIOLATED
    assert verdict.details["value_with_alpha"] == with_alpha
    assert verdict.details["value_with_beta"] == with_beta


@pytest.mark.parametrize("measure_id,value,without", [("c", 2, 1), ("LTL_c", 2, 1)])
def test_free_formula_certificates(measure_id, value, without):
    verdict = run_curated(measure_id, Postulate.FREE_FORMULA_INDEPENDENCE)
    assert verdict.outcome is Outcome.VIOLATED
    assert verdict.details["value"] == value
    assert verdict.details["value_without"] == without


def test_atom_count_monotonicity_hunt_stays_empty():
    # Growing a base only ever grows its family of minimal unsatisfiable
    # subsets, so the unnormalized atom count never shrinks.
    assert search_violation("at", Postulate.MONOTONICITY, instances=60, seed=2024) is None


def test_atom_count_free_formula_hunt_stays_empty():
    # A free formula lies in no minimal unsatisfiable subset, so removing
    # it leaves the subset family and the atom count untouched.
    assert (
        search_violation("at", Postulate.FREE_FORMULA_INDEPENDENCE, instances=60, seed=2024)
        is None
    )


def test_trace_distance_free_formula_boundary_instance():
    # The matrix row for the trace-window distance is not a universal
    # law.  Here the only minimal unsatisfiable subset is the first
    # formula, so the second is free, yet keeping it forces an extra
    # glut cell at state 1 on top of the unavoidable one at state 2.
    kb = KnowledgeBase.of("(X (X b)) & (X (X (! b))) & (G a)", "X (! a)", m=3)
    verdict = check_in("LTL_d", kb)
    assert verdict.outcome is Outcome.VIOLATED
    assert verdict.details["value"] == 2
    assert verdict.details["value_without"] == 1


def test_trace_distance_dominance_boundary_instance():
    # Likewise for dominance: alpha entails beta classically, but alpha
    # can be discharged with a single glut at the start state while beta
    # clashes with the base on the whole rest of the trace.
    kb = KnowledgeBase.of("G (! b)", m=3)
    verdict = check_do(
        "LTL_d", kb, parse_formula("(a | (G b)) & (! a)"), parse_formula("G b")
    )
    assert verdict.outcome is Outcome.VIOLATED
    assert verdict.details["value_with_alpha"] == 1
    assert verdict.details["value_with_beta"] == 3


EXPECTED_HOLDS_CELLS = sorted(
    (
        (measure_id, postulate)
        for measure_id, row in EXPECTED_MATRIX.items()
        for postulate, expected in row.items()
        if expected
    ),
    key=lambda cell: (cell[0], cell[1].value),
)


@pytest.mark.parametrize(
    "measure_id,postulate",
    EXPECTED_HOLDS_CELLS,
    ids=[f"{m}-{p.value}" for m, p in EXPECTED_HOLDS_CELLS],
)
def test_expected_holds_cells_survive_a_seeded_sweep(measure_id, postulate):
    result = sweep(measure_id, postulate, instances=15, seed=7)
    assert result.clean, result.violations[:1]
    assert result.instances == 15
    assert result.holds + result.not_applicable + len(result.violations) == 15


def test_search_violation_finds_known_failures_quickly():
    verdict = search_violation("d", Postulate.TIME_SENSITIVITY, instances=40, seed=3)
    assert verdict is not None
    assert verdict.outcome is Outcome.VIOLATED
