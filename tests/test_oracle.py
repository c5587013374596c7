"""The exhaustive oracle against the clause-by-clause semantics.

The oracle evaluates every formula over all interpretations at once, on
a space of numpy broadcast axes, one per trace state, that it never
materializes.  These tests pin its enumeration order, check its
vectorized walk over the node table against ``eval3`` row by row, check
its minima and conflict bases against references that enumerate one
interpretation at a time, check that the shared enumeration behind
``oracle_min_costs`` gives what separate enumerations give, and bound
the memory it traces.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from ltlim import oracle
from ltlim.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    Finally,
    Formula,
    GMode,
    Globally,
    Implies,
    KnowledgeBase,
    Next,
    Not,
    Or,
    Until,
)
from ltlim.generators import random_kb
from ltlim.measures import MEASURE_IDS, run_measures
from ltlim.oracle import (
    OracleCapExceeded,
    oracle_min_cost,
    oracle_min_costs,
    oracle_minimal_conflict_bases,
    oracle_root_vectors,
)
from ltlim.semantics import (
    Interpretation3,
    TruthValue3,
    affected_states,
    conflict_base,
    eval3,
    satisfies3,
)
from ltlim.solver import count_min_conflict_signatures

COSTS = ("affected_states", "conflict_base", "b_atoms")
ATOMS = ("a", "b", "c")
ATOMS5 = ("a", "b", "c", "d", "e")


def random_pool_formula(
    rng: random.Random,
    atoms: tuple[str, ...],
    *,
    constants: bool = True,
    derived: bool = False,
) -> Formula:
    """A formula over atoms (and constants) with nested X and U, and with
    F, G and -> too when ``derived``, drawn from a growing pool so that
    subformulas are shared."""
    pool: list[Formula] = [Atom(a) for a in atoms]
    if constants:
        pool += [TRUE, FALSE]
    kinds = (Not, Next, And, Or, Until, Until)
    if derived:
        kinds += (Finally, Globally, Implies)
    for _ in range(rng.randint(1, 10)):
        kind = rng.choice(kinds)
        if kind in (Not, Next, Finally, Globally):
            pool.append(kind(rng.choice(pool)))
        else:
            pool.append(kind(rng.choice(pool), rng.choice(pool)))
    return pool[-1]


def random_base(seed: int, max_cells: int = 8) -> KnowledgeBase:
    """A small base, with ground cells in about 30% of seeds."""
    rng = random.Random(seed)
    atoms = ATOMS[: rng.randint(1, 3)]
    m = rng.randint(0, max_cells // len(atoms) - 1)
    kb = random_kb(
        rng, atoms=atoms, m=2, max_formulas=3, allow_constants=True,
        g_mode=rng.choice(list(GMode)),
    )
    ground = ()
    if rng.random() < 0.3:
        ground = {(rng.randint(0, m), rng.choice(atoms)) for _ in range(2)}
    return KnowledgeBase(
        formulas=kb.formulas, trace_length_m=m, g_mode=kb.g_mode,
        ground_cells=ground, allow_short_trace=True,
    )


def clashing_base(seed: int, max_cells: int = 8) -> KnowledgeBase:
    """A random base plus a formula and its negation, which clash at t_0.

    The clash has no constants, so the all-B model keeps the minimal
    costs finite unless the base or its ground cells forbid it.
    """
    kb = random_base(seed, max_cells)
    clash = random_pool_formula(
        random.Random(seed), kb.atoms() or ("a",), constants=False
    )
    return kb.replace_formulas(kb.formulas + (clash, Not(clash)))


@pytest.mark.parametrize("n_cells", range(6))
@pytest.mark.parametrize(
    "lut,order",
    [
        (oracle._LUT2, (TruthValue3.FALSE, TruthValue3.TRUE)),
        (oracle._LUT3, (TruthValue3.FALSE, TruthValue3.TRUE, TruthValue3.BOTH)),
    ],
    ids=["two", "three"],
)
def test_digit_grid_row_r_spells_r(n_cells, lut, order):
    """Row r of the space, its C-order flat index, spells r in the value
    order, cells state major, for every split of the cells into states
    and atoms; the decoded interpretation reads the same cells off r."""
    base = len(order)
    shapes = [(m, n_cells // (m + 1)) for m in range(n_cells) if n_cells % (m + 1) == 0]
    for m, n_atoms in shapes or [(0, 0), (2, 0)]:
        cells = oracle._cells(m, n_atoms, lut)
        assert [len(state) for state in cells] == [n_atoms] * (m + 1)
        shape = np.broadcast_shapes(*(c.shape for state in cells for c in state))
        assert int(np.prod(shape)) == base**n_cells
        flat = [np.broadcast_to(c, shape).ravel() for state in cells for c in state]
        assert all(c.dtype == np.uint8 for c in flat)
        for r in range(base**n_cells):
            digits = [r // base ** (n_cells - 1 - i) % base for i in range(n_cells)]
            expected = [int(order[d]) for d in digits]
            assert [int(c[r]) for c in flat] == expected, (m, n_atoms, r)
            nu = oracle._row_interpretation(ATOMS5[:n_atoms], m, lut, r)
            assert [int(v) for state in nu.values for v in state] == expected


def assert_walk_matches_eval3(kb: KnowledgeBase) -> None:
    """The oracle's walk over the node table gives eval3's value of
    every formula at every row and state.  eval3 reads the formulas as
    written, F, G and -> by their own clauses, so this also checks how
    the table rewrites them."""
    table, roots = kb.table
    atoms, m = kb.atoms(), kb.trace_length_m
    _, cells, mask = oracle._model_space(kb, cell_cap=(m + 1) * len(atoms))
    values = {}
    for node, got in oracle._walk(table, cells):
        assert len(got) == m + 1
        # Every state's values broadcast over the whole space.
        flat = [np.broadcast_to(v, mask.shape).ravel() for v in got]
        # A root is an edge: a negated one reads its node's values as 2 - v.
        for root in roots:
            if root >> 1 == node:
                values[root] = [2 - v if root & 1 else v for v in flat]
    for row in range(mask.size):
        nu = oracle._row_interpretation(atoms, m, oracle._LUT3, row)
        for root, f in zip(roots, kb.formulas):
            expected = [int(eval3(nu, s, f, kb.g_mode)) for s in range(m + 1)]
            assert [int(v[row]) for v in values[root]] == expected, (f, row)


@pytest.mark.parametrize("seed", range(40))
def test_eval_vec_matches_eval3_at_every_row_and_state(seed):
    rng = random.Random(seed)
    atoms = ATOMS[: rng.randint(1, 3)]
    m = rng.randint(0, 8 // len(atoms) - 1)
    formulas = [random_pool_formula(rng, atoms, derived=True) for _ in range(3)]
    for mode in GMode:
        assert_walk_matches_eval3(
            KnowledgeBase(formulas, m, g_mode=mode, allow_short_trace=True)
        )


def test_table_walk_matches_eval3_on_a_shared_operand():
    kb = KnowledgeBase.of("G (a | X b)", "F (a & b)", m=2, g_mode=GMode.REFLEXIVE)
    table, _ = kb.table
    # The reflexive G reads its operand in the conjunction and, negated,
    # under the until.  The operand a | X b is !(!a & !X b): edges are
    # 2 * node + negated.
    operand = table.index(("&", 1, 2 * table.index(("X", 2, -1)) + 1))
    assert sum(operand in (x >> 1, y >> 1) for op, x, y in table if op != "atom") == 2
    assert_walk_matches_eval3(kb)


def test_table_walk_matches_eval3_on_two_formulas_with_one_root():
    kb = KnowledgeBase.of("a -> X b", "(! a) | X b", "b U (! a)", m=2)
    _, roots = kb.table
    assert roots[0] == roots[1]
    assert_walk_matches_eval3(kb)


def interpretations(kb: KnowledgeBase):
    """Every interpretation of the base's signature, one at a time, in
    the documented order: cells state major, atoms sorted, 0 < 1 < B."""
    atoms, m = kb.atoms(), kb.trace_length_m
    order = (TruthValue3.FALSE, TruthValue3.TRUE, TruthValue3.BOTH)
    for cells in itertools.product(order, repeat=(m + 1) * len(atoms)):
        yield Interpretation3(
            atoms=atoms,
            values=tuple(
                cells[s * len(atoms) : (s + 1) * len(atoms)] for s in range(m + 1)
            ),
        )


def reference_min_cost(kb: KnowledgeBase, cost: str):
    """The first model of minimal cost, one interpretation at a time."""
    count = {
        "affected_states": lambda nu: len(affected_states(nu)),
        "conflict_base": lambda nu: len(conflict_base(nu)),
        "b_atoms": lambda nu: len({atom for _, atom in conflict_base(nu)}),
    }[cost]
    best = (float("inf"), None)
    for nu in interpretations(kb):
        if satisfies3(nu, kb) and count(nu) < best[0]:
            best = (count(nu), nu)
    return best


def reference_minimal_conflicts(kb: KnowledgeBase):
    """The least affected-state count, the inclusion-minimal distinct
    conflict bases of the models of that count, shortest first and then
    by their sorted cells, the raw number of those models and the first
    of them, one interpretation at a time."""
    best, models = float("inf"), []
    for nu in interpretations(kb):
        if not satisfies3(nu, kb):
            continue
        cost = len(affected_states(nu))
        if cost < best:
            best, models = cost, []
        if cost == best:
            models.append(nu)
    found = {conflict_base(nu) for nu in models}
    minimal = [b for b in found if not any(other < b for other in found)]
    minimal.sort(key=lambda b: (len(b), sorted(b)))
    bases = tuple(tuple(sorted(b)) for b in minimal)
    return best, bases, len(models), models[0] if models else None


@pytest.mark.parametrize("seed", range(60))
def test_min_costs_match_one_model_at_a_time(seed):
    make = clashing_base if seed % 2 else random_base
    kb = make(seed + 1000, max_cells=6)
    got = oracle_min_costs(kb, COSTS)
    for cost in COSTS:
        assert got[cost] == reference_min_cost(kb, cost), cost


@pytest.mark.parametrize("seed", range(60))
def test_shared_enumeration_equals_one_enumeration_per_cost(seed):
    kb = random_base(seed)
    together = oracle_min_costs(kb, COSTS)
    assert list(together) == list(COSTS)
    for cost in COSTS:
        assert together[cost] == oracle_min_cost(kb, cost)
    assert oracle_min_costs(kb, COSTS[::-1]) == together


def test_a_base_without_atoms_is_one_point_however_long_the_trace():
    # One axis per state would pass numpy's limit on axes here.
    kb = KnowledgeBase.of("true", "! (X false)", m=100)
    empty = Interpretation3(atoms=(), values=((),) * 101)
    assert oracle_min_costs(kb, COSTS) == dict.fromkeys(COSTS, (0, empty))
    assert oracle_root_vectors(kb) == {0b11}
    assert oracle_min_cost(kb.extended([FALSE]), "conflict_base") == (float("inf"), None)


def test_min_costs_errors_match_the_single_cost_call():
    kb = KnowledgeBase.of("G a", "G (! a)", m=3)
    with pytest.raises(ValueError, match="unknown cost kind"):
        oracle_min_costs(kb, ("affected_states", "cells"))
    with pytest.raises(ValueError, match="unknown cost kind"):
        oracle_min_cost(kb, "cells")
    with pytest.raises(OracleCapExceeded):
        oracle_min_costs(kb, COSTS, cell_cap=3)


@pytest.mark.parametrize(
    "ids", [MEASURE_IDS, ("LTL_c",), ("c", "LTL_d"), ("d", "MI")], ids=str
)
def test_run_measures_enumerates_the_three_valued_space_at_most_once(
    monkeypatch, ids
):
    calls = []
    original = oracle._model_space

    def counting(kb, *, cell_cap):
        calls.append(kb)
        return original(kb, cell_cap=cell_cap)

    monkeypatch.setattr(oracle, "_model_space", counting)
    kb = KnowledgeBase.of("G a", "G (! a)", "F (a & X a)", m=3)
    run_measures(kb, ids, use_oracle=True)
    wants_cost = any(mid in ("c", "LTL_d", "LTL_c") for mid in ids)
    assert len(calls) == (1 if wants_cost else 0)


def conflict_base_case(seed: int) -> KnowledgeBase:
    make = random_base if seed % 3 == 0 else clashing_base
    return make(seed + 4000, max_cells=6)


@pytest.mark.parametrize("seed", range(90))
def test_minimal_conflicts_match_one_model_at_a_time(seed):
    kb = conflict_base_case(seed)
    best, bases, raw, witness = reference_minimal_conflicts(kb)
    if best == float("inf"):
        with pytest.raises(ValueError, match="no admissible"):
            oracle_minimal_conflict_bases(kb)
    elif best == 0:
        with pytest.raises(ValueError, match="classically consistent"):
            oracle._minimal_conflicts(kb)
    else:
        assert oracle_minimal_conflict_bases(kb) == (best, bases, raw)
        assert oracle._minimal_conflicts(kb) == (best, bases, raw, witness)


def test_the_conflict_base_cases_cover_every_outcome():
    kinds = set()
    for seed in range(90):
        kb = conflict_base_case(seed)
        best, bases, raw, _ = reference_minimal_conflicts(kb)
        kinds.add("no atoms" if not kb.atoms() else "atoms")
        kinds.add({float("inf"): "no model", 0: "consistent"}.get(best, "conflict"))
        if best not in (0, float("inf")):
            kinds.add("ground cells" if kb.ground_cells else "no ground cells")
            kinds.add("several bases" if len(bases) > 1 else "one base")
            kinds.add(
                "non-minimal models" if raw > len(bases) else "one model per base"
            )
    assert kinds == {
        "no atoms", "atoms", "no model", "consistent", "conflict", "ground cells",
        "no ground cells", "several bases", "one base", "non-minimal models",
        "one model per base",
    }


def test_the_oracle_materializes_no_grid_of_the_space():
    # 13 cells: a (13, 3 ** 13) grid of ordinals alone would take 20 MB.
    kb = KnowledgeBase.of("a", "G (a -> X !a)", "F (a & !a)", "G (a | X a)", m=12)
    kb.table
    tracemalloc.start()
    try:
        got = oracle_min_costs(kb, COSTS, cell_cap=13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert {cost: value for cost, (value, _) in got.items()} == dict.fromkeys(COSTS, 1)
    assert peak < 16 << 20


def test_oracle_conflict_bases_match_the_search():
    checked = 0
    for seed in range(120):
        kb = clashing_base(seed + 500)
        if oracle_min_cost(kb, "affected_states")[0] == float("inf"):
            continue
        summary = count_min_conflict_signatures(kb)
        got_best, bases, _ = oracle_minimal_conflict_bases(kb)
        assert (got_best, bases) == (summary.min_affected, summary.bases), seed
        checked += 1
    assert checked >= 50
