import itertools
import random

import pytest

import ltlim.formula
import ltlim.measures
import ltlim.solver
from ltlim.formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    FalseConst,
    Finally,
    Formula,
    GMode,
    Globally,
    Implies,
    KnowledgeBase,
    Next,
    Not,
    Or,
    TrueConst,
    Until,
    _compile,
)
from ltlim.generators import random_kb
from ltlim.declare import load_declare, translate_model
from ltlim.measures import MEASURE_IDS, run_measures
from ltlim.oracle import oracle_min_cost, oracle_minimal_conflict_bases, oracle_root_vectors
from ltlim.postulates import Postulate, sweep
from ltlim.search import _evaluate
from ltlim.semantics import SignatureMismatchError, TruthValue3, eval3, satisfies3
from ltlim.solver import (
    DEFAULT_NODE_BUDGET,
    Budget,
    BudgetExceededError,
    CostMode,
    _STATE_CHOICES,
    count_min_conflict_signatures,
    decide_upper,
    is_satisfiable,
    min_glut_atoms,
    min_glut_states,
    minimize,
    root_vectors,
)
from test_formula import read_back, table_formulas
from test_semantics import random_interpretation

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
    full = (1 << len(kb.formulas)) - 1
    assert decide_upper(kb, 0, CostMode.CONFLICT_BASE).found == (full in oracle_root_vectors(kb))


# The oracle's cost kinds: the search's two cost modes, and the glut
# atoms of c, which the glut-fixed passes count.  The case ids name each
# kind as a cost mode, c's as the mode the search once had for it.
COST_KINDS = pytest.mark.parametrize(
    "cost",
    ["affected_states", "conflict_base", "b_atoms"],
    ids=lambda cost: f"CostMode.{cost.upper()}",
)


@pytest.mark.parametrize("seed", range(60))
@COST_KINDS
def test_minimize_matches_oracle(seed, cost):
    kb = small_kb(seed + 1000)
    expected, _ = oracle_min_cost(kb, cost)
    if cost == "b_atoms":
        assert min_glut_atoms(kb) == expected
        return
    summary = minimize(kb, CostMode(cost))
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


def glut_sets_succeed(kb: KnowledgeBase) -> list[bool]:
    """For each k, whether some k atoms held at B leave the base
    satisfiable."""
    atoms = range(len(kb.atoms()))
    return [
        any(
            is_satisfiable(kb, glut=sum(1 << atom for atom in chosen))
            for chosen in itertools.combinations(atoms, size)
        )
        for size in range(len(atoms) + 1)
    ]


def test_b_atoms_bound_controls_how_many_atoms_may_glut():
    kb = KnowledgeBase.of("(a & (! a)) & b", "! b", m=2)
    assert [is_satisfiable(kb, glut=glut) for glut in range(4)] == [
        False, False, False, True
    ]
    assert glut_sets_succeed(kb) == [False, False, True]
    assert min_glut_atoms(kb) == oracle_min_cost(kb, "b_atoms")[0] == 2


@pytest.mark.parametrize("seed", range(40))
def test_b_atoms_reachability_matches_oracle(seed):
    kb = small_kb(seed + 3000)
    best, _ = oracle_min_cost(kb, "b_atoms")
    answers = glut_sets_succeed(kb)
    assert answers == [k >= best for k in range(len(answers))]


def grounded_outside(kb: KnowledgeBase, glut: int) -> KnowledgeBase:
    """The base with every cell of the atoms outside ``glut`` ground."""
    return KnowledgeBase(
        formulas=kb.formulas,
        trace_length_m=kb.trace_length_m,
        g_mode=kb.g_mode,
        ground_cells=kb.ground_cells | {
            (state, name)
            for atom, name in enumerate(kb.atoms())
            if not glut >> atom & 1
            for state in range(kb.trace_length_m + 1)
        },
        allow_short_trace=kb.allow_short_trace,
    )


@pytest.mark.parametrize("seed", range(40))
def test_glut_passes_decide_like_the_search_on_longer_traces(seed):
    # Beyond the oracle's cell cap: a glut set leaves the base
    # satisfiable iff the search finds a model whose B cells all belong
    # to atoms of the set.
    rng = random.Random(seed)
    atoms = ATOMS[: rng.randint(1, 3)]
    m = rng.randint(2, 8)
    g_mode = rng.choice(list(GMode))
    drawn = random_kb(
        rng, atoms=atoms, m=m, max_formulas=3, max_depth=3, g_mode=g_mode,
        allow_constants=True,
    )
    ground = {(rng.randint(0, m), rng.choice(atoms)) for _ in range(rng.randint(0, 3))}
    kb = KnowledgeBase(
        formulas=drawn.formulas, trace_length_m=m, g_mode=g_mode,
        ground_cells=frozenset(ground),
    )
    cells = (m + 1) * len(kb.atoms())
    for glut in range(1 << len(kb.atoms())):
        found = decide_upper(grounded_outside(kb, glut), cells, CostMode.CONFLICT_BASE).found
        assert is_satisfiable(kb, glut=glut) == found, glut


@pytest.mark.parametrize("seed", range(60))
def test_bound_zero_is_classical_satisfiability_in_every_mode(seed):
    kb = small_kb(seed)
    expected = decide_upper(kb, 0, CostMode.CONFLICT_BASE)
    for mode in CostMode:
        result = decide_upper(kb, 0, mode)
        assert (result.found, result.witness) == (expected.found, expected.witness)


def test_budget_is_enforced():
    kb = KnowledgeBase.of("G a", "G (! a)", "G b", "G (! b)", m=4)
    with pytest.raises(BudgetExceededError) as exc:
        minimize(kb, CostMode.CONFLICT_BASE, budget=10)
    assert exc.value.budget == 10
    assert exc.value.nodes >= 10


def test_a_search_refuses_a_grid_larger_than_the_account_has_left():
    # Eight cells; the search decides after a few nodes, but keeps
    # entries per cell, so an account with less left refuses it.
    kb = KnowledgeBase.of("a", "b", m=3)
    assert decide_upper(kb, 0, CostMode.CONFLICT_BASE, budget=8).found
    with pytest.raises(BudgetExceededError) as exc:
        decide_upper(kb, 0, CostMode.CONFLICT_BASE, budget=7)
    assert (exc.value.budget, exc.value.nodes) == (7, 8)
    account = Budget(10)
    account.spent = 3
    with pytest.raises(BudgetExceededError) as exc:
        minimize(kb, CostMode.AFFECTED_STATES, budget=account)
    assert (exc.value.budget, exc.value.nodes) == (10, 11)


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


def test_signature_count_drops_the_bases_of_costlier_models():
    # The search meets a = 1 first, which blurs b at t1 and t2; the
    # cheaper models it meets later blur only a at t0 or b at t3.
    kb = KnowledgeBase.of(
        "a -> (X (b & ! b) & X X (b & ! b))", "! a -> X X X (b & ! b)", m=3
    )
    summary = count_min_conflict_signatures(kb)
    assert summary.bases == (((0, "a"),), ((3, "b"),))
    assert (summary.min_affected, summary.bases) == oracle_minimal_conflict_bases(kb)[:2]
    assert summary.witness == minimize(kb, CostMode.AFFECTED_STATES).witness


def test_signature_count_rejects_consistent_base():
    with pytest.raises(ValueError):
        count_min_conflict_signatures(KnowledgeBase.of("a", m=2))


def test_signature_count_rejects_unreachable_base():
    with pytest.raises(ValueError):
        count_min_conflict_signatures(KnowledgeBase.of("X X X a", m=2))


# The per-state evaluator that the bitset kernel replaced, kept as its
# reference.  A value set is a mask over {0, B, 1}: bit 0 = value 0,
# bit 1 = B, bit 2 = 1, and connectives act on masks through tables
# built from min, max and 2 - v.
_MASK_F = 1
_MASK_B = 2
_MASK_T = 4


def _build_tables() -> tuple[list[int], list[list[int]], list[list[int]]]:
    def values(mask: int) -> list[int]:
        return [v for v in (0, 1, 2) if mask & (1 << v)]

    neg = [0] * 8
    conj = [[0] * 8 for _ in range(8)]
    disj = [[0] * 8 for _ in range(8)]
    for p in range(8):
        for v in values(p):
            neg[p] |= 1 << (2 - v)
        for q in range(8):
            for v in values(p):
                for w in values(q):
                    conj[p][q] |= 1 << min(v, w)
                    disj[p][q] |= 1 << max(v, w)
    return neg, conj, disj


_NEG, _CONJ, _DISJ = _build_tables()


def _abstract_eval(
    formula: Formula,
    cell_masks: dict[str, list[int]],
    m: int,
    memo: dict[int, list[int]],
) -> list[int]:
    """Per-state achievable-value masks for a core formula."""
    key = id(formula)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(formula, TrueConst):
        result = [_MASK_T] * (m + 1)
    elif isinstance(formula, FalseConst):
        result = [_MASK_F] * (m + 1)
    elif isinstance(formula, Atom):
        result = cell_masks[formula.name]
    elif isinstance(formula, Not):
        inner = _abstract_eval(formula.operand, cell_masks, m, memo)
        result = [_NEG[mask] for mask in inner]
    elif isinstance(formula, And):
        left = _abstract_eval(formula.left, cell_masks, m, memo)
        right = _abstract_eval(formula.right, cell_masks, m, memo)
        result = [_CONJ[l][r] for l, r in zip(left, right)]
    elif isinstance(formula, Or):
        left = _abstract_eval(formula.left, cell_masks, m, memo)
        right = _abstract_eval(formula.right, cell_masks, m, memo)
        result = [_DISJ[l][r] for l, r in zip(left, right)]
    elif isinstance(formula, Next):
        inner = _abstract_eval(formula.operand, cell_masks, m, memo)
        result = inner[1:] + [_MASK_F]
    elif isinstance(formula, Until):
        left = _abstract_eval(formula.left, cell_masks, m, memo)
        right = _abstract_eval(formula.right, cell_masks, m, memo)
        result = [0] * (m + 1)
        result[m] = _MASK_F
        for i in range(m - 1, -1, -1):
            result[i] = _CONJ[left[i]][_DISJ[right[i + 1]][result[i + 1]]]
    else:
        raise TypeError(f"not a core formula node: {formula!r}")
    memo[key] = result
    return result


ATOMS = ("a", "b", "c")


def random_core_formulas(rng: random.Random, atoms: tuple[str, ...]) -> list[Formula]:
    """Core formulas drawn from a growing pool, so that subformulas
    repeat, both as shared objects and as equal copies."""
    pool: list[Formula] = [Atom(a) for a in atoms] + [TRUE, FALSE]
    for _ in range(rng.randint(1, 14)):
        kind = rng.choice((Not, Next, And, Or, Until, Until))
        if kind in (Not, Next):
            pool.append(kind(rng.choice(pool)))
        else:
            pool.append(kind(rng.choice(pool), rng.choice(pool)))
    return [rng.choice(pool) for _ in range(rng.randint(1, 4))]


def kernel_sets(table, leaf_masks: dict[str, list[int]], m: int):
    """Run the kernel with the atom leaves set from per-state masks, and
    return the can-be-0, can-be-B and can-be-1 bitsets of every edge.

    The kernel keeps state t_s at bit m - s of each bitset.
    """
    f, b = [0] * (2 * len(table)), [0] * len(table)
    for atom, name in enumerate(ATOMS):
        for state, mask in enumerate(leaf_masks[name]):
            f[2 * atom] |= (mask & _MASK_F) << (m - state)
            b[atom] |= ((mask & _MASK_B) >> 1) << (m - state)
            f[2 * atom + 1] |= ((mask & _MASK_T) >> 2) << (m - state)
    _evaluate(table, range(len(ATOMS), len(table)), f, b, m)
    return f, [b[edge >> 1] for edge in range(len(f))], [f[edge ^ 1] for edge in range(len(f))]


@pytest.mark.parametrize("seed", range(260))
def test_bitset_kernel_matches_the_per_state_reference(seed):
    check_kernel_against_the_reference(seed, seed % 13)


# Long traces carry U's addition across the 30-bit digits of CPython's
# ints, and leaves that hold one mask over runs of states make chains
# that span several digits.
@pytest.mark.parametrize("m", [29, 30, 31, 32, 59, 60, 61, 63, 64, 100])
@pytest.mark.parametrize("run", [1, 24])
@pytest.mark.parametrize("seed", range(4))
def test_bitset_kernel_matches_the_per_state_reference_on_long_traces(seed, run, m):
    check_kernel_against_the_reference(seed, m, run)


def check_kernel_against_the_reference(seed: int, m: int, run: int = 1) -> None:
    """Compare the kernel with the per-state reference on random leaf
    masks, each drawn once per ``run`` consecutive states."""
    rng = random.Random(seed)
    formulas = random_core_formulas(rng, ATOMS[: rng.randint(1, 3)])
    table, roots = _compile(tuple(formulas), ATOMS)
    rebuilt = table_formulas(table)
    assert [rebuilt[root] for root in roots] == [read_back(f) for f in formulas]
    assert len(set(table)) == len(table)

    leaf_masks = {}
    for a in ATOMS:
        draws = [rng.randint(1, 7) for _ in range(m // run + 1)]
        leaf_masks[a] = [draws[s // run] for s in range(m + 1)]
    f, b, t = kernel_sets(table, leaf_masks, m)
    memo: dict[int, list[int]] = {}
    for edge, formula in enumerate(rebuilt):
        expected = _abstract_eval(formula, leaf_masks, m, memo)
        got = [
            (f[edge] >> (m - s) & 1)
            | (b[edge] >> (m - s) & 1) << 1
            | (t[edge] >> (m - s) & 1) << 2
            for s in range(m + 1)
        ]
        assert got == expected, (edge, table[edge >> 1])
        assert max(f[edge], b[edge], t[edge]) < 1 << (m + 1)

    nu = random_interpretation(rng, ATOMS, m)
    singletons = {
        a: [1 << int(nu.value(s, a)) for s in range(m + 1)] for a in ATOMS
    }
    f, b, t = kernel_sets(table, singletons, m)
    planes = {TruthValue3.FALSE: f, TruthValue3.BOTH: b, TruthValue3.TRUE: t}
    for root, formula in zip(roots, formulas):
        for s in range(m + 1):
            values = {v for v, plane in planes.items() if plane[root] >> (m - s) & 1}
            assert values == {eval3(nu, s, formula)}


class CheckedSearch(ltlim.solver._Search):
    """A search that checks, after every status, each node's value sets
    against an evaluation of the whole table from the atom leaves."""

    statuses = 0

    def _status(self) -> str:
        status = super()._status()
        f, b = list(self.f), list(self.b)
        _evaluate(self.table, range(len(self.atoms), len(self.table)), f, b, self.m)
        assert (f, b) == (self.f, self.b), self.nodes
        self.statuses += 1
        return status


def run_checked(kb: KnowledgeBase, mode: CostMode, bound: int, collect_bases: bool) -> int:
    """Run a checked search as far as a small budget allows; returns the
    number of statuses checked."""
    search = CheckedSearch(
        kb, cost_mode=mode, max_cost=bound, budget=400, collect_bases=collect_bases
    )
    try:
        search.run()
    except BudgetExceededError:
        pass
    assert search.statuses == min(search.nodes, 400)
    return search.statuses


@pytest.mark.parametrize("seed", range(40))
@COST_KINDS
def test_incremental_evaluation_equals_a_full_one(seed, cost):
    kb = pass_kb(seed)
    if cost == "b_atoms":
        # The search as the glut passes are checked against it: on the
        # base with every cell outside the first atom ground.
        kb, mode = grounded_outside(kb, 1), CostMode.CONFLICT_BASE
    else:
        mode = CostMode(cost)
    checked = 0
    for bound in (0, 1, 3):
        for collect_bases in (False, True):
            checked += run_checked(kb, mode, bound, collect_bases)
    assert checked >= 6


def test_the_incremental_check_catches_an_atom_missing_from_a_mask(monkeypatch):
    kb = KnowledgeBase.of("X a", "b", m=2)
    below = list(kb.atoms_below)
    _, (next_edge, _) = kb.table
    assert below[next_edge >> 1] == 0b01
    below[next_edge >> 1] = 0
    monkeypatch.setattr(KnowledgeBase, "atoms_below", property(lambda _: below))
    with pytest.raises(AssertionError):
        run_checked(kb, CostMode.CONFLICT_BASE, 0, False)


def recorded_runs(monkeypatch) -> list[int]:
    """The nodes of every call of ``_Search.run`` from now on, in order."""
    runs = []
    real = ltlim.solver._Search.run

    def run(search):
        before = search.nodes
        try:
            return real(search)
        finally:
            runs.append(search.nodes - before)

    monkeypatch.setattr(ltlim.solver._Search, "run", run)
    return runs


def test_each_base_compiles_once(monkeypatch):
    compiled = []

    def counted(formulas, atoms, g_mode, order=None):
        compiled.append(formulas)
        return _compile(formulas, atoms, g_mode, order)

    monkeypatch.setattr(ltlim.formula, "_compile", counted)
    runs = recorded_runs(monkeypatch)
    kb = KnowledgeBase.of("G a", "G (! a)", "F (a & X b)", "b | X a", m=3)
    run_measures(kb)
    assert len(runs) > 3
    assert compiled == [kb.formulas]
    runs.clear()
    clash = KnowledgeBase.of("G a", "G (! a)", "G b", m=3)
    count_min_conflict_signatures(clash)
    assert len(runs) > 1
    assert compiled == [kb.formulas, clash.formulas]


def test_compile_walks_deep_formulas_without_recursion():
    deep: Formula = Atom("a")
    for _ in range(20_000):
        deep = Not(Next(deep))
    table, roots = _compile((deep, Atom("a")), ("a",))
    # The atom and 20,000 X nodes; each negation is the bit of an edge.
    assert len(table) == 20_001
    assert roots == [2 * 20_000 + 1, 0]


def test_compile_expands_derived_connectives_and_rejects_foreign_atoms():
    a = Atom("a")
    always = Not(Until(TRUE, Not(a)))
    for mode, derived, core in [
        (GMode.STRICT, Finally(a), Until(TRUE, a)),
        (GMode.STRICT, Globally(a), always),
        (GMode.REFLEXIVE, Globally(a), And(a, always)),
        # !true reads back as false.
        (GMode.STRICT, Implies(TRUE, a), Or(FALSE, a)),
    ]:
        table, roots = _compile((And(a, derived),), ("a",), mode)
        assert table_formulas(table)[roots[0]] == And(a, core)
    with pytest.raises(SignatureMismatchError):
        _compile((Or(Atom("a"), Atom("z")),), ("a",))


@pytest.mark.parametrize("seed", range(40))
def test_the_table_holds_five_opcodes_and_negation_lives_on_edges(seed):
    kb = pass_kb(seed)
    table, roots = kb.table
    assert {op for op, _, _ in table} <= {"atom", "true", "&", "X", "U"}
    # Every child and root is an edge, 2 * node + negated, to an earlier node.
    for node, (op, x, y) in enumerate(table):
        if op in ("&", "X", "U"):
            assert all(edge >> 1 < node for edge in (x, y) if edge >= 0)
    assert all(root >> 1 < len(table) for root in roots)


def test_double_negation_and_de_morgan_share_nodes():
    kb = KnowledgeBase.of("X !!a", "X a", "a | b", "!(!a & !b)", m=2)
    table, roots = kb.table
    assert roots[0] == roots[1] and roots[2] == roots[3]
    assert [op for op, _, _ in table].count("X") == 1
    assert [op for op, _, _ in table].count("&") == 1
    assert table[roots[2] >> 1] == ("&", 1, 3) and roots[2] & 1


def test_oracle_root_vectors_equal_the_pass():
    small = [pass_kb(seed) for seed in range(80)]
    small = [kb for kb in small if (kb.trace_length_m + 1) * len(kb.atoms()) <= 12]
    assert len(small) >= 40
    rng = random.Random(64)
    many: dict[Formula, None] = {}
    while len(many) < 70:
        many.update(dict.fromkeys(random_core_formulas(rng, ("a", "b"))))
    wide = KnowledgeBase(tuple(many), 2)
    for kb in small + [
        KnowledgeBase.of("true", "X false", "!(true U true)", m=3),
        KnowledgeBase((), 3),
        wide,
    ]:
        assert oracle_root_vectors(kb) == root_vectors(kb), kb
    # Past 64 formulas a vector spans two words, and both vary.
    vectors = oracle_root_vectors(wide)
    assert len({v >> 64 for v in vectors}) > 1 and len({v & (1 << 64) - 1 for v in vectors}) > 1


def pass_kb(seed: int) -> KnowledgeBase:
    """A base over 1-3 atoms at m = 0..6, under either G reading, with
    constants and ground cells, whose last two formulas share one core
    root (an implication is expanded to the disjunction beside it)."""
    rng = random.Random(seed)
    atoms = ATOMS[: rng.randint(1, 3)]
    m = rng.randint(0, 6)
    g_mode = rng.choice(list(GMode))
    drawn = random_kb(
        rng, atoms=atoms, m=2, max_formulas=3, max_depth=3, g_mode=g_mode,
        allow_constants=True,
    ).formulas
    left, right = rng.choice(drawn), rng.choice(drawn)
    ground = {(rng.randint(0, m), rng.choice(atoms)) for _ in range(rng.randint(0, 2))}
    return KnowledgeBase(
        formulas=drawn + (Implies(left, right), Or(Not(left), right)),
        trace_length_m=m,
        g_mode=g_mode,
        ground_cells=frozenset(ground),
        allow_short_trace=True,
    )


def fresh_pass(kb: KnowledgeBase) -> tuple[frozenset[int], int]:
    """The root vectors of a base and the work a fresh account paid."""
    account = Budget(DEFAULT_NODE_BUDGET)
    vectors = root_vectors(kb, budget=account)
    return vectors, account.spent


@pytest.mark.parametrize("seed", range(80))
def test_root_vectors_decide_every_subset_like_the_search(seed):
    kb = pass_kb(seed)
    vectors, work = fresh_pass(kb)
    assert work >= (kb.trace_length_m + 1) << len(kb.atoms())
    n = len(kb.formulas)
    small = (kb.trace_length_m + 1) * len(kb.atoms()) <= 12
    for mask in range(1 << n):
        subset = kb.replace_formulas(f for i, f in enumerate(kb.formulas) if mask >> i & 1)
        expected = decide_upper(subset, 0, CostMode.CONFLICT_BASE).found
        assert any(v & mask == mask for v in vectors) == expected, mask
        if small:
            full = (1 << len(subset.formulas)) - 1
            assert (full in oracle_root_vectors(subset)) == expected, mask
    if small:
        ids = ("d", "MI", "p", "r", "at")
        assert run_measures(kb, ids).values == run_measures(kb, ids, use_oracle=True).values


def test_the_subset_measures_run_one_pass_and_no_search(monkeypatch):
    passes = []
    real = ltlim.solver._root_pass

    def counted(kb, choices, budget):
        passes.append(kb)
        return real(kb, choices, budget)

    def no_search(*args, **kwargs):
        raise AssertionError("a backtracking search was started")

    monkeypatch.setattr(ltlim.solver, "_root_pass", counted)
    monkeypatch.setattr(ltlim.solver, "_Search", no_search)
    kb = KnowledgeBase.of("a", "! a", "b", "(! b) & c & d", "(! a) | (! b)", m=3)
    run = run_measures(kb, ("d", "MI", "p", "r", "at"))
    assert run.values == {"d": 1, "MI": 3, "p": 5, "r": 2, "at": 4}
    assert len(passes) == 1
    assert run.nodes == 4 * (1 << 4)


def test_a_run_charges_its_pass_once_and_every_search_node(monkeypatch):
    searched = recorded_runs(monkeypatch)
    # d, MI, c and each minimisation of LTL_d and LTL_c read the
    # classical pass; c then runs the pass that holds a at B.
    kb = KnowledgeBase.of("G a", "G (! a)", "F (a & X b)", "b | X a", m=3)
    _, work = fresh_pass(kb)
    glutted, state_pass = Budget(DEFAULT_NODE_BUDGET), Budget(DEFAULT_NODE_BUDGET)
    root_vectors(kb, glut=0b01, budget=glutted)
    assert min_glut_states(kb, budget=state_pass) == 3
    assert (work, glutted.spent, state_pass.spent) == (124, 22, 310)
    run = run_measures(kb)
    assert run.values["d"] == 1 and run.values["c"] == 1
    assert run.values["LTL_d"] == run.values["LTL_c"] == 3
    # Each minimisation stops its search at the first witness, then
    # resumes it down to its floor, LTL_d from the state pass, which
    # LTL_d runs and LTL_c reads back.
    assert len(searched) == 2 * run.probes > 3
    assert run.nodes == work + glutted.spent + state_pass.spent + sum(searched)


@pytest.mark.parametrize("parallel", [0, 1])
def test_root_vectors_do_not_depend_on_how_many_atoms_run_side_by_side(
    monkeypatch, parallel
):
    expected = [fresh_pass(pass_kb(seed)) for seed in range(40)]
    monkeypatch.setattr(ltlim.solver, "_PARALLEL_ATOMS", parallel)
    assert [fresh_pass(pass_kb(seed)) for seed in range(40)] == expected


def test_root_vectors_over_more_atoms_than_run_side_by_side(monkeypatch):
    atoms = [f"a{i:02d}" for i in range(12)]
    kb = KnowledgeBase.of(
        " & ".join(atoms[:6]),
        " | ".join(f"(X {a})" for a in atoms[6:]),
        f"G (! {atoms[11]})",
        f"(! {atoms[0]}) | F ({atoms[10]} & (! {atoms[9]}))",
        f"G ({atoms[9]} & {atoms[10]})",
        m=2,
    )
    vectors, work = fresh_pass(kb)
    assert work % (1 << 12) == 0

    def satisfiable(*indices):
        mask = sum(1 << i for i in indices)
        return any(v & mask == mask for v in vectors)

    # Once a00 holds, formula 3 needs a later state with a10 and not
    # a09, which formula 4 rules out.
    assert not satisfiable(0, 3, 4)
    assert satisfiable(0, 1, 2, 3) and satisfiable(1, 2, 3, 4) and satisfiable(0, 1, 2, 4)
    monkeypatch.setattr(ltlim.solver, "_PARALLEL_ATOMS", 12)
    assert fresh_pass(kb) == (vectors, work)


def test_root_vectors_refuse_a_wide_signature_before_evaluating():
    kb = KnowledgeBase.of(" & ".join(f"a{i:02d}" for i in range(40)), m=2)
    with pytest.raises(BudgetExceededError) as exc:
        root_vectors(kb)
    assert exc.value.nodes == 1 << 40


def test_root_vectors_stop_at_the_budget():
    kb = KnowledgeBase.of("G a", "G (! a)", m=3)
    with pytest.raises(BudgetExceededError) as exc:
        root_vectors(kb, budget=5)
    assert exc.value.budget == 5
    assert exc.value.nodes > 5


def pass_outcome(kb: KnowledgeBase, budget: int):
    try:
        return root_vectors(kb, budget=budget)
    except BudgetExceededError as exc:
        return exc.budget, exc.nodes


# For each seed of pass_kb: the work of the pass, and the nodes that
# BudgetExceededError reports at each budget below it, in the order of
# the budgets the next test tries.  A budget that t_m's first key fits
# but that is below m + 1 is refused at m + 1 before the pass starts
# (seed 8: m = 2, budget 2).
PASS_REFUSALS = {
    0: (72, [4, 4, 32, 44, 72]),
    8: (6, [2, 2, 3, 4, 6]),
    16: (28, [4, 4, 12, 16, 28]),
    24: (56, [8, 8, 24, 32, 56]),
    32: (6, [2, 2, 6, 6, 6]),
    40: (20, [4, 4, 8, 12, 20]),
    48: (216, [8, 8, 80, 160, 216]),
    56: (4, [4, 4, 4, 4]),
    64: (2, [2, 2]),
    72: (62, [2, 2, 24, 32, 62]),
}


@pytest.mark.parametrize("seed", sorted(PASS_REFUSALS))
def test_a_kept_pass_meets_every_budget_like_a_fresh_one(seed):
    kb = pass_kb(seed)
    work, refused = PASS_REFUSALS[seed]
    account = Budget(DEFAULT_NODE_BUDGET)
    vectors = root_vectors(kb, budget=account)
    assert account.spent == work
    # A second read within one account is the kept pass, charged nothing.
    assert root_vectors(kb, budget=account) is vectors
    assert account.spent == work
    # Every other budget opens a fresh account, which runs the pass again.
    budgets = sorted({0, 1, work // 3, work // 2, work - 1, work, work + 1})
    expected = list(zip(budgets, refused)) + [vectors] * (len(budgets) - len(refused))
    assert [pass_outcome(kb, budget) for budget in budgets] == expected


@pytest.mark.parametrize("seed", sorted(PASS_REFUSALS))
def test_a_shared_pass_is_charged_like_a_pass_run_afresh(monkeypatch, seed):
    kb = pass_kb(seed)
    work = PASS_REFUSALS[seed][0]
    owner = Budget(DEFAULT_NODE_BUDGET)
    vectors = root_vectors(kb, budget=owner)

    def read(total, spent, table):
        """The vectors and spent units of an account that has spent some
        units, finds the passes of ``table`` if one is given, and reads
        the pass twice, or None if it raises."""
        account = Budget(total)
        if table is not None:
            account.shared = table
        account.spent = spent
        try:
            root_vectors(kb, budget=account)
            return root_vectors(kb, budget=account), account.spent
        except BudgetExceededError as exc:
            assert exc.budget == total
            return None

    lefts = {0, 1, work // 3, work // 2, work - 1, work, work + 1}
    cases = [(spent + left, spent) for spent in (0, 3) for left in sorted(lefts)]
    afresh = [read(total, spent, None) for total, spent in cases]
    assert afresh == [
        (vectors, spent + work) if total - spent >= work else None for total, spent in cases
    ]

    def no_pass(*args):
        raise AssertionError("a shared pass ran again")

    # An account that finds the pass in its table is charged the same,
    # and raises at the same budgets, as one that runs it.
    monkeypatch.setattr(ltlim.solver, "_root_pass", no_pass)
    assert [read(total, spent, owner.shared) for total, spent in cases] == afresh


def reference_minimize(
    kb: KnowledgeBase,
    cost_mode: CostMode,
    *,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
) -> ltlim.solver.MinimizeResult:
    """Minimisation by binary search over the bound, probing halfway
    between the last refuted bound and the cost of the last witness: the
    search that stepping down from each witness replaced, kept as its
    reference."""
    budget = Budget.of(budget)
    start = budget.spent
    ceiling = kb.trace_length_m + 1
    if cost_mode is CostMode.CONFLICT_BASE:
        ceiling *= len(kb.atoms())
    model_cost = ltlim.solver._model_cost
    probes = 0

    def probe(bound: int):
        nonlocal probes
        probes += 1
        return ltlim.solver.decide_upper(kb, bound, cost_mode, budget=budget)

    first = probe(ceiling)
    if not first.found:
        return ltlim.solver.MinimizeResult(INF, None, budget.spent - start, probes)
    best = first.witness
    low, high = 0, model_cost(best, cost_mode)
    while low < high:
        mid = (low + high) // 2
        attempt = probe(mid)
        if attempt.found:
            best = attempt.witness
            high = model_cost(best, cost_mode)
        else:
            low = mid + 1
    return ltlim.solver.MinimizeResult(low, best, budget.spent - start, probes)


def minimize_kb(seed: int) -> KnowledgeBase:
    """A base of 1-3 formulas over 1-3 atoms at m = 2..7, under either G
    reading, with constants and up to two ground cells."""
    rng = random.Random(seed)
    atoms = ATOMS[: rng.randint(1, 3)]
    m = rng.randint(2, 7)
    g_mode = rng.choice(list(GMode))
    drawn = random_kb(
        rng, atoms=atoms, m=m, max_formulas=3, max_depth=3, g_mode=g_mode,
        allow_constants=True,
    )
    ground = {(rng.randint(0, m), rng.choice(atoms)) for _ in range(rng.randint(0, 2))}
    return KnowledgeBase(
        formulas=drawn.formulas,
        trace_length_m=m,
        g_mode=g_mode,
        ground_cells=frozenset(ground),
    )


def answer(minimise, kb: KnowledgeBase, mode: CostMode):
    """A minimisation's value and witness, or that the budget ran out."""
    try:
        result = minimise(kb, mode)
    except BudgetExceededError:
        return "budget"
    return result.value, result.witness


def signature_bases(kb: KnowledgeBase):
    """The least affected-state count, explain bases and witness of a
    base whose count is at least 1 and finite, None for any other base,
    or that the budget ran out."""
    try:
        summary = count_min_conflict_signatures(kb)
    except BudgetExceededError:
        return "budget"
    except ValueError:
        return None
    return summary.min_affected, summary.bases, summary.witness


class UncutSearch(ltlim.solver._Search):
    """A collecting walk without the cut and the backjump: it collects
    the base of every decided node within its bound, read off the
    assignment, and backtracks from each one cell at a time."""

    def _collect(self) -> int:
        self.bases.add(
            frozenset(
                (state, self.atoms[atom])
                for index, (state, atom) in enumerate(self.cells)
                if self.assignment[index] is TruthValue3.BOTH
            )
        )
        return self.depth - 1


def collecting_walk(search_class, kb: KnowledgeBase, bound: int):
    """A collecting affected-state walk at ``bound``, run to its end."""
    search = search_class(
        kb, cost_mode=CostMode.AFFECTED_STATES, max_cost=bound,
        budget=DEFAULT_NODE_BUDGET, collect_bases=True,
    )
    search.floor = -1
    search.run()
    return search


def minimal_bases(bases) -> set:
    return {b for b in bases if not any(other < b for other in bases)}


def reference_signature_bases(kb: KnowledgeBase):
    """:func:`signature_bases` by the reference: the value v and witness
    of ``reference_minimize``, and the bases of every decided node of an
    uncut collecting walk at bound v, all of which cost v."""
    mode = CostMode.AFFECTED_STATES
    try:
        least = reference_minimize(kb, mode)
        if least.value in (0, INF):
            return None
        search = collecting_walk(UncutSearch, kb, least.value)
    except BudgetExceededError:
        return "budget"
    ordered = tuple(
        tuple(sorted(b))
        for b in sorted(minimal_bases(search.bases), key=lambda b: (len(b), sorted(b)))
    )
    return least.value, ordered, least.witness


@pytest.mark.parametrize("g_mode", list(GMode), ids=lambda g: g.value)
def test_the_cut_walk_keeps_every_minimal_base_of_the_uncut_walk(g_mode):
    """At the least affected-state count, the cut walk collects some of
    the uncut walk's bases, all of its inclusion-minimal ones, and no
    other, in fewer nodes."""
    answered = dropped = cut_nodes = uncut_nodes = 0
    for seed in range(300):
        rng = random.Random(seed)
        kb = random_kb(
            rng, atoms=ATOMS[: rng.randint(1, 2)], m=rng.randint(2, 6), min_formulas=2,
            max_formulas=4, max_depth=3, g_mode=g_mode,
        )
        least = min_glut_states(kb)
        if least in (0, INF):
            continue
        cut = collecting_walk(ltlim.solver._Search, kb, least)
        uncut = collecting_walk(UncutSearch, kb, least)
        assert cut.bases <= uncut.bases, seed
        assert minimal_bases(cut.bases) == minimal_bases(uncut.bases), seed
        assert cut.nodes <= uncut.nodes, seed
        answered += 1
        dropped += cut.bases < uncut.bases
        cut_nodes += cut.nodes
        uncut_nodes += uncut.nodes
    assert answered >= 50 and dropped >= 20
    assert 2 * cut_nodes < uncut_nodes


def test_the_cut_keeps_a_base_that_shares_the_deepest_cell_of_one_collected():
    """Both minimal bases end at (t3, b).  The walk collects the one
    through (t2, a) first; the other holds (t3, b) but not (t2, a), so
    it contains no collected base and must not be cut.  The random
    bases above never have two minimal bases ending at one cell."""
    kb = KnowledgeBase.of("(X a & X !a) | (X X a & X X !a)", "X X X b", "X X X !b", m=4)
    summary = count_min_conflict_signatures(kb)
    assert summary.min_affected == 2
    assert summary.bases == (((1, "a"), (3, "b")), ((2, "a"), (3, "b")))
    cut = collecting_walk(ltlim.solver._Search, kb, 2)
    uncut = collecting_walk(UncutSearch, kb, 2)
    expected = set(map(frozenset, summary.bases))
    assert minimal_bases(cut.bases) == minimal_bases(uncut.bases) == expected


@pytest.mark.parametrize("block", range(12))
def test_minimize_matches_the_binary_search_reference(block):
    for seed in range(block * 40, block * 40 + 40):
        kb = minimize_kb(seed)
        for mode in CostMode:
            expected = answer(reference_minimize, kb, mode)
            assert answer(minimize, kb, mode) == expected, (seed, mode)
        assert signature_bases(kb) == reference_signature_bases(kb), seed


def recorded_searches(monkeypatch) -> list:
    """Every ``_Search`` that ``ltlim.solver`` starts from now on.  Each
    keeps the bound it started at, its value after each run, and the
    node count at its last witness."""
    searches = []

    class Recorded(ltlim.solver._Search):
        def __init__(self, kb, **kwargs):
            super().__init__(kb, **kwargs)
            self.bound, self.values = kwargs["max_cost"], []
            searches.append(self)

        def run(self):
            try:
                return super().run()
            finally:
                self.values.append(self.value)

        def _witness(self):
            self.met = self.nodes
            return super()._witness()

    monkeypatch.setattr(ltlim.solver, "_Search", Recorded)
    return searches


@pytest.mark.parametrize("block", range(12))
def test_minimize_refutes_only_at_one_below_the_value(monkeypatch, block):
    """One search per minimisation, resumed past its first witness down
    to a floor.  For affected states whose first witness costs 2 or more
    the floor is the state pass's LTL_d, the value, so the walk stops at
    its first witness of that cost and refutes nothing; conflict
    bases never start a state pass, so their floor is 1 and the only
    bound they refute is one below the value.  A second search, at bound
    0, runs only on a satisfiable base whose first witness costs more
    than 0, after the two-valued pass."""
    searches = recorded_searches(monkeypatch)
    passes, states = [], []

    def recorded_pass(kb, **kwargs):
        passes.append(kb)
        return is_satisfiable(kb, **kwargs)

    real = ltlim.solver._root_pass

    def recorded_states(kb, choices, budget):
        if choices == _STATE_CHOICES:
            states.append(kb)
        return real(kb, choices, budget)

    monkeypatch.setattr(ltlim.solver, "is_satisfiable", recorded_pass)
    monkeypatch.setattr(ltlim.solver, "_root_pass", recorded_states)
    for seed in range(block * 40, block * 40 + 40):
        kb = minimize_kb(seed)
        cells = (kb.trace_length_m + 1) * len(kb.atoms())
        for mode in CostMode:
            searches.clear()
            passes.clear()
            states.clear()
            result = minimize(kb, mode)
            bounds = [search.bound for search in searches]
            assert result.probes == len(searches), (seed, mode)
            first = searches[0]
            if result.value == INF or first.values[0] == 0:
                assert (bounds, passes, states) == ([cells], [], []), (seed, mode)
            elif result.value == 0:
                assert (bounds, passes, states) == ([cells, 0], [kb], []), (seed, mode)
            elif mode is CostMode.AFFECTED_STATES and first.values[0] >= 2:
                assert (bounds, passes, states) == ([cells], [kb], [kb]), (seed, mode)
                # The walk ends at the node of its witness.
                assert first.floor == result.value and first.met == first.nodes, (seed, mode)
            else:
                assert (bounds, passes, states) == ([cells], [kb], []), (seed, mode)
                assert first.floor == 1, (seed, mode)
                # Above 1 the walk refutes one below the value, exhausted.
                assert result.value == 1 or first.depth == -1, (seed, mode)


def resumed_kb(seed: int) -> KnowledgeBase:
    """A base of 2-4 formulas over 1-2 atoms at m = 3..8, under either G
    reading."""
    rng = random.Random(seed)
    return random_kb(
        rng, atoms=ATOMS[: rng.randint(1, 2)], m=rng.randint(3, 8), min_formulas=2,
        max_formulas=4, max_depth=3, g_mode=rng.choice(list(GMode)),
    )


@pytest.mark.parametrize("seed", [4629, 4863, 12384, 13266, 16786])
def test_an_affected_state_walk_stops_at_the_first_witness_of_its_floor(monkeypatch, seed):
    kb = resumed_kb(seed)
    mode = CostMode.AFFECTED_STATES
    expected = reference_minimize(kb, mode)
    cells = (kb.trace_length_m + 1) * len(kb.atoms())
    searches = recorded_searches(monkeypatch)
    result = minimize(kb, mode)
    assert (result.value, result.witness) == (expected.value, expected.witness)
    # The first witness costs more than the value, so the walk resumed
    # down to the state pass's floor, and stopped at a witness meeting it.
    (walk,) = searches
    assert walk.values[0] > walk.values[1] == walk.floor == result.value
    assert walk.met == walk.nodes
    # Resumed down to 1, as without the state pass, the walk returns the
    # same witness, then runs on to refute the value minus one.
    refuting = ltlim.solver._Search(
        kb, cost_mode=mode, max_cost=cells, budget=DEFAULT_NODE_BUDGET
    )
    refuting.run()
    refuting.floor = 1
    assert refuting.run() == result.witness
    assert refuting.depth == -1 and refuting.nodes > walk.nodes


def ltl_c_with_and_without_its_lower_bound(kb: KnowledgeBase) -> tuple[int, int]:
    """Assert that a run of every measure, which bounds LTL_c below by c
    and LTL_d, gives the value and witness that LTL_c alone does; return
    the units LTL_c charged in each run."""
    everything = run_measures(kb)
    before = run_measures(kb, MEASURE_IDS[:-1]).nodes
    alone = run_measures(kb, ("LTL_c",))
    assert everything.values["LTL_c"] == alone.values["LTL_c"], kb
    assert everything.witness_conflict == alone.witness_conflict, kb
    return everything.nodes - before, alone.nodes


@pytest.mark.parametrize("block", range(6))
def test_the_lower_bound_of_ltl_c_changes_nothing_but_nodes(block):
    grounded = set()
    for seed in range(block * 80, block * 80 + 80):
        kb = minimize_kb(seed)
        bounded, alone = ltl_c_with_and_without_its_lower_bound(kb)
        assert bounded <= alone, seed
        grounded.add(bool(kb.ground_cells))
    assert grounded == {False, True}


def test_the_lower_bound_of_ltl_c_changes_nothing_but_nodes_on_declare_models(
    monkeypatch, data_dir
):
    # Init pins (t_0, a).  A bound one too high changes the chain rungs.
    searches = recorded_searches(monkeypatch)
    for name in ("overlap", "double_overlap", "chain", "end_chain"):
        model = load_declare(data_dir / f"{name}.decl")
        for m in range(2, 9):
            kb = translate_model(model, m=m)
            assert kb.ground_cells or name == "end_chain"
            bounded, alone = ltl_c_with_and_without_its_lower_bound(kb)
            assert bounded <= alone, (name, m)
            if name == "double_overlap":
                # c = LTL_c = 2, so LTL_c's walk, the last of the run,
                # ends at the node of its witness and refutes nothing.
                searches.clear()
                run_measures(kb)
                walk = searches[-1]
                assert walk.cost_mode is CostMode.CONFLICT_BASE, m
                assert (walk.value, walk.met) == (2, walk.nodes), m


def state_pass_bases():
    """The bases of ``minimize_kb`` and ``pass_kb``: ground cells, both
    G readings, constants, and traces of 1 to 8 states."""
    return [minimize_kb(seed) for seed in range(480)] + [pass_kb(seed) for seed in range(80)]


def test_the_state_pass_is_the_least_affected_state_count():
    enumerated, values = 0, set()
    for kb in state_pass_bases():
        least = min_glut_states(kb)
        values.add(least)
        if (kb.trace_length_m + 1) * len(kb.atoms()) <= 12:
            enumerated += 1
            assert least == oracle_min_cost(kb, "affected_states")[0], kb
        else:
            assert least == minimize(kb, CostMode.AFFECTED_STATES).value, kb
    assert enumerated >= 200
    assert {0, 1, 2, INF} <= values


def test_the_state_pass_is_charged_once_per_run_and_per_sweep_instance(monkeypatch):
    states = []
    real = ltlim.solver._root_pass

    def counted(kb, choices, budget):
        if choices == _STATE_CHOICES:
            states.append(kb)
        return real(kb, choices, budget)

    monkeypatch.setattr(ltlim.solver, "_root_pass", counted)
    searched = recorded_runs(monkeypatch)
    # LTL_d runs the state pass; LTL_c reads it off the account as its
    # floor, 3, which its walk meets without refuting anything.
    kb = KnowledgeBase.of("G a", "G (! a)", m=3)
    two_valued, state_pass = Budget(DEFAULT_NODE_BUDGET), Budget(DEFAULT_NODE_BUDGET)
    root_vectors(kb, budget=two_valued)
    assert min_glut_states(kb, budget=state_pass) == 3
    run = run_measures(kb, ("LTL_d", "LTL_c"))
    assert run.values == {"LTL_d": 3, "LTL_c": 3}
    assert states == [kb, kb]
    assert run.nodes == two_valued.spent + state_pass.spent + sum(searched)
    # Alone, LTL_c starts no state pass of its own.
    states.clear()
    assert run_measures(kb, ("LTL_c",)).values == {"LTL_c": 3}
    assert states == []
    # The checks of a sweep instance share one: LTL_c's read it off the
    # instance's table.
    sweep("LTL_d", Postulate.TIME_SENSITIVITY, instances=30, seed=1)
    alone = list(states)
    states.clear()
    sweep(("LTL_d", "LTL_c"), Postulate.TIME_SENSITIVITY, instances=30, seed=1)
    assert states == alone and len(alone) > 10


def projection_bases(data_dir) -> list[KnowledgeBase]:
    """Seeded ``random_kb`` bases over 1-3 atoms at m = 2..4, under
    either G reading, with constants, plus ``pass_kb``'s bases with
    ground cells and the four ``.decl`` models with theirs."""
    bases = []
    for seed in range(30):
        rng = random.Random(seed)
        bases.append(
            random_kb(
                rng, atoms=ATOMS[: rng.randint(1, 3)], m=rng.randint(2, 4), min_formulas=2,
                max_formulas=5, max_depth=3, g_mode=rng.choice(list(GMode)),
                allow_constants=True,
            )
        )
    bases += [pass_kb(seed) for seed in range(20)]
    for name in ("overlap", "double_overlap", "chain", "end_chain"):
        model = load_declare(data_dir / f"{name}.decl")
        bases += [translate_model(model, m=m) for m in (2, 3)]
    return bases


def test_a_sub_base_reads_its_passes_off_the_larger_base(monkeypatch, data_dir):
    real = ltlim.solver._root_pass
    ran = []

    def counted(kb, choices, budget):
        ran.append(kb)
        return real(kb, choices, budget)

    monkeypatch.setattr(ltlim.solver, "_root_pass", counted)
    projected = 0
    grounded = False
    for kb in projection_bases(data_dir):
        grounded |= bool(kb.ground_cells)
        one_atom = tuple(((1 << a, 0),) for a in range(len(kb.atoms())))
        n = len(kb.formulas)
        for choices in (((0, 0),), *one_atom, _STATE_CHOICES):
            for mask in range(1 << n):
                chosen = [f for i, f in enumerate(kb.formulas) if mask >> i & 1]
                for order in (chosen, chosen[::-1]):
                    sub = kb.replace_formulas(order)
                    if sub == kb or sub.atoms() != kb.atoms():
                        continue
                    expected = real(sub, choices, Budget(DEFAULT_NODE_BUDGET))[0]
                    account = Budget(DEFAULT_NODE_BUDGET)
                    ltlim.solver._read_pass(account, (kb, choices))
                    spent = account.spent
                    ran.clear()
                    levels = ltlim.solver._read_pass(account, (sub, choices))
                    # No pass runs, and each vector at its least cost
                    # costs one unit.
                    assert levels == expected, (kb, sub, choices)
                    assert ran == [] and account.spent - spent == sum(map(len, levels))
                    projected += 1
    assert grounded and projected > 1000
