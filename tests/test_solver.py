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
from ltlim.generators import random_interpretation, random_kb
from ltlim.measures import run_measures
from ltlim.oracle import oracle_min_cost, oracle_sat2
from ltlim.semantics import SignatureMismatchError, TruthValue3, eval3, satisfies3
from ltlim.solver import (
    DEFAULT_NODE_BUDGET,
    Budget,
    BudgetExceededError,
    CostMode,
    _evaluate,
    count_min_conflict_signatures,
    decide_upper,
    is_satisfiable,
    min_glut_atoms,
    minimize,
    root_vectors,
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
    assert decide_upper(kb, 0, CostMode.CONFLICT_BASE).found == oracle_sat2(kb)[0]


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


def table_formulas(table) -> list[Formula]:
    """The formula each node of a compiled table stands for."""
    rebuilt: list[Formula] = []
    for op, x, y in table:
        if op == "atom":
            rebuilt.append(Atom(ATOMS[x]))
        elif op == "true":
            rebuilt.append(TRUE)
        elif op == "false":
            rebuilt.append(FALSE)
        elif op in ("!", "X"):
            rebuilt.append({"!": Not, "X": Next}[op](rebuilt[x]))
        else:
            rebuilt.append({"&": And, "|": Or, "U": Until}[op](rebuilt[x], rebuilt[y]))
    return rebuilt


def kernel_sets(table, leaf_masks: dict[str, list[int]], m: int):
    """Run the kernel with the atom leaves set from per-state masks.

    The kernel keeps state t_s at bit m - s of each bitset.
    """
    size = len(table)
    f, b, t = [0] * size, [0] * size, [0] * size
    for atom, name in enumerate(ATOMS):
        for state, mask in enumerate(leaf_masks[name]):
            f[atom] |= (mask & _MASK_F) << (m - state)
            b[atom] |= ((mask & _MASK_B) >> 1) << (m - state)
            t[atom] |= ((mask & _MASK_T) >> 2) << (m - state)
    _evaluate(table, range(len(ATOMS), len(table)), f, b, t, m)
    return f, b, t


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
    assert [rebuilt[root] for root in roots] == formulas
    assert len(set(table)) == len(table)

    leaf_masks = {}
    for a in ATOMS:
        draws = [rng.randint(1, 7) for _ in range(m // run + 1)]
        leaf_masks[a] = [draws[s // run] for s in range(m + 1)]
    f, b, t = kernel_sets(table, leaf_masks, m)
    memo: dict[int, list[int]] = {}
    for node, formula in enumerate(rebuilt):
        expected = _abstract_eval(formula, leaf_masks, m, memo)
        got = [
            (f[node] >> (m - s) & 1)
            | (b[node] >> (m - s) & 1) << 1
            | (t[node] >> (m - s) & 1) << 2
            for s in range(m + 1)
        ]
        assert got == expected, (node, table[node])
        assert max(f[node], b[node], t[node]) < 1 << (m + 1)

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
        f, b, t = list(self.f), list(self.b), list(self.t)
        _evaluate(self.table, range(len(self.atoms), len(self.table)), f, b, t, self.m)
        assert (f, b, t) == (self.f, self.b, self.t), self.nodes
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
    kb = KnowledgeBase.of("! a", "b", m=2)
    below = list(kb.atoms_below)
    _, (negation, _) = kb.table
    assert below[negation] == 0b01
    below[negation] = 0
    monkeypatch.setattr(KnowledgeBase, "atoms_below", property(lambda _: below))
    with pytest.raises(AssertionError):
        run_checked(kb, CostMode.CONFLICT_BASE, 0, False)


def test_each_base_compiles_once(monkeypatch):
    compiled = []

    def counted(formulas, atoms):
        compiled.append(formulas)
        return _compile(formulas, atoms)

    monkeypatch.setattr(ltlim.formula, "_compile", counted)
    kb = KnowledgeBase.of("G a", "G (! a)", "F (a & X b)", "b | X a", m=3)
    run = run_measures(kb)
    assert run.probes > 3
    assert compiled == [kb.core_formulas]
    clash = KnowledgeBase.of("G a", "G (! a)", "G b", m=3)
    assert count_min_conflict_signatures(clash).probes > 1
    assert compiled == [kb.core_formulas, clash.core_formulas]


def test_compile_walks_deep_formulas_without_recursion():
    deep: Formula = Atom("a")
    for _ in range(20_000):
        deep = Not(Next(deep))
    table, roots = _compile((deep, Atom("a")), ("a",))
    assert len(table) == 40_001
    assert roots == [40_000, 0]


def test_compile_rejects_derived_connectives_and_foreign_atoms():
    for derived in (Finally(Atom("a")), Globally(Atom("a")), Implies(TRUE, Atom("a"))):
        with pytest.raises(ValueError, match="expand_derived"):
            _compile((And(Atom("a"), derived),), ("a",))
    with pytest.raises(SignatureMismatchError):
        _compile((Or(Atom("a"), Atom("z")),), ("a",))


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
            assert oracle_sat2(subset)[0] == expected, mask
    if small:
        ids = ("d", "MI", "p", "r", "at")
        assert run_measures(kb, ids).values == run_measures(kb, ids, use_oracle=True).values


def test_the_subset_measures_run_one_pass_and_no_search(monkeypatch):
    passes = []
    real = ltlim.solver._root_pass

    def counted(kb, glut, budget):
        passes.append(kb)
        return real(kb, glut, budget)

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
    searched = []

    def recorded(*args, **kwargs):
        result = decide_upper(*args, **kwargs)
        searched.append(result.nodes)
        return result

    monkeypatch.setattr(ltlim.solver, "decide_upper", recorded)
    # d, MI, c and each minimisation of LTL_d and LTL_c read the
    # classical pass; c then runs the pass that holds a at B.
    kb = KnowledgeBase.of("G a", "G (! a)", "F (a & X b)", "b | X a", m=3)
    _, work = fresh_pass(kb)
    glutted = Budget(DEFAULT_NODE_BUDGET)
    root_vectors(kb, glut=0b01, budget=glutted)
    assert (work, glutted.spent) == (124, 22)
    run = run_measures(kb)
    assert run.values["d"] == 1 and run.values["c"] == 1
    assert min(run.values[i] for i in ("LTL_d", "LTL_c")) > 0
    assert len(searched) == run.probes > 3
    assert run.nodes == work + glutted.spent + sum(searched)


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
# the budgets the next test tries.
PASS_REFUSALS = {
    0: (72, [4, 4, 32, 44, 72]),
    8: (6, [2, 2, 4, 4, 6]),
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
    """The explain bases of a base whose least affected-state count is
    at least 1 and finite, None for any other base, or that the budget
    ran out."""
    try:
        return count_min_conflict_signatures(kb).bases
    except BudgetExceededError:
        return "budget"
    except ValueError:
        return None


@pytest.mark.parametrize("block", range(12))
def test_minimize_matches_the_binary_search_reference(monkeypatch, block):
    for seed in range(block * 40, block * 40 + 40):
        kb = minimize_kb(seed)
        for mode in CostMode:
            expected = answer(reference_minimize, kb, mode)
            assert answer(minimize, kb, mode) == expected, (seed, mode)
        bases = signature_bases(kb)
        with monkeypatch.context() as patched:
            patched.setattr(ltlim.solver, "minimize", reference_minimize)
            assert signature_bases(kb) == bases, seed


def recorded_probes(monkeypatch, minimise, kb: KnowledgeBase, mode: CostMode):
    """The value a minimisation finds and its probes, as (bound, found)."""
    probes = []

    def recorded(kb, max_cost, cost_mode, **kwargs):
        result = decide_upper(kb, max_cost, cost_mode, **kwargs)
        probes.append((max_cost, result.found))
        return result

    with monkeypatch.context() as patched:
        patched.setattr(ltlim.solver, "decide_upper", recorded)
        value = minimise(kb, mode).value
    return value, probes


@pytest.mark.parametrize("block", range(12))
def test_minimize_refutes_only_at_one_below_the_value(monkeypatch, block):
    for seed in range(block * 40, block * 40 + 40):
        kb = minimize_kb(seed)
        for mode in CostMode:
            value, probes = recorded_probes(monkeypatch, minimize, kb, mode)
            cells = (kb.trace_length_m + 1) * len(kb.atoms())
            if value == INF:
                assert probes == [(cells, False)], (seed, mode)
            elif value == 0:
                # The reference's probes, but for the first one's bound:
                # the cell count, where the reference takes the mode's
                # own ceiling.
                expected, reference = recorded_probes(
                    monkeypatch, reference_minimize, kb, mode
                )
                assert value == expected, (seed, mode)
                assert probes == [(cells, True)] + reference[1:], (seed, mode)
            else:
                assert all(bound > 0 for bound, _ in probes), (seed, mode)
                refuted = [bound for bound, found in probes if not found]
                assert refuted in ([], [value - 1]), (seed, mode)
