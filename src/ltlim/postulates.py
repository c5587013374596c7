"""Rationality postulates, the compliance matrix, and sweep harness.

Five postulates are checked against concrete instances:

* CO  the measure is zero exactly on classically consistent bases.
* MO  growing a base never shrinks the measure.
* IN  removing a formula that lies in no minimal unsatisfiable subset
      leaves the measure unchanged.
* DO  replacing a consistent formula by a weaker consequence of it
      never raises the measure: I(K + alpha) >= I(K + beta) whenever
      alpha is satisfiable and entails beta.
* TS  a conflict smeared over the whole trace outweighs the same
      conflict pinned to a single state: I({G phi, G !phi}) is
      strictly larger than I({X phi, X !phi}) for propositional phi.

Each check returns a verdict on its instance and charges one work
account (:class:`ltlim.solver.Budget`), so ``budget`` bounds the check
as a whole and a base it asks about twice runs its pass once.  The
expected compliance matrix records which measures are expected to
satisfy which postulate.  Expected-fails cells are certified by the
curated counterexamples below, which :func:`run_curated` recomputes;
two atom-count cells provably admit none.  :func:`sweep` checks seeded
random instances against any cells: it samples each instance once, on
one account, and checks it against each measure in turn on a copy of
that account, so the checks of one instance share its bases and its
passes, which run once for all of them and are dropped with the
instance.  ``ltlim postulates`` reports the matrix with its
certificates, or the sweeps of every cell, and
``scripts/postulate_matrix.py`` checks both reports: a certificate that
stops violating, or a violation swept in a cell without one, is a
surprise.  The matrix rows for the trace-window distance are not
universal laws: two boundary instances with deeply nested temporal
operators depart from them, and the test suite pins both so any
behaviour change surfaces.
"""

from __future__ import annotations

import enum
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial

from .formula import (
    Atom,
    Formula,
    GMode,
    Globally,
    KnowledgeBase,
    Next,
    Not,
    Or,
    parse_formula,
    render_formula,
    temporal_depth,
)
from .generators import is_contingent, random_contingent_formula, random_formula, random_kb
from .measures import free_formulas, measure
from .solver import DEFAULT_NODE_BUDGET, Budget, is_satisfiable

__all__ = [
    "EXPECTED_MATRIX",
    "Outcome",
    "Postulate",
    "SweepResult",
    "Verdict",
    "check_co",
    "check_do",
    "check_in",
    "check_mo",
    "check_ts",
    "curated_violation",
    "run_curated",
    "sweep",
]


class Postulate(enum.Enum):
    CONSISTENCY_NULL = "CO"
    MONOTONICITY = "MO"
    FREE_FORMULA_INDEPENDENCE = "IN"
    DOMINANCE = "DO"
    TIME_SENSITIVITY = "TS"


class Outcome(enum.Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True, eq=False)
class Verdict:
    """A check's outcome on its instance.

    ``details`` describe the instance and the values compared.  A check
    gives them as a function that builds them, since a sweep reads only
    the details of its violations; the function runs on first read, and
    the verdict then keeps the details in its place.  Verdicts are equal
    when their ids, outcomes and details are.
    """

    measure_id: str
    postulate: Postulate
    outcome: Outcome
    _details: dict | Callable[[], dict] = field(default_factory=dict, repr=False)

    @property
    def details(self) -> dict:
        if callable(self._details):
            object.__setattr__(self, "_details", self._details())
        return self._details

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Verdict):
            return NotImplemented
        return (self.measure_id, self.postulate, self.outcome, self.details) == (
            other.measure_id, other.postulate, other.outcome, other.details
        )


def _kb_details(kb: KnowledgeBase) -> dict:
    return {
        "m": kb.trace_length_m,
        "g_mode": kb.g_mode.value,
        "formulas": [render_formula(f) for f in kb.formulas],
    }


def _json_value(value: int | float) -> int | str:
    return "inf" if value == float("inf") else int(value)


def check_co(
    measure_id: str, kb: KnowledgeBase, *, budget: Budget | int = DEFAULT_NODE_BUDGET
) -> Verdict:
    """Zero on consistent bases, positive on inconsistent ones."""
    budget = Budget.of(budget)
    consistent = is_satisfiable(kb, budget=budget)
    value = measure(kb, measure_id, budget=budget)
    holds = (value == 0) == consistent
    return Verdict(
        measure_id,
        Postulate.CONSISTENCY_NULL,
        Outcome.HOLDS if holds else Outcome.VIOLATED,
        lambda: {"kb": _kb_details(kb), "consistent": consistent, "value": _json_value(value)},
    )


def check_mo(
    measure_id: str,
    kb: KnowledgeBase,
    kb_sup: KnowledgeBase,
    *,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """The measure never shrinks when formulas are added.

    The larger base is measured first, so that the smaller one, where it
    has the same atoms, reads its passes off the larger one's
    (:func:`ltlim.solver.root_vectors`).
    """
    if not set(kb.formulas) <= set(kb_sup.formulas):
        raise ValueError("the first base must be a subset of the second")
    if (kb.trace_length_m, kb.g_mode) != (kb_sup.trace_length_m, kb_sup.g_mode):
        raise ValueError("both bases must share trace length and G reading")
    budget = Budget.of(budget)
    large = measure(kb_sup, measure_id, budget=budget)
    small = measure(kb, measure_id, budget=budget)
    holds = small <= large
    return Verdict(
        measure_id,
        Postulate.MONOTONICITY,
        Outcome.HOLDS if holds else Outcome.VIOLATED,
        lambda: {
            "kb": _kb_details(kb),
            "kb_superset": _kb_details(kb_sup),
            "value": _json_value(small),
            "value_superset": _json_value(large),
        },
    )


def check_in(
    measure_id: str, kb: KnowledgeBase, *, budget: Budget | int = DEFAULT_NODE_BUDGET
) -> Verdict:
    """Removing any free formula leaves the value unchanged.

    Not applicable when the base has no free formulas.
    """
    budget = Budget.of(budget)
    free = free_formulas(kb, budget=budget)
    if not free:
        return Verdict(
            measure_id,
            Postulate.FREE_FORMULA_INDEPENDENCE,
            Outcome.NOT_APPLICABLE,
            lambda: {"kb": _kb_details(kb), "reason": "no free formulas"},
        )
    value = measure(kb, measure_id, budget=budget)
    for alpha in free:
        reduced = measure(kb.without(alpha), measure_id, budget=budget)
        if reduced != value:
            return Verdict(
                measure_id,
                Postulate.FREE_FORMULA_INDEPENDENCE,
                Outcome.VIOLATED,
                lambda: {
                    "kb": _kb_details(kb),
                    "free_formula": render_formula(alpha),
                    "value": _json_value(value),
                    "value_without": _json_value(reduced),
                },
            )
    return Verdict(
        measure_id,
        Postulate.FREE_FORMULA_INDEPENDENCE,
        Outcome.HOLDS,
        lambda: {
            "kb": _kb_details(kb),
            "free_formulas": [render_formula(f) for f in free],
            "value": _json_value(value),
        },
    )


def check_do(
    measure_id: str,
    kb: KnowledgeBase,
    alpha: Formula,
    beta: Formula,
    *,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Adding a formula dominates adding any of its weakenings.

    Requires alpha to be classically satisfiable and to entail beta;
    instances missing either precondition are not applicable.
    """
    budget = Budget.of(budget)
    alpha_kb = kb.replace_formulas((alpha,))
    if not is_satisfiable(alpha_kb, budget=budget):
        return Verdict(
            measure_id,
            Postulate.DOMINANCE,
            Outcome.NOT_APPLICABLE,
            lambda: {"reason": "alpha is unsatisfiable", "alpha": render_formula(alpha)},
        )
    entailment_probe = kb.replace_formulas((alpha, Not(beta)))
    if is_satisfiable(entailment_probe, budget=budget):
        return Verdict(
            measure_id,
            Postulate.DOMINANCE,
            Outcome.NOT_APPLICABLE,
            lambda: {
                "reason": "alpha does not entail beta",
                "alpha": render_formula(alpha),
                "beta": render_formula(beta),
            },
        )
    stronger = measure(kb.extended((alpha,)), measure_id, budget=budget)
    weaker = measure(kb.extended((beta,)), measure_id, budget=budget)
    holds = stronger >= weaker
    return Verdict(
        measure_id,
        Postulate.DOMINANCE,
        Outcome.HOLDS if holds else Outcome.VIOLATED,
        lambda: {
            "kb": _kb_details(kb),
            "alpha": render_formula(alpha),
            "beta": render_formula(beta),
            "value_with_alpha": _json_value(stronger),
            "value_with_beta": _json_value(weaker),
        },
    )


def check_ts(
    measure_id: str,
    phi: Formula,
    *,
    m: int = 3,
    budget: Budget | int = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """A trace-wide clash on phi must outweigh a single-state clash.

    ``phi`` must be propositional.  Tautologies and contradictions make
    both sides degenerate (the clash bases involve an unsatisfiable
    member outright), so only contingent phi gives an applicable
    instance.  Both sides are read with the strict always operator.
    """
    if temporal_depth(phi) != 0:
        raise ValueError("the time-sensitivity scheme takes a propositional formula")
    budget = Budget.of(budget)
    if not is_contingent(phi, m=m, budget=budget):
        return Verdict(
            measure_id,
            Postulate.TIME_SENSITIVITY,
            Outcome.NOT_APPLICABLE,
            lambda: {"reason": "phi is not contingent", "phi": render_formula(phi)},
        )
    spread = KnowledgeBase((Globally(phi), Globally(Not(phi))), m, GMode.STRICT)
    pinned = KnowledgeBase((Next(phi), Next(Not(phi))), m, GMode.STRICT)
    spread_value = measure(spread, measure_id, budget=budget)
    pinned_value = measure(pinned, measure_id, budget=budget)
    holds = spread_value > pinned_value
    return Verdict(
        measure_id,
        Postulate.TIME_SENSITIVITY,
        Outcome.HOLDS if holds else Outcome.VIOLATED,
        lambda: {
            "phi": render_formula(phi),
            "m": m,
            "value_spread": _json_value(spread_value),
            "value_pinned": _json_value(pinned_value),
        },
    )


# measure id -> {postulate: expected to hold universally}
EXPECTED_MATRIX: dict[str, dict[Postulate, bool]] = {
    "d": {
        Postulate.CONSISTENCY_NULL: True,
        Postulate.MONOTONICITY: True,
        Postulate.FREE_FORMULA_INDEPENDENCE: True,
        Postulate.DOMINANCE: True,
        Postulate.TIME_SENSITIVITY: False,
    },
    "MI": {
        Postulate.CONSISTENCY_NULL: True,
        Postulate.MONOTONICITY: True,
        Postulate.FREE_FORMULA_INDEPENDENCE: True,
        Postulate.DOMINANCE: False,
        Postulate.TIME_SENSITIVITY: False,
    },
    "p": {
        Postulate.CONSISTENCY_NULL: True,
        Postulate.MONOTONICITY: True,
        Postulate.FREE_FORMULA_INDEPENDENCE: True,
        Postulate.DOMINANCE: False,
        Postulate.TIME_SENSITIVITY: False,
    },
    "r": {
        Postulate.CONSISTENCY_NULL: True,
        Postulate.MONOTONICITY: True,
        Postulate.FREE_FORMULA_INDEPENDENCE: True,
        Postulate.DOMINANCE: False,
        Postulate.TIME_SENSITIVITY: False,
    },
    "c": {
        Postulate.CONSISTENCY_NULL: True,
        Postulate.MONOTONICITY: True,
        Postulate.FREE_FORMULA_INDEPENDENCE: False,
        Postulate.DOMINANCE: True,
        Postulate.TIME_SENSITIVITY: False,
    },
    "at": {
        Postulate.CONSISTENCY_NULL: True,
        Postulate.MONOTONICITY: False,
        Postulate.FREE_FORMULA_INDEPENDENCE: False,
        Postulate.DOMINANCE: False,
        Postulate.TIME_SENSITIVITY: False,
    },
    "LTL_d": {
        Postulate.CONSISTENCY_NULL: True,
        Postulate.MONOTONICITY: True,
        Postulate.FREE_FORMULA_INDEPENDENCE: True,
        Postulate.DOMINANCE: True,
        Postulate.TIME_SENSITIVITY: True,
    },
    "LTL_c": {
        Postulate.CONSISTENCY_NULL: True,
        Postulate.MONOTONICITY: True,
        Postulate.FREE_FORMULA_INDEPENDENCE: False,
        Postulate.DOMINANCE: True,
        Postulate.TIME_SENSITIVITY: True,
    },
}


# Curated counterexamples for the expected-fails cells.  Each entry
# holds the check's inputs as text; run_curated builds them at the
# trace length it is given, executes the corresponding check, and the
# suite asserts the verdict.  Cells
# with value None have no counterexample: the unnormalized atom-count
# measure provably satisfies MO and IN (growing a base only ever grows
# the minimal-subset family, and removing a free formula leaves the
# family untouched).
_IN_ICEBERG = ("a & (! a) & b", "! b")

_CURATED: dict[tuple[str, Postulate], dict | None] = {
    ("d", Postulate.TIME_SENSITIVITY): {"phi": "a"},
    ("MI", Postulate.TIME_SENSITIVITY): {"phi": "a"},
    ("p", Postulate.TIME_SENSITIVITY): {"phi": "a"},
    ("r", Postulate.TIME_SENSITIVITY): {"phi": "a"},
    ("c", Postulate.TIME_SENSITIVITY): {"phi": "a"},
    ("at", Postulate.TIME_SENSITIVITY): {"phi": "a"},
    ("MI", Postulate.DOMINANCE): {
        "kb": ("! a", "! b", "! c"),
        "alpha": "a",
        "beta": "a | (b & c)",
    },
    ("p", Postulate.DOMINANCE): {
        "kb": ("! a", "! b", "! c"),
        "alpha": "a",
        "beta": "a | (b & c)",
    },
    ("r", Postulate.DOMINANCE): {
        "kb": ("c & d", "! c", "! d", "! b"),
        "alpha": "c & d",
        "beta": "(c & d) | b",
    },
    ("at", Postulate.DOMINANCE): {
        "kb": ("! a", "! b"),
        "alpha": "a",
        "beta": "a | b",
    },
    ("c", Postulate.FREE_FORMULA_INDEPENDENCE): {"kb": _IN_ICEBERG},
    ("LTL_c", Postulate.FREE_FORMULA_INDEPENDENCE): {"kb": _IN_ICEBERG},
    ("at", Postulate.MONOTONICITY): None,
    ("at", Postulate.FREE_FORMULA_INDEPENDENCE): None,
}


def curated_violation(measure_id: str, postulate: Postulate) -> dict | None:
    """The stored counterexample recipe for an expected-fails cell.

    Raises KeyError for cells expected to hold; returns None for the
    two cells where no counterexample can exist (see _CURATED).
    """
    if EXPECTED_MATRIX[measure_id][postulate]:
        raise KeyError(f"({measure_id}, {postulate.value}) is expected to hold")
    return _CURATED[(measure_id, postulate)]


def run_curated(
    measure_id: str, postulate: Postulate, *, m: int = 3, budget: int = DEFAULT_NODE_BUDGET
) -> Verdict:
    """Re-verify the curated counterexample for an expected-fails cell
    over traces of length ``m``."""
    recipe = curated_violation(measure_id, postulate)
    if recipe is None:
        raise ValueError(
            f"({measure_id}, {postulate.value}) has no realizable counterexample"
        )
    if postulate is Postulate.TIME_SENSITIVITY:
        return check_ts(measure_id, parse_formula(recipe["phi"]), m=m, budget=budget)
    if postulate is Postulate.DOMINANCE:
        kb = KnowledgeBase.of(*recipe["kb"], m=m)
        return check_do(
            measure_id,
            kb,
            parse_formula(recipe["alpha"]),
            parse_formula(recipe["beta"]),
            budget=budget,
        )
    if postulate is Postulate.FREE_FORMULA_INDEPENDENCE:
        return check_in(measure_id, KnowledgeBase.of(*recipe["kb"], m=m), budget=budget)
    raise ValueError(f"no curated recipe kind for {postulate.value}")


@dataclass
class SweepResult:
    measure_id: str
    postulate: Postulate
    instances: int
    holds: int
    not_applicable: int
    violations: list[Verdict]
    seed: int

    @property
    def clean(self) -> bool:
        return not self.violations


# The atoms every sampled instance is drawn over.
_SWEEP_ATOMS = ("a", "b")


def _not_applicable(
    postulate: Postulate, reason: str, measure_id: str, *, budget: Budget
) -> Verdict:
    """The check of an instance that could not be sampled."""
    return Verdict(measure_id, postulate, Outcome.NOT_APPLICABLE, lambda: {"reason": reason})


def _sample(
    rng: random.Random, postulate: Postulate, *, m: int, budget: Budget
) -> Callable[..., Verdict]:
    """One seeded instance over :data:`_SWEEP_ATOMS`, sampled on
    ``budget``: the postulate's check with the instance bound, or the
    reason why no instance applies, to be called with a measure id and
    an account."""
    if postulate is Postulate.CONSISTENCY_NULL:
        kb = random_kb(rng, atoms=_SWEEP_ATOMS, m=m, max_formulas=3, max_depth=2)
        return partial(check_co, kb=kb)
    if postulate is Postulate.MONOTONICITY:
        kb_sup = random_kb(
            rng, atoms=_SWEEP_ATOMS, m=m, min_formulas=2, max_formulas=4, max_depth=2
        )
        keep = [f for f in kb_sup.formulas if rng.random() < 0.6]
        return partial(check_mo, kb=kb_sup.replace_formulas(keep), kb_sup=kb_sup)
    if postulate is Postulate.FREE_FORMULA_INDEPENDENCE:
        kb = random_kb(rng, atoms=_SWEEP_ATOMS, m=m, min_formulas=2, max_formulas=4, max_depth=2)
        return partial(check_in, kb=kb)
    if postulate is Postulate.DOMINANCE:
        kb = random_kb(rng, atoms=_SWEEP_ATOMS, m=m, max_formulas=2, max_depth=2)
        for _ in range(32):
            alpha = random_formula(rng, _SWEEP_ATOMS, 2)
            if is_satisfiable(kb.replace_formulas((alpha,)), budget=budget):
                beta = Or(alpha, random_formula(rng, _SWEEP_ATOMS, 2))
                return partial(check_do, kb=kb, alpha=alpha, beta=beta)
        return partial(_not_applicable, postulate, "no satisfiable alpha sampled")
    phi = random_contingent_formula(rng, _SWEEP_ATOMS, 2, m=m, budget=budget)
    if phi is None:
        return partial(_not_applicable, postulate, "no contingent phi sampled")
    return partial(check_ts, phi=phi, m=m)


def sweep(
    measure_ids: str | Sequence[str],
    postulate: Postulate,
    *,
    instances: int,
    seed: int,
    m: int = 3,
    budget: int = DEFAULT_NODE_BUDGET,
) -> SweepResult | tuple[SweepResult, ...]:
    """Check seeded random instances of a postulate against measures.

    ``measure_ids`` is one measure id, answered with its result, or a
    sequence of them, answered with one result per id in that order.
    Each instance is sampled once, on an account of ``budget`` units,
    and every measure checks the same objects, on its own copy of that
    account, so each check is charged the sampling too.  The accounts of
    one instance share its passes, which no later instance sees.
    """
    ids = (measure_ids,) if isinstance(measure_ids, str) else tuple(measure_ids)
    results = tuple(SweepResult(mid, postulate, instances, 0, 0, [], seed) for mid in ids)
    rng = random.Random(seed)
    for _ in range(instances):
        sampling = Budget(budget)
        check = _sample(rng, postulate, m=m, budget=sampling)
        for result in results:
            verdict = check(result.measure_id, budget=sampling.fork())
            if verdict.outcome is Outcome.HOLDS:
                result.holds += 1
            elif verdict.outcome is Outcome.NOT_APPLICABLE:
                result.not_applicable += 1
            else:
                # The result keeps its violations: build their details
                # now, so that it keeps no instance alive for them.
                verdict.details
                result.violations.append(verdict)
    return results[0] if isinstance(measure_ids, str) else results
