"""Random ``.ltlkb`` and ``.decl`` text through the command line.

Every input gets an answer or a documented exit code: 0, 1 (an
``oracle-check`` disagreement), 2 (an input error) or 3 (the work
budget).  The texts are well-formed lines with, now and then, a flawed
one among them, so that the parsers, the translator and the measures
all see them; the budget keeps each command small.
"""

import contextlib
import io

import pytest
from hypothesis import event, given, settings, strategies as st

from ltlim.cli import main

BUDGET = ["--budget", "20000"]

ATOMS = ("a", "b", "c")


def _compound(inner):
    unary = st.tuples(st.sampled_from(("!", "X", "F", "G")), inner).map(" ".join)
    binary = st.tuples(inner, st.sampled_from(("&", "|", "->", "U")), inner).map(" ".join)
    return st.one_of(unary, binary, inner.map("({})".format))


FORMULAS = st.recursive(st.sampled_from(ATOMS + ("true", "false")), _compound, max_leaves=8)
# Short formulas that clash with one another, so that explain finds conflicts.
CLASHES = st.sampled_from(("a", "! a", "X a", "X ! a", "G b", "F ! b", "a U b", "G ! b"))
# Tokens of both formats, and a few that neither has, joined at random.
SOUP = st.lists(
    st.sampled_from(
        ATOMS + ("!", "&", "|", "->", "X", "F", "G", "U", "(", ")", "true", "false",
                 "m", "=", "3", "#", ",", ":", "activities", "Init", "AtLeast", "$", "A")
    ),
    max_size=8,
).map(" ".join)
# Rendering a counted template doubles its text per count, so counts
# stay at most 9.
_ARITY = {
    "Init": 1, "End": 1, "Response": 2, "NotResponse": 2, "ChainResponse": 2,
    "NotChainResponse": 2, "AtLeast": 1, "AtMost": 1,
}
CONSTRAINT_FLAWS = st.sampled_from(
    ("Bogus(a)", "AtLeast(a, 0)", "AtMost(a, x)", "Response(a)", "Init(a, 2)", "Init(B)",
     "End(d)", "activities: a")
)


@st.composite
def constraint_line(draw) -> str:
    template = draw(st.sampled_from(sorted(_ARITY)))
    args = [draw(st.sampled_from(ATOMS)) for _ in range(_ARITY[template])]
    if template.startswith("At"):
        args.append(str(draw(st.integers(1, 9))))
    return f"{template}({', '.join(args)})"


@st.composite
def lines_with_a_flaw(draw, lines, flaws) -> list[str]:
    """Well-formed lines, and in about one draw of four a flawed line
    among them."""
    drawn = draw(st.lists(lines, max_size=5))
    if draw(st.integers(0, 3)) == 0:
        drawn.insert(draw(st.integers(0, len(drawn))), draw(flaws))
    return drawn


@st.composite
def ltlkb_text(draw) -> str:
    directive = draw(st.one_of(st.just(""), st.integers(0, 4).map("m = {}".format)))
    lines = draw(lines_with_a_flaw(st.one_of(FORMULAS, CLASHES, st.just("# note")), SOUP))
    return "\n".join([directive] + lines) + "\n"


@st.composite
def decl_text(draw) -> str:
    header = draw(st.sampled_from(("", "activities: a, b, c", "activities: c, a, b")))
    lines = draw(lines_with_a_flaw(constraint_line(), st.one_of(CONSTRAINT_FLAWS, SOUP)))
    return "\n".join([header] + lines) + "\n"


# Mostly legal trace lengths, some long enough to run out of the budget.
TRACE_LENGTHS = st.sampled_from((2, 3, 4, 2, 3, 4, 6, 8, 0, 1, None))


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv: list[str]) -> None:
    """Run ``main``, and check that it exits with a documented code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert code != 1 or argv[0] == "oracle-check", (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    event(f"{argv[0]} exit {code}")


@settings(max_examples=150)
@given(
    text=ltlkb_text(),
    command=st.sampled_from(("measure", "explain", "oracle-check")),
    m=TRACE_LENGTHS,
    reflexive=st.booleans(),
    short=st.booleans(),
)
def test_random_ltlkb_text_exits_with_a_documented_code(
    work_dir, text, command, m, reflexive, short
):
    path = work_dir / "input.ltlkb"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path), *BUDGET, "--format", "json"]
    argv += [] if m is None else ["--m", str(m)]
    argv += ["--g-semantics", "reflexive"] if reflexive else []
    argv += ["--allow-short-trace"] if short else []
    run(argv)


@settings(max_examples=100)
@given(text=decl_text(), m=TRACE_LENGTHS, ground=st.booleans())
def test_random_decl_text_exits_with_a_documented_code(work_dir, text, m, ground):
    path = work_dir / "input.decl"
    path.write_text(text, encoding="utf-8")
    argv = ["declare", str(path), "--emit", str(work_dir / "emitted.ltlkb"), *BUDGET]
    argv += ["--format", "json"]
    argv += [] if m is None else ["--m", str(m)]
    argv += [] if ground else ["--no-ground-init"]
    run(argv)
