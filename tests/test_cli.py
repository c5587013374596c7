"""End-to-end exercises of the command line front end.

Every test drives ``ltlim.cli.main`` in process and checks exit codes,
report content, and byte stability against golden files under
``tests/data``.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

from ltlim import oracle
from ltlim.cli import _build_parser, main
from ltlim.formula import DEFAULT_TRACE_LENGTH, load_kb
from ltlim.measures import MEASURE_IDS, run_measures
from ltlim.oracle import MAX_CELL_CAP
from ltlim.postulates import EXPECTED_MATRIX, Postulate


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "golden,argv",
    [
        ("next_clash.measure.json", ["measure", "next_clash.ltlkb", "--format", "json"]),
        ("prop_mix.measure.json", ["measure", "prop_mix.ltlkb", "--format", "json"]),
        ("next_clash.explain.json", ["explain", "next_clash.ltlkb", "--format", "json"]),
    ],
)
def test_json_reports_match_golden_bytes(capsys, monkeypatch, data_dir, golden, argv):
    monkeypatch.chdir(data_dir)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == (data_dir / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv,nodes,probes",
    [
        (["declare", "double_overlap.decl", "--m", "4", "--measure", "all"], 1140, 2),
        (["measure", "always_clash.ltlkb", "--m", "8"], 247, 2),
        (["explain", "always_clash.ltlkb"], 47, 1),
    ],
    ids=["declare-m4", "measure-m8", "explain"],
)
def test_search_work_is_pinned_on_longer_traces(
    capsys, monkeypatch, tmp_path, data_dir, argv, nodes, probes
):
    # Longer traces than the golden files: Until solves over up to 9 states.
    shutil.copy(data_dir / argv[1], tmp_path / argv[1])
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    stats = json.loads(out)["solver_stats"]
    assert (stats["nodes"], stats["probes"]) == (nodes, probes)


def test_declare_reads_c_off_the_six_activity_response_chain(capsys, tmp_path):
    # Holding any one of a1..a5 at B repairs the chain.  The passes that
    # find this fit the default budget, which the search ran out of.
    chain = ["activities: a0, a1, a2, a3, a4, a5", "Init(a0)"]
    chain += [f"Response(a{i}, a{i + 1})" for i in range(5)]
    chain += ["NotResponse(a0, a5)", "ChainResponse(a4, a5)"]
    model = tmp_path / "response_chain.decl"
    model.write_text("\n".join(chain) + "\n", encoding="utf-8")
    argv = ["declare", str(model), "--m", "6", "--measure", "c", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out)["measures"] == {"c": 1}


def test_json_reports_are_byte_stable(capsys, monkeypatch, data_dir):
    monkeypatch.chdir(data_dir)
    _, first, _ = run_cli(capsys, ["measure", "prop_mix.ltlkb", "--format", "json"])
    _, second, _ = run_cli(capsys, ["measure", "prop_mix.ltlkb", "--format", "json"])
    assert first == second


def test_measure_text_report_shows_base_and_witness(capsys, data_dir):
    code, out, _ = run_cli(capsys, ["measure", str(data_dir / "next_clash.ltlkb")])
    assert code == 0
    assert "m=3, strict G" in out
    assert "LTL_d = 1" in out
    assert "witness (minimal affected states):" in out
    assert "t1: a=B" in out
    assert "conflict base: (t1, a)" in out


def test_measure_empty_base_reports_zeros(capsys, data_dir):
    code, out, _ = run_cli(capsys, ["measure", str(data_dir / "empty.ltlkb")])
    assert code == 0
    assert "(empty base)" in out
    assert "LTL_c = 0" in out


def test_measure_reflexive_always_clash_covers_the_whole_trace(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        [
            "measure",
            str(data_dir / "always_clash.ltlkb"),
            "--g-semantics",
            "reflexive",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["g_mode"] == "reflexive"
    assert payload["measures"]["LTL_d"] == 4
    assert payload["measures"]["LTL_c"] == 4


def test_unreachable_depth_reports_inf_strings(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, ["measure", str(data_dir / "deep_next.ltlkb"), "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2
    assert payload["measures"]["LTL_d"] == "inf"
    assert payload["measures"]["c"] == "inf"
    assert payload["measures"]["d"] == 1
    assert payload["witness_min_states"] is None


def test_trace_length_flag_overrides_the_file_directive(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        ["measure", str(data_dir / "deep_next.ltlkb"), "--m", "3", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 3
    assert all(value == 0 for value in payload["measures"].values())


def test_measure_selection_reports_only_that_measure(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        [
            "measure",
            str(data_dir / "next_clash.ltlkb"),
            "--measure",
            "LTL_c",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload["measures"]) == ["LTL_c"]
    assert payload["witness_min_states"] is None
    assert payload["witness_min_conflict"] is not None


def test_parse_errors_exit_with_code_two(capsys, data_dir):
    code, _, err = run_cli(capsys, ["measure", str(data_dir / "bad.ltlkb")])
    assert code == 2
    assert err.startswith("error:")
    assert "line 2" in err


_RENDER_CAP_ERROR = "declare writes at most 134217728"


@pytest.mark.parametrize(
    "command,name,text,message",
    [
        ("measure", "deep.ltlkb", "m = 3\n" + "!" * 3000 + " a\n", "nested too deeply"),
        ("measure", "paren.ltlkb", "m = 3\n" + "(" * 3000 + "a" + ")" * 3000 + "\n",
         "nested too deeply"),
        # The translation is built without recursion, and it renders to
        # more characters than the cap.
        ("declare", "deep.decl", "activities: a\nAtLeast(a, 400)\n", _RENDER_CAP_ERROR),
    ],
    ids=["nested-negation", "nested-parentheses", "counted-template"],
)
def test_deeply_nested_input_exits_with_code_two(
    capsys, monkeypatch, tmp_path, command, name, text, message
):
    (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, [command, name, "--m", "3"])
    assert code == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("measure_id", ["d", "MI"])
def test_measures_without_witnesses_answer_on_deeply_nested_negation(
    capsys, tmp_path, measure_id
):
    # Parsing, hashing and compiling 3000 nested ! need no recursion, and
    # d and MI read the pass alone, with no witness to re-verify.
    base = tmp_path / "deep.ltlkb"
    base.write_text("m = 3\n" + "!" * 3000 + " a\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, ["measure", str(base), "--measure", measure_id, "--format", "json"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["measures"] == {measure_id: 0}


def test_a_translation_too_long_to_render_exits_with_code_two(capsys, tmp_path):
    # AtLeast(a, 40) renders to 20 * 2^40 - 29 characters, which no
    # emitted file could hold.
    model = tmp_path / "counted.decl"
    model.write_text("activities: a\nAtLeast(a, 40)\n", encoding="utf-8")
    emitted = tmp_path / "counted.ltlkb"
    code, out, err = run_cli(capsys, ["declare", str(model), "--m", "3", "--emit", str(emitted)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: the translated base renders to {20 * 2**40 - 29} characters")
    assert "Traceback" not in err
    assert not emitted.exists()


def test_a_counted_template_on_two_lines_reaches_the_render_cap(capsys, tmp_path):
    # The two lines translate to one formula, which the base keeps once:
    # deduplicating it compares two nodes, not 2^40 occurrences.
    model = tmp_path / "counted.decl"
    model.write_text("activities: a\nAtLeast(a, 40)\nAtLeast(a, 40)\n", encoding="utf-8")
    emitted = tmp_path / "counted.ltlkb"
    code, out, err = run_cli(capsys, ["declare", str(model), "--m", "3", "--emit", str(emitted)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: the translated base renders to {20 * 2**40 - 29} characters")
    assert _RENDER_CAP_ERROR in err
    assert "Traceback" not in err
    assert not emitted.exists()


_WITHOUT_THE_ORACLE = """
import contextlib, io, sys
import ltlim.cli
data, out = sys.argv[1:]
for argv in (
    ["measure", data + "/next_clash.ltlkb"],
    ["declare", data + "/overlap.decl", "--m", "3", "--emit", out],
    ["explain", data + "/next_clash.ltlkb"],
    ["postulates", "--sweep", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ltlim.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_commands_without_the_oracle_never_import_numpy(tmp_path, data_dir):
    # A fresh interpreter: this one has imported numpy already.
    result = subprocess.run(
        [
            sys.executable, "-c", _WITHOUT_THE_ORACLE,
            str(data_dir), str(tmp_path / "overlap.ltlkb"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 0, result.stderr


def test_oracle_cap_above_the_maximum_is_rejected(capsys, data_dir):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "oracle-check",
                str(data_dir / "next_clash.ltlkb"),
                "--oracle-cap",
                str(MAX_CELL_CAP + 1),
            ]
        )
    assert exc.value.code == 2
    assert "--oracle-cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "always_clash.ltlkb"],
        ["declare", "overlap.decl", "--m", "2"],
        ["explain", "always_clash.ltlkb"],
    ],
    ids=["measure", "declare", "explain"],
)
def test_a_lowered_oracle_cap_is_refused(
    capsys, monkeypatch, tmp_path, data_dir, argv
):
    shutil.copy(data_dir / argv[1], tmp_path / argv[1])
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, argv + ["--oracle", "--oracle-cap", "3"])
    assert code == 2
    assert "exceed the oracle cap of 3" in err


@pytest.mark.parametrize("command", ["measure", "explain"])
def test_a_raised_oracle_cap_admits_a_thirteen_cell_base(
    capsys, monkeypatch, tmp_path, command
):
    (tmp_path / "long.ltlkb").write_text("m = 12\nG a\nG (! a)\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys,
        [command, "long.ltlkb", "--oracle", "--oracle-cap", "13", "--format", "json"],
    )
    assert code == 0, err
    payload = json.loads(out)
    if command == "measure":
        assert payload["measures"] == {
            "d": 1, "MI": 1, "p": 2, "r": 1, "c": 1, "at": 1, "LTL_d": 12, "LTL_c": 12,
        }
    else:
        assert payload["min_affected_states"] == 12
        assert payload["conflict_bases"] == [[[s, "a"] for s in range(1, 13)]]


def test_missing_input_exits_with_code_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["measure", str(tmp_path / "nope.ltlkb")])
    assert code == 2
    assert err.startswith("error:")


def test_measure_without_any_trace_length_exits_with_code_two(capsys, tmp_path):
    path = tmp_path / "bare.ltlkb"
    path.write_text("a\n! a\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["measure", str(path)])
    assert code == 2
    assert "trace length" in err


def test_declare_without_m_flag_exits_with_code_two(capsys, data_dir):
    code, _, err = run_cli(capsys, ["declare", str(data_dir / "overlap.decl")])
    assert code == 2
    assert "--m is required" in err


def test_explain_on_a_consistent_base_is_an_input_error(capsys, data_dir):
    code, _, err = run_cli(capsys, ["explain", str(data_dir / "empty.ltlkb")])
    assert code == 2
    assert "consistent" in err


def test_budget_exhaustion_exits_with_code_three(capsys, data_dir):
    code, _, err = run_cli(
        capsys, ["measure", str(data_dir / "always_clash.ltlkb"), "--budget", "10"]
    )
    assert code == 3
    assert "budget" in err


def test_budget_exhaustion_in_the_subset_pass_names_the_budget(capsys, data_dir):
    code, _, err = run_cli(
        capsys,
        [
            "measure",
            str(data_dir / "always_clash.ltlkb"),
            "--measure",
            "MI",
            "--budget",
            "5",
        ],
    )
    assert code == 3
    assert "budget of 5" in err


def test_budget_exhaustion_in_a_minimisation_names_the_whole_budget(
    capsys, data_dir
):
    code, _, err = run_cli(
        capsys, ["measure", str(data_dir / "always_clash.ltlkb"), "--budget", "30"]
    )
    assert code == 3
    assert "work budget of 30" in err


def test_budget_exhaustion_reports_the_measures_computed_before_it(capsys, tmp_path):
    # d .. LTL_d take 7,635 units and all eight 9,998: only LTL_c runs
    # out.  Its value, 30, lies above c = 3 and LTL_d = 10, so the lower
    # bound they give leaves it a refutation to run.
    base = tmp_path / "three_clashes.ltlkb"
    base.write_text(
        "m = 10\nG a\nG (! a)\nG b\nG (! b)\nG c\nG (! c)\n", encoding="utf-8"
    )
    argv = ["measure", str(base), "--budget", "8800"]
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 3
    assert "work budget of 8800" in err and "LTL_c" in err
    payload = json.loads(out)
    assert payload["measures"] == {
        "d": 1, "MI": 3, "p": 6, "r": 3, "c": 3, "at": 3, "LTL_d": 10, "LTL_c": "unknown"
    }
    assert payload["witness_min_states"]["affected_states"] == list(range(1, 11))
    assert payload["witness_min_conflict"] is None
    assert payload["solver_stats"]["nodes"] > 8800
    code, text, text_err = run_cli(capsys, argv)
    assert (code, text_err) == (3, err)
    assert "  LTL_d = 10\n  LTL_c = unknown\n" in text
    assert "witness (minimal conflict base)" not in text


def test_a_partial_report_counts_the_search_that_ran_out(capsys, data_dir):
    # The passes of d .. c take most of the 30 units; LTL_d's walk
    # starts and runs out.
    argv = ["measure", str(data_dir / "always_clash.ltlkb"), "--budget", "30"]
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 3
    payload = json.loads(out)
    assert payload["measures"]["LTL_d"] == "unknown"
    assert (payload["solver_stats"]["nodes"], payload["solver_stats"]["probes"]) == (31, 1)
    code, text, _ = run_cli(capsys, argv)
    assert code == 3 and "stats: nodes=31 probes=1 budget=30" in text


def test_all_measures_answer_ltl_c_on_the_double_overlap_at_m10(
    capsys, monkeypatch, tmp_path, data_dir
):
    # c = 2 bounds LTL_c from below, so its walk stops at its first
    # witness of cost 2 and refutes nothing; alone, LTL_c runs out here.
    shutil.copy(data_dir / "double_overlap.decl", tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = ["declare", "double_overlap.decl", "--m", "10", "--budget", "100000",
            "--format", "json"]
    code, out, _ = run_cli(capsys, argv + ["--measure", "all"])
    assert code == 0
    payload = json.loads(out)
    assert payload["measures"] == {
        "d": 1, "MI": 2, "p": 5, "r": 1, "c": 2, "at": 3, "LTL_d": 1, "LTL_c": 2
    }
    assert len(payload["witness_min_conflict"]["conflict_base"]) == 2
    code, _, err = run_cli(capsys, argv + ["--measure", "LTL_c"])
    assert code == 3 and "LTL_c" in err


def test_budget_exhaustion_in_measure_marks_each_measure_not_reached(capsys, data_dir):
    argv = ["measure", str(data_dir / "always_clash.ltlkb"), "--m", "8", "--budget", "200"]
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert code == 3
    assert "work budget of 200" in err and "LTL_d" in err
    measures = json.loads(out)["measures"]
    assert measures == {
        "d": 1, "MI": 1, "p": 2, "r": 1, "c": 1, "at": 1, "LTL_d": "unknown",
        "LTL_c": "unknown",
    }


def test_explain_collects_each_minimal_base_once(capsys, tmp_path):
    # Holding a at B at t_1, or b at any one later state, repairs the
    # base: 8 bases of one cell.  Many more models of one affected state
    # hold one of them, and the walk skips those once the base is
    # collected.  Without the cut this took 58,216 units.
    base = tmp_path / "overlap.ltlkb"
    base.write_text(
        "m = 8\na\nX a\nG (a -> F b)\nG (a -> !F b)\n", encoding="utf-8"
    )
    argv = ["explain", str(base), "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert (payload["min_affected_states"], payload["signature_count"]) == (1, 8)
    assert payload["solver_stats"]["nodes"] == 19319
    code, out, _ = run_cli(capsys, argv + ["--budget", "25000"])
    assert code == 0 and json.loads(out)["signature_count"] == 8


def test_oracle_check_agrees_on_small_bases(capsys, monkeypatch, data_dir):
    monkeypatch.chdir(data_dir)
    code, out, _ = run_cli(
        capsys,
        [
            "oracle-check",
            "next_clash.ltlkb",
            "always_clash.ltlkb",
            "deep_next.ltlkb",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"] is True
    assert [entry["input"] for entry in payload["results"]] == [
        "next_clash.ltlkb",
        "always_clash.ltlkb",
        "deep_next.ltlkb",
    ]
    deep = payload["results"][2]["measures"]
    assert deep["LTL_d"] == {"solver": "inf", "oracle": "inf"}


def test_oracle_check_text_report(capsys, data_dir):
    code, out, _ = run_cli(
        capsys, ["oracle-check", str(data_dir / "next_clash.ltlkb")]
    )
    assert code == 0
    assert "agree" in out
    assert "all inputs agree" in out


def test_oracle_check_agrees_past_twelve_formulas(capsys, tmp_path):
    # 20 formulas over two atoms at m = 2: the oracle enumerates 6 cells,
    # and the minimal-subset table holds 2^20 subsets.
    source = tmp_path / "two_atoms.ltlkb"
    formulas = [
        *(f"{prefix}{literal}" for prefix in ("", "X ", "X X ")
          for literal in ("a", "(! a)", "b", "(! b)")),
        "a | b", "(! a) | (! b)", "G a", "G (! b)", "F a", "F (! a)",
        "a -> X b", "b -> X (! a)",
    ]
    source.write_text("m = 2\n" + "\n".join(formulas) + "\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, ["oracle-check", str(source), "--m", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"] is True
    (result,) = payload["results"]
    assert list(result["measures"]) == list(MEASURE_IDS)
    assert result["measures"]["MI"] == {"solver": 31, "oracle": 31}


def test_declare_pipeline_translates_measures_and_emits(
    capsys, monkeypatch, tmp_path, data_dir
):
    shutil.copy(data_dir / "overlap.decl", tmp_path / "overlap.decl")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, ["declare", "overlap.decl", "--m", "3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["g_mode"] == "reflexive"
    assert payload["ground_cells"] == [[0, "a"]]
    assert payload["measures"]["LTL_c"] == 1
    assert payload["emitted"] == "overlap.ltlkb"
    assert len(payload["translation"]) == 3

    reloaded = load_kb(tmp_path / "overlap.ltlkb")
    assert len(reloaded.formulas) == 3
    assert reloaded.ground_cells == frozenset()


def test_declare_double_overlap_widens_the_conflict(
    capsys, monkeypatch, tmp_path, data_dir
):
    shutil.copy(data_dir / "double_overlap.decl", tmp_path / "double_overlap.decl")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, ["declare", "double_overlap.decl", "--m", "3", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["measures"]["LTL_c"] == 2


def test_declare_without_ground_init_narrows_the_conflict(
    capsys, monkeypatch, tmp_path, data_dir
):
    shutil.copy(data_dir / "double_overlap.decl", tmp_path / "double_overlap.decl")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys,
        [
            "declare",
            "double_overlap.decl",
            "--m",
            "3",
            "--no-ground-init",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ground_cells"] == []
    assert payload["measures"]["LTL_c"] == 1


def test_declare_emit_flag_and_pinning_note(capsys, monkeypatch, tmp_path, data_dir):
    shutil.copy(data_dir / "overlap.decl", tmp_path / "overlap.decl")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(
        capsys, ["declare", "overlap.decl", "--m", "3", "--emit", "out.ltlkb"]
    )
    assert code == 0
    assert (tmp_path / "out.ltlkb").exists()
    assert "Init pinning" in out


def test_postulates_matrix_report(capsys):
    code, out, _ = run_cli(capsys, ["postulates", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    cells = {(c["measure"], c["postulate"]): c for c in payload["cells"]}
    assert len(cells) == len(EXPECTED_MATRIX) * len(Postulate)
    for (measure_id, postulate), cell in cells.items():
        expected = EXPECTED_MATRIX[measure_id][Postulate(postulate)]
        assert cell["expected"] == ("holds" if expected else "fails")
        if expected:
            assert "certificate" not in cell
        elif cell["certificate"] is not None:
            assert cell["certificate"]["outcome"] == "violated"
    assert cells[("at", "MO")]["certificate"] is None
    assert "note" in cells[("at", "MO")]
    assert cells[("d", "TS")]["certificate"]["details"]["value_spread"] == 1


def test_postulates_matrix_text_lists_rows(capsys):
    code, out, _ = run_cli(capsys, ["postulates"])
    assert code == 0
    assert "CO" in out and "TS" in out
    assert "LTL_d" in out
    assert "certificate outcome violated" in out


def test_postulates_sweep_counts_add_up(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "postulates",
            "--measure",
            "d",
            "--postulate",
            "TS",
            "--sweep",
            "3",
            "--seed",
            "1",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sweep"] == 3
    (cell,) = payload["cells"]
    assert cell["instances"] == 3
    assert cell["holds"] == 0
    assert cell["holds"] + cell["not_applicable"] + len(cell["violations"]) == 3


def test_explain_oracle_mode_counts_raw_models(capsys, data_dir):
    code, out, _ = run_cli(
        capsys,
        ["explain", str(data_dir / "next_clash.ltlkb"), "--oracle", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["min_affected_states"] == 1
    assert payload["signature_count"] == 1
    assert payload["raw_model_count"] >= 1


@pytest.mark.parametrize(
    "name,extra",
    [
        ("always_clash.ltlkb", []),
        ("next_clash.ltlkb", []),
        ("next_clash.ltlkb", ["--m", "1", "--allow-short-trace"]),
    ],
)
def test_explain_oracle_enumerates_once(capsys, monkeypatch, data_dir, name, extra):
    calls = []
    enumerate_space = oracle._model_space

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_space(*args, **kwargs)

    monkeypatch.setattr(oracle, "_model_space", counted)
    argv = ["explain", str(data_dir / name), "--oracle", "--format", "json", *extra]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()

    # The report is the one an oracle LTL_d run and the base collection
    # give separately.
    kb = load_kb(str(data_dir / name), m=1 if extra else None, allow_short_trace=bool(extra))
    run = run_measures(kb, ("LTL_d",), use_oracle=True)
    best, bases, raw = oracle.oracle_minimal_conflict_bases(kb)
    payload = json.loads(out)
    assert payload["min_affected_states"] == best
    assert payload["conflict_bases"] == [[list(cell) for cell in b] for b in bases]
    assert payload["raw_model_count"] == raw
    assert payload["witness"]["states"] == run.witness_affected.to_json_dict()["states"]
    assert payload["warnings"] == list(run.warnings)
    assert bool(payload["warnings"]) == bool(extra)


def test_explain_caps_the_listed_bases(capsys, tmp_path):
    source = tmp_path / "two_ways.ltlkb"
    source.write_text("m = 3\na | b\n(! a) & (! b)\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, ["explain", str(source), "--max-bases", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["signature_count"] == 2
    assert payload["conflict_bases_shown"] == 1
    assert len(payload["conflict_bases"]) == 1


def test_module_entry_point_runs_as_a_subprocess(data_dir):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "ltlim.cli",
            "measure",
            str(data_dir / "next_clash.ltlkb"),
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["measures"]["LTL_d"] == 1


def _cap_memory() -> None:
    """Cap the child's address space at 2 GB."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "--measure", "d"],
        ["measure", "--measure", "LTL_d"],
        ["measure", "--measure", "LTL_c"],
        ["explain"],
    ],
    ids=["d", "LTL_d", "LTL_c", "explain"],
)
def test_a_trace_longer_than_the_budget_exits_3_without_allocating(tmp_path, argv):
    # The pass and the search refuse before they build anything per
    # state or per cell; under the cap, building it would end in a
    # MemoryError traceback and exit 1.
    base = tmp_path / "long_trace.ltlkb"
    base.write_text("m = 99999999999\na & !a\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "ltlim.cli", argv[0], str(base), *argv[1:]],
        capture_output=True,
        text=True,
        preexec_fn=_cap_memory,
        timeout=120,
    )
    assert result.returncode == 3, result.stderr
    assert "work budget of 10000000" in result.stderr


def test_explain_rejects_a_negative_base_cap(capsys, data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["explain", str(data_dir / "next_clash.ltlkb"), "--max-bases", "-1"])
    assert exc.value.code == 2
    assert "--max-bases" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,argv",
    [
        ("--budget", ["measure", "next_clash.ltlkb"]),
        ("--sweep", ["postulates", "--measure", "d", "--postulate", "CO"]),
    ],
)
def test_a_negative_budget_or_sweep_is_an_input_error(
    capsys, monkeypatch, data_dir, flag, argv
):
    monkeypatch.chdir(data_dir)
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "-1", "--format", "json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "expected a nonnegative integer" in err


def test_a_zero_budget_is_legal_and_runs_out_at_the_first_work(capsys, data_dir):
    code, _, err = run_cli(
        capsys, ["measure", str(data_dir / "next_clash.ltlkb"), "--budget", "0"]
    )
    assert code == 3
    assert "work budget of 0" in err


@pytest.mark.parametrize(
    "argv,unread",
    [
        (["postulates"], ["--g-semantics", "strict"]),
        (["postulates"], ["--allow-short-trace"]),
        (["postulates"], ["--oracle"]),
        (["postulates"], ["--oracle-cap", "12"]),
        # Not taken for an abbreviation of --oracle-cap.
        (["oracle-check", "next_clash.ltlkb"], ["--oracle"]),
    ],
    ids=["postulates-g", "postulates-short", "postulates-oracle", "postulates-cap", "oracle"],
)
def test_options_a_command_never_read_are_unrecognized(
    capsys, monkeypatch, data_dir, argv, unread
):
    monkeypatch.chdir(data_dir)
    with pytest.raises(SystemExit) as exc:
        main(argv + unread)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err


def _fields_read(args: argparse.Namespace) -> set[str]:
    """The fields of ``args`` that its subcommand reads when it runs."""
    read = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    assert args.func(Recorder(**vars(args))) == 0
    return read & set(vars(args))


# Command lines that, together, take every branch of a subcommand that
# reads an option.
_READING_RUNS = {
    "measure": [
        ["measure", "next_clash.ltlkb"],
        ["measure", "next_clash.ltlkb", "--format", "json"],
    ],
    "declare": [["declare", "overlap.decl", "--m", "3", "--emit", "{tmp}/overlap.ltlkb"]],
    "explain": [
        ["explain", "next_clash.ltlkb"],
        ["explain", "next_clash.ltlkb", "--oracle"],
    ],
    "postulates": [
        ["postulates", "--measure", "d", "--postulate", "TS"],
        ["postulates", "--measure", "d", "--postulate", "CO", "--sweep", "1"],
    ],
    "oracle-check": [["oracle-check", "next_clash.ltlkb"]],
}


@pytest.mark.parametrize("command", sorted(_READING_RUNS))
def test_help_lists_exactly_the_options_a_command_reads(
    capsys, monkeypatch, tmp_path, data_dir, command
):
    monkeypatch.chdir(data_dir)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = {
        line.split()[0].rstrip(",")[2:].replace("-", "_")
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("  --")
    }
    read = set()
    for argv in _READING_RUNS[command]:
        read |= _fields_read(_build_parser().parse_args([a.format(tmp=tmp_path) for a in argv]))
    assert listed == read - {"input", "inputs"}


def test_repeated_calls_in_one_process_give_the_same_output(
    capsys, monkeypatch, tmp_path, data_dir
):
    argvs = [
        ["measure", "next_clash.ltlkb", "--format", "json"],
        ["postulates", "--measure", "d", "--postulate", "CO", "--sweep", "2"],
        ["explain", "next_clash.ltlkb", "--format", "json"],
        ["measure", "next_clash.ltlkb", "--no-such-option"],
        ["declare", "overlap.decl", "--m", "3", "--emit", str(tmp_path / "overlap.ltlkb")],
        ["explain", "--help"],
        ["oracle-check", "next_clash.ltlkb", "--format", "json"],
        ["measure", "next_clash.ltlkb", "--measure", "LTL_c"],
    ]
    built = []
    add_argument = argparse._ActionsContainer.add_argument

    def counted(self, *args, **kwargs):
        built.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
    monkeypatch.chdir(data_dir)
    _build_parser.cache_clear()

    def one_round():
        outputs = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            outputs.append((code, *capsys.readouterr()))
        return outputs

    first = one_round()
    per_build = len(built)
    assert [code for code, _, _ in first] == [0, 0, 0, 2, 0, 0, 0, 0]
    assert "unrecognized arguments: --no-such-option" in first[3][2]
    assert first[5][1].startswith("usage: ltlim explain")
    assert one_round() == first
    # The parser is built once, by the first call.
    assert per_build and len(built) == per_build


@pytest.mark.parametrize("value", ["1", "-3", "two"])
def test_postulates_rejects_a_trace_shorter_than_two(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["postulates", "--m", value, "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m" in captured.err and "at least 2" in captured.err


def test_postulates_reads_the_default_trace_length(capsys):
    code, out, _ = run_cli(capsys, ["postulates", "--measure", "d", "--format", "json"])
    assert code == 0
    assert json.loads(out)["m"] == DEFAULT_TRACE_LENGTH


def test_postulates_builds_its_certificates_at_the_trace_length_given(capsys):
    code, out, _ = run_cli(capsys, ["postulates", "--m", "5", "--format", "json"])
    assert code == 0
    cells = json.loads(out)["cells"]
    certificates = [cell["certificate"] for cell in cells if cell.get("certificate")]
    assert len(certificates) == 12
    for certificate in certificates:
        details = certificate["details"]
        assert certificate["outcome"] == "violated"
        assert (details["kb"]["m"] if "kb" in details else details["m"]) == 5
