"""End-to-end exercises of the command line front end.

Every test drives ``ltlim.cli.main`` in process and checks exit codes,
report content, and byte stability against golden files under
``tests/data``.
"""

import json
import shutil
import subprocess
import sys

import pytest

from ltlim import oracle
from ltlim.cli import main
from ltlim.formula import load_kb
from ltlim.measures import run_measures
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
        (["declare", "double_overlap.decl", "--m", "4", "--measure", "all"], 4542, 3),
        (["measure", "always_clash.ltlkb", "--m", "8"], 249, 4),
        (["explain", "always_clash.ltlkb"], 84, 2),
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


@pytest.mark.parametrize(
    "command,name,text",
    [
        ("measure", "deep.ltlkb", "m = 3\n" + "!" * 3000 + " a\n"),
        ("declare", "deep.decl", "activities: a\nAtLeast(a, 400)\n"),
    ],
    ids=["nested-negation", "counted-template"],
)
def test_deeply_nested_input_exits_with_code_two(
    capsys, monkeypatch, tmp_path, command, name, text
):
    (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, [command, name, "--m", "3"])
    assert code == 2
    assert "nested too deeply" in err
    assert "Traceback" not in err


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
    assert "node budget of 30" in err


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
        calls.append(kwargs.get("two_valued", False))
        return enumerate_space(*args, **kwargs)

    monkeypatch.setattr(oracle, "_model_space", counted)
    argv = ["explain", str(data_dir / name), "--oracle", "--format", "json", *extra]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert calls == [False]
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


def test_explain_rejects_a_negative_base_cap(capsys, data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["explain", str(data_dir / "next_clash.ltlkb"), "--max-bases", "-1"])
    assert exc.value.code == 2
    assert "--max-bases" in capsys.readouterr().err
