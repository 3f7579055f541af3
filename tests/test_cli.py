"""End-to-end CLI tests driven through main(argv)."""
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import leasesim
from leasesim import cli, reporting
from leasesim.cli import SUBCOMMANDS, build_parser, main
from leasesim.environment import scenario_from_dict
from leasesim.reporting import read_trace_csv

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"horizon_slots": 200, "seed": 5}))
    return str(path)


def write_json(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


# --- run ---------------------------------------------------------------


def test_run_writes_trace_and_summary(tmp_path, scenario_path, capsys):
    out = str(tmp_path / "trace.csv")
    assert main(["run", "--scenario", scenario_path, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "trace.csv" in stdout and "cost=" in stdout

    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 201  # header + one row per slot

    summary = json.loads((tmp_path / "trace.summary.json").read_text())
    assert summary["header"]["policy"] == "dsf"
    assert summary["summary"]["lease_count"] >= 0


def test_run_default_out_in_cwd(tmp_path, monkeypatch, scenario_path):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", scenario_path]) == 0
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "trace.summary.json").exists()


def test_run_reruns_are_byte_identical(tmp_path, scenario_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["run", "--scenario", scenario_path, "--out", a]) == 0
    assert main(["run", "--scenario", scenario_path, "--out", b]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_seed_override_changes_market(tmp_path, scenario_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["run", "--scenario", scenario_path, "--out", a]) == 0
    assert main(["run", "--scenario", scenario_path, "--seed", "99", "--out", b]) == 0
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()


def test_run_seed_override_warns_once_about_headroom(tmp_path):
    """--seed changes the seed alone: the scenario's checks, and so its
    no-headroom warning, are not repeated."""
    path = write_json(tmp_path, "hot.json", {"arrival_prob": 0.9, "horizon_slots": 50})
    with pytest.warns(UserWarning, match="stability headroom") as record:
        assert main(["run", "--scenario", path, "--seed", "3", "--out", str(tmp_path / "t.csv")]) == 0
    assert len(record) == 1
    assert not record[0].filename.endswith("dataclasses.py")


@pytest.mark.parametrize(
    "seed,message",
    [
        ("-1", "seed must be >= 0, got -1"),
        ("18446744073709551616", "seed must be <= 18446744073709551615, got 18446744073709551616"),
    ],
)
def test_run_rejects_out_of_range_seed_override(tmp_path, scenario_path, capsys, seed, message):
    out = tmp_path / "t.csv"
    assert main(["run", "--scenario", scenario_path, "--seed", seed, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_policy_missing_param_is_usage_error(tmp_path, scenario_path, capsys):
    out = str(tmp_path / "t.csv")
    assert main(["run", "--scenario", scenario_path, "--policy", "periodic", "--out", out]) == 1
    assert "period_k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,field",
    [
        ("--v", "nan", "v"),
        ("--v", "inf", "v"),
        ("--eps", "nan", "eps_d"),
        ("--eps", "inf", "eps_d"),
        ("--v", "-1e3", "v"),
        ("--eps", "-inf", "eps_d"),
    ],
)
def test_run_rejects_non_finite_control(tmp_path, scenario_path, capsys, flag, value, field):
    out = tmp_path / "t.csv"
    assert main(["run", "--scenario", scenario_path, flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{field} must be a finite number > 0, got {float(value)!r}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "policy,message",
    [
        ("queue_threshold:nan", "queue_cutoff must be a finite number > 0, got nan"),
        ("price_only:inf", "price_cutoff must be a finite number > 0, got inf"),
    ],
)
def test_run_rejects_non_finite_policy_cutoff(tmp_path, scenario_path, capsys, policy, message):
    out = tmp_path / "t.csv"
    assert main(["run", "--scenario", scenario_path, "--policy", policy, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "document,message",
    [
        ({"horizon_slots": 10.5}, "horizon_slots must be an integer, got 10.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"initial_backlog": 1.5}, "initial_backlog must be an integer, got 1.5"),
        ({"freeze_z_when_empty": "no"}, "freeze_z_when_empty must be true or false, got 'no'"),
        ({"arrival_prob": "0.3"}, "arrival_prob must be a finite number >= 0, got '0.3'"),
        ({"price_low": True}, "price_low must be a finite number > 0, got True"),
        ({"horizon_slots": 10**20}, f"horizon_slots must be <= 1000000, got {10**20}"),
    ],
)
def test_run_rejects_mistyped_scenario_field(tmp_path, capsys, document, message):
    out = tmp_path / "t.csv"
    scenario = write_json(tmp_path, "scenario.json", document)
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_rejects_a_summary_json_cannot_hold(tmp_path, scenario_path, capsys, monkeypatch):
    """At eps 1e308 the virtual queue could overflow to inf, which RFC 8259
    JSON has no token for, so the run exits 1 naming eps_d before the
    policy runs, and writes no file."""
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("the policy ran"))
    out = tmp_path / "t.csv"
    assert main(["run", "--scenario", scenario_path, "--eps", "1e308", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "eps_d=1e+308 is too large for horizon_slots=200: the sum of z" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [Path(scenario_path)]


def test_compare_rejects_a_ranking_json_cannot_hold(tmp_path, scenario_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "compare", lambda *args: pytest.fail("a policy ran"))
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", scenario_path, "--eps", "1e308", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "eps_d=1e+308 is too large for horizon_slots=200: the sum of z" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [Path(scenario_path)]


def test_run_rejects_a_v_whose_threshold_overflows(tmp_path, scenario_path, capsys):
    """At v 1e308 the dsf threshold v * (expected prices) is inf, so dsf
    would never lease; the run exits 1 naming v and writes no file."""
    out = tmp_path / "t.csv"
    assert main(["run", "--scenario", scenario_path, "--v", "1e308", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "v=1e+308 is too large: the lease threshold" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [Path(scenario_path)]


def test_sweep_rejects_a_v_whose_threshold_overflows(tmp_path, scenario_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--scenario", scenario_path, "--v", "1,1e308", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "v=1e+308 is too large: the lease threshold" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [Path(scenario_path)]


def test_run_rejects_a_price_high_whose_joint_price_overflows(tmp_path, capsys):
    out = tmp_path / "t.csv"
    scenario = write_json(tmp_path, "scenario.json", {"price_high": 1e308})
    assert main(["run", "--scenario", scenario, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "price_high must keep the joint price price_high + price_high finite, got 1e+308" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_missing_scenario_file(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t.csv")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_rejects_malformed_scenario_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "t.csv")]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_run_summarizes_the_trace_once(tmp_path, scenario_path, monkeypatch, capsys):
    calls = []
    summarize = reporting.summarize

    def counted(trace):
        calls.append(trace)
        return summarize(trace)

    monkeypatch.setattr(reporting, "summarize", counted)
    monkeypatch.setattr(cli, "summarize", counted, raising=False)  # a direct call from cli counts too
    assert main(["run", "--scenario", scenario_path, "--out", str(tmp_path / "t.csv")]) == 0
    expected = summarize(read_trace_csv(tmp_path / "t.csv"))
    assert len(calls) == 1
    assert f"cost={expected.accumulated_cost:.2f} " in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, written",
    [
        (["run", "--out", "t.csv"], {"t.csv", "t.summary.json"}),
        (["run", "--out", "t.json"], {"t.json", "t.json.summary.json"}),
        (["run", "--out", "t"], {"t", "t.summary.json"}),
        (["sweep", "--v", "1", "--eps", "1", "--out", "s.json"], {"s.json", "s.csv"}),
        (["sweep", "--v", "1", "--eps", "1", "--out", "s.csv"], {"s.csv", "s.csv.csv"}),
        (["sweep", "--v", "1", "--eps", "1", "--out", "s"], {"s", "s.csv"}),
    ],
    ids=["run_csv", "run_json", "run_bare", "sweep_json", "sweep_csv", "sweep_bare"],
)
def test_the_second_output_sits_beside_the_first(tmp_path, scenario_path, monkeypatch, argv, written):
    """run and sweep write a second file beside --out by one rule: --out's
    own suffix (.csv for run, .json for sweep) is replaced, and any other
    name gets the sibling's suffix appended."""
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--scenario", scenario_path]) == 0
    assert {path.name for path in tmp_path.iterdir()} == written | {Path(scenario_path).name}


def test_sweep_rejects_an_eps_whose_z_sum_overflows_before_any_cell(tmp_path, scenario_path, monkeypatch, capsys):
    """At horizon_slots 200, eps_d 1e305 could take the sum of z, which the
    summary averages, past the largest float, so sweep exits 1 naming eps_d
    before its first cell runs; 1e300 is run."""
    monkeypatch.setattr(reporting, "runs", lambda *args: pytest.fail("a cell ran"))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--scenario", scenario_path, "--v", "1", "--eps", "1,1e305", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "eps_d=1e+305 is too large for horizon_slots=200: the sum of z" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [Path(scenario_path)]
    monkeypatch.undo()
    assert main(["sweep", "--scenario", scenario_path, "--v", "1", "--eps", "1e300", "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "argv, directory",
    [
        (["run", "--out", "adir"], "adir"),
        (["run", "--out", "t.csv"], "t.summary.json"),
        (["sweep", "--v", "1", "--eps", "1", "--out", "s.json"], "s.csv"),
        (["sweep", "--v", "1", "--eps", "1", "--out", "s.json"], "s.json"),
        (["compare", "--policies", "greedy", "--out", "cmp"], "cmp/series.csv"),
        (["intent", "--file", "intent.json", "--out", "tr.json", "--scenario-out", "der.json"], "der.json"),
        (["intent", "--file", "intent.json", "--scenario-out", "der.json"], "der.json"),
    ],
    ids=["run_out", "run_summary", "sweep_csv", "sweep_json", "compare_series", "intent_scenario_out",
         "intent_stdout"],
)
def test_an_output_path_that_is_a_directory_leaves_no_file(
    tmp_path, scenario_path, monkeypatch, capsys, argv, directory
):
    """A command that writes more than one file checks every output path
    before the first write, so it exits 1 naming the directory and leaves
    no half of its result behind."""
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path, "intent.json", {"payload_mb": 1000, "deadline_s": 900, "reliability_pct": 99})
    (tmp_path / directory).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    scenario = [] if argv[0] == "intent" else ["--scenario", scenario_path]
    assert main(argv + scenario) == 1
    captured = capsys.readouterr()
    assert f"error: {directory}: is a directory, expected a file path" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


ASSURE_INPUTS = ["--trace", "bulk.csv", "--intent", "intent.json", "--translation", "translation.json"]
ORACLE_INPUTS = ["--realization", "real.csv", "--initial-backlog", "1", "--deadline", "3"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--scenario", "base.json", "--out", ""], "argument --out: expected a path, got ''"),
        (["sweep", "--scenario", "base.json", "--v", "1", "--eps", "1", "--out", ""],
         "argument --out: expected a path, got ''"),
        (["compare", "--scenario", "base.json", "--policies", "greedy", "--out", ""],
         "argument --out: expected a path, got ''"),
        (["intent", "--file", "intent.json", "--out", ""], "argument --out: expected a path, got ''"),
        (["intent", "--file", "intent.json", "--scenario-out", ""], "argument --scenario-out: expected a path, got ''"),
        (["assure", *ASSURE_INPUTS, "--out", ""], "argument --out: expected a path, got ''"),
        (["oracle", *ORACLE_INPUTS, "--out", ""], "argument --out: expected a path, got ''"),
        (["intent", "--file", "intent.json", "--out", "x.json", "--scenario-out", "x.json"],
         "error: x.json: names the same file as x.json, expected one file per output"),
        (["intent", "--file", "intent.json", "--out", "x.json", "--scenario-out", "./x.json"],
         "error: ./x.json: names the same file as x.json, expected one file per output"),
        (["compare", "--scenario", "base.json", "--policies", "greedy", "--out", "afile"],
         "error: afile: is not a directory, expected a directory path"),
        (["run", "--scenario", "base.json", "--out", "afile/t.csv"],
         "error: afile/t.summary.json: parent directory afile is not a directory"),
        (["run", "--scenario", "base.json", "--out", "nodir/t.csv"],
         "error: nodir/t.summary.json: parent directory nodir does not exist"),
        (["sweep", "--scenario", "base.json", "--v", "1", "--eps", "1", "--out", "nodir/s.json"],
         "error: nodir/s.json: parent directory nodir does not exist"),
        (["compare", "--scenario", "base.json", "--policies", "greedy", "--out", "afile/sub/deeper"],
         "error: afile: is not a directory, expected a directory path to hold afile/sub/deeper"),
        (["intent", "--file", "intent.json", "--out", "nodir/x.json"],
         "error: nodir/x.json: parent directory nodir does not exist"),
        (["assure", *ASSURE_INPUTS, "--out", "afile/r.json"],
         "error: afile/r.json: parent directory afile is not a directory"),
        (["oracle", *ORACLE_INPUTS, "--out", "nodir/o.json"],
         "error: nodir/o.json: parent directory nodir does not exist"),
        (["run", "--scenario", "base.json", "--out", "base.json"],
         "error: base.json: --out would overwrite the input of --scenario"),
        (["run", "--scenario", "base.summary.json", "--out", "base.csv"],
         "error: base.summary.json: --out would overwrite the input of --scenario"),
        (["sweep", "--scenario", "base.json", "--v", "1", "--eps", "1", "--out", "base.json"],
         "error: base.json: --out would overwrite the input of --scenario"),
        (["compare", "--scenario", "cmp/ranking.json", "--policies", "greedy", "--out", "cmp"],
         "error: cmp/ranking.json: --out would overwrite the input of --scenario"),
        (["intent", "--file", "intent.json", "--out", "intent.json"],
         "error: intent.json: --out would overwrite the input of --file"),
        (["intent", "--file", "intent.json", "--scenario", "base.json", "--scenario-out", "./base.json"],
         "error: ./base.json: --scenario-out would overwrite the input of --scenario"),
        (["assure", *ASSURE_INPUTS, "--out", "bulk.csv"],
         "error: bulk.csv: --out would overwrite the input of --trace"),
        (["assure", *ASSURE_INPUTS, "--out", "intent.json"],
         "error: intent.json: --out would overwrite the input of --intent"),
        (["assure", *ASSURE_INPUTS, "--out", "translation.json"],
         "error: translation.json: --out would overwrite the input of --translation"),
        (["oracle", *ORACLE_INPUTS, "--out", "real.csv"],
         "error: real.csv: --out would overwrite the input of --realization"),
    ],
    ids=["run_empty", "sweep_empty", "compare_empty", "intent_out_empty", "intent_scenario_out_empty",
         "assure_empty", "oracle_empty", "intent_same_file", "intent_same_file_other_spelling",
         "compare_out_is_a_file", "run_parent_is_a_file", "run_parent_missing", "sweep_parent_missing",
         "compare_ancestor_is_a_file", "intent_parent_missing", "assure_parent_is_a_file",
         "oracle_parent_missing", "run_over_input", "run_summary_over_input", "sweep_over_input",
         "compare_over_input", "intent_out_over_input", "intent_scenario_out_over_input",
         "assure_over_trace", "assure_over_intent", "assure_over_translation", "oracle_over_input"],
)
def test_a_bad_output_path_exits_one_before_any_work(tmp_path, assured_pipeline, monkeypatch, capsys, argv, named):
    """An empty output path, two outputs that name one file, a compare
    directory that is or lies under an existing file, a file whose parent
    directory is missing or a file, or an output that names one of the
    command's own inputs exits 1 naming the flag or the path, before any
    simulation, comparison, assurance or oracle runs, and leaves the
    working directory and every file in it as they were."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "real.csv").write_text(WORKED_CSV)
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "cmp").mkdir()
    for copy in ("base.summary.json", "cmp/ranking.json"):
        (tmp_path / copy).write_bytes((tmp_path / "base.json").read_bytes())

    def refuse(*args, **kwargs):
        raise AssertionError("the command did its work before rejecting an output path")

    for name in ("run", "sweep", "compare", "assure", "offline_min_cost"):
        monkeypatch.setattr(cli, name, refuse)
    before = sorted(os.listdir(tmp_path))
    contents = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == contents


def test_the_readme_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    """The README's intent JSON saved as intent.json, then every leasesim
    line of its command block, in order, in one directory: each exits 0,
    and assure passes."""
    section = README.read_text().split("## Command line\n", 1)[1]
    intent = section.split("```json\n", 1)[1].split("```", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("leasesim ")]
    assert [argv[0] for argv in commands] == ["intent", "run", "assure", "sweep", "compare", "oracle"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "intent.json").write_text(intent)
    for argv in commands:
        capsys.readouterr()
        assert main(argv) == 0, argv
        if argv[0] == "assure":
            assert capsys.readouterr().out.startswith("verdict: pass (delivered 100 of required 99 ")


# --- sweep -------------------------------------------------------------


def test_sweep_default_grid(tmp_path, scenario_path):
    out = str(tmp_path / "sweep.json")
    assert main(["sweep", "--scenario", scenario_path, "--out", out]) == 0
    table = json.loads((tmp_path / "sweep.json").read_text())
    assert len(table["rows"]) == 18  # 6 v values x 3 eps values
    assert table["common_random_numbers"] is True

    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 19


def test_sweep_single_cell_matches_run(tmp_path, scenario_path):
    sweep_out = str(tmp_path / "s.json")
    run_out = str(tmp_path / "r.csv")
    assert main(["sweep", "--scenario", scenario_path, "--v", "5", "--eps", "1", "--out", sweep_out]) == 0
    assert main(["run", "--scenario", scenario_path, "--v", "5", "--eps", "1", "--out", run_out]) == 0
    cell = json.loads((tmp_path / "s.json").read_text())["rows"][0]
    summary = json.loads((tmp_path / "r.summary.json").read_text())["summary"]
    assert cell["summary"] == summary


def test_sweep_no_crn_flag(tmp_path, scenario_path):
    out = str(tmp_path / "s.json")
    assert main(["sweep", "--scenario", scenario_path, "--v", "1,2", "--eps", "1", "--no-crn", "--out", out]) == 0
    table = json.loads((tmp_path / "s.json").read_text())
    assert table["common_random_numbers"] is False
    seeds = {row["seed"] for row in table["rows"]}
    assert len(seeds) == 2


@pytest.mark.parametrize("crn", [[], ["--no-crn"]])
def test_sweep_warns_once_about_headroom(tmp_path, crn):
    """The no-headroom warning comes from loading the scenario, not again
    from every cell."""
    path = write_json(tmp_path, "hot.json", {"arrival_prob": 0.9, "horizon_slots": 50})
    argv = ["sweep", "--scenario", path, "--v", "1,2", "--eps", "1", *crn, "--out", str(tmp_path / "s.json")]
    with pytest.warns(UserWarning, match="stability headroom") as record:
        assert main(argv) == 0
    assert len(record) == 1
    assert not record[0].filename.endswith("dataclasses.py")


def test_sweep_malformed_grid(tmp_path, scenario_path, capsys):
    assert main(["sweep", "--scenario", scenario_path, "--v", "1,,2", "--out", str(tmp_path / "s.json")]) == 1
    assert "--v" in capsys.readouterr().err


# --- compare -----------------------------------------------------------


def test_compare_outputs_and_ranking(tmp_path, scenario_path, capsys):
    out_dir = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "--scenario",
            scenario_path,
            "--policies",
            "greedy,price_only:8",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "1." in stdout and "accumulated_cost=" in stdout

    ranking = json.loads((out_dir / "ranking.json").read_text())["ranking"]
    assert [row["rank"] for row in ranking] == [1, 2]
    series_lines = (out_dir / "series.csv").read_text().splitlines()
    assert series_lines[0] == "policy,t,cumulative_average_cost"
    assert len(series_lines) == 1 + 2 * 200


def test_compare_unknown_policy(tmp_path, scenario_path, capsys):
    assert main(["compare", "--scenario", scenario_path, "--policies", "dsf,wizard", "--out", str(tmp_path / "c")]) == 1
    assert "valid kinds" in capsys.readouterr().err


def test_compare_names_close_cutoffs_apart(tmp_path, scenario_path):
    """Cutoffs that agree to six digits are two policies with two labels,
    each of which parses back to its own cutoff."""
    out_dir = tmp_path / "close"
    policies = "price_only:8,price_only:8.0000001"
    assert main(["compare", "--scenario", scenario_path, "--policies", policies, "--out", str(out_dir)]) == 0
    ranking = json.loads((out_dir / "ranking.json").read_text())["ranking"]
    assert sorted(row["policy"] for row in ranking) == ["price_only:8", "price_only:8.0000001"]


def test_compare_single_policy(tmp_path, scenario_path):
    out_dir = tmp_path / "solo"
    assert main(["compare", "--scenario", scenario_path, "--policies", "dsf", "--out", str(out_dir)]) == 0
    ranking = json.loads((out_dir / "ranking.json").read_text())["ranking"]
    assert len(ranking) == 1 and ranking[0]["policy"] == "dsf"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--policies", "dsf,dsf"], "--policies: 'dsf' repeats the earlier entry 'dsf' in list 'dsf,dsf'"),
        (["compare", "--policies", "dsf, greedy,greedy "],
         "--policies: 'greedy' repeats the earlier entry 'greedy' in list 'dsf, greedy,greedy '"),
        # one cutoff written two ways: the labels are equal, so series.csv
        # could not tell the runs apart (distinct cutoffs get distinct labels)
        (["compare", "--policies", "price_only:8,price_only:8.000"],
         "--policies: 'price_only:8.000' repeats the earlier entry 'price_only:8' in list "
         "'price_only:8,price_only:8.000'"),
        (["compare", "--policies", "dsf,,greedy"], "--policies: empty entry in list 'dsf,,greedy'"),
        (["compare", "--policies", "dsf,"], "--policies: empty entry in list 'dsf,'"),
        (["compare", "--policies", ""], "--policies: empty entry in list ''"),
        (["sweep", "--v", "1,1"], "--v: '1' repeats the earlier entry '1' in list '1,1'"),
        (["sweep", "--v", "1,2,1.0"], "--v: '1.0' repeats the earlier entry '1' in list '1,2,1.0'"),
        (["sweep", "--eps", "0.5,-0.0,0"], "--eps: '0' repeats the earlier entry '-0.0' in list '0.5,-0.0,0'"),
        (["sweep", "--v", "1,,2"], "--v: empty entry in list '1,,2'"),
    ],
    ids=["policy", "policy_spaced", "policy_label", "policy_empty", "policy_trailing", "policy_none",
         "v", "v_float", "eps_signed_zero", "v_empty"],
)
def test_repeated_or_empty_list_entries_exit_one_before_any_run(
    tmp_path, scenario_path, capsys, monkeypatch, argv, message
):
    """A repeated entry would run twice under one name: compare would rank
    one policy twice, sweep write two identical rows. It exits 1 naming the
    flag and the entry, as an empty entry does, before anything runs or is
    written."""
    ran = []
    monkeypatch.setattr(cli, "compare", lambda *args, **kwargs: ran.append(args))
    monkeypatch.setattr(cli, "sweep", lambda *args, **kwargs: ran.append(args))
    assert main([*argv, "--scenario", scenario_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert ran == []
    assert [path.name for path in tmp_path.iterdir()] == ["scenario.json"]


# --- intent ------------------------------------------------------------

FLAGSHIP_DOC = {"payload_mb": 1000, "deadline_s": 900, "reliability_pct": 99}


def test_intent_flagship_to_file(tmp_path, capsys):
    intent_path = write_json(tmp_path, "intent.json", FLAGSHIP_DOC)
    out = str(tmp_path / "translation.json")
    assert main(["intent", "--file", intent_path, "--out", out]) == 0
    assert "n_packets=100" in capsys.readouterr().out

    document = json.loads((tmp_path / "translation.json").read_text())
    translation = document["translation"]
    assert translation["n_packets"] == 100
    assert translation["deadline_slots"] == 900
    assert translation["params"]["eps_d"] == 0.5
    assert round(translation["params"]["v"], 2) == 17.26
    assert translation["feasible"] is True
    assert document["header"]["translator"]["packet_size_mb"] == 10.0


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("payload_mb", "1000", "payload_mb must be a finite number > 0, got '1000'"),
        ("payload_mb", math.nan, "payload_mb must be a finite number > 0, got nan"),
        ("deadline_s", math.inf, "deadline_s must be a finite number > 0, got inf"),
        ("reliability_pct", "99", "reliability_pct must be a number in (0, 100], got '99'"),
    ],
)
def test_intent_rejects_bad_field(tmp_path, capsys, field, value, message):
    intent_path = write_json(tmp_path, "intent.json", {**FLAGSHIP_DOC, field: value})
    assert main(["intent", "--file", intent_path, "--out", str(tmp_path / "t.json")]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_intent_rejects_non_finite_packet_size(tmp_path, capsys):
    intent_path = write_json(tmp_path, "intent.json", FLAGSHIP_DOC)
    assert main(["intent", "--file", intent_path, "--packet-size", "nan"]) == 1
    assert "packet_size_mb must be a finite number > 0, got nan" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--packet-size", "packet_size_mb=1e-320 is too small for payload_mb=1000: the packet count overflows"),
        ("--slot-duration", "slot_duration_s=1e-320 is too small for deadline_s=900: the slot count overflows"),
    ],
)
def test_intent_rejects_a_knob_whose_count_overflows(tmp_path, capsys, flag, message):
    intent_path = write_json(tmp_path, "intent.json", FLAGSHIP_DOC)
    assert main(["intent", "--file", intent_path, flag, "1e-320"]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_intent_stdout_mode(tmp_path, capsys):
    intent_path = write_json(tmp_path, "intent.json", FLAGSHIP_DOC)
    assert main(["intent", "--file", intent_path]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["translation"]["n_packets"] == 100


def test_intent_stdout_mode_is_strict_json(tmp_path, capsys):
    """Without --out the translation goes to stdout by the rule --out
    files follow: a tightness of inf exits 1 naming the key, and nothing
    reaches stdout."""
    intent_path = write_json(tmp_path, "intent.json", FLAGSHIP_DOC)
    scenario = write_json(tmp_path, "scenario.json", {"avail_prob_ris": 0.0})
    derived = tmp_path / "derived.json"
    argv = ["intent", "--file", intent_path, "--scenario", scenario, "--scenario-out", str(derived)]
    with pytest.warns(UserWarning, match="stability headroom"):
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stdout: translation.tightness is inf, which JSON cannot hold" in captured.err
    assert "Traceback" not in captured.err
    assert not derived.exists()
    out = tmp_path / "translation.json"
    with pytest.warns(UserWarning, match="stability headroom"):
        assert main(argv[:-2] + ["--out", str(out)]) == 1
    assert f"{out}: translation.tightness is inf, which JSON cannot hold" in capsys.readouterr().err
    assert not out.exists()


def test_intent_derived_scenario_bulk_and_streaming(tmp_path):
    intent_path = write_json(tmp_path, "intent.json", FLAGSHIP_DOC)
    bulk_path = tmp_path / "bulk.json"
    stream_path = tmp_path / "stream.json"
    assert main(["intent", "--file", intent_path, "--out", str(tmp_path / "t.json"), "--scenario-out", str(bulk_path)]) == 0
    assert main(["intent", "--file", intent_path, "--out", str(tmp_path / "t2.json"), "--scenario-out", str(stream_path), "--streaming"]) == 0

    bulk = scenario_from_dict(json.loads(bulk_path.read_text()))
    assert bulk.initial_backlog == 100
    assert bulk.arrival_prob == 0.0
    assert bulk.horizon_slots == 900
    assert bulk.freeze_z_when_empty is True

    stream = scenario_from_dict(json.loads(stream_path.read_text()))
    assert stream.initial_backlog == 0
    assert stream.arrival_prob == pytest.approx(100 / 900)


def test_intent_custom_packet_size(tmp_path):
    intent_path = write_json(tmp_path, "intent.json", FLAGSHIP_DOC)
    out = str(tmp_path / "t.json")
    assert main(["intent", "--file", intent_path, "--packet-size", "20", "--out", out]) == 0
    document = json.loads((tmp_path / "t.json").read_text())
    assert document["translation"]["n_packets"] == 50


def test_intent_bad_document(tmp_path, capsys):
    intent_path = write_json(tmp_path, "intent.json", {"payload_mb": 10})
    assert main(["intent", "--file", intent_path]) == 1
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
def test_intent_derivation_failure_leaves_no_file(tmp_path, capsys, out):
    """The derived backlog of a 1e20 MB payload breaks initial_backlog's
    bound; the scenario is derived before the first write, so no
    translation is written or printed."""
    intent_path = write_json(tmp_path, "big.json", {"payload_mb": 1e20, "deadline_s": 900, "reliability_pct": 99})
    argv = ["intent", "--file", intent_path, "--scenario-out", str(tmp_path / "der.json")]
    if out:
        argv += ["--out", str(tmp_path / "tr.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: initial_backlog must be <= " in captured.err
    assert "Traceback" not in captured.err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["big.json"]


def test_intent_deadline_past_the_horizon_cap_leaves_no_file(tmp_path, capsys):
    """A deadline of 2 * 10**6 one-second slots is past the 10**6-slot
    horizon cap; intent exits 1 naming deadline_slots, with or without
    --scenario-out, and writes nothing."""
    intent_path = write_json(tmp_path, "long.json", {"payload_mb": 100, "deadline_s": 2e6, "reliability_pct": 99})
    argv = ["intent", "--file", intent_path, "--out", str(tmp_path / "tr.json")]
    for extra in (["--scenario-out", str(tmp_path / "der.json")], []):
        assert main(argv + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: deadline_slots must be <= 1000000, got 2000000" in captured.err
        assert "Traceback" not in captured.err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["long.json"]


# --- assure ------------------------------------------------------------


@pytest.fixture
def assured_pipeline(tmp_path):
    """intent -> translation -> derived scenario -> greedy run, all via CLI."""
    intent_path = write_json(
        tmp_path, "intent.json", {"payload_mb": 50, "deadline_s": 50, "reliability_pct": 99}
    )
    base_path = write_json(
        tmp_path,
        "base.json",
        {"arrival_prob": 0.0, "avail_prob_ris": 1.0, "avail_prob_spectrum": 1.0},
    )
    translation_path = str(tmp_path / "translation.json")
    derived_path = tmp_path / "derived.json"
    assert (
        main(
            [
                "intent",
                "--file",
                intent_path,
                "--scenario",
                base_path,
                "--out",
                translation_path,
                "--scenario-out",
                str(derived_path),
            ]
        )
        == 0
    )
    trace_path = str(tmp_path / "bulk.csv")
    assert main(["run", "--scenario", str(derived_path), "--policy", "greedy", "--out", trace_path]) == 0
    return intent_path, translation_path, derived_path, trace_path


def test_assure_pass_exits_zero(tmp_path, assured_pipeline, capsys):
    intent_path, translation_path, _, trace_path = assured_pipeline
    report_path = str(tmp_path / "report.json")
    code = main(
        ["assure", "--trace", trace_path, "--intent", intent_path, "--translation", translation_path, "--out", report_path]
    )
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["delivered_packets"] == 5
    assert report["verdict"] == "pass"


def test_assure_rejects_an_output_directory_before_reading(tmp_path, assured_pipeline, capsys):
    """An --out that is a directory exits 1 naming it before any input is
    read, so no verdict is printed first."""
    intent_path, translation_path, _, trace_path = assured_pipeline
    (tmp_path / "outdir").mkdir()
    out = str(tmp_path / "outdir")
    capsys.readouterr()
    code = main(["assure", "--trace", trace_path, "--intent", intent_path, "--translation", translation_path,
                 "--out", out])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: is a directory, expected a file path\n"
    assert captured.out == ""


def test_assure_truncated_run_exits_two(tmp_path, assured_pipeline, capsys):
    intent_path, translation_path, derived_path, _ = assured_pipeline
    truncated = json.loads(derived_path.read_text())
    truncated["horizon_slots"] = 2
    short_scn = write_json(tmp_path, "short.json", truncated)
    short_trace = str(tmp_path / "short.csv")
    assert main(["run", "--scenario", short_scn, "--policy", "greedy", "--out", short_trace]) == 0

    code = main(["assure", "--trace", short_trace, "--intent", intent_path, "--translation", translation_path])
    assert code == 2
    assert "verdict: fail" in capsys.readouterr().out


@pytest.mark.parametrize(
    "column,cell,text",
    [
        ("arrival", "1.0", "must be an integer, got '1.0'"),
        ("r", "2", "must be <= 1, got 2"),
        ("t", "", "must be an integer, got ''"),
        ("cost", "nan", "must be a finite number >= 0, got nan"),
        ("q_after", "-1.0", "must be a finite number >= 0, got -1.0"),
        ("price_ris", "x", "must be a finite number >= 0, got 'x'"),
    ],
)
def test_assure_rejects_bad_trace_cell(tmp_path, assured_pipeline, capsys, column, cell, text):
    intent_path, translation_path, _, trace_path = assured_pipeline
    with open(trace_path, newline="") as fh:
        lines = fh.read().split("\r\n")
    header = lines[0].split(",")
    cells = lines[3].split(",")
    cells[header.index(column)] = cell
    lines[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    code = main(["assure", "--trace", str(bad), "--intent", intent_path, "--translation", translation_path])
    err = capsys.readouterr().err
    assert code == 1
    assert f"bad.csv: row 3: {column} {text}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "damage, got",
    [(lambda q_after: 0.0, "0.0"), (lambda q_after: q_after / 2, "2.0")],
    ids=["zeroed", "halved"],
)
def test_assure_rejects_a_q_after_its_slot_did_not_give(tmp_path, assured_pipeline, capsys, damage, got):
    """A q_after column the slots' departures do not give would count
    packets never served as delivered; the first slot that breaks the
    loop's rule is named, before any verdict."""
    intent_path, translation_path, _, trace_path = assured_pipeline
    with open(trace_path, newline="") as fh:
        lines = fh.read().split("\r\n")
    column = lines[0].split(",").index("q_after")
    for i, line in enumerate(lines[1:-1], start=1):
        cells = line.split(",")
        cells[column] = repr(damage(float(cells[column])))
        lines[i] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    capsys.readouterr()
    code = main(["assure", "--trace", str(bad), "--intent", intent_path, "--translation", translation_path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: trace row 1: q_after must be 4.0 after q_before 5.0 with r 1, got {got}\n"
    assert captured.out == ""


def test_assure_rejects_a_q_before_the_slot_before_did_not_leave(tmp_path, capsys):
    """Rows rewritten to lease (r and its four decisions 1, q_after one
    below q_before) each keep the departure rule, but the next slot's
    q_before no longer follows: without the chain check, a failing run of
    39 deliveries would pass with 50."""
    intent_path = write_json(tmp_path, "intent.json", {"payload_mb": 450, "deadline_s": 50, "reliability_pct": 99})
    translation_path, derived_path = str(tmp_path / "translation.json"), str(tmp_path / "derived.json")
    assert main(["intent", "--file", intent_path, "--out", translation_path, "--scenario-out", derived_path]) == 0
    params = json.loads((tmp_path / "translation.json").read_text())["translation"]["params"]
    trace_path = str(tmp_path / "t.csv")
    run_argv = ["run", "--scenario", derived_path, "--v", repr(params["v"]), "--eps", repr(params["eps_d"])]
    assert main(run_argv + ["--out", trace_path]) == 0
    assure_argv = ["assure", "--intent", intent_path, "--translation", translation_path, "--trace"]
    capsys.readouterr()
    assert main(assure_argv + [trace_path]) == 2
    assert capsys.readouterr().out.startswith("verdict: fail (delivered 39 of required 45 ")

    with open(trace_path, newline="") as fh:
        lines = fh.read().split("\r\n")
    header = lines[0].split(",")
    rewritten = 0
    for i, line in enumerate(lines[1:-1], start=1):
        cells = line.split(",")
        q_before = float(cells[header.index("q_before")])
        if cells[header.index("r")] == "0" and q_before >= 1:
            for name in ("x_desired", "y_desired", "x_effective", "y_effective", "r"):
                cells[header.index(name)] = "1"
            cells[header.index("q_after")] = repr(q_before - 1)
            lines[i] = ",".join(cells)
            rewritten += 1
    assert rewritten == 11
    bad = tmp_path / "bad.csv"
    bad.write_text("\r\n".join(lines), newline="")
    assert main(assure_argv + [str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: trace row 21: q_before must be 25.0 after q_after 25.0 and arrival 0, got 26.0\n"
    assert captured.out == ""


def test_assure_rejects_a_trace_that_names_a_column_twice(tmp_path, assured_pipeline, capsys):
    """A zero-filled q_after column put first would count every packet in
    the queue as delivered, were the first copy read."""
    intent_path, translation_path, _, trace_path = assured_pipeline
    with open(trace_path, newline="") as fh:
        lines = fh.read().split("\r\n")
    twice = tmp_path / "twice.csv"
    twice.write_text("\n".join(["q_after," + lines[0]] + ["0.0," + line for line in lines[1:] if line]) + "\n")
    code = main(["assure", "--trace", str(twice), "--intent", intent_path, "--translation", translation_path])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{twice}: trace CSV header repeats column q_after" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field,value,message",
    [
        (None, [1, 2], "translation document must be a JSON object, got list"),
        ("params", [1.0], "translation params must be a JSON object, got list"),
        ("deadline_slots", "50", "deadline_slots must be an integer, got '50'"),
        ("deadline_slots", True, "deadline_slots must be an integer, got True"),
        ("n_packets", 0, "n_packets must be >= 1, got 0"),
        ("feasible", "yes", "feasible must be true or false, got 'yes'"),
        ("tightness", -0.5, "tightness must be a number >= 0, got -0.5"),
        ("tightness", math.nan, "tightness must be a number >= 0, got nan"),
        # a misspelled field, at the top or in params, is an error, not dropped
        ("n_packet", 5, "translation document has unknown fields: n_packet; valid fields: n_packets, "),
        (
            "params",
            {"v": 1.0, "eps_d": 1.0, "expected_price_ris": 1.0, "expected_price_spectrum": 1.0, "eps": 1.0},
            "translation params has unknown fields: eps; valid fields: v, eps_d, ",
        ),
        ("deadline_slots", 10**6 + 1, "deadline_slots must be <= 1000000, got 1000001"),  # past the horizon cap
    ],
)
def test_assure_rejects_bad_translation(tmp_path, assured_pipeline, capsys, field, value, message):
    intent_path, translation_path, _, trace_path = assured_pipeline
    with open(translation_path) as fh:
        translation = json.load(fh)["translation"]
    bad = write_json(tmp_path, "bad.json", value if field is None else {**translation, field: value})
    code = main(["assure", "--trace", trace_path, "--intent", intent_path, "--translation", bad])
    err = capsys.readouterr().err
    assert code == 1
    assert message in err
    assert "Traceback" not in err


HUGE = "1" + "0" * 400  # a JSON integer no float holds


@pytest.mark.parametrize(
    "document,field,message",
    [
        ("scenario", "price_high", "price_high must be a finite number > 0, got"),
        ("scenario", "arrival_prob", "arrival_prob must be a finite number >= 0, got"),
        ("intent", "payload_mb", "payload_mb must be a finite number > 0, got"),
        ("translation", "params.v", "v must be a finite number > 0, got"),
    ],
)
def test_an_integer_too_large_for_a_float_names_its_field(
    tmp_path, assured_pipeline, capsys, document, field, message
):
    """A huge JSON integer exits 1 naming its field, where it used to
    escape as an OverflowError, and no file is written."""
    intent_path, translation_path, _, trace_path = assured_pipeline
    with open(translation_path) as fh:
        doc = {"scenario": {}, "intent": FLAGSHIP_DOC, "translation": json.load(fh)["translation"]}[document]
    doc = json.loads(json.dumps(doc))
    outer, _, inner = field.rpartition(".")
    (doc[outer] if outer else doc)[inner] = "HUGE"
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc).replace('"HUGE"', HUGE))
    out = tmp_path / "out.json"
    argv = {
        "scenario": ["run", "--scenario", str(bad)],
        "intent": ["intent", "--file", str(bad)],
        "translation": ["assure", "--trace", trace_path, "--intent", intent_path, "--translation", str(bad)],
    }[document]
    before = sorted(tmp_path.iterdir())
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{message} {HUGE}" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_an_integer_too_long_to_read_names_the_file(tmp_path, capsys):
    """An integer past Python's digit limit for int conversion fails the
    JSON read, naming the file, not with a traceback."""
    bad = tmp_path / "scenario.json"
    bad.write_text('{"price_high": 1' + "0" * 5000 + "}")
    out = tmp_path / "t.csv"
    assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: invalid JSON" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag,damage",
    [
        ("--realization", "0xff"),
        ("--trace", "0xff"),
        ("--scenario", "0xff"),
        ("--intent", "0xff"),
        ("--translation", "0xff"),
        ("--file", "0xff"),
        ("--realization", "huge cell"),
        ("--trace", "huge cell"),
    ],
)
def test_unreadable_input_file_names_the_path(tmp_path, assured_pipeline, capsys, flag, damage):
    intent_path, translation_path, derived_path, trace_path = assured_pipeline
    assure = ["assure", "--trace", trace_path, "--intent", intent_path, "--translation", translation_path]
    argv = {
        "--realization": ["oracle", "--realization", trace_path, "--initial-backlog", "1", "--deadline", "3"],
        "--trace": assure,
        "--scenario": ["run", "--scenario", str(derived_path), "--out", str(tmp_path / "t.csv")],
        "--intent": assure,
        "--translation": assure,
        "--file": ["intent", "--file", intent_path],
    }[flag]
    where = argv.index(flag) + 1
    with open(argv[where], "rb") as fh:
        text = fh.read()
    if damage == "0xff":
        text = text[:-3] + b"\xff" + text[-3:]
    else:
        lines = text.split(b"\r\n")
        lines[2] = b",".join([b"x" * 140_000] + lines[2].split(b",")[1:])  # over the csv module's limit
        text = b"\r\n".join(lines)
    bad = tmp_path / ("bad" + Path(argv[where]).suffix)
    bad.write_bytes(text)
    argv[where] = str(bad)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert f"{bad}: " in err
    assert "Traceback" not in err


# --- oracle ------------------------------------------------------------

WORKED_CSV = (
    "t,arrival,avail_ris,avail_spectrum,price_ris,price_spectrum\n"
    "1,0,1,1,2.0,3.0\n"
    "2,0,1,1,9.0,9.0\n"
    "3,0,1,1,1.0,1.0\n"
)


def test_oracle_worked_example(tmp_path, capsys):
    path = tmp_path / "real.csv"
    path.write_text(WORKED_CSV)
    out = str(tmp_path / "oracle.json")
    code = main(["oracle", "--realization", str(path), "--initial-backlog", "1", "--deadline", "3", "--out", out])
    assert code == 0
    assert "min cost 2" in capsys.readouterr().out
    document = json.loads((tmp_path / "oracle.json").read_text())
    assert document["min_cost"] == 2.0
    assert document["decisions"] == [0, 0, 1]


def test_oracle_rejects_an_output_directory_before_reading(tmp_path, capsys):
    """An --out that is a directory exits 1 naming it before the
    realization is read, so no minimum cost is printed first."""
    path = tmp_path / "real.csv"
    path.write_text(WORKED_CSV)
    (tmp_path / "outdir").mkdir()
    out = str(tmp_path / "outdir")
    code = main(["oracle", "--realization", str(path), "--initial-backlog", "1", "--deadline", "3", "--out", out])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: is a directory, expected a file path\n"
    assert captured.out == ""


def test_oracle_infeasible_still_exits_zero(tmp_path, capsys):
    path = tmp_path / "real.csv"
    path.write_text(WORKED_CSV)
    code = main(["oracle", "--realization", str(path), "--initial-backlog", "2", "--deadline", "1"])
    assert code == 0
    assert "infeasible" in capsys.readouterr().out


def test_oracle_deadline_guard(tmp_path, capsys):
    path = tmp_path / "real.csv"
    path.write_text(WORKED_CSV)
    code = main(["oracle", "--realization", str(path), "--initial-backlog", "1", "--deadline", "20"])
    assert code == 1
    assert "3 slots" in capsys.readouterr().err


def test_oracle_long_window(tmp_path, capsys):
    path = tmp_path / "real.csv"
    path.write_text(WORKED_CSV.splitlines()[0] + "\n" + "".join(
        f"{t},{t % 3 == 0:d},1,1,{t % 5}.5,1.25\n" for t in range(1, 21)
    ))
    code = main(["oracle", "--realization", str(path), "--initial-backlog", "4", "--deadline", "20"])
    assert code == 0
    assert "min cost" in capsys.readouterr().out


@pytest.mark.parametrize(
    "row,field,text",
    [
        ("2,1.0,1,1,9.0,9.0", "arrival", "integer"),
        ("2,0,1,1,,9.0", "price_ris", "number"),
        ("2,0,1,1,-5,9.0", "price_ris", ">= 0"),
        ("2,0,1,1,9.0,nan", "price_spectrum", ">= 0"),
        ("2,0,1,1,inf,9.0", "price_ris", ">= 0"),
        ("2,0,2,1,9.0,9.0", "avail_ris", "<= 1"),
    ],
)
def test_oracle_rejects_bad_realization_cells(tmp_path, capsys, row, field, text):
    lines = WORKED_CSV.splitlines()
    lines[2] = row
    path = tmp_path / "real.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["oracle", "--realization", str(path), "--initial-backlog", "1", "--deadline", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"row 2: {field} must be" in err and text in err


def test_oracle_rejects_a_realization_that_names_a_column_twice(tmp_path, capsys):
    lines = WORKED_CSV.splitlines()
    path = tmp_path / "real.csv"
    path.write_text("\n".join([lines[0] + ",arrival"] + [line + ",5" for line in lines[1:]]) + "\n")
    code = main(["oracle", "--realization", str(path), "--initial-backlog", "1", "--deadline", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{path}: realization CSV header repeats column arrival" in err


# --- global flags ------------------------------------------------------


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["run", "--wat"]) == 1
    capsys.readouterr()


def test_no_command_exits_one(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert "leasesim" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert "leasesim" in capsys.readouterr().out


# --- one subcommand's parser -------------------------------------------


def full_parser_output(argv, capsys):
    """(exit code, stdout, stderr) of the parser holding all six subcommands."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return (0 if exc.value.code in (None, 0) else 1), captured.out, captured.err


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
@pytest.mark.parametrize(
    "tail", [["--help"], ["-h"], ["--out"], ["--wat"]], ids=["help", "h", "missing_value", "unknown_flag"]
)
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, command, tail):
    """main builds only the subcommand it runs; its help and usage errors,
    the subparser's own and the top-level "unrecognized arguments", are
    byte-identical to the full parser's."""
    expected = full_parser_output([command] + tail, capsys)
    code = main([command] + tail)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    if tail[0] in ("--help", "-h"):
        assert expected[1].startswith(f"usage: leasesim {command}")
    else:
        assert expected[0] == 1 and expected[2].startswith("usage: leasesim")


@pytest.mark.parametrize("argv", [["--help"], ["-h", "run"], ["bogus"], []], ids=["help", "h_run", "bogus", "empty"])
def test_other_argv_builds_the_full_parser(capsys, argv):
    expected = full_parser_output(argv, capsys)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    listing = captured.out if argv and argv[0] in ("--help", "-h") else captured.err
    if argv:  # --help lists every subcommand; an unknown one names every choice
        assert all(name in listing for name in SUBCOMMANDS)


def subcommand_names(parser):
    (action,) = [action for action in parser._actions if action.dest == "command"]
    return list(action.choices)


def test_build_parser_holds_only_the_named_subcommand():
    assert subcommand_names(build_parser("run")) == ["run"]
    for command in SUBCOMMANDS:
        assert subcommand_names(build_parser(command)) == [command]
    for other in (None, "bogus", "--help", "-h"):
        assert subcommand_names(build_parser(other)) == list(SUBCOMMANDS)


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=["help", "run_help"])
def test_module_entry_point_reads_sys_argv(capsys, argv):
    """`python -m leasesim` calls main() with no argv, so the subcommand
    comes from sys.argv; its output equals main(argv) in process."""
    src = str(Path(leasesim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "leasesim", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert main(argv) == 0
    assert result.stdout == capsys.readouterr().out
    if argv == ["--help"]:
        assert all(name in result.stdout for name in SUBCOMMANDS)
    else:
        assert result.stdout.startswith("usage: leasesim run")
