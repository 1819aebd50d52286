import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subradiance import cli, schedule
from subradiance.cli import build_parser, main, parse_time
from subradiance.errors import ConfigError

ENSEMBLE = {
    "wavelength": 606e-9,
    "sample_length": 5e-3,
    "excited_lifetime": 164e-6,
    "beam_diameter": 100e-6,
    "atom_count": 1e7,
    "inhomogeneous_linewidth": 1e5,
}


def _write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(tmp_path, capsys, doc, *extra):
    cfg = _write_cfg(tmp_path, doc)
    code = main(["--config", cfg, *extra])
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# time parsing
# ---------------------------------------------------------------------------

def test_parse_time_units(params):
    assert parse_time(3.5) == 3.5
    assert parse_time("20 ns") == pytest.approx(20e-9)
    assert parse_time("17ps") == pytest.approx(17e-12)
    assert parse_time("1.9 us") == pytest.approx(1.9e-6)
    assert parse_time("164 µs") == pytest.approx(164e-6)
    assert parse_time("0.5 ms") == pytest.approx(0.5e-3)
    assert parse_time("2.5 tau_R", params) == pytest.approx(2.5 * params.tau_R)
    with pytest.raises(ConfigError):
        parse_time("fast")
    with pytest.raises(ConfigError):
        parse_time("2 tau_R")  # needs ensemble parameters


# ---------------------------------------------------------------------------
# scenarios end to end
# ---------------------------------------------------------------------------

def test_params_scenario(tmp_path, capsys):
    code, out, err = _run(tmp_path, capsys,
                          {"scenario": "params", "ensemble": ENSEMBLE})
    assert code == 0
    doc = json.loads(out)
    rep = doc["report"]["parameters"]
    assert rep["transit_time_tau_E"] == pytest.approx(16.678e-12, rel=1e-3)
    assert doc["report"]["optimal_capture"]["amplitude"] == pytest.approx(
        0.9025, abs=1e-3)


def test_store_scenario_matches_library(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys,
                        {"scenario": "store", "ensemble": ENSEMBLE})
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["total_efficiency"] == pytest.approx(0.7477, abs=1e-3)
    assert rep["fidelity"] == pytest.approx(1.0, abs=1e-6)


def test_scenario_override_and_output_file(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": "params", "ensemble": ENSEMBLE})
    out_path = tmp_path / "report.json"
    code = main(["--config", cfg, "--scenario", "schedule",
                 "--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["scenario"] == "schedule"
    assert doc["report"]["write_ok"] and doc["report"]["read_ok"]
    assert doc["report"]["stored_rows"] == {
        "1": "+--+", "2": "++--", "3": "+-+-"}


def test_scatter_table_output(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"scenario": "scatter", "ensemble": ENSEMBLE})
    table = tmp_path / "traj.tsv"
    code = main(["--config", cfg, "--table-out", str(table)])
    assert code == 0
    capsys.readouterr()
    lines = table.read_text().strip().split("\n")
    assert lines[0].startswith("t\t")
    assert len(lines) > 1000


def test_scatter_formats_table_only_when_asked(tmp_path, capsys, monkeypatch):
    calls = []
    table = cli.trajectory_table
    monkeypatch.setattr(cli, "trajectory_table",
                        lambda *args: (calls.append(args), table(*args))[1])
    doc = {"scenario": "scatter", "ensemble": ENSEMBLE}
    assert _run(tmp_path, capsys, doc, "--quiet")[0] == 0
    assert calls == []
    # a sweep writes the table of its last run
    swept, last = tmp_path / "swept.tsv", tmp_path / "last.tsv"
    assert _run(tmp_path, capsys, doc, "--quiet", "--table-out", str(swept),
                "--sweep", "ensemble.atom_count=1e6,1e7")[0] == 0
    assert _run(tmp_path, capsys, doc, "--quiet", "--table-out", str(last))[0] == 0
    assert len(calls) == 2
    assert swept.read_text() == last.read_text()


def test_scatter_packet_end_node_is_right_sided(tmp_path, capsys):
    # on this ensemble the grid time of the 1 tau_R packet's end node rounds
    # just below the end; the node must still hold the value after the jump
    doc = {"scenario": "scatter",
           "ensemble": dict(ENSEMBLE, beam_diameter=102.802e-6, atom_count=39512900),
           "input": {"duration": "1 tau_R", "grid_duration": "6 tau_R"}}
    code, out, _ = _run(tmp_path, capsys, doc, "--quiet")
    assert code == 0
    rep = json.loads(out)["report"]
    budget = rep["input_norm"] - rep["final_excitation"]
    assert budget == pytest.approx(0.9958273748, abs=1e-10)
    assert rep["output_norm"] == pytest.approx(budget, abs=1e-9)


@pytest.mark.parametrize("start", ["0 tau_R", "2.5e-9 tau_R", "4.9e-9 tau_R"])
def test_scatter_front_just_off_its_node_closes_the_budget(tmp_path, capsys, start):
    # a start of 2.5e-9 tau_R is 5e-7 dt right of node 0: close enough to be
    # that node's breakpoint, so the node must take the value right of the
    # front, not the value a nudge right of the node's own time
    doc = {"scenario": "scatter", "ensemble": ENSEMBLE,
           "input": {"duration": "2.5 tau_R", "start": start}}
    code, out, _ = _run(tmp_path, capsys, doc, "--quiet")
    assert code == 0
    rep = json.loads(out)["report"]
    assert abs(rep["output_norm"] + rep["final_excitation"] - rep["input_norm"]) < 1e-11


def test_byte_deterministic_output(tmp_path, capsys):
    doc = {"scenario": "store", "ensemble": ENSEMBLE}
    _, out1, _ = _run(tmp_path, capsys, doc)
    _, out2, _ = _run(tmp_path, capsys, doc)
    assert out1 == out2


def test_sweep(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys,
                        {"scenario": "params", "ensemble": ENSEMBLE},
                        "--sweep", "ensemble.atom_count=1e6,1e7")
    assert code == 0
    reports = json.loads(out)["report"]
    assert len(reports) == 2
    assert reports[0]["sweep_value"] == 1e6
    r = (reports[0]["parameters"]["collective_lifetime_tau_R"]
         / reports[1]["parameters"]["collective_lifetime_tau_R"])
    assert r == pytest.approx(10.0, rel=1e-9)


def test_rates_scenario(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys,
                        {"scenario": "rates", "ensemble": ENSEMBLE,
                         "states": {"atom_count": 8}})
    assert code == 0
    rates = json.loads(out)["report"]["rates_in_units_of_mu_over_t1"]
    assert rates["one_sym"] == pytest.approx(8.0, rel=1e-9)
    assert rates["two_AminusB"] == pytest.approx(2.0 / 7.0, rel=1e-9)


def test_threelevel_scenario(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys,
                        {"scenario": "threelevel",
                         "threelevel": {"g_a": 1.0, "g_b": 1.0,
                                        "alpha_re": 10.0}})
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["failure_probability"] == pytest.approx((20.0 / 101.0) ** 2,
                                                       rel=1e-9)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_2_on_bad_scenario(tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys,
                        {"scenario": "nope", "ensemble": ENSEMBLE})
    assert code == 2 and "scenario" in err


def test_exit_2_on_bad_ensemble(tmp_path, capsys):
    code, _, err = _run(tmp_path, capsys,
                        {"scenario": "params",
                         "ensemble": {"wavelength": 606e-9}})
    assert code == 2


def test_exit_2_on_unknown_field(tmp_path, capsys):
    bad = dict(ENSEMBLE, color="blue")
    code, _, err = _run(tmp_path, capsys,
                        {"scenario": "params", "ensemble": bad})
    assert code == 2 and "color" in err


def test_exit_2_on_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["--config", str(path)])
    capsys.readouterr()
    assert code == 2


def test_exit_4_on_missing_config(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.json")])
    capsys.readouterr()
    assert code == 4


def test_exit_3_on_strict_regime(tmp_path, capsys):
    # pit-width warning fires at the fast working point
    dense = dict(ENSEMBLE)
    del dense["atom_count"]
    dense["number_density"] = 2e20
    code, _, err = _run(tmp_path, capsys,
                        {"scenario": "params", "ensemble": dense,
                         "pit_width": 1e7},
                        "--strict-regime")
    assert code == 3
    assert "warning:" in err


def test_quiet_suppresses_warnings(tmp_path, capsys):
    dense = dict(ENSEMBLE)
    del dense["atom_count"]
    dense["number_density"] = 2e20
    code, _, err = _run(tmp_path, capsys,
                        {"scenario": "params", "ensemble": dense,
                         "pit_width": 1e7},
                        "--quiet")
    assert code == 0 and "warning:" not in err


def test_parser_help_lists_scenarios():
    parser = build_parser()
    text = parser.format_help()
    for name in ("params", "store", "qubit", "schedule"):
        assert name in text


def test_main_reuses_the_parser_built_at_import(tmp_path, capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("main rebuilt the argument parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out, _ = _run(tmp_path, capsys, {"scenario": "params", "ensemble": ENSEMBLE})
    assert code == 0 and json.loads(out)["scenario"] == "params"


STORE = {"scenario": "store", "ensemble": ENSEMBLE}


_BAD_VALUES = {
    "pulse_failure_above_one": (dict(STORE, pulse_failure=2), "pulse_failure"),
    "pulse_failure_negative": (dict(STORE, pulse_failure=-0.1), "pulse_failure"),
    "qubit_pulse_failure": ({"scenario": "qubit", "ensemble": ENSEMBLE,
                             "qubit": {"pulse_failure": 2}}, "pulse_failure"),
    "loss_rate_negative": (dict(STORE, loss_rate=-1e9), "loss_rate"),
    "loss_rate_infinite": (dict(STORE, loss_rate=1e400), "loss_rate"),
    "schedule_not_object": (dict(STORE, schedule="x"), "'schedule'"),
    "input_not_object": (dict(STORE, input="x"), "'input'"),
    "qubit_not_object": ({"scenario": "qubit", "ensemble": ENSEMBLE,
                          "qubit": "x"}, "'qubit'"),
    "states_not_object": ({"scenario": "rates", "ensemble": ENSEMBLE,
                           "states": "x"}, "'states'"),
    "threelevel_not_object": ({"scenario": "threelevel", "threelevel": "x"},
                              "'threelevel'"),
    "atom_count_infinite": (dict(STORE, ensemble=dict(ENSEMBLE, atom_count=1e400)),
                            "atom_count"),
    "parts_not_numeric": (dict(STORE, schedule={"parts": "x"}), "parts"),
    "parts_not_integral": (dict(STORE, schedule={"parts": 4.7}), "parts"),
    "bins_not_numeric": ({"scenario": "schedule", "ensemble": ENSEMBLE,
                          "schedule": {"bins": "x"}}, "bins"),
    "bins_not_integral": (dict(STORE, schedule={"bins": 2.5}), "bins"),
    "state_atoms_not_numeric": ({"scenario": "rates", "states": {"atom_count": "x"}},
                                "atom_count"),
    "state_atoms_not_integral": ({"scenario": "rates", "states": {"atom_count": 15.5}},
                                 "atom_count"),
    "time_reversed_string": (dict(STORE, schedule={"time_reversed": "false"}),
                             "time_reversed"),
    "passive_string": ({"scenario": "schedule", "ensemble": ENSEMBLE,
                        "schedule": {"passive": "false"}}, "passive"),
    "initial_not_list": ({"scenario": "threelevel", "threelevel": {"initial": "x"}},
                         "initial"),
    "alpha_not_numeric": ({"scenario": "qubit", "ensemble": ENSEMBLE,
                           "qubit": {"alpha_re": "x"}}, "alpha_re"),
    "names_not_list": ({"scenario": "rates", "states": {"names": "one_sym"}}, "names"),
    "pit_width_not_numeric": ({"scenario": "params", "ensemble": ENSEMBLE,
                               "pit_width": "x"}, "pit_width"),
    "pit_width_negative": ({"scenario": "params", "ensemble": ENSEMBLE,
                            "pit_width": -5}, "pit_width"),
    "time_not_finite": ({"scenario": "qubit", "ensemble": ENSEMBLE,
                         "qubit": {"separation": "nan tau_R"}}, "not finite"),
    "time_infinite": (dict(STORE, input={"kind": "rising_exponential", "end": 1e400}),
                      "not finite"),
    # 2e11 steps per bin: refused before any array is allocated
    "grid_oversized": ({"scenario": "qubit", "ensemble": ENSEMBLE,
                        "qubit": {"separation": "1e9 tau_R"}}, "samples"),
}


@pytest.mark.parametrize("case", sorted(_BAD_VALUES))
def test_exit_2_on_bad_values(tmp_path, capsys, case):
    doc, named = _BAD_VALUES[case]
    code, out, err = _run(tmp_path, capsys, doc, "--quiet")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


def test_integral_float_counts_accepted(tmp_path, capsys):
    code, out, _ = _run(tmp_path, capsys,
                        dict(STORE, schedule={"parts": 4.0, "bins": 3.0}), "--quiet")
    assert code == 0
    code, ref, _ = _run(tmp_path, capsys, STORE, "--quiet")
    assert code == 0 and out == ref


def test_store_grid_snaps_to_bin(tmp_path, capsys, params):
    # 3 us is about 1.02 tau_R: bin edges fall between nodes of a tau_R/200 grid
    doc = dict(STORE, schedule={"bin_duration": "3 us"})
    code, out, _ = _run(tmp_path, capsys, doc, "--quiet")
    assert code == 0
    x = 3e-6 / params.tau_R
    want = (2 * (1 - math.exp(-x / 2))) ** 2 / x
    assert json.loads(out)["report"]["write_efficiency"] == pytest.approx(want, abs=1e-9)


def _fresh_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_cli_import_needs_no_scipy():
    # scipy is a test-only dependency; the installed program must run without it
    code = "import sys, subradiance.cli; sys.exit('scipy' in sys.modules)"
    assert _fresh_python(code).returncode == 0


def test_no_scenario_and_no_oracle_rate_imports_numpy_ma(tmp_path):
    # numpy loads numpy.ma (13 ms) on the first np.unique, np.isin or
    # np.union1d; pytest and scipy load it themselves, so a fresh process
    # runs every scenario's config and one 2^N oracle rate
    paths = [_write_cfg(tmp_path, doc, f"{name}.json") for name, doc in _FULL.items()]
    code = f"""
import contextlib, io, sys
from subradiance import (EnsembleInput, Partition, brute_force_rate, derive_params,
                         symmetric_partitioned, to_full_basis)
from subradiance.cli import main
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["--config", path, "--quiet"]):
            sys.exit(path + " failed")
    if "numpy.ma" in sys.modules:
        sys.exit(path + " imports numpy.ma")
p = derive_params(EnsembleInput(**{ENSEMBLE!r}))
brute_force_rate(to_full_basis(symmetric_partitioned(2, Partition.equal(8, 2))), p)
sys.exit("numpy.ma" in sys.modules and "the oracle rate imports numpy.ma")
"""
    run = _fresh_python(code, *paths)
    assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# one field table: every field checked, named and defaulted in one place
# ---------------------------------------------------------------------------

_INPUT = {"kind": "rectangular", "duration": "1 tau_R", "start": "0.5 tau_R",
          "end": "3 tau_R", "grid_duration": "3 tau_R"}

# One cheap config per scenario that sets every field the scenario reads.
_FULL = {
    "params": {"scenario": "params", "ensemble": ENSEMBLE, "target_tau_R": "2 us",
               "packet_duration": "2.5 tau_R", "pulse_duration": "10 ns",
               "pit_width": 1e6},
    "scatter": {"scenario": "scatter", "ensemble": ENSEMBLE, "input": _INPUT},
    "store": {"scenario": "store", "ensemble": ENSEMBLE, "loss_rate": 1e3,
              "pulse_failure": 0.01, "input": _INPUT,
              "schedule": {"parts": 2, "bins": 1, "bin_duration": "1 tau_R",
                           "time_reversed": True, "passive": False}},
    "qubit": {"scenario": "qubit", "ensemble": ENSEMBLE,
              "qubit": {"alpha_re": 0.6, "alpha_im": 0.0, "beta_re": 0.0,
                        "beta_im": 0.8, "separation": "10 tau_R",
                        "time_reversed": True, "pulse_failure": 0.01}},
    "rates": {"scenario": "rates", "ensemble": ENSEMBLE,
              "states": {"names": ["one_sym", "two_AminusB"], "atom_count": 4}},
    "schedule": {"scenario": "schedule", "ensemble": ENSEMBLE,
                 "schedule": {"parts": 4, "bins": 3, "bin_duration": "1 tau_R",
                              "time_reversed": False, "passive": True}},
    "threelevel": {"scenario": "threelevel", "ensemble": ENSEMBLE,
                   "threelevel": {"g_a": 1.0, "g_b": 2.0, "alpha_re": 3.0,
                                  "alpha_im": 1.0, "initial": [0.6, "0.8j", 0]}},
}
# Fields whose default is "absent": JSON null is allowed there.
_OPTIONAL = {"target_tau_R", "pit_width", "input.grid_duration", "schedule.bins",
             "schedule.time_reversed", "ensemble.beam_diameter",
             "ensemble.atom_count", "ensemble.inhomogeneous_linewidth"}
_DELETE = object()
_MUTATIONS = ["x", [], {}, None, True, False, -1, 0, math.inf, "nan", _DELETE]


def _wrong_type(base, value, optional):
    """Whether ``value`` has the wrong JSON type (or is no time, choice or
    finite number) for a field whose valid config value is ``base``."""
    if value is _DELETE:
        return False
    if value is None:
        return not optional
    if isinstance(base, bool):
        return not isinstance(value, bool)
    if isinstance(base, (int, float)):
        return (not isinstance(value, (int, float)) or isinstance(value, bool)
                or value == math.inf)
    if isinstance(base, str):  # a time, an input kind or the scenario
        return not isinstance(value, (int, float)) or isinstance(value, bool)
    return value != []  # a list: of state names, or of three amplitudes


def _mutants(doc):
    """(dotted field, valid value, mutated config) for every field of ``doc``."""
    for block, blk in doc.items():
        fields = blk.items() if isinstance(blk, dict) else [(None, blk)]
        for key, base in fields:
            name = block if key is None else f"{block}.{key}"
            for value in _MUTATIONS:
                mutated = json.loads(json.dumps(doc))
                node = mutated if key is None else mutated[block]
                field = block if key is None else key
                if value is _DELETE:
                    del node[field]
                else:
                    node[field] = value
                yield name, base, value, mutated


@pytest.mark.parametrize("scenario", sorted(_FULL))
def test_every_field_mutation_exits_cleanly(tmp_path, capsys, scenario):
    doc = _FULL[scenario]
    assert _run(tmp_path, capsys, doc, "--quiet")[0] == 0
    problems = []
    for name, base, value, mutated in _mutants(doc):
        code, _, err = _run(tmp_path, capsys, mutated, "--quiet")
        if code not in (0, 2, 3, 4):
            problems.append((name, value, code))
        if _wrong_type(base, value, name in _OPTIONAL) and not (
                code == 2 and name in err):
            problems.append((name, value, code, err))
        if value is True and type(base) in (int, float) and code == 0:
            problems.append((name, value, "true read as a number"))
    for block in [None, *(b for b, v in doc.items() if isinstance(v, dict))]:
        mutated = json.loads(json.dumps(doc))
        (mutated if block is None else mutated[block])["bogus"] = 1
        code, _, err = _run(tmp_path, capsys, mutated, "--quiet")
        if not (code == 2 and "bogus" in err):
            problems.append((block, "bogus", code, err))
    assert problems == []


@pytest.mark.parametrize("doc, named", [
    (dict(STORE, ensemble=dict(ENSEMBLE, atom_count=True)), "ensemble.atom_count"),
    (dict(STORE, ensemble=dict(ENSEMBLE, atom_count="x")), "ensemble.atom_count"),
    (dict(STORE, schedule={"bins": True}), "schedule.bins must be an integer, got True"),
    (dict(STORE, schedule={"part": 4}), "schedule.part"),
    ({"scenario": "threelevel", "threelevel": {"intial": [0, 1, 0]}}, "threelevel.intial"),
    ({"scenario": "qubit", "ensemble": ENSEMBLE, "qubit": {"separation": "x"}},
     "qubit.separation: cannot parse time value 'x'"),
    ({"scenario": "threelevel", "threelevel": {"initial": [1, 0]}}, "threelevel.initial"),
    ({"scenario": "threelevel", "threelevel": {"initial": [True, False, False]}},
     "threelevel.initial"),
    ({"scenario": []}, "scenario"),
])
def test_field_errors_name_the_field(tmp_path, capsys, doc, named):
    code, out, err = _run(tmp_path, capsys, doc, "--quiet")
    assert code == 2 and out == "" and named in err


@pytest.mark.parametrize("sweep, named", [
    ("ensemble.atom_count.x=1,2", "ensemble.atom_count.x"),
    ("schedule.parts=1e400", "finite"),
    ("nonsense=1", "nonsense"),
])
def test_bad_sweeps_exit_2(tmp_path, capsys, sweep, named):
    code, out, err = _run(tmp_path, capsys, STORE, "--quiet", "--sweep", sweep)
    assert code == 2 and out == "" and named in err


@pytest.mark.parametrize("extra", [(), ("--sweep", "schedule.parts=4")])
def test_a_block_that_is_not_an_object_exits_2(tmp_path, capsys, extra):
    # read as a block, or swept, the config block is checked the same way
    code, out, err = _run(tmp_path, capsys, dict(STORE, schedule=[4]), "--quiet", *extra)
    assert code == 2 and out == ""
    assert "'schedule' must be a JSON object, got [4]" in err


def test_non_finite_report_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli._SCENARIOS, "params",
                        lambda cfg, root, p: ({"x": math.inf}, [], None))
    code, out, err = _run(tmp_path, capsys, {"scenario": "params", "ensemble": ENSEMBLE})
    assert code == 2 and out == "" and "non-finite" in err


def test_store_honours_passive(tmp_path, capsys, monkeypatch):
    stages = []
    run = cli.end_to_end
    monkeypatch.setattr(cli, "end_to_end", lambda f, w, r, *args, **kw: (
        stages.append(w.stage), run(f, w, r, *args, **kw))[1])
    for rev in (True, False):
        outs = [_run(tmp_path, capsys, dict(STORE, loss_rate=2e4, pulse_failure=0.03,
                                            schedule={"parts": 8, "bins": 5,
                                                      "time_reversed": rev,
                                                      "passive": passive}), "--quiet")
                for passive in (False, True)]
        assert outs[0][0] == 0 and outs[0] == outs[1]
    assert stages == ["write", "passive_write"] * 2


@pytest.mark.parametrize("passive", [False, True])
def test_schedule_replays_each_plan_once(tmp_path, capsys, monkeypatch, passive):
    # the read is verified on the write's report, not on a second replay
    calls = []
    replay = schedule._flip_masks
    monkeypatch.setattr(schedule, "_flip_masks", lambda plan, start: (
        calls.append(plan.stage), replay(plan, start))[1])
    code, out, _ = _run(tmp_path, capsys, {
        "scenario": "schedule", "ensemble": ENSEMBLE,
        "schedule": {"parts": 16, "bins": 9, "passive": passive}}, "--quiet")
    report = json.loads(out)["report"]
    assert code == 0 and report["write_ok"] and report["read_ok"]
    assert report["emission_order"] == list(range(1, 10))
    assert calls == (["passive_write", "passive_read"] if passive else ["write", "read"])


def test_readme_example_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
    code, out, _ = _run(tmp_path, capsys, doc, "--quiet")
    assert code == 0 and json.loads(out)["scenario"] == doc["scenario"]
