import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subradiance import cli
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


def test_cli_import_needs_no_scipy():
    # scipy is a test-only dependency; the installed program must run without it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = "import sys, subradiance.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
