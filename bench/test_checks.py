"""Tests of the benchmark's own checkers: each accepts the program's
correct output and rejects a corrupted copy of it.

    python3 -m pytest -q bench/test_checks.py
"""

import dataclasses
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _store(reversed_=True, success=0.99, loss_tr=0.01):
    amps = np.array([0.6, 0.48j, -0.64]) / math.sqrt(0.6**2 + 0.48**2 + 0.64**2)
    op = workloads._store_op(4, 3, 500, amps, reversed_, workloads.CRYSTAL,
                             loss_tr=loss_tr, success=success)
    return op, workloads.run_store(op)


@pytest.fixture(scope="module")
def store():
    return _store()


def test_recall_accepts_program_output(store):
    op, report = store
    assert workloads.check_store(op, report, {}) == []


def test_recall_rejects_fidelity_quarter(store):
    op, report = store
    bad = dataclasses.replace(report, fidelity=0.25)
    assert any("fidelity" in p for p in workloads.check_store(op, bad, {}))


@pytest.mark.parametrize("key", ["write_efficiency", "read_efficiency", "total_efficiency"])
def test_recall_rejects_efficiency_off_by_1e6(store, key):
    op, report = store
    bad = dataclasses.replace(report, **{key: getattr(report, key) + 1e-6})
    assert any(key in p for p in workloads.check_store(op, bad, {}))


def test_recall_rejects_swapped_emission_order(store):
    op, report = store
    items = list(report.emitted.items())
    items[0], items[1] = items[1], items[0]
    bad = dataclasses.replace(report, emitted=dict(items))
    assert any("emission order" in p for p in workloads.check_store(op, bad, {}))


def test_recall_rejects_emitted_phase(store):
    op, report = store
    n = next(iter(report.emitted))
    bad = dataclasses.replace(report, emitted={**report.emitted, n: -report.emitted[n]})
    assert any(f"emitted[{n}]" in p for p in workloads.check_store(op, bad, {}))


def test_qubit_accepts_program_output_and_rejects_fidelity():
    op = Op("qubit", {"alpha": complex(0.6), "beta": 0.8j, "separation": 100,
                      "reversed": True, "ensemble": workloads.CRYSTAL, "success": 0.9})
    report = workloads.run_qubit(op)
    assert workloads.check_qubit(op, report, {}) == []
    # unequal pulse counts: the closed-form fidelity is below one
    assert report.fidelity < 1.0 - 1e-3
    bad = dataclasses.replace(report, fidelity=1.0)
    assert any("fidelity" in p for p in workloads.check_qubit(op, bad, {}))


def test_known_faults_fail_their_checks():
    ops = workloads.build("store-bins", 1, HERE)
    faulty = [op for op in ops if op.known_fault]
    assert [op.known_fault for op in faulty] == [workloads.EMPTY_BIN_FAULT,
                                                 workloads.SAMPLED_FAULT]
    for op in faulty:
        assert workloads.check_store(op, workloads.run_store(op), {})


def test_cli_edge_node_fault_fails_its_check(cli_runs):
    faulty = [(op, result) for op, result in cli_runs if op.known_fault]
    assert [op.known_fault for op, _ in faulty] == [workloads.EDGE_NODE_FAULT]
    assert workloads._end_node_rounds_below(workloads.EDGE_NODE_CONFIG["ensemble"], 1.0)
    op, result = faulty[0]
    assert any("output_norm" in p for p in workloads.check_cli(op, result, {}))


def test_op_lists_follow_the_seed():
    for name in workloads.WORKLOADS:
        if name == "cli-batch":
            continue
        a, b, c = (workloads.build(name, s, HERE) for s in (3, 3, 4))
        assert repr(a) == repr(b)
        assert repr(a) != repr(c)
    fixed = [repr(op) for s in (1, 2) for op in workloads.build("store-bins", s, HERE)
             if op.known_fault]
    assert fixed[:2] == fixed[2:]


def test_partitioned_rejects_rate_one_unit_off():
    op = Op("rates", {"n": 2, "parts": 8, "atoms": 16, "signs": (1, -1, 1, 1, -1, -1, 1, 1),
                      "oracle": True, "ensemble": workloads.CRYSTAL})
    amps, sym, signed, oracle = workloads.run_rates(op)
    assert workloads.check_rates(op, (amps, sym, signed, oracle), {}) == []
    for i, what in ((1, "symmetric rate"), (2, "signed rate"), (3, "oracle rate")):
        bad = [amps, sym, signed, oracle]
        bad[i] += 1.0
        assert any(what in p for p in workloads.check_rates(op, tuple(bad), {}))
    assert workloads.check_rates(op, ({**amps, (2,) + (0,) * 7: 0.1}, sym, signed, oracle), {})


def test_closed_forms():
    x, amp = checks.capture_optimum()
    assert abs((1 + x) * math.exp(-x / 2) - 1) < 1e-15
    assert round(x, 3) == 2.513 and round(amp, 4) == 0.9025
    assert checks.signed_dicke_rate(1, 6, 6) == 0.0
    assert checks.signed_dicke_rate(2, 16, 0) == 2 * 15
    assert checks.compositions(2, (2,) * 12) == 78


@pytest.fixture(scope="module")
def cli_runs():
    out = os.path.join(os.path.dirname(HERE), ".bench_out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        ops = workloads.build_cli_batch(np.random.default_rng(7), workdir)
        return [(op, workloads.run_cli(op)) for op in ops if not op.inputs["repeat"]]


def test_cli_checks_accept_every_scenario(cli_runs):
    assert {op.inputs["cfg"]["scenario"] for op, _ in cli_runs} == {
        "params", "scatter", "store", "qubit", "rates", "schedule", "threelevel"}
    for op, result in cli_runs:
        if not op.known_fault:
            assert workloads.check_cli(op, result, {}) == [], op.inputs["cfg"]


def test_repeat_rejects_a_changed_byte(cli_runs):
    _, (code, text, _err) = cli_runs[0]
    assert checks.check_repeat(text, text) == []
    i = len(text) // 2
    changed = text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
    assert checks.check_repeat(text, changed) == [
        f"repeated report differs from the first at byte {i}"]


def _corrupt(result, edit):
    code, text, err = result
    doc = json.loads(text)
    edit(doc["report"])
    return code, json.dumps(doc), err


def test_cli_checks_reject_corrupted_reports(cli_runs):
    def rate_plus_one(rep):
        rates = rep["rates_in_units_of_mu_over_t1"]
        rates[next(iter(rates))] += 1.0

    def swap_order(rep):
        rep["emission_order"] = rep["emission_order"][::-1]
        rep["emission_order"].append(0)

    edits = {
        "rates": rate_plus_one,
        "store": lambda rep: rep.update(total_efficiency=rep["total_efficiency"] + 1e-6),
        "qubit": lambda rep: rep.update(fidelity=0.25),
        "threelevel": lambda rep: rep["final_populations"].__setitem__(0, 0.5),
        "scatter": lambda rep: rep.update(peak_excitation=rep["peak_excitation"] + 1e-6),
        "params": lambda rep: rep["parameters"].update(
            collective_lifetime_tau_R=rep["parameters"]["collective_lifetime_tau_R"] * 1.001),
    }
    seen = set()
    for op, result in cli_runs:
        scenario = op.inputs["cfg"]["scenario"]
        if scenario == "schedule" and not op.inputs["cfg"]["schedule"]["passive"]:
            bad = _corrupt(result, swap_order)
        elif scenario in edits and op.inputs["sweep"] is None and not op.known_fault:
            bad = _corrupt(result, edits[scenario])
        else:
            continue
        seen.add(scenario)
        assert workloads.check_cli(op, bad, {}), (scenario, op.inputs["cfg"])
    assert seen == set(edits) | {"schedule"}
    op, result = cli_runs[0]
    assert workloads.check_cli(op, (2, "", "error: x"), {})
