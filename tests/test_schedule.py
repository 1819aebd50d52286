import json

import numpy as np
import pytest

from subradiance import (DomainError, PiPairConfig, PlanError, PulsePlan,
                         plan_passive, plan_read, plan_write, sylvester,
                         validate_pi_pair, verify_plan)


def test_sylvester_orthogonality():
    for order in (2, 4, 8, 16):
        h = sylvester(order)
        assert np.array_equal(h @ h.T, order * np.eye(order, dtype=np.int64))
        assert np.all(h[0] == 1)
        assert set(np.unique(h)) == {-1, 1}


def test_sylvester_matches_block_doubling():
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    h = np.array([[1]], dtype=np.int64)
    for _ in range(8):
        h = np.kron(block, h)
        got = sylvester(len(h))
        assert got.dtype == np.int64
        assert np.array_equal(got, h)


def test_sylvester_rejects_bad_order():
    for bad in (0, 1, 3, 6):
        with pytest.raises(DomainError):
            sylvester(bad)


def test_write_masks_four_parts():
    plan = plan_write(4, 3, 1.0)
    assert [e.mask.to_string() for e in plan.events] == ["+-+-", "+--+", "+-+-"]
    # flips on parts (B,D), (B,C), (B,D)
    assert verify_plan(plan).final_rows == ("+--+", "++--", "+-+-")


def test_read_masks_four_parts():
    fwd = plan_read(4, 3, 1.0)
    rev = plan_read(4, 3, 1.0, time_reversed=True)
    # flips on (A,D), (B,D), (B,C) forward and (A,C), (B,C), (B,D) reversed
    assert [e.mask.to_string() for e in fwd.events] == ["-++-", "+-+-", "+--+"]
    assert [e.mask.to_string() for e in rev.events] == ["-+-+", "+--+", "+-+-"]


@pytest.mark.parametrize("parts", [2, 4, 8])
def test_verify_all_geometries(parts):
    for bins in range(1, parts):
        w = plan_write(parts, bins, 1.0)
        wr = verify_plan(w)
        assert wr.ok, wr.violations
        assert np.all(wr.orthogonality == np.diag(np.diag(wr.orthogonality)))
        for reversed_ in (False, True):
            r = plan_read(parts, bins, 1.0, time_reversed=reversed_)
            rr = verify_plan(r)
            assert rr.ok, rr.violations
            want = tuple(range(bins, 0, -1)) if reversed_ else tuple(range(1, bins + 1))
            assert rr.emission_order == want
            # emitted on minus-all-plus so the output phase matches the input
            assert set(rr.emission_signs) <= {-1}


def test_verifier_rejects_corrupt_write():
    plan = plan_write(4, 3, 1.0)
    # replace the final mask so bin 3 ends superradiant
    masks = plan.masks.copy()
    masks[2] = 1
    bad = PulsePlan(4, plan.times, masks, 1.0, "write", 3)
    report = verify_plan(bad)
    assert not report.ok
    assert any("superradiant" in v for v in report.violations)


def test_verifier_names_shared_rows():
    # masks 1 and 2 multiply to all-plus, so bins 1 and 3 end in one row
    masks = ((1, -1, 1, -1), (1, -1, 1, -1), (1, -1, -1, 1))
    report = verify_plan(PulsePlan(4, (1.0, 2.0, 3.0), masks, 1.0, "write", 3))
    assert not report.ok
    assert "bins 1 and 3 share a row" in report.violations
    assert report.final_rows == ("+--+", "++--", "+--+")


def test_verifier_rejects_corrupt_read():
    plan = plan_read(4, 3, 1.0)
    shuffled = plan.masks[[1, 0, 2]]
    bad = PulsePlan(4, plan.times, shuffled, 1.0, "read", 3)
    assert not verify_plan(bad).ok


def test_geometry_guards():
    with pytest.raises(DomainError):
        plan_write(3, 2, 1.0)
    with pytest.raises(PlanError):
        plan_write(4, 4, 1.0)  # need one part spare for orthogonality
    with pytest.raises(PlanError):
        plan_write(4, 0, 1.0)


def test_plan_timing():
    plan = plan_write(4, 3, 2.0, t0=5.0)
    assert [e.time for e in plan.events] == [7.0, 9.0, 11.0]
    assert plan.t_end == 13.0
    read = plan_read(4, 3, 2.0, t0=plan.t_end)
    assert read.events[0].time == 13.0
    assert read.t_end == 19.0


def test_json_round_trip():
    plan = plan_read(8, 5, 3.5e-6, time_reversed=True, t0=1e-5)
    back = PulsePlan.from_json(plan.to_json())
    assert back == plan


WRITE_4_3_JSON = """{
  "parts": 4,
  "bins": 3,
  "stage": "write",
  "bin_duration_s": 1.0,
  "events": [
    {
      "time_s": 1.0,
      "kind": "two_pi",
      "mask": "+-+-"
    },
    {
      "time_s": 2.0,
      "kind": "two_pi",
      "mask": "+--+"
    },
    {
      "time_s": 3.0,
      "kind": "two_pi",
      "mask": "+-+-"
    }
  ]
}"""

PASSIVE_READ_4_3_JSON = """{
  "parts": 4,
  "bins": 3,
  "stage": "passive_read",
  "bin_duration_s": 1.0,
  "events": [
    {
      "time_s": 0.0,
      "kind": "modulator_set",
      "mask": "+++-"
    },
    {
      "time_s": 1.0,
      "kind": "modulator_set",
      "mask": "---+"
    },
    {
      "time_s": 2.0,
      "kind": "modulator_set",
      "mask": "+-++"
    }
  ]
}"""


def test_json_bytes_pinned():
    for plan, text in ((plan_write(4, 3, 1.0), WRITE_4_3_JSON),
                       (plan_passive(4, 3, 1.0, stage="read"), PASSIVE_READ_4_3_JSON)):
        assert plan.to_json() == text
        assert PulsePlan.from_json(text) == plan


@pytest.mark.parametrize("kind", ["pi_pair", "modulator_set", "bogus"])
def test_json_rejects_kind_of_other_stage(kind):
    text = WRITE_4_3_JSON.replace('"two_pi"', f'"{kind}"', 1)
    with pytest.raises(PlanError, match=repr(kind)):
        PulsePlan.from_json(text)
    passive = PASSIVE_READ_4_3_JSON.replace('"modulator_set"', '"two_pi"', 1)
    with pytest.raises(PlanError, match="'two_pi'"):
        PulsePlan.from_json(passive)


def test_plan_holds_one_read_only_mask_matrix():
    plan = plan_write(4, 3, 1.0)
    assert plan.masks.dtype == np.int64 and plan.masks.shape == (3, 4)
    assert plan.times == (1.0, 2.0, 3.0)
    assert all(type(t) is float for t in plan.times)
    with pytest.raises(ValueError):
        plan.masks[0, 0] = -1
    # the plan copies the caller's matrix
    rows = np.array([[1, -1, 1, -1]])
    copied = PulsePlan(4, (1.0,), rows, 1.0, "write", 1)
    rows[0, 0] = -1
    assert copied.masks[0].tolist() == [1, -1, 1, -1]
    assert [e.kind for e in plan.events] == ["two_pi"] * 3


@pytest.mark.parametrize("times, masks, match", [
    ((1.0, 2.0), ((1, -1, 1, -1), (1, 0, 1, -1)), "entries must be"),
    ((1.0, 2.0), ((1, -1, 1, -1), (1, -1, 1, 2)), "entries must be"),
    ((1.0, 2.0), ((1, -1, 1), (1, -1, 1)), "shape"),
    ((1.0, 2.0), ((1, -1, 1, -1), (1, -1, 1)), "one matrix"),
    ((1.0,), ((1, -1, 1, -1), (1, -1, 1, -1)), "shape"),
    ((2.0, 2.0), ((1, -1, 1, -1), (1, -1, -1, 1)), "strictly increasing"),
    ((2.0, 1.0), ((1, -1, 1, -1), (1, -1, -1, 1)), "strictly increasing"),
])
def test_plan_rejects_bad_matrix_or_times(times, masks, match):
    with pytest.raises(PlanError, match=match):
        PulsePlan(4, times, masks, 1.0, "write", len(times))


def test_json_rejects_unknown_mask_character():
    text = plan_write(4, 3, 1.0).to_json().replace('"+--+"', '"+x+-"')
    assert '"+x+-"' in text
    with pytest.raises(DomainError, match="'\\+x\\+-'"):
        PulsePlan.from_json(text)


def test_passive_patterns_four_parts():
    w = plan_passive(4, 3, 1.0, stage="write")
    # initial all-off, then: all on; B,D on; A,C on (-1 = on)
    assert [e.mask.to_string() for e in w.events] == \
        ["++++", "----", "+-+-", "-+-+"]
    r_fwd = plan_passive(4, 3, 1.0, stage="read")
    # D on; A,B,C on; B on
    assert [e.mask.to_string() for e in r_fwd.events] == \
        ["+++-", "---+", "+-++"]
    assert all(e.kind == "modulator_set" for e in w.events)


@pytest.mark.parametrize("parts", [2, 4, 8])
def test_passive_equivalent_to_active(parts):
    for bins in range(1, parts):
        assert verify_plan(plan_passive(parts, bins, 1.0, stage="write")).ok
        for reversed_ in (False, True):
            plan = plan_passive(parts, bins, 1.0, stage="read",
                                time_reversed=reversed_)
            report = verify_plan(plan)
            assert report.ok, report.violations


def test_passive_verifier_rejects_wrong_pattern():
    plan = plan_passive(4, 3, 1.0, stage="write")
    masks = plan.masks.copy()
    masks[3] = 1
    bad = PulsePlan(4, plan.times, masks, 1.0, "passive_write", 3)
    assert not verify_plan(bad).ok


def test_passive_verifier_rejects_wrong_read_pattern():
    write = plan_passive(4, 3, 1.0, stage="write")
    plan = plan_passive(4, 3, 1.0, stage="read", time_reversed=True,
                        t0=write.t_end)
    good = verify_plan(plan, write_plan=write)
    assert good.ok and good.emission_order == (3, 2, 1)
    assert set(good.emission_signs) == {-1}
    swapped = plan.masks[[1, 0, 2]]
    bad = PulsePlan(4, plan.times, swapped, 1.0, plan.stage, 3)
    for write_plan in (write, None):
        report = verify_plan(bad, write_plan=write_plan)
        assert not report.ok
        assert any("emission order" in v for v in report.violations)


def test_verifier_rejects_write_plan_of_other_parts():
    for read, write in ((plan_read(8, 3, 1.0), plan_write(4, 3, 1.0)),
                        (plan_passive(4, 3, 1.0, stage="read"),
                         plan_passive(8, 3, 1.0, stage="write"))):
        report = verify_plan(read, write_plan=write)
        assert not report.ok
        assert report.violations == (
            f"read plan has {read.parts} parts, its write plan {write.parts}",)


def test_pi_pair_validation():
    L = 5e-3
    k = 2 * np.pi / 606e-9
    dk = 2 * np.pi * 3 / L  # m = 3
    ok, res = validate_pi_pair(PiPairConfig(
        k1=(0.0, 0.0, k), k2=(0.0, dk, k), sample_length=L, m_index=3))
    # |k1 - k2| is not exactly dk for this geometry; use collinear offset
    ok2, res2 = validate_pi_pair(PiPairConfig(
        k1=(0.0, 0.0, k), k2=(0.0, 0.0, k - dk), sample_length=L, m_index=3))
    assert ok2 and res2 < 1e-9

    bad_m, _ = validate_pi_pair(PiPairConfig(
        k1=(0.0, 0.0, k), k2=(0.0, 0.0, k - dk), sample_length=L, m_index=2))
    assert not bad_m
    zero_m, _ = validate_pi_pair(PiPairConfig(
        k1=(0.0, 0.0, k), k2=(0.0, 0.0, k), sample_length=L, m_index=0))
    assert not zero_m
    off_grid, res3 = validate_pi_pair(PiPairConfig(
        k1=(0.0, 0.0, k), k2=(0.0, 0.0, k - 1.5 * dk), sample_length=L,
        m_index=4))
    assert not off_grid and res3 > 0.1


_EVENT = json.loads(WRITE_4_3_JSON)["events"][0]


@pytest.mark.parametrize("doc, named", [
    ({}, "stage"),
    ([], "document"),
    (dict(json.loads(WRITE_4_3_JSON), events=[
        {k: v for k, v in _EVENT.items() if k != "kind"}]), "events\\[0\\].kind"),
    (dict(json.loads(WRITE_4_3_JSON), stage=5), "stage"),
])
def test_json_rejects_malformed_document(doc, named):
    with pytest.raises(PlanError, match=named):
        PulsePlan.from_json(json.dumps(doc))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_plan_rejects_non_finite_times(bad):
    masks = ((1, -1, 1, -1), (1, -1, -1, 1))
    with pytest.raises(PlanError, match=f"event time {bad} is not finite"):
        PulsePlan(4, (1.0, bad), masks, 1.0, "write", 2)
    # JSON spells them NaN and Infinity, which json.loads accepts
    doc = json.loads(WRITE_4_3_JSON)
    doc["events"][1]["time_s"] = bad
    with pytest.raises(PlanError, match="is not finite"):
        PulsePlan.from_json(json.dumps(doc))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_plan_rejects_non_finite_bin_duration(bad):
    # a read plan's t_end would be nan or inf, and its read grid fail with a
    # GridError about its size instead of naming the field
    plan = plan_write(4, 3, 1.0)
    with pytest.raises(PlanError, match="bin_duration = .* must be finite and positive"):
        PulsePlan(4, plan.times, plan.masks, bad, "write", 3)
    doc = json.loads(WRITE_4_3_JSON)
    doc["bin_duration_s"] = bad
    with pytest.raises(PlanError, match="bin_duration"):
        PulsePlan.from_json(json.dumps(doc))


@pytest.mark.parametrize("bins", ["3", 2.5, True, None, -1, 4])
def test_plan_rejects_bins_out_of_range_or_not_whole(bins):
    # a bins count that is no whole number from 0 to the 3 events, read
    # from JSON or given to the constructor
    doc = json.loads(WRITE_4_3_JSON)
    doc["bins"] = bins
    with pytest.raises(PlanError, match="bins"):
        PulsePlan.from_json(json.dumps(doc))
    plan = plan_write(4, 3, 1.0)
    with pytest.raises(PlanError, match="bins"):
        PulsePlan(4, plan.times, plan.masks, 1.0, "write", bins)
    # a document without bins has none
    del doc["bins"]
    assert PulsePlan.from_json(json.dumps(doc)).bins == 0
