import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from subradiance import (DomainError, Partition, PiPairConfig, PlanError, PlanReport,
                         PulsePlan, SignPattern, apply_sign_pattern, emission_rate,
                         plan_passive, plan_read, plan_write, schedule, sylvester,
                         symmetric_partitioned, validate_pi_pair, verify_plan)


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


def test_plans_follow_the_sylvester_xor_identity():
    # row i times row j is row i ^ j: bin n is stored in row (n - 1) ^ bins,
    # and read slot k leaves the flips' running product on minus the row of
    # the bin it emits
    for parts in (2 ** k for k in range(1, 9)):
        h = sylvester(parts)
        bins_list = (range(1, parts) if parts <= 32
                     else sorted({1, 2, parts // 2, parts - 1}))
        for bins in bins_list:
            for write in (plan_write(parts, bins, 1.0),
                          plan_passive(parts, bins, 1.0, "write")):
                report = verify_plan(write)
                assert np.array_equal(report._rows, h[np.arange(bins) ^ bins])
                for reversed_ in (False, True):
                    emitted = np.arange(bins, 0, -1) if reversed_ else np.arange(1, bins + 1)
                    for read in (plan_read(parts, bins, 1.0, reversed_),
                                 plan_passive(parts, bins, 1.0, "read", reversed_)):
                        flips = schedule._flip_masks(read, report._end)[0]
                        cums = np.multiply.accumulate(flips, axis=0)
                        assert np.array_equal(cums, -report._rows[emitted - 1])


def test_plans_of_1024_parts_peak_below_20_mb():
    # a 1023 x 1024 int64 mask matrix is 8 MB: the planner's matrix and the
    # plan's own copy, with no full Sylvester matrix or running products
    for build in (lambda: plan_write(1024, 1023, 1.0),
                  lambda: plan_read(1024, 1023, 1.0, time_reversed=True, t0=1024.0)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20


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



def test_verifier_names_a_mismatched_write_plan():
    # a read replayed on a plan that is no write, or on a write of other
    # bins, fails on that, not on a read slot or the emission order
    read = plan_read(4, 3, 1.0)
    passive = plan_passive(4, 3, 1.0, stage="read")
    for plan, write, named in (
            (read, read, "write plan has stage 'read', want 'write' or 'passive_write'"),
            (passive, passive, "write plan has stage 'passive_read', want 'write' or "
                               "'passive_write'"),
            (read, plan_write(4, 2, 1.0), "read plan has 3 bins, its write plan 2"),
            (passive, plan_passive(4, 2, 1.0, stage="write"),
             "read plan has 3 bins, its write plan 2")):
        report = verify_plan(plan, write_plan=write)
        assert not report.ok
        assert report.violations == (named,)

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


# ---------------------------------------------------------------------------
# differential gate: the key verifier against the dot-kernel verifier
# ---------------------------------------------------------------------------

def _emission_signs(rows, cums):
    """Sign with which each row radiates under each running product: entry
    (i, k) is sign(r . c) for rows[i] and cums[k] where |r . c| = parts,
    else 0, the row staying subradiant."""
    dots = rows @ cums.T
    return np.where(np.abs(dots) == rows.shape[1], np.sign(dots), 0)


def _dot_kernel_verify(plan, write_plan=None):
    """The verifier as it was on the dot kernel: rows compared by
    |r . c| = parts in bins x events int64 products, read slots walked one
    ``np.flatnonzero`` at a time.  The reference for the key verifier."""
    stage = plan.stage.removeprefix("passive_")
    if stage not in ("write", "read", "read_reversed"):
        return PlanReport(False, (f"unknown plan stage {plan.stage!r}",))
    ones = np.ones(plan.parts, dtype=np.int64)
    write = plan if stage == "write" else (
        write_plan or plan_write(plan.parts, plan.bins, plan.bin_duration))
    if write.parts != plan.parts:
        return PlanReport(False, (f"read plan has {plan.parts} parts, its write "
                                  f"plan {write.parts}",))
    write_masks, write_end = schedule._flip_masks(write, ones)
    rows = np.multiply.accumulate(write_masks[::-1], axis=0)[::-1]
    violations = []

    if stage == "write":
        if len(rows) != plan.bins:
            violations.append(f"{len(rows)} bins stored, plan declares {plan.bins}")
        for n in np.flatnonzero(_emission_signs(rows, ones[None])[:, 0]):
            violations.append(f"bin {n + 1} ends on the superradiant row")
        gram = rows @ rows.T
        for i, j in np.argwhere(np.triu(np.abs(gram) == rows.shape[1], k=1)):
            violations.append(f"bins {i + 1} and {j + 1} share a row")
        if np.any(gram - np.diag(np.diag(gram))):
            violations.append("stored rows are not pairwise orthogonal")
        report = PlanReport(not violations, tuple(violations), _rows=rows, _end=write_end)
        # the report builds its Gram matrix when read: it must be this one
        assert report.orthogonality.dtype == gram.dtype
        assert np.array_equal(report.orthogonality, gram)
        return report

    read_masks, _ = schedule._flip_masks(plan, write_end)
    hits = _emission_signs(rows, np.multiply.accumulate(read_masks, axis=0))
    live = np.ones(len(rows), dtype=bool)
    order, signs = [], []
    for k, slot in enumerate(hits.T, start=1):
        hot = np.flatnonzero(slot * live)
        if len(hot) != 1:
            violations.append(f"read slot {k}: {len(hot)} rows became "
                              "superradiant (want exactly 1)")
            continue
        live[hot] = False
        order.append(int(hot[0]) + 1)
        signs.append(int(slot[hot[0]]))
    expected = (list(range(plan.bins, 0, -1)) if stage == "read_reversed"
                else list(range(1, plan.bins + 1)))
    if order != expected:
        violations.append(f"emission order {order} != expected {expected}")
    return PlanReport(not violations, tuple(violations),
                      emission_order=tuple(order), emission_signs=tuple(signs),
                      _end=write_end)


def _assert_same_report(plan, write_plan=None):
    got, want = verify_plan(plan, write_plan), _dot_kernel_verify(plan, write_plan)
    assert got.ok == want.ok
    assert got.violations == want.violations
    assert got.emission_order == want.emission_order
    assert got.emission_signs == want.emission_signs
    assert got.final_rows == want.final_rows
    for name in ("orthogonality", "_rows", "_end"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    return got


def _planner_cases(parts, bins):
    """Every planner output of one geometry: (plan, write plan) pairs, each
    read on the default write, the active write and the passive write."""
    writes = (plan_write(parts, bins, 1.0), plan_passive(parts, bins, 1.0, "write"))
    for w in writes:
        yield w, None
    for reversed_ in (False, True):
        for read in (plan_read(parts, bins, 1.0, reversed_),
                     plan_passive(parts, bins, 1.0, "read", reversed_)):
            for w in (None, *writes):
                yield read, w


@pytest.mark.parametrize("parts, bins_list", [
    *[(parts, range(1, parts)) for parts in (2, 4, 8, 16, 32)],
    *[(parts, (1, parts // 2, parts - 1)) for parts in (64, 128, 256)]])
def test_key_verifier_matches_dot_kernel_on_planner_outputs(parts, bins_list):
    for bins in bins_list:
        for plan, write in _planner_cases(parts, bins):
            assert _assert_same_report(plan, write).ok


def _with_masks(plan, masks):
    return dataclasses.replace(plan, masks=masks)


@pytest.mark.parametrize("seed", range(4))
def test_key_verifier_matches_dot_kernel_on_corrupt_plans(seed):
    rng = np.random.default_rng(seed)
    for parts in (4, 8, 16, 32, 64):
        bins = int(rng.integers(3, parts))
        reversed_ = bool(rng.integers(2))
        w = plan_write(parts, bins, 1.0)
        pw = plan_passive(parts, bins, 1.0, "write")
        reads = (plan_read(parts, bins, 1.0, reversed_),
                 plan_passive(parts, bins, 1.0, "read", reversed_))
        for plan in (w, pw, *reads):
            events = len(plan.times)
            # random +-1 masks
            noise = rng.choice([-1, 1], size=(events, parts))
            _assert_same_report(_with_masks(plan, noise))
            i, j = rng.choice(events, size=2, replace=False)
            # one mask duplicated, and two masks swapped
            dup = plan.masks.copy()
            dup[j] = dup[i]
            _assert_same_report(_with_masks(plan, dup))
            swap = plan.masks.copy()
            swap[[i, j]] = swap[[j, i]]
            _assert_same_report(_with_masks(plan, swap))
        # three bins on one row (up to sign): two identity-like flips in a row
        three = w.masks.copy()
        n = int(rng.integers(0, bins - 2))
        three[n] = 1
        three[n + 1] = -1
        report = _assert_same_report(_with_masks(w, three))
        assert f"bins {n + 1} and {n + 3} share a row" in report.violations
        for read in reads:
            _assert_same_report(read, _with_masks(w, three))
        # a read replayed on a passive write that lost its opening pattern:
        # it declares the read's bins but stores one row fewer
        short = PulsePlan(parts, pw.times[1:], pw.masks[1:], 1.0, "passive_write", bins)
        for read in reads:
            report = _assert_same_report(read, short)
            assert not report.ok
        # a write one bin short by its own count is named as such
        fewer = plan_write(parts, bins - 1, 1.0)
        for read in reads:
            assert verify_plan(read, fewer).violations == (
                f"read plan has {bins} bins, its write plan {bins - 1}",)
            assert not _dot_kernel_verify(read, fewer).ok


def test_key_verifier_matches_dot_kernel_on_plans_of_no_bins():
    for parts in (2, 4, 16):
        empty = np.zeros((0, parts), dtype=np.int64)
        write = PulsePlan(parts, (), empty, 1.0, "write", 0)
        assert _assert_same_report(write).ok
        for stage in ("read", "read_reversed", "passive_read"):
            assert _assert_same_report(PulsePlan(parts, (), empty, 1.0, stage, 0),
                                       write).ok


# ---------------------------------------------------------------------------
# plans against the state algebra: a parked row is dark, an emitting one is
# superradiant
# ---------------------------------------------------------------------------

def _running_products(plan):
    """The running mask product after each event of ``plan``: the flips'
    cumulative product, or a passive pattern's downstream products
    s_j = prod_{i >= j} m_i, which set it outright."""
    if plan.stage.startswith("passive"):
        return np.multiply.accumulate(plan.masks[:, ::-1], axis=1)[:, ::-1]
    return np.multiply.accumulate(plan.masks, axis=0)


def _plan_pairs(parts, bins):
    """Every planner output of one geometry: the active and the passive
    write, each with its forward and its reversed read."""
    for passive in (False, True):
        write = (plan_passive(parts, bins, 1.0, "write") if passive
                 else plan_write(parts, bins, 1.0))
        for reversed_ in (False, True):
            read = (plan_passive(parts, bins, 1.0, "read", reversed_, write.t_end) if passive
                    else plan_read(parts, bins, 1.0, reversed_, write.t_end))
            yield write, read


@pytest.mark.parametrize("parts", [2, 4, 8, 16, 32, 64])
def test_plans_park_dark_rows_and_read_each_one_superradiant(params, parts):
    # a row's rate for the one-excitation symmetric state over N = 2 parts
    # atoms: N mu/T1 on (minus) all-plus, 0 on a row orthogonal to it; rated
    # once per distinct row
    n_atoms = 2 * parts
    state = symmetric_partitioned(1, Partition.equal(n_atoms, parts))
    unit = params.mu / params.excited_lifetime
    rates = {}

    def rate(row):
        key = row.tobytes()
        if key not in rates:
            pattern = SignPattern(tuple(row.tolist()))
            rates[key] = emission_rate(apply_sign_pattern(state, pattern), params) / unit
        return rates[key]

    for bins in sorted({1, parts // 2, parts - 1}):
        for write, read in _plan_pairs(parts, bins):
            report = verify_plan(write)
            rows = np.array([[1 if c == "+" else -1 for c in r] for r in report.final_rows])
            assert len(rows) == bins
            for row in rows:
                assert abs(rate(row)) < 1e-12 * n_atoms
            # the read's running product, taken from the write's end
            ends = _running_products(read)
            if read.stage.startswith("passive"):
                ends = ends * _running_products(write)[-1]
            order = verify_plan(read, write).emission_order
            parked = set(range(1, bins + 1))
            for slot, (end, emitted) in enumerate(zip(ends, order)):
                for n in parked:
                    got = rate(rows[n - 1] * end)
                    want = n_atoms if n == emitted else 0.0
                    assert abs(got - want) < 1e-12 * n_atoms, (write.stage, read.stage, slot, n)
                parked.remove(emitted)
            assert not parked


def test_one_excitation_rate_under_any_two_masks_is_their_overlap_squared(params):
    # the relation behind the test above: under signs r * c the symmetric
    # one-excitation state over equal parts radiates N (r . c / parts)^2 mu/T1
    rng = np.random.default_rng(9)
    unit = params.mu / params.excited_lifetime
    for parts in (4, 8, 16):
        state = symmetric_partitioned(1, Partition.equal(3 * parts, parts))
        for r, c in rng.choice([-1, 1], size=(20, 2, parts)):
            rate = emission_rate(apply_sign_pattern(state, SignPattern(tuple((r * c).tolist()))),
                                 params) / unit
            assert rate == pytest.approx(3 * parts * (r @ c / parts) ** 2, abs=1e-12 * parts)


@pytest.mark.parametrize("n", [2, 3])
def test_a_parked_state_of_n_excitations_is_not_dark(params, n):
    # a stored row is dark for one excitation, but a symmetric state of n
    # excitations parked in it radiates n(n - 1)/(N - 1) mu/T1
    n_atoms = 40
    state = symmetric_partitioned(n, Partition.equal(n_atoms, 8))
    unit = params.mu / params.excited_lifetime
    for r in verify_plan(plan_write(8, 7, 1.0)).final_rows:
        parked = apply_sign_pattern(state, SignPattern.from_string(r))
        assert emission_rate(parked, params) / unit == pytest.approx(
            n * (n - 1) / (n_atoms - 1), rel=1e-12)
