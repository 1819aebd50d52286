"""Pulse-plan generation and verification.

All plans are pure sign algebra.  A 2 pi pulse acting on a set of spatial
parts is a mask of -1 entries on those parts; a stored excitation's state is
the elementwise product of every mask applied since its capture.  Planners
take Sylvester-Hadamard rows by index (rows from 0, bins from 1), where row
i times row j is row i ^ j: write mask k is row k ^ (k+1), bin n is stored
in row (n-1) ^ bins, and the read slot that emits bin n leaves minus that
row, so exactly that bin returns to (minus) the all-plus superradiant row.
For four parts this is the canonical BD / BC / BD write order.

The passive scheme replaces pulses by bi-phase modulators placed after each
spatial part.  A modulator pattern m (entry -1 = on) acts through its
downstream products s_j = prod_{i >= j} m_i; a pattern is equivalent to the
active scheme's running flip product c when s = c, i.e.
m_j = c_j * c_{j+1} (with c beyond the last part taken as +1).  A passive
plan's running products are row k after write bin k, and minus row n-1 at
the read slot that emits bin n.

A plan is its event times plus one (events x parts) matrix of +-1 masks:
flips for active stages, absolute modulator patterns for passive ones.
Planners build that matrix, and the verifier and ``storage`` read it
directly; ``PulsePlan.events`` formats it as ``PulseEvent`` views for JSON
and for the mask-by-mask reference model.

The verifier replays any plan's running products with
``np.multiply.accumulate``.  A row parked under running product r radiates
under running product c exactly when r = +-c, and then with the sign
r[0] c[0].  ``verify_plan`` checks a write on its rows' Gram matrix, kept by
no report, and replays a read on its write's report (``_verify_read``),
matching slots to rows by key (the int8 bytes of a row times its first
entry, shared by r and -r) in O(events x parts): a store and recall replays
each plan once, and ``storage`` takes every read slot's bin and sign from
the read report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, PlanError
from .states import SignPattern

__all__ = [
    "PulseEvent",
    "PulsePlan",
    "PiPairConfig",
    "PlanReport",
    "sylvester",
    "plan_write",
    "plan_read",
    "plan_passive",
    "validate_pi_pair",
    "verify_plan",
]


def _sylvester_rows(rows, cols) -> np.ndarray:
    """Sylvester-Hadamard entries (-1)^popcount(i & j), int64, for each row
    index i in ``rows`` and column index j in ``cols``.  Row i times row j is
    row i ^ j, so a product of rows is one row index."""
    return np.where(np.bitwise_count(rows[:, None] & cols) & 1, -1, 1)


def sylvester(order: int) -> np.ndarray:
    """Sylvester-Hadamard matrix: entry (i, j) is (-1)^popcount(i & j)."""
    if order < 2 or order & (order - 1):
        raise DomainError(f"order {order} is not a power of two >= 2")
    i = np.arange(order, dtype=np.int64)
    return _sylvester_rows(i, i)


@dataclass(frozen=True)
class PulseEvent:
    """One event of a plan, as read through ``PulsePlan.events``."""

    time: float
    mask: SignPattern
    kind: str  # two_pi | modulator_set


def _event_kind(stage: str) -> str:
    return "modulator_set" if stage.startswith("passive") else "two_pi"


@dataclass(frozen=True, eq=False)
class PulsePlan:
    """Ordered pulse schedule over a fixed number of spatial parts.

    Event k fires at ``times[k]`` with the +-1 mask ``masks[k]``, a
    read-only int64 (events x parts) matrix.  ``stage`` records what the
    plan is for ("write", "read", "read_reversed", "passive_write",
    "passive_read", "passive_read_reversed") so the checker knows which
    postconditions apply.
    """

    parts: int
    times: tuple[float, ...]
    masks: np.ndarray
    bin_duration: float
    stage: str = "write"
    bins: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.bin_duration) and self.bin_duration > 0):
            raise PlanError(f"bin_duration = {self.bin_duration!r} must be finite and "
                            "positive")
        times = tuple(self.times)
        for t in times:
            if not math.isfinite(t):
                raise PlanError(f"event time {t} is not finite")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise PlanError("event times must be strictly increasing")
        if (isinstance(self.bins, bool) or not isinstance(self.bins, int)
                or not 0 <= self.bins <= len(times)):
            raise PlanError(f"bins = {self.bins!r} must be a whole number from 0 to "
                            f"the number of events, {len(times)}")
        try:
            masks = np.array(self.masks)  # a copy, owned by the plan
        except ValueError as exc:
            raise PlanError(f"masks are not one matrix: {exc}") from exc
        if not times and not masks.size:
            masks = masks.reshape(0, self.parts)
        if masks.shape != (len(times), self.parts):
            raise PlanError(f"masks have shape {masks.shape}, want one mask of "
                            f"{self.parts} parts per event ({len(times)})")
        if not np.all((masks == 1) | (masks == -1)):
            raise PlanError("mask entries must be +1 or -1")
        # int64 is the public dtype, pinned by test_plan_holds_one_read_only_mask_matrix
        masks = masks.astype(np.int64, copy=False)
        masks.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "masks", masks)

    def __eq__(self, other):
        if not isinstance(other, PulsePlan):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def events(self) -> tuple[PulseEvent, ...]:
        """The plan's events, built on demand from ``times`` and ``masks``."""
        kind = _event_kind(self.stage)
        return tuple(PulseEvent(t, SignPattern(tuple(m)), kind)
                     for t, m in zip(self.times, self.masks.tolist()))

    @property
    def t_end(self) -> float:
        """End of the last bin covered by the plan."""
        if not self.times:
            return 0.0
        return self.times[-1] + self.bin_duration

    def to_json(self) -> str:
        doc = {
            "parts": self.parts,
            "bins": self.bins,
            "stage": self.stage,
            "bin_duration_s": self.bin_duration,
            "events": [
                {"time_s": e.time, "kind": e.kind, "mask": e.mask.to_string()}
                for e in self.events
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PulsePlan":
        doc = json.loads(text)
        stage, events = _json_field(doc, "stage", str), _json_field(doc, "events", list)
        kind = _event_kind(stage)
        times, masks = [], []
        for i, e in enumerate(events):
            where = f"events[{i}]"
            if _json_field(e, "kind", str, where) != kind:
                raise PlanError(f"event kind {e['kind']!r} does not match stage "
                                f"{stage!r} (want {kind!r})")
            times.append(_json_field(e, "time_s", (int, float), where))
            masks.append(SignPattern.from_string(_json_field(e, "mask", str, where)).signs)
        return cls(_json_field(doc, "parts", int), times, masks,
                   _json_field(doc, "bin_duration_s", (int, float)), stage,
                   _json_field(doc, "bins", int) if "bins" in doc else 0)


def _json_field(doc, key: str, types, where: str = ""):
    """Field ``key`` of a plan document, or of its event ``where``, of one of
    ``types``; PlanError names a missing or mistyped field."""
    if not isinstance(doc, dict):
        raise PlanError(f"plan {where or 'document'} must be a JSON object, got {doc!r}")
    name = f"{where}.{key}" if where else key
    if key not in doc:
        raise PlanError(f"plan field {name} is missing")
    if isinstance(doc[key], bool) or not isinstance(doc[key], types):
        raise PlanError(f"plan field {name} has the wrong type: {doc[key]!r}")
    return doc[key]


def _check_geometry(parts: int, bins: int) -> None:
    if parts < 2 or parts & (parts - 1):
        raise DomainError(f"parts = {parts} must be a power of two >= 2")
    if not 1 <= bins <= parts - 1:
        raise PlanError(f"bins = {bins} must be between 1 and parts - 1 = {parts - 1}")


def _flip_masks(plan: PulsePlan,
                start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A plan's flip masks, (masks x parts), and the running product after them.

    Active masks are flips already and continue from ``start``.  A passive
    pattern sets the running product outright to its downstream products,
    so its flip mask is the product of two consecutive downstream-product
    vectors.  A passive read's first flip is taken against ``start``, the
    product its write ended on; a passive write's opening pattern closes no
    bin and only sets the product its first bin is captured under.
    """
    if not plan.stage.startswith("passive"):
        return plan.masks, start * plan.masks.prod(axis=0)
    down = np.multiply.accumulate(plan.masks[:, ::-1], axis=1)[:, ::-1]
    if plan.stage == "passive_write" and len(down):
        start, down = down[0], down[1:]
    flips = down * np.vstack([start, down[:-1]])
    return flips, (down[-1] if len(down) else start)


def plan_write(parts: int, bins: int, bin_duration: float,
               t0: float = 0.0) -> PulsePlan:
    """Write schedule: one 2 pi mask at the end of each capture bin.

    Mask k (from 0) is row k ^ (k+1).  Bin n, captured on the all-plus
    row 0, ends in the product of masks n-1 .. bins-1, row (n-1) ^ bins:
    pairwise distinct, so orthogonal, and never row 0.  For parts=4,
    bins=3 this is the canonical BD, BC, BD sequence.
    """
    _check_geometry(parts, bins)
    k = np.arange(bins)
    times = [t0 + n * bin_duration for n in range(1, bins + 1)]
    return PulsePlan(parts, times, _sylvester_rows(k ^ (k + 1), np.arange(parts)),
                     bin_duration, "write", bins)


def plan_read(parts: int, bins: int, bin_duration: float,
              time_reversed: bool = False, t0: float = 0.0) -> PulsePlan:
    """Read schedule: mask k fires at the start of read slot k.

    Slot k emits bin n_k (k forward, bins+1-k reversed), stored in row
    (n_k-1) ^ bins, and leaves minus that row, which matches the emitted
    phase to the input's.  So mask 1 is minus row (n_1-1) ^ bins and mask
    k > 1 is row (n_k-1) ^ (n_{k-1}-1).  For parts=4 this gives the
    canonical AD, BD, BC (forward) and AC, BC, BD (reversed) sequences.
    """
    _check_geometry(parts, bins)
    emitted = np.arange(bins - 1, -1, -1) if time_reversed else np.arange(bins)
    masks = _sylvester_rows(emitted ^ np.append(bins, emitted[:-1]), np.arange(parts))
    masks[0] *= -1
    times = [t0 + k * bin_duration for k in range(bins)]
    stage = "read_reversed" if time_reversed else "read"
    return PulsePlan(parts, times, masks, bin_duration, stage, bins)


def plan_passive(parts: int, bins: int, bin_duration: float,
                 stage: str = "write", time_reversed: bool = False,
                 t0: float = 0.0) -> PulsePlan:
    """Bi-phase modulator schedule equivalent to the active one.

    Events carry the absolute on/off pattern (-1 = modulator on), not a
    flip.  Write: an all-off event at t0, then running product row k once
    bin k is written.  Read: minus row n-1 at the slot that emits bin n (the
    write's total, row bins, times the active read's minus row (n-1) ^ bins),
    so the sequence continues seamlessly after a passive write.  The pattern
    m_j = c_j c_{j+1} of row i is row i at the column indices j ^ (j+1),
    column ``parts`` being +1; that of minus row i differs in its last entry.
    """
    if stage not in ("write", "read"):
        raise PlanError("stage must be 'write' or 'read'")
    _check_geometry(parts, bins)
    if stage == "write":
        times = [t0] + [t0 + n * bin_duration for n in range(1, bins + 1)]
        rows, base_stage = np.arange(bins + 1), "passive_write"
    else:
        times = [t0 + k * bin_duration for k in range(bins)]
        rows = np.arange(bins - 1, -1, -1) if time_reversed else np.arange(bins)
        base_stage = "passive_read_reversed" if time_reversed else "passive_read"
    j = np.arange(parts)
    patterns = _sylvester_rows(rows, j ^ (j + 1))
    if stage == "read":
        patterns[:, -1] *= -1
    return PulsePlan(parts, times, patterns, bin_duration, base_stage, bins)


@dataclass(frozen=True)
class PiPairConfig:
    """Two non-collinear pi pulses replacing a single 2 pi pulse."""

    k1: tuple[float, float, float]
    k2: tuple[float, float, float]
    sample_length: float
    m_index: int


def validate_pi_pair(cfg: PiPairConfig) -> tuple[bool, float]:
    """Check |k1 - k2| = 2 pi m / L_z and the smallness |k1 - k2| << w0/c.

    Returns (valid, m_residual) where m_residual is the distance of
    |k1 - k2| L_z / 2 pi from the nearest integer (in units of one).
    m = 0 leaves the superradiant mode unchanged and is flagged invalid.
    """
    k1 = np.asarray(cfg.k1, dtype=float)
    k2 = np.asarray(cfg.k2, dtype=float)
    dk = float(np.linalg.norm(k1 - k2))
    m_real = dk * cfg.sample_length / (2.0 * math.pi)
    m_near = round(m_real)
    residual = abs(m_real - m_near)
    k_mag = max(float(np.linalg.norm(k1)), float(np.linalg.norm(k2)))
    on_grid = residual <= 1e-9 * max(m_real, 1.0)
    small = k_mag == 0 or dk < 1e-2 * k_mag
    matches = m_near == cfg.m_index
    valid = on_grid and small and matches and m_near != 0
    return valid, residual


@dataclass(frozen=True)
class PlanReport:
    """Outcome of the symbolic sign-tracking checker."""

    ok: bool
    violations: tuple[str, ...]
    emission_order: tuple[int, ...] = ()
    emission_signs: tuple[int, ...] = ()
    # +-1 rows a write plan stores its bins in, one per bin
    _rows: np.ndarray | None = field(default=None, repr=False, compare=False)
    # running mask product the write ends on (and a read replays from)
    _end: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def final_rows(self) -> tuple[str, ...]:
        """The stored rows as "+"/"-" strings, formatted when read."""
        if self._rows is None:
            return ()
        return tuple("".join(r) for r in np.where(self._rows > 0, "+", "-"))

    @property
    def orthogonality(self) -> np.ndarray | None:
        """The stored rows' int64 Gram matrix, built when read."""
        rows = None if self._rows is None else self._rows.astype(float)
        return None if rows is None else (rows @ rows.T).astype(np.int64)


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """One key per +-1 row, equal for r and -r: the int8 bytes of the row
    times its first entry.  Two +-1 rows r and c have |r . c| = parts exactly
    when r = +-c, so they then share a key, and r = r[0] c[0] c."""
    parts = rows.shape[1]
    buf = (rows.astype(np.int8) * rows[:, :1].astype(np.int8)).tobytes()
    return [buf[i * parts:(i + 1) * parts] for i in range(len(rows))]


def verify_plan(plan: PulsePlan, write_plan: PulsePlan | None = None) -> PlanReport:
    """Replay a plan's sign algebra and check its postconditions.

    Passive patterns are first turned into flip masks, so both schemes go
    through the same replay.  Write plans: every stored row must be
    distinct, pairwise orthogonal and not (minus) all-plus.  Read plans:
    each mask must turn exactly one not-yet-emitted stored row into (minus)
    all-plus while the rest stay subradiant; the emission order must be the
    identity or the reversal.  A read plan is replayed on the report of
    ``write_plan``, by default the active write plan of the same geometry,
    which must be a write of the read's parts and bins.
    """
    stage = plan.stage.removeprefix("passive_")
    if stage not in ("write", "read", "read_reversed"):
        return PlanReport(False, (f"unknown plan stage {plan.stage!r}",))
    if stage == "write":
        return _verify_write(plan)
    write = write_plan or plan_write(plan.parts, plan.bins, plan.bin_duration)
    return _verify_read(plan, write, _verify_write(write))


def _verify_write(plan: PulsePlan) -> PlanReport:
    write_masks, write_end = _flip_masks(plan, np.ones(plan.parts, dtype=np.int64))
    # bin n is captured on the all-plus row just before mask n fires and
    # ends in the product of masks n..bins: the reversed running product
    rows = np.multiply.accumulate(write_masks[::-1], axis=0)[::-1]
    rows_f = rows.astype(np.float32)
    gram = rows_f @ rows_f.T  # exact: each entry sums parts terms of +-1
    violations: list[str] = []
    if len(rows) != plan.bins:
        violations.append(f"{len(rows)} bins stored, plan declares {plan.bins}")
    violations += [f"bin {n + 1} ends on the superradiant row"
                   for n in np.flatnonzero(np.abs(rows.sum(axis=1)) == plan.parts)]
    # the diagonal holds parts; off it, bins sharing a row have |r . c| = parts
    if np.count_nonzero(gram) != len(rows):
        violations += [f"bins {i + 1} and {j + 1} share a row"
                       for i, j in np.argwhere(np.triu(np.abs(gram) == plan.parts, k=1))]
        violations.append("stored rows are not pairwise orthogonal")
    return PlanReport(not violations, tuple(violations), _rows=rows, _end=write_end)


def _wrong_stage(plan: PulsePlan, want: str) -> str | None:
    """Why ``plan`` is not a ``want`` ('write' or 'read') plan, active or
    passive, or None when it is one."""
    stage = plan.stage.removeprefix("passive_")
    if want == "write" and stage != "write":
        return f"write plan has stage {plan.stage!r}, want 'write' or 'passive_write'"
    if want == "read" and stage not in ("read", "read_reversed"):
        return (f"read plan has stage {plan.stage!r}, want 'read', 'read_reversed' "
                "or a passive form of them")
    return None


def _verify_read(plan: PulsePlan, write: PulsePlan, report: PlanReport) -> PlanReport:
    """The read half of ``verify_plan``, on the ``report`` of ``write``."""
    if wrong := _wrong_stage(plan, "read") or _wrong_stage(write, "write"):
        return PlanReport(False, (wrong,))
    if write.parts != plan.parts:
        return PlanReport(False, (f"read plan has {plan.parts} parts, its write "
                                  f"plan {write.parts}",))
    if write.bins != plan.bins:
        return PlanReport(False, (f"read plan has {plan.bins} bins, its write "
                                  f"plan {write.bins}",))
    # the bins stored under each row key, in bin order
    bins_of: dict[bytes, list[int]] = {}
    for n, key in enumerate(_row_keys(report._rows)):
        bins_of.setdefault(key, []).append(n)
    cums = np.multiply.accumulate(_flip_masks(plan, report._end)[0], axis=0)
    row_signs, cum_signs = report._rows[:, 0].tolist(), cums[:, 0].tolist()
    violations: list[str] = []
    order: list[int] = []
    signs: list[int] = []
    for k, (key, c0) in enumerate(zip(_row_keys(cums), cum_signs), start=1):
        # the live bins on this key: each emitted bin is popped from its list
        hot = bins_of.get(key, ())
        if len(hot) != 1:
            violations.append(f"read slot {k}: {len(hot)} rows became "
                              "superradiant (want exactly 1)")
            continue
        n = hot.pop()
        order.append(n + 1)
        signs.append(row_signs[n] * c0)
    expected = (list(range(plan.bins, 0, -1)) if plan.stage.endswith("read_reversed")
                else list(range(1, plan.bins + 1)))
    if order != expected:
        violations.append(f"emission order {order} != expected {expected}")
    return PlanReport(not violations, tuple(violations),
                      emission_order=tuple(order), emission_signs=tuple(signs),
                      _end=report._end)
